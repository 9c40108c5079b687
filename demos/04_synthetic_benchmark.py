"""Walkthrough: the end-to-end synthetic benchmark.

Generates a deterministic dataset (occlusions, distance-dependent noise,
day/night conditions), writes it to disk with its manifest, evaluates the
observed maps, checks calibration, summarizes uncertainty against distance,
and compares the uncertainty-blind predictor against the uncertainty-
weighted one. Everything here also runs through the ``uncmap`` CLI; this
script uses the library API directly and mirrors the CLI's outputs.

Run:  python demos/04_synthetic_benchmark.py   (writes ./demo_output/)
"""

from pathlib import Path

import numpy as np

from uncmap import io as uio
from uncmap.calibration import coverage_arrays, match_vertex_pairs
from uncmap.map_eval import evaluate_scenes
from uncmap.pred_eval import TrajectorySet, binned_ci, evaluate_trajectories
from uncmap.probmap import mean_map
from uncmap.synth import (
    DatasetConfig,
    NoiseModel,
    build_dataset,
    predict_blind,
    predict_weighted,
)

out = Path("demo_output")
cfg = DatasetConfig(
    n_scenes=80,
    seed=42,
    n_agents=2,
    noise=NoiseModel(base_b=0.15, distance_coeff=0.01, occlusion_multiplier=6.0),
    predictor="none",
)
dataset = build_dataset(cfg)
manifest_path = uio.write_dataset(dataset.records, cfg, out / "dataset")
print(f"wrote {len(dataset.records)} scenes to {manifest_path}")

# --- how good are the observed maps? ----------------------------------------
# Observed and ground-truth maps are both VectorMaps; only the observed
# maps' elements carry scales b and class logits.
pairs = [(r.observed_map, r.gt_map) for r in dataset.records]
map_report = evaluate_scenes(pairs)
print(f"\nmap estimation: mAP = {map_report.map_score:.4f} at thresholds "
      f"{map_report.thresholds}")

# --- is the emitted uncertainty honest? --------------------------------------
matched = [match_vertex_pairs(r.observed_map, r.gt_map) for r in dataset.records]
mu = np.vstack([m.mu for m in matched])
b = np.vstack([m.b for m in matched])
gt = np.vstack([m.gt for m in matched])
cov = coverage_arrays(mu, b, gt, [0.5, 0.9])
print(f"interval coverage over {cov.n} coordinates: "
      f"{cov.empirical_coverage[0]:.3f} @ 0.5, {cov.empirical_coverage[1]:.3f} @ 0.9")

# --- uncertainty vs distance --------------------------------------------------
dist, scale = [], []
for rec in dataset.records:
    ego = rec.observed_map.ego_pose.position
    for el in rec.observed_map.elements:
        dist.extend(np.hypot(el.mu[:, 0] - ego[0], el.mu[:, 1] - ego[1]))
        scale.extend(el.b.mean(axis=1))
stat = binned_ci(dist, scale, np.arange(0, 40, 5))
rows = []
print("\nemitted scale vs distance to ego (95% CI):")
for i in range(len(stat.count)):
    if stat.count[i]:
        print(f"  {stat.bin_edges[i]:4.0f}-{stat.bin_edges[i + 1]:.0f} m: "
              f"b = {stat.mean[i]:.3f} +/- {stat.ci95_half_width[i]:.3f} "
              f"(n={stat.count[i]})")
    rows.append([stat.bin_edges[i], stat.bin_edges[i + 1], stat.mean[i],
                 stat.ci95_half_width[i], stat.count[i]])
uio.write_csv(out / "uncertainty_vs_distance.csv",
              ["bin_lo", "bin_hi", "mean_b", "ci95_half_width", "count"], rows)

# --- does listening to uncertainty help prediction? ---------------------------
blind_sets, weighted_sets = [], []
for rec in dataset.records:
    plain = mean_map(rec.observed_map)
    for agent in rec.agents:
        blind_sets.append(TrajectorySet(
            predict_blind(agent.history, plain, 6), agent.future))
        weighted_sets.append(TrajectorySet(
            predict_weighted(agent.history, rec.observed_map, 6), agent.future))
rb = evaluate_trajectories(blind_sets)
rw = evaluate_trajectories(weighted_sets)
print(f"\npredictors over {rb.n_agents} agents:")
print(f"  {'':12s}{'minADE':>8s}{'minFDE':>8s}{'MR':>8s}")
print(f"  {'blind':12s}{rb.minADE:8.3f}{rb.minFDE:8.3f}{rb.MR:8.3f}")
print(f"  {'weighted':12s}{rw.minADE:8.3f}{rw.minFDE:8.3f}{rw.MR:8.3f}")
for name, a, c in (("minADE", rb.minADE, rw.minADE),
                   ("minFDE", rb.minFDE, rw.minFDE), ("MR", rb.MR, rw.MR)):
    if a > 0:
        print(f"  {name}: {100 * (c - a) / a:+.1f}%")
print(f"\nartifacts in {out}/: dataset + manifest, uncertainty CSV")
