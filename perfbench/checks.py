"""Output checks computed apart from uncmap.

The checks read the program's files with plain ``json``, or take the
objects it returned, and recompute what they should contain with numpy or
test a property the method must have. Nothing here imports uncmap. Each
check returns failure messages (per CLI stage for ``check_reports``); no
message means a pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

B_FLOOR = 1e-6
LEVELS = (0.5, 0.9)
COVERAGE_TOL = 0.02      # about 8 standard errors at the README dataset size
CALIB_COVERAGE_TOL = 0.03
ECE_MAX = 0.03
MISS_THRESHOLD = 2.0
REL_TOL = 1e-9


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _read(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def resample(vertices: np.ndarray, closed: bool, count: int) -> np.ndarray:
    """Points equally spaced by arclength: open chains keep both ends, closed
    loops start at the first vertex and go once around."""
    pts = np.asarray(vertices, dtype=float)
    if closed:
        pts = np.vstack([pts, pts[:1]])
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))])
    step = cum[-1] / count if closed else cum[-1] / (count - 1)
    s = np.arange(count) * step
    return np.column_stack([np.interp(s, cum, pts[:, 0]), np.interp(s, cum, pts[:, 1])])


def _points(element: dict) -> np.ndarray:
    return np.array([v["mu"] for v in element["vertices"]], dtype=float)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def check_dataset(root: Path, n_scenes: int, n_agents: int, modes: int,
                  resample_count: int) -> list[str]:
    """Counts, scale floor and interval coverage of a generated dataset."""
    errors = []
    manifest = _read(root / "manifest.json")
    scenes = manifest["scenes"]
    if len(scenes) != n_scenes:
        errors.append(f"{len(scenes)} scenes, expected {n_scenes}")
    resid, half_unit = [], []
    for scene in scenes:
        sid = scene["id"]
        gt = _read(root / scene["gt_map"])["elements"]
        obs = _read(root / scene["observed_map"])["elements"]
        traj = _read(root / scene["trajectories"])["agents"]
        if [e["class"] for e in gt] != [e["class"] for e in obs]:
            errors.append(f"{sid}: observed elements differ from ground truth")
            continue
        for g, o in zip(gt, obs):
            if len(o["vertices"]) != resample_count:
                errors.append(f"{sid}: observed element has {len(o['vertices'])} vertices")
                continue
            mu = _points(o)
            b = np.array([v["b"] for v in o["vertices"]], dtype=float)
            if b.min() < B_FLOOR:
                errors.append(f"{sid}: scale {b.min()} below the floor")
            truth = resample(_points(g), g["closed"], resample_count)
            resid.append(np.abs(truth - mu).ravel())
            half_unit.append(b.ravel())
        # The blind predictor gives one mode per nearby centerline, up to K,
        # and plain constant velocity when the map has none.
        n_centerlines = sum(e["class"] == "lane_centerline" for e in obs)
        want_modes = min(modes, n_centerlines) if n_centerlines else 1
        if len(traj) != n_agents:
            errors.append(f"{sid}: {len(traj)} agents, expected {n_agents}")
        for agent in traj:
            if len(agent["history"]) != 20 or len(agent["future_gt"]) != 30:
                errors.append(f"{sid}: history/future lengths "
                              f"{len(agent['history'])}/{len(agent['future_gt'])}")
            if len(agent["modes"]) != want_modes:
                errors.append(f"{sid}: {len(agent['modes'])} modes, expected {want_modes}")
            if any(len(m) != 30 for m in agent["modes"]):
                errors.append(f"{sid}: a mode does not span the future")
    if resid:
        r = np.concatenate(resid)
        b = np.concatenate(half_unit)
        for level in LEVELS:
            cov = float(np.mean(r <= -b * math.log1p(-level)))
            if abs(cov - level) > COVERAGE_TOL:
                errors.append(f"coverage {cov:.4f} at level {level}")
    return errors


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _chamfer(a: np.ndarray, b: np.ndarray) -> float:
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1))
    return float(d.min(axis=1).mean() + d.min(axis=0).mean())


def _ap(labels: list[bool], n_gt: int):
    if n_gt == 0:
        return 0.0 if labels else None
    if not labels:
        return 0.0
    tp = np.cumsum(labels)
    recall = tp / n_gt
    precision = tp / np.arange(1, len(labels) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    return float(np.sum(np.diff(np.concatenate([[0.0], recall])) * envelope))


def _expected_map_eval(scenes: list[dict], classes: list[str], thresholds: list[float]):
    """AP per class and threshold with a plain Chamfer and the greedy rule:
    predictions pooled over scenes in confidence order (ties keep file
    order), each matched to the nearest unmatched ground truth of its scene,
    a true positive when that distance is strictly below the threshold.

    ``scenes[i][cls]`` is (prediction point sets, confidences, ground-truth
    point sets), every set resampled to the same vertex count.
    """
    ap, n_pred, n_gt = [], [], []
    for cls in classes:
        pooled, mats, gts_per_scene = [], [], []
        for si, scene in enumerate(scenes):
            preds, conf, gts = scene[cls]
            mats.append(np.array([[_chamfer(p, g) for g in gts] for p in preds])
                        .reshape(len(preds), len(gts)))
            gts_per_scene.append(len(gts))
            pooled += [(c, si, pi) for pi, c in enumerate(conf)]
        order = sorted(range(len(pooled)), key=lambda k: -pooled[k][0])
        n_pred.append(len(pooled))
        n_gt.append(sum(gts_per_scene))
        row = []
        for thr in thresholds:
            free = [list(range(n)) for n in gts_per_scene]
            labels = []
            for k in order:
                _, si, pi = pooled[k]
                if not free[si]:
                    labels.append(False)
                    continue
                dists = [mats[si][pi, j] for j in free[si]]
                j = int(np.argmin(dists))
                hit = dists[j] < thr
                labels.append(bool(hit))
                if hit:
                    free[si].pop(j)
            row.append(_ap(labels, n_gt[-1]))
        ap.append(row)
    return ap, n_pred, n_gt


def check_reports(dataset: Path, reports: Path, resample_count: int = 20) -> dict[str, list[str]]:
    """Failures per CLI stage for one evaluate repetition's report tree.

    Scene files are read one at a time and reduced to arrays, so the
    checks add little to the process's peak memory.
    """
    map_rep = _read(reports / "eval_map.json")["report"]
    classes = map_rep["classes"]
    edges = _read(reports / "uncertainty_bins.json")["groups"]["all"]["bin_edges"]

    def fixed(element: dict) -> np.ndarray:
        pts = _points(element)
        return pts if len(pts) == resample_count else resample(pts, element["closed"],
                                                               resample_count)

    scenes, ades, fdes = [], [], []
    in_range = 0
    for scene in _read(dataset / "manifest.json")["scenes"]:
        gt = _read(dataset / scene["gt_map"])["elements"]
        obs = _read(dataset / scene["observed_map"])["elements"]
        scenes.append({cls: ([fixed(e) for e in obs if e["class"] == cls],
                             [e["confidence"] for e in obs if e["class"] == cls],
                             [fixed(e) for e in gt if e["class"] == cls])
                       for cls in classes})
        # Observed maps keep the ego at the origin.
        for e in obs:
            dist = np.linalg.norm(_points(e), axis=1)
            in_range += int(np.sum((dist >= edges[0]) & (dist <= edges[-1])))
        for agent in _read(dataset / scene["trajectories"])["agents"]:
            modes = np.array(agent["modes"], dtype=float)
            fut = np.array(agent["future_gt"], dtype=float)
            err = np.linalg.norm(modes - fut[None], axis=-1)
            best = int(np.argmin(err[:, -1]))
            ades.append(err[best].mean())
            fdes.append(err[best, -1])
    errors: dict[str, list[str]] = {}

    ap, n_pred, n_gt = _expected_map_eval(scenes, classes, map_rep["thresholds"])
    errs = []
    if map_rep["n_pred"] != n_pred or map_rep["n_gt"] != n_gt:
        errs.append(f"n_pred/n_gt {map_rep['n_pred']}/{map_rep['n_gt']}, "
                    f"expected {n_pred}/{n_gt}")
    for ci, cls in enumerate(classes):
        for ti, thr in enumerate(map_rep["thresholds"]):
            got, want = map_rep["ap"][ci][ti], ap[ci][ti]
            if (got is None) != (want is None) or (want is not None and not _close(got, want)):
                errs.append(f"AP {cls}@{thr}: {got}, expected {want}")
    defined = [v for row in ap for v in row if v is not None]
    if not _close(map_rep["mAP"], float(np.mean(defined))):
        errs.append(f"mAP {map_rep['mAP']}, expected {np.mean(defined)}")
    errors["eval-map"] = errs

    fdes = np.array(fdes)
    want = {"minADE": float(np.mean(ades)), "minFDE": float(fdes.mean()),
            "MR": float(np.mean(fdes > MISS_THRESHOLD)), "n_agents": len(fdes)}
    rep = _read(reports / "eval_pred.json")["report"]
    errors["eval-pred"] = [f"{k} {rep[k]}, expected {v}" for k, v in want.items()
                           if not _close(rep[k], v)]

    cal = _read(reports / "calibration.json")
    errs = [f"coverage {c:.4f} at level {lv}" for lv, c in
            zip(cal["coverage"]["nominal_levels"], cal["coverage"]["empirical_coverage"])
            if abs(c - lv) > CALIB_COVERAGE_TOL]
    if cal["reliability"]["ece"] > ECE_MAX:
        errs.append(f"ECE {cal['reliability']['ece']:.4f}")
    errors["calibrate"] = errs

    # Every observed vertex within the bin edges lands in exactly one bin of
    # the "all" group.
    binned = sum(_read(reports / "uncertainty_bins.json")["groups"]["all"]["count"])
    errors["analyze-uncertainty"] = ([] if binned == in_range else
                                     [f"{binned} binned vertices, expected {in_range}"])

    # The dataset's stored modes come from the blind predictor with the same
    # settings, so its re-run must reproduce eval-pred exactly.
    cmp = _read(reports / "compare_predictors.json")
    errors["compare-predictors"] = [f"blind {k} {cmp['blind'][k]}, expected {v}"
                                    for k, v in want.items() if not _close(cmp["blind"][k], v)]
    return errors


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def mean_nll(x: np.ndarray, mu: float, b: float) -> float:
    return float(math.log(2.0 * b) + np.abs(x - mu).mean() / b)


def check_fitted_map(fitted, stacks: list[np.ndarray], classes: list) -> list[str]:
    """``stacks`` holds one (N, V, 2) realisation array per template element."""
    errors = []
    if len(fitted.elements) != len(stacks):
        return [f"{len(fitted.elements)} fitted elements, expected {len(stacks)}"]
    for el, stack, cls in zip(fitted.elements, stacks, classes):
        k = (len(stack) - 1) // 2
        med = np.partition(stack, k, axis=0)[k]
        scale = np.maximum(np.abs(stack - med).mean(axis=0), B_FLOOR)
        if not (np.array_equal(el.mu, med) and np.array_equal(el.b, scale)):
            errors.append("fit_map differs from the lower median / floored MAD")
        if el.element_class != cls:
            errors.append("fit_map changed an element class")
    return errors


def check_series_fits(x: np.ndarray, gradient, closed) -> list[str]:
    errors = []
    k = (len(x) - 1) // 2
    med = float(np.partition(x, k)[k])
    scale = max(float(np.abs(x - med).mean()), B_FLOOR)
    if closed.mu_hat != med or closed.b_hat != scale:
        errors.append(f"fit_closed_form ({closed.mu_hat}, {closed.b_hat}) is not ({med}, {scale})")
    if not gradient.converged:
        errors.append(f"fit_gradient did not converge after {gradient.iterations} iterations")
    gap = mean_nll(x, gradient.mu_hat, gradient.b_hat) - mean_nll(x, med, scale)
    if gap > 1e-6:
        errors.append(f"fit_gradient mean NLL {gap:.3g} above the closed-form minimum")
    return errors
