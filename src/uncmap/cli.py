"""Command-line pipeline: generate datasets, evaluate, calibrate, compare.

Exit codes: 0 success, 2 usage or config error (an unwritable ``--out``
too), 3 data error. Every report embeds a reproducibility block (config
hash, seeds, tool version); the hash covers the command and every flag the
stage parsed, but not ``--manifest`` or ``--out``. All randomness flows from
seeds recorded in the manifest, so rerunning a command on the same inputs
reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__, calibration, io, map_eval, pred_eval, synth


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, without the usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _flag(parse, noun: str, *rules):
    """An argparse type: ``parse`` the text, else "expected ``noun``"; then "must be
    ``rule``" at the first ``(valid, rule)`` that rejects the value (echoed as typed,
    an integer by value)."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        for valid, rule in rules:
            if not valid(value):
                shown = value if isinstance(value, int) else repr(text)
                raise argparse.ArgumentTypeError(f"must be {rule}, got {shown}")
        return value
    return convert


def _int_at_least(lo: int, hi: float = math.inf):
    return _flag(int, "an integer", (lambda v: v >= lo, f">= {lo}"),
                 (lambda v: v <= hi, f"<= {hi}"))


def _float_list(rule: str, valid):
    """Comma-separated finite floats, accepted when ``valid(values)`` holds."""
    return _flag(lambda text: tuple(float(v) for v in text.split(",") if v.strip() != ""),
                 "numbers", (lambda v: v and all(map(math.isfinite, v)) and valid(v),
                             f"finite and {rule}"))


def _increasing(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


_positive_float = _flag(float, "a number", (lambda v: 0.0 < v < math.inf, "a finite number > 0"))
_nonnegative_float = _flag(float, "a number",
                           (lambda v: 0.0 <= v < math.inf, "a finite number >= 0"))
_thresholds = _float_list("positive and strictly increasing",
                          lambda v: v[0] > 0.0 and _increasing(v))
_levels = _float_list("strictly between 0 and 1", lambda v: all(0.0 < x < 1.0 for x in v))
_bin_edges = _float_list("strictly increasing with at least 2 entries",
                         lambda v: len(v) >= 2 and _increasing(v))


def _stage(args) -> tuple[dict, Path, dict]:
    """A report stage's manifest, output directory and effective config: the
    command and every flag the stage parsed but ``--manifest`` and ``--out``."""
    out = Path(args.out) if args.out else Path(args.manifest).parent / "reports"
    return io.load_manifest(args.manifest), out, {
        k: v for k, v in vars(args).items() if k not in ("manifest", "out", "func")}


def _scaled_map(scene: dict, observed):
    """``observed`` for a stage that reads its scales; elements without them are a data error."""
    if observed.elements and observed.b is None:
        raise io.DataError(f"scene {scene['id']}: observed map carries no scales")
    return observed


def _built(records):
    """``records`` as they are built; a value so large that the generated
    arrays overflow is a config error."""
    try:
        yield from records
    except ValueError as exc:
        raise io.ConfigError(f"cannot build the dataset: {exc}") from exc


def cmd_generate(args) -> int:
    cfg = io.load_dataset_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    manifest_path = io.write_dataset(_built(synth.generate_records(cfg)), cfg, args.out)
    print(f"wrote {cfg.n_scenes} scenes to {manifest_path}")
    return 0


def cmd_eval_map(args) -> int:
    manifest, out, effective = _stage(args)
    if not manifest["scenes"]:
        raise io.DataError("manifest contains no scenes")
    cfg = map_eval.APConfig(args.thresholds, args.resample_count, args.matching)
    pairs = ((observed, gt) for _, gt, observed in
             io.iter_scene_files(manifest, "gt_map", "observed_map"))
    try:
        report = map_eval.evaluate_scenes(pairs, cfg)
    except io.DataError:  # a scene file that does not load
        raise
    except ValueError as exc:  # coordinates so large that a polyline walk overflows
        raise io.DataError(f"cannot evaluate the maps: {exc}") from exc
    io.write_report(out / "eval_map.json", {"report": report.to_dict()}, effective, manifest)
    rows = [[cls.value, thr, ap] for cls, row in zip(report.classes, report.ap)
            for thr, ap in zip(report.thresholds, row)]
    io.write_csv(out / "eval_map.csv", ["class", "threshold", "ap"],
                 rows + [["__mean__", "", report.map_score]])
    print(f"mAP = {report.map_score:.6f} over {len(manifest['scenes'])} scenes -> {out}")
    return 0


def _stored_errors(block, keys: list, threshold: float):
    """:func:`pred_eval.agent_errors` of a block's stored predictions; each
    agent's (scene, agent) key is appended to ``keys``."""
    tracks = []
    for scene, agents, _ in block:
        for ai, agent in enumerate(agents):
            if agent.modes.size == 0:
                raise io.DataError(f"scene {scene['id']} agent {ai} has no predicted modes; "
                                   "generate the dataset with a predictor")
            keys.append([scene["id"], ai])
            tracks.append(agent)
    return pred_eval.agent_errors([a.modes for a in tracks], [a.future for a in tracks],
                                  threshold)


def cmd_eval_pred(args) -> int:
    manifest, out, effective = _stage(args)
    keys = []
    parts = [_stored_errors(block, keys, args.miss_threshold)
             for block in synth.scene_blocks(io.iter_scene_files(manifest, "trajectories"))]
    if not keys:
        raise io.DataError("manifest contains no agents")
    columns = [np.concatenate(column) for column in zip(*parts)]
    report = pred_eval.PredEvalReport.from_errors(*columns)
    io.write_report(out / "eval_pred.json", {"report": report}, effective, manifest)
    io.write_csv(out / "eval_pred_agents.csv",
                 ["scene", "agent", "min_ade", "min_fde", "miss"],
                 (key + row for key, row in zip(keys, map(list, zip(*columns)))))
    print(f"minADE={report.minADE:.4f} minFDE={report.minFDE:.4f} "
          f"MR={report.MR:.4f} over {report.n_agents} agents -> {out}")
    return 0


def _calibration_block(block, args):
    """A block's matched vertex pairs, reduced to their count, their
    :func:`calibration.coverage_counts` and their :func:`calibration.top1`
    columns."""
    pairs = [(_scaled_map(scene, observed), gt) for scene, gt, observed in block]
    try:
        matched = calibration.pair_vertices(pairs, args.match_threshold, args.resample_count)
    except ValueError:
        for (scene, _, _), pair in zip(block, pairs):  # name the scene that fails alone
            try:
                calibration.pair_vertices([pair], args.match_threshold, args.resample_count)
            except ValueError as exc:
                raise io.DataError(f"scene {scene['id']}: {exc}") from exc
        raise
    return (len(matched.mu),
            calibration.coverage_counts(matched.mu, matched.b, matched.gt, args.levels),
            *calibration.top1(matched.class_probs, matched.labels))


def cmd_calibrate(args) -> int:
    manifest, out, effective = _stage(args)
    parts = [_calibration_block(block, args) for block in synth.scene_blocks(
        io.iter_scene_files(manifest, "gt_map", "observed_map"))]
    n = sum(part[0] for part in parts)
    if not n:
        raise io.DataError("no matched vertices; nothing to calibrate")
    _, inside, conf, correct = zip(*parts)
    cov = calibration.coverage_report(args.levels, sum(inside), n)
    rel = calibration.reliability_bins(np.concatenate(conf), np.concatenate(correct), args.bins)
    io.write_report(out / "calibration.json", {"coverage": cov, "reliability": rel},
                    effective, manifest)
    io.write_csv(out / "coverage.csv",
                 ["level", "empirical", "empirical_x", "empirical_y", "n"],
                 ((*row, cov.n) for row in zip(cov.nominal_levels, cov.empirical_coverage,
                                               cov.coverage_x, cov.coverage_y)))
    io.write_csv(out / "reliability.csv",
                 ["bin_lo", "bin_hi", "mean_confidence", "accuracy", "count"],
                 zip(rel.bin_edges, rel.bin_edges[1:], rel.bin_confidence, rel.bin_accuracy,
                     rel.bin_count))
    cov_txt = ", ".join(f"{lv:g}:{c:.4f}" for lv, c in
                        zip(cov.nominal_levels, cov.empirical_coverage))
    print(f"coverage {cov_txt}; ECE={rel.ece:.4f} -> {out}")
    return 0


def cmd_analyze_uncertainty(args) -> int:
    manifest, out, effective = _stage(args)
    # Per group, the (distance, mean scale) arrays of each map's vertices in
    # the group, in scene, element and vertex order.
    parts: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    if not manifest["scenes"]:
        raise io.DataError("manifest contains no scenes")
    for scene, observed in io.iter_scene_files(manifest, "observed_map"):
        observed = _scaled_map(scene, observed)
        if not observed.elements:
            continue
        ego, mu = observed.ego_pose.position, observed.mu
        dist = np.hypot(mu[:, 0] - ego[0], mu[:, 1] - ego[1])
        scale = observed.b.mean(axis=1)
        classes = [el.element_class.value for el in observed.elements]
        vertex_class = np.repeat(classes, np.diff(observed.offsets))
        condition = f"condition:{scene['condition']}"
        for group in ("all", condition):
            parts.setdefault(group, []).append((dist, scale))
        for cls in dict.fromkeys(classes):
            mask = vertex_class == cls
            for group in (f"class:{cls}", f"{condition}|class:{cls}"):
                parts.setdefault(group, []).append((dist[mask], scale[mask]))
    stats = {group: pred_eval.binned_ci(np.concatenate([d for d, _ in parts[group]]),
                                        np.concatenate([v for _, v in parts[group]]),
                                        args.bin_edges)
             for group in sorted(parts)}
    io.write_csv(out / "uncertainty_bins.csv",
                 ["group", "bin_lo", "bin_hi", "mean_b", "ci95_half_width", "count"],
                 ((group, *row) for group, s in stats.items()
                  for row in zip(s.bin_edges, s.bin_edges[1:], s.mean, s.ci95_half_width,
                                 s.count)))
    io.write_report(out / "uncertainty_bins.json", {"groups": {
        g: {"bin_edges": s.bin_edges, "mean_b": s.mean, "ci95_half_width": s.ci95_half_width,
            "count": s.count} for g, s in stats.items()}}, effective, manifest)
    print(f"binned scale statistics for {len(parts)} groups -> {out}")
    return 0


def _predicted_errors(block, args) -> list:
    """:func:`pred_eval.agent_errors` of the blind and the weighted predictor
    on a block of scenes."""
    maps = [_scaled_map(scene, observed) for scene, observed, _, _ in block]
    histories = [[agent.history for agent in agents] for _, _, agents, _ in block]
    modes = [list(chain.from_iterable(synth.predict_scenes(
        histories, maps, args.modes, args.lam, args.b0, weighted))) for weighted in (False, True)]
    futures = []
    for scene, _, agents, _ in block:
        for ai, agent in enumerate(agents):
            key, a = f"scene {scene['id']} agent {ai}", len(futures)
            if len(agent.future) != synth.FUTURE_STEPS:
                raise io.DataError(f"{key}: modes must be (K, T, 2) matching gt")
            if not all(np.isfinite(m[a]).all() for m in modes):  # a prediction overflowed
                raise io.DataError(f"{key}: trajectories must be finite")
            futures.append(agent.future)
    return [pred_eval.agent_errors(m, futures, args.miss_threshold) for m in modes]


def cmd_compare_predictors(args) -> int:
    manifest, out, effective = _stage(args)
    parts = [_predicted_errors(block, args) for block in synth.scene_blocks(
        io.iter_scene_files(manifest, "observed_map", "trajectories"))]
    if not sum(len(blind[0]) for blind, _ in parts):
        raise io.DataError("manifest contains no agents")
    blind, weighted = (vars(pred_eval.PredEvalReport.from_errors(
        *(np.concatenate(column) for column in zip(*predictor))))
        for predictor in zip(*parts))
    deltas = {name: (weighted[name] - blind[name]) / blind[name] * 100.0 if blind[name] else None
              for name in ("minADE", "minFDE", "MR")}
    io.write_report(out / "compare_predictors.json",
                    {"blind": blind, "weighted": weighted, "delta_pct": deltas},
                    effective, manifest)
    io.write_csv(out / "compare_predictors.csv",
                 ["metric", "blind", "weighted", "delta_pct"],
                 ([name, blind[name], weighted[name], "" if d is None else f"{d:+.1f}%"]
                  for name, d in deltas.items()))
    for name, d in deltas.items():
        print(f"{name}: blind={blind[name]:.4f} weighted={weighted[name]:.4f}"
              + (f" ({d:+.1f}%)" if d is not None else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uncmap",
        description="Probabilistic vectorized-map pipeline: synthetic scenes, "
                    "map and prediction metrics, calibration analysis.")
    parser.add_argument("--version", action="version", version=f"uncmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset and manifest")
    p.add_argument("--config", required=True, help="dataset config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="override the config seed")
    p.add_argument("--threads", type=int, choices=[1], default=1,
                   help="accepted for compatibility; scenes are built serially")
    p.set_defaults(func=cmd_generate)

    stage = _Parser(add_help=False)  # what every report stage reads and writes
    stage.add_argument("--manifest", required=True)
    stage.add_argument("--out", default=None)

    p = sub.add_parser("eval-map", parents=[stage],
                       help="AP/mAP of observed maps against ground truth")
    p.add_argument("--ap-thresholds", dest="thresholds", type=_thresholds,
                   default="0.5,1.0,1.5", metavar="AP_THRESHOLDS")
    p.add_argument("--resample-count", type=_int_at_least(2, synth.MAX_RESAMPLE_COUNT), default=20)
    p.add_argument("--matching", choices=["greedy", "hungarian"], default="greedy")
    p.set_defaults(func=cmd_eval_map)

    p = sub.add_parser("eval-pred", parents=[stage],
                       help="minADE/minFDE/MR of stored predictions")
    p.add_argument("--miss-threshold", type=_positive_float, default=pred_eval.MISS_THRESHOLD)
    p.set_defaults(func=cmd_eval_pred)

    p = sub.add_parser("calibrate", parents=[stage],
                       help="interval coverage and classification ECE")
    p.add_argument("--levels", type=_levels, default="0.5,0.9")
    p.add_argument("--bins", type=_int_at_least(1, 10_000), default=10)
    p.add_argument("--match-threshold", type=_positive_float, default=1.5)
    p.add_argument("--resample-count", type=_int_at_least(2, synth.MAX_RESAMPLE_COUNT), default=20)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("analyze-uncertainty", parents=[stage],
                       help="binned emitted scale vs. distance, per class/condition")
    p.add_argument("--bin-edges", type=_bin_edges, default="0,5,10,15,20,25,30,35")
    p.set_defaults(func=cmd_analyze_uncertainty)

    p = sub.add_parser("compare-predictors", parents=[stage],
                       help="side-by-side metrics for the two baseline predictors")
    p.add_argument("--modes", type=_int_at_least(1), default=synth.DEFAULT_MODES)
    p.add_argument("--lam", type=_nonnegative_float, default=synth.DEFAULT_LAMBDA)
    p.add_argument("--b0", type=_positive_float, default=synth.DEFAULT_B0)
    p.add_argument("--miss-threshold", type=_positive_float, default=pred_eval.MISS_THRESHOLD)
    p.set_defaults(func=cmd_compare_predictors)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        with np.errstate(all="ignore"):  # an overflow ends in one error line, not warnings
            return args.func(args)
    except io.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except io.DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # every read raises DataError, so a write under --out failed
        print(f"usage error: cannot write {exc.filename or args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
