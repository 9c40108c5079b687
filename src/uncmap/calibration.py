"""Are the emitted uncertainties trustworthy?

Regression calibration: the fraction of ground-truth coordinates falling
inside central Laplace credibility intervals should equal the nominal
level. Both :func:`laplace_interval` and :func:`coverage_arrays` take
location/scale arrays, the form every map element stores, and hold the
scales to the one scale rule of :mod:`~uncmap.probmap`. Classification
calibration: top-1 reliability diagram and expected calibration error
(ECE).

Pairing a predicted map with ground truth for coverage is inherently
approximate (point sets have no canonical correspondence); the rule here
is deterministic: elements are matched with map evaluation's
:func:`~uncmap.map_eval.greedy_match` at a Chamfer threshold, the
ground-truth polyline is resampled to the prediction's vertex count
(predicted vertices are never resampled, since their scales belong to
specific vertices), oriented forward or reversed to minimize the summed
pairing distance, and then paired by index. A ground truth so short that
resampling merges its points cannot be paired by index and raises
``ValueError``.

:func:`pair_vertices` pairs a whole list of (predicted map, ground-truth
map) pairs in one pass: one :func:`~uncmap.map_eval.chamfer_matrices` call
for every matrix, then one resample of all the matched ground truths.
:func:`match_vertex_pairs` is its one-pair call.

Both calibrations are reductions that add up over blocks of pairs, so
``calibrate`` keeps no vertex pair of an earlier block: per block it keeps
:func:`coverage_counts` (inside counts per level and axis) and the
:func:`top1` confidence and correctness columns. :func:`coverage_report`
and :func:`reliability_bins` turn the pooled reductions into reports, and
:func:`coverage_arrays` and :func:`reliability` are the same two steps on
one set of arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CLASS_INDEX, group_indices, resample
from .map_eval import chamfer_matrices, greedy_match
from .probmap import VectorMap, _validate_scale, softmax


def _check_level(level) -> float:
    level = float(level)
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    return level


def _half_width(b, level: float):
    """Half-width b * ln(1 / (1 - level)) of the central Laplace interval
    holding probability mass ``level``."""
    return -b * math.log1p(-level)


def laplace_interval(mu, b, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Central credibility interval mu +/- b * ln(1 / (1 - level)), which
    holds probability mass ``level`` of each Laplace coordinate.

    Args:
        mu: locations; broadcasts against ``b``.
        b: positive finite scales.
        level: nominal mass in (0, 1).

    Returns:
        (lo, hi) interval endpoints in meters, of the broadcast shape.
    """
    level = _check_level(level)
    mu = np.asarray(mu, dtype=float)
    half = _half_width(_validate_scale(b), level)
    return mu - half, mu + half


@dataclass
class CoverageReport:
    """Empirical interval coverage at each nominal level."""

    nominal_levels: tuple[float, ...]
    empirical_coverage: np.ndarray      # pooled over x and y
    coverage_x: np.ndarray
    coverage_y: np.ndarray
    n: int                              # pooled coordinate count


def coverage_counts(mu: np.ndarray, b: np.ndarray, gt: np.ndarray, levels) -> np.ndarray:
    """(L, 2) counts of the coordinates of the (N, 2) ground truth ``gt``
    inside the central interval of each level, per axis, from (N, 2)
    location/scale arrays; the scales must be positive and finite. The
    counts of any split of the pairs sum to the counts of all of them."""
    mu, b, gt = np.asarray(mu, dtype=float), _validate_scale(b), np.asarray(gt, dtype=float)
    if mu.shape != b.shape or mu.shape != gt.shape or mu.ndim != 2 or mu.shape[1] != 2:
        raise ValueError("mu, b, gt must share one (N, 2) shape")
    resid = np.abs(gt - mu)
    return np.array([(resid <= _half_width(b, _check_level(lv))).sum(axis=0) for lv in levels],
                    dtype=int).reshape(-1, 2)


def coverage_report(levels, inside: np.ndarray, n: int) -> CoverageReport:
    """Coverage from :func:`coverage_counts` ``inside`` over ``n`` pairs.
    Each fraction is an exact count divided once, the value ``np.mean`` of
    the boolean inside array gives."""
    if n == 0:
        raise ValueError("coverage needs at least one pair")
    levels = tuple(_check_level(v) for v in levels)
    return CoverageReport(levels, inside.sum(axis=1) / (2 * n), inside[:, 0] / n,
                          inside[:, 1] / n, 2 * n)


def coverage_arrays(mu: np.ndarray, b: np.ndarray, gt: np.ndarray,
                    levels) -> CoverageReport:
    """Coverage from (N, 2) location/scale/ground-truth arrays; the scales
    must be positive and finite."""
    levels = tuple(levels)
    return coverage_report(levels, coverage_counts(mu, b, gt, levels), len(mu))


@dataclass
class MatchedVertices:
    """Index-aligned vertex pairs between a predicted and a true map."""

    mu: np.ndarray          # (N, 2)
    b: np.ndarray           # (N, 2)
    gt: np.ndarray          # (N, 2)
    class_probs: np.ndarray  # (N, C) softmax of the predicted logits
    labels: np.ndarray      # (N,) true class index from the matched element


def pair_vertices(map_pairs, threshold: float = 1.5,
                  resample_count: int = 20) -> MatchedVertices:
    """Pair predicted vertices with ground-truth points for calibration, over
    a list of (predicted map, ground-truth map) pairs.

    Elements are matched per map pair and class by ``map_eval.greedy_match``
    at the given Chamfer threshold; unmatched elements contribute nothing.
    Pairs are appended by map pair, class and descending confidence. All
    Chamfer matrices come from one :func:`~uncmap.map_eval.chamfer_matrices`
    call, and all matched ground truths from one grouped resample.
    """
    groups = [(pred_map.by_class(cls), gt_map.by_class(cls)) for pred_map, gt_map in map_pairs
              for cls in sorted({el.element_class for el in pred_map.elements + gt_map.elements},
                                key=lambda c: c.value)]
    groups = [(preds, gts) for preds, gts in groups if preds and gts]
    preds, gts = [], []
    for (cls_preds, cls_gts), mat in zip(groups, chamfer_matrices(groups, resample_count)):
        conf = np.array([p.confidence for p in cls_preds], dtype=float)
        match = greedy_match(conf, mat, threshold)
        for pi in np.argsort(-conf, kind="stable"):
            if match[pi] >= 0:
                preds.append(cls_preds[pi])
                gts.append(cls_gts[match[pi]])
    if not preds:
        return MatchedVertices(np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)),
                               np.empty((0, len(CLASS_INDEX))), np.empty(0, dtype=int))
    gt_sets = resample([g.mu for g in gts], [g.closed for g in gts],
                       [p.n_vertices for p in preds])
    for pred, gt in zip(preds, gt_sets):
        if len(gt) != pred.n_vertices:
            raise ValueError(f"a matched {pred.element_class.value} ground truth is too "
                             f"short to resample to {pred.n_vertices} points; resampling "
                             f"merges them to {len(gt)}")
    # Orient each ground truth to the smaller summed pairing distance, one
    # stack of pairs per (prediction, ground truth) shape.
    for _, rows in group_indices((p.mu.shape, g.shape) for p, g in zip(preds, gt_sets)):
        mu = np.array([preds[i].mu for i in rows])
        gt = np.array([gt_sets[i] for i in rows])
        fwd, rev = mu - gt, mu - gt[:, ::-1]
        flip = (np.hypot(rev[..., 0], rev[..., 1]).sum(axis=1)
                < np.hypot(fwd[..., 0], fwd[..., 1]).sum(axis=1))
        for i in np.asarray(rows)[flip]:
            gt_sets[i] = gt_sets[i][::-1]
    return MatchedVertices(
        np.vstack([p.mu for p in preds]), np.vstack([p.b for p in preds]), np.vstack(gt_sets),
        softmax(np.vstack([p.class_logits for p in preds])),
        np.repeat([CLASS_INDEX[p.element_class] for p in preds], [p.n_vertices for p in preds]))


def match_vertex_pairs(pred_map: VectorMap, gt_map: VectorMap, threshold: float = 1.5,
                       resample_count: int = 20) -> MatchedVertices:
    """:func:`pair_vertices` of one predicted map and its ground truth."""
    return pair_vertices([(pred_map, gt_map)], threshold, resample_count)


@dataclass
class ReliabilityReport:
    """Top-1 reliability diagram data plus the expected calibration error."""

    bin_edges: np.ndarray
    bin_confidence: np.ndarray   # NaN for empty bins
    bin_accuracy: np.ndarray     # NaN for empty bins
    bin_count: np.ndarray
    ece: float


def top1(probs, labels) -> tuple[np.ndarray, np.ndarray]:
    """(N,) top-1 confidence and correctness of (N, C) predicted probability
    vectors against (N,) true class indices."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if probs.ndim != 2 or len(probs) != len(labels):
        raise ValueError("probs must be (N, C) with labels of length N")
    if np.any(probs < 0) or not np.allclose(probs.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("rows of probs must be probability vectors")
    return probs.max(axis=1), probs.argmax(axis=1) == labels


def reliability_bins(conf: np.ndarray, correct: np.ndarray, bins: int = 10) -> ReliabilityReport:
    """Top-1 reliability over equal-width confidence bins on [0, 1], from
    the :func:`top1` columns ``conf`` and ``correct``.

    Returns:
        ReliabilityReport with per-bin mean confidence, accuracy, counts,
        and ECE = sum over bins of (n_b / N) * |accuracy_b - confidence_b|.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    idx = np.minimum((conf * bins).astype(int), bins - 1)
    edges = np.linspace(0.0, 1.0, bins + 1)
    bin_conf = np.full(bins, np.nan)
    bin_acc = np.full(bins, np.nan)
    count = np.zeros(bins, dtype=int)
    ece = 0.0
    for b_i in range(bins):
        mask = idx == b_i
        count[b_i] = int(mask.sum())
        if count[b_i]:
            bin_conf[b_i] = conf[mask].mean()
            bin_acc[b_i] = correct[mask].mean()
            ece += count[b_i] / len(conf) * abs(bin_acc[b_i] - bin_conf[b_i])
    return ReliabilityReport(edges, bin_conf, bin_acc, count, float(ece))


def reliability(probs, labels, bins: int = 10) -> ReliabilityReport:
    """Top-1 reliability of (N, C) predicted probability vectors against (N,)
    true class indices: :func:`reliability_bins` of their :func:`top1`."""
    return reliability_bins(*top1(probs, labels), bins)
