"""Map-estimation metrics: Chamfer distance, per-class AP, and mAP.

The Chamfer distance between two point sets is the sum of the two mean
nearest-neighbor distances (one per direction), which makes its value
symmetric under exchanging the sets. Elements are compared after
resampling both polylines to a fixed vertex count.

Every Chamfer value comes from one kernel, which evaluates a stack of
equal-shape point-set pairs; :func:`chamfer` is its one-pair call.
:func:`chamfer_matrices` resamples the elements of all its (predictions,
ground truths) groups in one :func:`~uncmap.geometry.resample` call (grouped
by length, not padded, so every row keeps the rounding of its own polyline)
and sends all their pairs through the kernel in blocks of one shape. It is
the one entry from element groups to Chamfer matrices: AP evaluation calls
it once per block of scenes for every (scene, class) group, and the
calibration pairing once per list of map pairs.

AP follows the detection convention: predictions are pooled across scenes,
sorted by confidence (ties keep input order), and greedily matched to the
unmatched ground-truth element of the same scene with the smallest Chamfer
distance; a match counts as a true positive when that distance is strictly
below the threshold. :func:`greedy_match` is that one matching rule; the
calibration pairing uses it too. The PR curve is integrated with the
precision envelope (all-point interpolation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ALL_CLASSES, ElementClass, resample
from .probmap import VectorMap
from .synth import scene_blocks


@dataclass
class APConfig:
    """Settings for AP/mAP evaluation."""

    thresholds: tuple[float, ...] = (0.5, 1.0, 1.5)
    resample_count: int = 20
    matching: str = "greedy"           # or "hungarian" (sensitivity analysis)

    def __post_init__(self):
        t = tuple(float(v) for v in self.thresholds)
        if not (t and all(0 < v < math.inf for v in t) and all(b > a for a, b in zip(t, t[1:]))):
            raise ValueError("thresholds must be finite, positive and strictly increasing")
        self.thresholds = t
        if self.matching not in ("greedy", "hungarian"):
            raise ValueError(f"unknown matching mode {self.matching!r}")


def chamfer(s1, s2) -> float:
    """Chamfer distance between two non-empty 2D point sets: sum over x in S1
    of min_y |x - y| / |S1| plus sum over y in S2 of min_x |y - x| / |S2|.
    The one-pair call of the Chamfer kernel."""
    a = np.asarray(s1, dtype=float).reshape(-1, 2)
    b = np.asarray(s2, dtype=float).reshape(-1, 2)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer requires non-empty point sets")
    return _chamfer_block(a[None], b[None])[0]


def _element_point_sets(elements, count: int) -> list[np.ndarray]:
    """Fixed-count vertex sets of map elements, resampled in one call.

    An element that already has exactly ``count`` vertices is used
    verbatim: its vertices are the predicted point set, and re-resampling
    a closed element would drift points around the loop (chords cut the
    corners, shortening the perimeter).
    """
    out = [np.array(el.mu, dtype=float) if el.n_vertices == count else None
           for el in elements]
    todo = [i for i, pts in enumerate(out) if pts is None]
    for i, pts in zip(todo, resample([elements[i].mu for i in todo],
                                     [elements[i].closed for i in todo],
                                     [count] * len(todo))):
        out[i] = pts
    return out


# ---------------------------------------------------------------------------
# Matching and AP
# ---------------------------------------------------------------------------

# Pairs of 20-point sets per block of the pooled kernel. A block of larger
# sets holds fewer pairs, so each of its float64 arrays stays within the
# 200 KB of a (64, 20, 20) one, and evaluating thousands of pairs does not
# raise peak memory; one pair too large for that gets a block of its own.
_BLOCK = 64


def chamfer_matrices(groups, count: int) -> list[np.ndarray]:
    """(P, G) Chamfer matrices, one per ``(preds, gts)`` group of elements.

    Every element is resampled to ``count`` points in one
    :func:`_element_point_sets` call (a tiny element may merge to fewer),
    and the pairs of all groups go through :func:`_chamfer_block` in blocks
    of pairs of one (V, W) shape, each holding at most ``_BLOCK * 20 * 20``
    distances, or one pair. Each value equals :func:`chamfer` of the two
    point sets bit for bit.
    """
    groups = [(list(preds), list(gts)) for preds, gts in groups]
    sets = _element_point_sets([el for preds, gts in groups for el in preds + gts], count)
    rows, cols, start = [], [], 0  # rows[k], cols[k]: the two sets of pair k
    for preds, gts in groups:
        a = range(start, start + len(preds))
        b = range(a.stop, a.stop + len(gts))
        rows += [i for i in a for _ in b]
        cols += [j for _ in a for j in b]
        start = b.stop
    rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
    sizes = np.array([len(s) for s in sets], dtype=int)
    top = int(sizes.max(initial=0)) + 1
    shapes = sizes[rows] * top + sizes[cols]  # one key per (V, W)
    values = np.empty(len(rows))
    for shape in dict.fromkeys(shapes.tolist()):  # np.unique would import numpy.ma
        pairs = np.flatnonzero(shapes == shape)
        v, w = divmod(shape, top)
        step = max(1, _BLOCK * 20 * 20 // (v * w))
        for block in np.split(pairs, range(step, len(pairs), step)):
            values[block] = _chamfer_block(np.array([sets[i] for i in rows[block].tolist()]),
                                           np.array([sets[j] for j in cols[block].tolist()]))
    ends = np.cumsum([len(preds) * len(gts) for preds, gts in groups], dtype=int)
    return [v.reshape(len(preds), len(gts))
            for v, (preds, gts) in zip(np.split(values, ends[:-1]), groups)]


def _chamfer_block(a: np.ndarray, b: np.ndarray) -> list[float]:
    """Chamfer distance of each pair of a (B, V, 2) and a (B, W, 2) point-set
    stack. The final reductions use exact (correctly rounded) summation, so
    each value matches a naive double loop bit for bit."""
    d = a[:, :, None, 0] - b[:, None, :, 0]
    dy = a[:, :, None, 1] - b[:, None, :, 1]
    d *= d
    dy *= dy
    d += dy
    np.sqrt(d, out=d)
    n_a, n_b = a.shape[1], b.shape[1]
    return [math.fsum(rows) / n_a + math.fsum(cols) / n_b
            for rows, cols in zip(d.min(axis=2).tolist(), d.min(axis=1).tolist())]


def greedy_match(confidence, cost, threshold: float) -> np.ndarray:
    """Greedy confidence-ordered matching of predictions (rows of ``cost``)
    to ground truths (columns).

    Predictions are visited by descending confidence, ties in input order.
    Each takes the unmatched column of least cost (the first on ties), and
    the match stands only when that cost is strictly below ``threshold``.

    Returns:
        (P,) matched column per prediction, -1 when unmatched.
    """
    cost = np.asarray(cost, dtype=float)
    match = np.full(len(cost), -1, dtype=int)
    free = list(range(cost.shape[1]))
    for i in np.argsort(-np.asarray(confidence, dtype=float), kind="stable"):
        if not free:
            break
        row = cost[i, free]
        j = int(np.argmin(row))
        if row[j] < threshold:
            match[i] = free.pop(j)
    return match


def _hungarian_match(confidence, cost, threshold: float) -> np.ndarray:
    """Minimum-total-cost assignment, kept where the cost is below
    ``threshold``; ``confidence`` is unused. Same return as greedy_match."""
    from scipy.optimize import linear_sum_assignment

    match = np.full(len(cost), -1, dtype=int)
    if cost.size:
        rows, cols = linear_sum_assignment(cost)
        keep = cost[rows, cols] < threshold
        match[rows[keep]] = cols[keep]
    return match


def _pooled_labels(matcher, confs: list[np.ndarray], mats: list[np.ndarray],
                   threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """TP/FP labels in pooled confidence order, and the matched costs.

    Each scene is matched on its own: scenes share no ground truth, and the
    stable sort of the pooled confidences, restricted to one scene, is that
    scene's stable sort. Greedy costs come in confidence order, Hungarian
    costs in pooled-index order; their mean is rounded in that order.
    """
    cost = np.array([mat[i, j] if j >= 0 else np.inf
                     for conf, mat in zip(confs, mats)
                     for i, j in enumerate(matcher(conf, mat, threshold))])
    order = np.argsort(-np.array([c for conf in confs for c in conf]), kind="stable")
    labels = np.isfinite(cost[order])
    if matcher is greedy_match:
        return labels, cost[order][labels]
    return labels, cost[np.isfinite(cost)]


def _ap_from_labels(labels: np.ndarray, n_gt: int) -> float | None:
    """Area under the PR curve built from confidence-ordered TP/FP labels."""
    if n_gt == 0:
        return 0.0 if len(labels) else None
    if len(labels) == 0:
        return 0.0
    tp = np.cumsum(labels)
    ranks = np.arange(1, len(labels) + 1)
    recall = tp / n_gt
    precision = tp / ranks
    mrec = np.concatenate([[0.0], recall])
    mpre = np.concatenate([[0.0], precision])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    return float(np.sum((mrec[1:] - mrec[:-1]) * mpre[1:]))


def average_precision(preds: list, gts: list, element_class: ElementClass,
                      threshold: float, cfg: APConfig | None = None) -> float | None:
    """Single-scene AP for one class at one Chamfer threshold.

    Returns None when there are neither predictions nor ground truths (an
    undefined cell, excluded from averaging).
    """
    cfg = cfg or APConfig()
    preds = [p for p in preds if p.element_class == element_class]
    gts = [g for g in gts if g.element_class == element_class]
    matcher = _hungarian_match if cfg.matching == "hungarian" else greedy_match
    conf = np.array([p.confidence for p in preds], dtype=float)
    mat = chamfer_matrices([(preds, gts)], cfg.resample_count)[0]
    labels, _ = _pooled_labels(matcher, [conf], [mat], threshold)
    return _ap_from_labels(labels, len(gts))


@dataclass
class MapEvalReport:
    """AP per (class, threshold) plus their mean and matched-pair stats."""

    classes: tuple[ElementClass, ...]
    thresholds: tuple[float, ...]
    ap: np.ndarray                      # (C, T), NaN for undefined cells
    map_score: float
    mean_matched_chamfer: np.ndarray    # (C,), NaN when nothing matched
    n_pred: np.ndarray
    n_gt: np.ndarray

    def to_dict(self) -> dict:
        """The fields as written: classes by value, ``map_score`` as ``"mAP"``."""
        return {"classes": [c.value for c in self.classes], "thresholds": self.thresholds,
                "ap": self.ap, "mAP": self.map_score,
                "mean_matched_chamfer": self.mean_matched_chamfer,
                "n_pred": self.n_pred, "n_gt": self.n_gt}


def _block_matrices(block, count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The prediction confidences and Chamfer matrix of every (scene, class)
    group of a block of (predicted, ground-truth) map pairs, scene by scene
    and in ``ALL_CLASSES`` order within a scene."""
    groups = [(pred.by_class(cls), gt.by_class(cls)) for pred, gt in block for cls in ALL_CLASSES]
    return [(np.array([p.confidence for p in preds], dtype=float), mat)
            for (preds, _), mat in zip(groups, chamfer_matrices(groups, count))]


def evaluate_scenes(pairs, cfg: APConfig | None = None) -> MapEvalReport:
    """Pooled multi-scene evaluation of predicted maps against ground truth.

    ``pairs`` is any iterable of (predicted, ground-truth) map pairs, read
    in blocks of ``synth.SCENE_BLOCK`` scenes. One :func:`chamfer_matrices`
    call per block covers all its (scene, class) groups, and the block is
    reduced to each group's confidences and matrix before the next is read.
    Matching and AP then run per class over every scene's matrix, as they
    would with all the maps held at once.
    """
    cfg = cfg or APConfig()
    confs = [[] for _ in ALL_CLASSES]
    mats = [[] for _ in ALL_CLASSES]
    for block in scene_blocks(pairs):
        for k, (conf, mat) in enumerate(_block_matrices(block, cfg.resample_count)):
            confs[k % len(ALL_CLASSES)].append(conf)
            mats[k % len(ALL_CLASSES)].append(mat)
    n_pred = np.array([sum(len(conf) for conf in cls_confs) for cls_confs in confs], dtype=int)
    n_gt = np.array([sum(mat.shape[1] for mat in cls_mats) for cls_mats in mats], dtype=int)
    ap = np.full((len(ALL_CLASSES), len(cfg.thresholds)), np.nan)
    matched_chamfer = np.full(len(ALL_CLASSES), np.nan)
    matcher = _hungarian_match if cfg.matching == "hungarian" else greedy_match
    for ci in range(len(ALL_CLASSES)):
        for ti, thr in enumerate(cfg.thresholds):
            labels, matched = _pooled_labels(matcher, confs[ci], mats[ci], thr)
            cell = _ap_from_labels(labels, n_gt[ci])
            ap[ci, ti] = np.nan if cell is None else cell
            if thr == cfg.thresholds[-1] and len(matched):
                matched_chamfer[ci] = float(np.mean(matched))

    defined = ap[~np.isnan(ap)]
    map_score = float(defined.mean()) if len(defined) else float("nan")
    return MapEvalReport(ALL_CLASSES, cfg.thresholds, ap, map_score, matched_chamfer,
                         n_pred, n_gt)


def evaluate_map(pred_map: VectorMap, gt_map: VectorMap,
                 cfg: APConfig | None = None) -> MapEvalReport:
    """Evaluate one predicted map against one ground-truth map."""
    return evaluate_scenes([(pred_map, gt_map)], cfg)
