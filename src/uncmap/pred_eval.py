"""Trajectory prediction metrics and binned summary statistics.

For a multimodal prediction the best mode is the one with the smallest
final-step displacement, and that single mode supplies both the average
and the final displacement errors. An agent is a miss when its best
final-step error exceeds the miss threshold strictly. :func:`agent_errors`
computes all three for many agents in one stacked pass; every other metric
here reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import group_indices

MISS_THRESHOLD = 2.0
CI95_Z = 1.96


@dataclass
class TrajectorySet:
    """One agent's K >= 1 predicted (K, T, 2) ``modes`` and its (T, 2)
    ground-truth future ``gt``, finite and of one horizon T >= 1."""

    modes: np.ndarray
    gt: np.ndarray

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=float)
        self.gt = np.asarray(self.gt, dtype=float)
        if self.gt.ndim != 2 or self.gt.shape[1] != 2 or len(self.gt) < 1:
            raise ValueError("gt must be (T, 2) with T >= 1")
        if (self.modes.ndim != 3 or self.modes.shape[0] < 1
                or self.modes.shape[1:] != self.gt.shape):
            raise ValueError("modes must be (K, T, 2) matching gt")
        if not (np.all(np.isfinite(self.modes)) and np.all(np.isfinite(self.gt))):
            raise ValueError("trajectories must be finite")


def agent_errors(modes, gt, threshold: float = MISS_THRESHOLD):
    """(A,) minADE, minFDE and miss columns of A agents' (K, T, 2) ``modes``
    against their (T, 2) ``gt``. Agents are stacked by horizon T, each stack
    to its largest K: a shorter row repeats its mode 0, which moves neither
    the smallest final error nor its lowest-index mode."""
    ade, fde = np.empty(len(gt)), np.empty(len(gt))
    for _, rows in group_indices(len(g) for g in gt):
        k = max(len(modes[i]) for i in rows)
        stack = np.array([np.concatenate([modes[i], modes[i][[0] * (k - len(modes[i]))]])
                          for i in rows])
        truth = np.array([gt[i] for i in rows], dtype=float)
        d = stack[:, :, -1] - truth[:, None, -1]
        final = np.hypot(d[..., 0], d[..., 1])
        best = (np.arange(len(rows)), np.argmin(final, axis=1))
        fde[rows] = final[best]
        d = stack[best] - truth
        ade[rows] = np.hypot(d[..., 0], d[..., 1]).mean(axis=1)
    return ade, fde, fde > threshold


def min_fde(ts: TrajectorySet) -> float:
    """Smallest final-step displacement over the modes."""
    return float(agent_errors([ts.modes], [ts.gt])[1][0])


def min_ade(ts: TrajectorySet) -> float:
    """Average displacement of the mode with the smallest final error.

    Mode selection uses the final step, not the average, so the returned
    value can exceed the smallest per-mode ADE. Ties pick the lowest index.
    """
    return float(agent_errors([ts.modes], [ts.gt])[0][0])


def miss(ts: TrajectorySet, threshold: float = MISS_THRESHOLD) -> bool:
    """True when the best final-step error strictly exceeds the threshold."""
    return bool(agent_errors([ts.modes], [ts.gt], threshold)[2][0])


@dataclass
class PredEvalReport:
    minADE: float
    minFDE: float
    MR: float
    n_agents: int

    @classmethod
    def from_errors(cls, ade, fde, missed) -> PredEvalReport:
        """The means of :func:`agent_errors`' columns."""
        return cls(float(ade.mean()), float(fde.mean()), float(missed.mean()), len(ade))


def evaluate_trajectories(sets: list[TrajectorySet],
                          miss_threshold: float = MISS_THRESHOLD) -> PredEvalReport:
    """Aggregate minADE/minFDE/MR over a collection of agents."""
    if not sets:
        raise ValueError("need at least one trajectory set")
    return PredEvalReport.from_errors(*agent_errors(
        [ts.modes for ts in sets], [ts.gt for ts in sets], miss_threshold))


@dataclass
class BinnedStat:
    """Per-bin mean with a 95% normal-approximation confidence half-width."""

    bin_edges: np.ndarray
    mean: np.ndarray
    ci95_half_width: np.ndarray
    count: np.ndarray


def binned_ci(keys, values, edges) -> BinnedStat:
    """Bin ``values`` by ``keys`` and summarize each bin.

    Bin i covers [edges[i], edges[i+1]); the last bin also includes its
    right edge. Keys outside the edges are dropped. The half-width is
    1.96 * s / sqrt(n) with the sample standard deviation s (ddof=1) for
    n >= 2, and 0 otherwise.
    """
    keys, values, edges = (np.asarray(x, dtype=float) for x in (keys, values, edges))
    if keys.shape != values.shape:
        raise ValueError("keys and values must have the same length")
    if len(edges) < 2 or not np.all(np.isfinite(edges)) or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be finite and strictly increasing with >= 2 entries")
    idx = np.searchsorted(edges, keys, side="right") - 1
    idx[keys == edges[-1]] = len(edges) - 2
    valid = (idx >= 0) & (idx < len(edges) - 1)
    nb = len(edges) - 1
    mean = np.full(nb, np.nan)
    half = np.zeros(nb)
    count = np.zeros(nb, dtype=int)
    for b in range(nb):
        vals = values[valid & (idx == b)]
        count[b] = len(vals)
        if len(vals):
            mean[b] = vals.mean()
        if len(vals) >= 2:
            half[b] = CI95_Z * vals.std(ddof=1) / np.sqrt(len(vals))
    return BinnedStat(edges, mean, half, count)
