"""Trajectory prediction metrics and binned summary statistics.

For a multimodal prediction the best mode is the one with the smallest
final-step displacement, and that single mode supplies both the average
and the final displacement errors. An agent is a miss when its best
final-step error exceeds the miss threshold strictly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MISS_THRESHOLD = 2.0
CI95_Z = 1.96


@dataclass
class TrajectorySet:
    """K predicted modes plus the ground-truth future for one agent.

    ``modes`` is (K, T, 2) and ``gt`` is (T, 2); every mode spans the same
    horizon as the ground truth.
    """

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

    @property
    def n_modes(self) -> int:
        return len(self.modes)


def _final_errors(ts: TrajectorySet) -> np.ndarray:
    d = ts.modes[:, -1, :] - ts.gt[-1]
    return np.hypot(d[:, 0], d[:, 1])


def min_fde(ts: TrajectorySet) -> float:
    """Smallest final-step displacement over the modes."""
    return float(_final_errors(ts).min())


def min_ade(ts: TrajectorySet) -> float:
    """Average displacement of the mode with the smallest final error.

    Mode selection uses the final step, not the average, so the returned
    value can exceed the smallest per-mode ADE. Ties pick the lowest index.
    """
    k = int(np.argmin(_final_errors(ts)))
    d = ts.modes[k] - ts.gt
    return float(np.hypot(d[:, 0], d[:, 1]).mean())


def miss(ts: TrajectorySet, threshold: float = MISS_THRESHOLD) -> bool:
    """True when the best final-step error strictly exceeds the threshold."""
    return min_fde(ts) > threshold


def miss_rate(sets: list[TrajectorySet], threshold: float = MISS_THRESHOLD) -> float:
    if not sets:
        raise ValueError("miss_rate needs at least one trajectory set")
    return float(np.mean([miss(ts, threshold) for ts in sets]))


@dataclass
class PredEvalReport:
    minADE: float
    minFDE: float
    MR: float
    n_agents: int


def evaluate_trajectories(sets: list[TrajectorySet],
                          miss_threshold: float = MISS_THRESHOLD) -> PredEvalReport:
    """Aggregate minADE/minFDE/MR over a collection of agents."""
    if not sets:
        raise ValueError("need at least one trajectory set")
    ades = [min_ade(ts) for ts in sets]
    fdes = [min_fde(ts) for ts in sets]
    return PredEvalReport(float(np.mean(ades)), float(np.mean(fdes)),
                          miss_rate(sets, miss_threshold), len(sets))


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
    keys = np.asarray(keys, dtype=float)
    values = np.asarray(values, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if keys.shape != values.shape:
        raise ValueError("keys and values must have the same length")
    if len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
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
