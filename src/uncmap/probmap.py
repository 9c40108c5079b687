"""Vectorized maps and their vertex uncertainty: the map data model.

A map is one type, :class:`VectorMap`, of one element type,
:class:`MapElement`. A map holds one column of vertex locations ``mu`` (V, 2).
An estimated map also holds, per vertex, two independent univariate Laplace
scales ``b`` (V, 2), one per coordinate, and class logits ``class_logits``
(V, C); a ground-truth or mean map holds neither. Elements view their rows,
and the map holds every rule of a valid map. Every function here takes
those arrays. This module provides the joint
vertex density and its negative log-likelihood with analytic gradients,
scale/standard-deviation conversions, the frame transform for axis-aligned
uncertainty, the mean and sampled maps, and the per-vertex feature rows
that downstream encoders consume.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DEFAULT_PERCEPTION_RANGE,
    MERGE_EPS,
    NUM_CLASSES,
    ElementClass,
    Pose2,
    check_perception_range,
    pose_in_frame,
    transform_points,
)

# Smallest scale the package's own estimators and generators will emit.
# The NLL diverges as b -> 0, so fitted/generated scales are clamped here.
# Hand-built values only need to satisfy b > 0.
B_FLOOR = 1e-6

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Laplace building blocks (arrays of any matching shape)
# ---------------------------------------------------------------------------

def _validate_scale(b, name: str = "Laplace scale b") -> np.ndarray:
    """The package's one scale rule: ``b`` (or a standard deviation) as a
    float array, if every entry is positive and finite."""
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)) or np.any(b <= 0.0):
        raise ValueError(f"{name} must be positive and finite")
    return b


def laplace_pdf(x, mu, b):
    """Univariate Laplace density, evaluated elementwise."""
    b = _validate_scale(b)
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return np.exp(-np.abs(x - mu) / b) / (2.0 * b)


def _check_same_shape(mu, b, sample):
    mu = np.asarray(mu, dtype=float)
    b = np.asarray(b, dtype=float)
    sample = np.asarray(sample, dtype=float)
    if mu.shape != sample.shape or mu.shape != b.shape:
        raise ValueError(
            f"shape mismatch: mu {mu.shape}, b {b.shape}, sample {sample.shape}"
        )
    return mu, b, sample


def density(mu, b, sample) -> float:
    """Joint density of a vertex array under independent Laplace coordinates.

    Computed as the direct product of per-coordinate densities, so it
    underflows for large vertex counts; use :func:`log_density` in that
    regime.
    """
    mu, b, sample = _check_same_shape(mu, b, sample)
    return float(np.prod(laplace_pdf(sample, mu, b)))


def log_density(mu, b, sample) -> float:
    """Joint log-density: the sum of per-coordinate Laplace log-densities,
    the negated :func:`nll_loss`."""
    return -nll_loss(mu, b, sample)[0]


def nll_loss(mu, b, target) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative log-likelihood of ``target`` with analytic gradients.

    loss = sum over entries of log(2 b) + |t - mu| / b

    Returns
    -------
    (loss, grad_mu, grad_b) where the gradients have the input shape.
    d loss / d mu = -sign(t - mu) / b, with the subgradient at t == mu
    taken as 0; d loss / d b = 1/b - |t - mu| / b**2.
    """
    mu, b, target = _check_same_shape(mu, b, target)
    b = _validate_scale(b)
    resid = target - mu
    loss = float(np.sum(np.log(2.0 * b) + np.abs(resid) / b))
    grad_mu = -np.sign(resid) / b
    grad_b = 1.0 / b - np.abs(resid) / (b * b)
    return loss, grad_mu, grad_b


# ---------------------------------------------------------------------------
# Scale conversions and the frame transform for uncertainty
# ---------------------------------------------------------------------------

def sigma_from_b(b):
    """Standard deviation of a Laplace distribution with scale ``b``."""
    return SQRT2 * _validate_scale(b)


def b_from_sigma(sigma):
    """Inverse of :func:`sigma_from_b`."""
    return _validate_scale(sigma, "sigma") / SQRT2


def rotate_uncertainty(sigma_x, sigma_y, theta):
    """Axis-aligned standard deviations after rotating the frame by theta.

    sigma_x' = sqrt(sigma_x^2 cos^2 + sigma_y^2 sin^2)
    sigma_y' = sqrt(sigma_x^2 sin^2 + sigma_y^2 cos^2)

    This is a moment-matching approximation: the rotated distribution is
    re-expressed as independent axis-aligned Laplace coordinates, so the
    quantity sigma_x^2 + sigma_y^2 is preserved but the transform only
    composes exactly for quarter-turn angles. All arguments broadcast.
    """
    sigma_x, sigma_y = _validate_scale(sigma_x, "sigma"), _validate_scale(sigma_y, "sigma")
    c2 = np.cos(theta) ** 2
    s2 = np.sin(theta) ** 2
    vx = sigma_x * sigma_x
    vy = sigma_y * sigma_y
    return np.sqrt(vx * c2 + vy * s2), np.sqrt(vx * s2 + vy * c2)


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class MapElement:
    """One typed map element: vertex locations, a class and a confidence.

    ``mu`` is the (V, 2) array of vertex locations; ``vertices`` is the
    same array. An estimated element also carries per-vertex Laplace
    scales ``b`` (V, 2) and class logits ``class_logits`` (V, C), both or
    neither; a ground-truth or mean-map element carries neither; only
    :class:`VectorMap` checks them. Slots in place of an instance dict keep
    an element small: a stack of sampled maps holds tens of thousands of them.
    """

    mu: np.ndarray
    element_class: ElementClass
    confidence: float = 1.0
    closed: bool = False
    b: np.ndarray | None = None
    class_logits: np.ndarray | None = None

    @property
    def vertices(self) -> np.ndarray:
        """The vertex locations: ``mu`` itself."""
        return self.mu

    @property
    def n_vertices(self) -> int:
        return len(self.mu)


def _is_real(value) -> bool:  # numpy's bool is not a numbers.Real
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _window(perception_range) -> tuple[float, float]:
    """``perception_range`` as two floats, if it holds two finite positive numbers."""
    try:
        lon, lat = perception_range
        if all(_is_real(v) and 0 < v < math.inf for v in (lon, lat)):
            return float(lon), float(lat)
    except (TypeError, ValueError, OverflowError):  # not a pair; an int past the float range
        pass
    raise ValueError(f"perception_range must hold 2 numbers, finite and positive; "
                     f"got {perception_range!r:.40}")


def _stacked(arrays) -> tuple[np.ndarray, np.ndarray]:
    """``arrays`` concatenated as floats (ValueError if they do not stack), and row offsets."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    return (np.concatenate(arrays) if arrays else np.empty((0, 2)),
            np.cumsum([0] + [len(a) for a in arrays]))


class VectorMap:
    """Map elements inside one perception window, with the ego pose.

    The map owns its vertex data as columns in element order: ``mu`` (V, 2),
    and ``b`` (V, 2) and ``class_logits`` (V, C), or ``None`` for a map with
    no scales or elements. Element i views rows ``offsets[i]:offsets[i + 1]``.
    Construction checks the whole map once: the window (two finite positive
    numbers), each confidence (a number in [0, 1]) and ``closed`` flag (a
    bool), stored as floats and bools, and 2 vertices ``MERGE_EPS`` apart per
    element (so a ``Polyline`` can be built from it). It raises ``ValueError``,
    or ``TypeError`` for a class that is not an :class:`ElementClass`.
    ``out_of_range`` counts estimated vertices outside the window.
    """

    def __init__(self, elements: list[MapElement], ego_pose: Pose2 = Pose2.identity(),
                 perception_range: tuple[float, float] = DEFAULT_PERCEPTION_RANGE):
        scaled = [el.b is not None for el in elements]
        if scaled != [el.class_logits is not None for el in elements]:
            raise ValueError("b and class_logits must be given together")
        if any(scaled) and not all(scaled):
            raise ValueError("either every element of a map carries scales or none does")
        mu, offsets = _stacked([el.mu for el in elements])
        b = logits = None
        if any(scaled):
            b, b_rows = _stacked([el.b for el in elements])
            logits, logit_rows = _stacked([el.class_logits for el in elements])
            if not (np.array_equal(b_rows, offsets) and np.array_equal(logit_rows, offsets)):
                raise ValueError("b and class_logits must have one row per vertex")
        self._adopt(elements, offsets, mu, b, logits, ego_pose, perception_range)

    @classmethod
    def from_columns(cls, elements, offsets, mu, b=None, class_logits=None,
                     ego_pose=Pose2.identity(), perception_range=DEFAULT_PERCEPTION_RANGE):
        """The map whose element i takes the class, confidence and closed flag of
        ``elements[i]`` and views rows ``offsets[i]:offsets[i + 1]`` of the columns."""
        vmap = cls.__new__(cls)
        vmap._adopt(elements, offsets, mu, b, class_logits, ego_pose, perception_range)
        return vmap

    def _adopt(self, elements, offsets, mu, b, class_logits, ego_pose, perception_range):
        perception_range = _window(perception_range)
        mu, offsets = np.asarray(mu, dtype=float), np.asarray(offsets)
        counts = np.diff(offsets)
        if mu.ndim != 2 or mu.shape[1] != 2 or len(mu) != offsets[-1] or np.any(counts < 2):
            shape = (int(counts.min()), 2) if mu.ndim == 2 and mu.shape[1] == 2 else mu.shape
            raise ValueError(f"mu must be (V, 2) with V >= 2, got shape {shape}")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu must be finite")
        if b is not None or class_logits is not None:
            b, class_logits = _validate_scale(b), np.asarray(class_logits, dtype=float)
            if b.shape != mu.shape:
                raise ValueError("b must match mu's shape")
            if class_logits.shape != (len(mu), NUM_CLASSES):
                raise ValueError(f"class_logits must be (V, {NUM_CLASSES})")
            if not np.all(np.isfinite(class_logits)):
                raise ValueError("class_logits must be finite")
        if not all(isinstance(el.element_class, ElementClass) for el in elements):
            raise TypeError("element_class must be an ElementClass")
        if not all(_is_real(el.confidence) and 0.0 <= el.confidence <= 1.0 for el in elements):
            raise ValueError("confidence must be a number in [0, 1]")
        if not all(isinstance(el.closed, (bool, np.bool_)) for el in elements):
            raise ValueError("closed must be true or false")
        # A Polyline merges steps under MERGE_EPS, so it keeps a second vertex
        # exactly when one lies at least MERGE_EPS from the first.
        step = mu - np.repeat(mu[offsets[:-1]], counts, axis=0)
        far = np.hypot(step[:, 0], step[:, 1]) >= MERGE_EPS
        degenerate = np.flatnonzero(~np.logical_or.reduceat(far, offsets[:-1]))
        if len(degenerate):
            raise ValueError(f"map element {degenerate[0]} has fewer than 2 vertices "
                             f"at least {MERGE_EPS:g} apart")
        self.ego_pose, self.perception_range = ego_pose, perception_range
        self.mu, self.b, self.class_logits, self.offsets = mu, b, class_logits, offsets
        self.out_of_range = 0 if b is None else check_perception_range(
            mu, ego_pose, perception_range)
        rows = offsets.tolist()
        self.elements = [MapElement(mu[lo:hi], el.element_class, float(el.confidence),
                                    bool(el.closed), None if b is None else b[lo:hi],
                                    None if b is None else class_logits[lo:hi])
                         for el, lo, hi in zip(elements, rows[:-1], rows[1:], strict=True)]

    def by_class(self, element_class: ElementClass) -> list[MapElement]:
        return [e for e in self.elements if e.element_class == element_class]


# ---------------------------------------------------------------------------
# Map-level operations
# ---------------------------------------------------------------------------

def standardize_map(pmap: VectorMap, frame: Pose2) -> VectorMap:
    """Express a probabilistic map in ``frame``'s coordinates.

    Locations are rigidly transformed; scales go through sigma space,
    rotate via :func:`rotate_uncertainty` with the frame's heading, and come
    back, keeping the per-axis Laplace form. Class logits are untouched.
    """
    sx, sy = rotate_uncertainty(sigma_from_b(pmap.b[:, 0]), sigma_from_b(pmap.b[:, 1]),
                                frame.heading)
    b = np.column_stack([b_from_sigma(sx), b_from_sigma(sy)])
    return VectorMap.from_columns(pmap.elements, pmap.offsets, transform_points(pmap.mu, frame),
                                  b, pmap.class_logits.copy(),
                                  pose_in_frame(pmap.ego_pose, frame), pmap.perception_range)


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def one_hot_logits(class_index) -> np.ndarray:
    """(V, C) logits of the (V,) class indices: 0 on each vertex's class, -16 elsewhere."""
    logits = np.full((len(class_index), NUM_CLASSES), -16.0)
    logits[np.arange(len(class_index)), class_index] = 0.0
    return logits


def vertex_features(el: MapElement) -> np.ndarray:
    """Uncertainty-augmented feature rows of an element, shape (V, 4 + C).

    Row i is [mu_x, mu_y, b_x, b_y, c_1 .. c_C] of vertex i, where the class
    block is the softmax of the vertex logits, so it is a probability
    vector. This is the concatenation handed to a downstream vertex encoder;
    the encoder itself is out of scope here.
    """
    return np.hstack([el.mu, el.b, softmax(el.class_logits)])


def mean_map(pmap: VectorMap) -> VectorMap:
    """Strip uncertainty: keep only vertex locations, classes, confidences."""
    return VectorMap.from_columns(pmap.elements, pmap.offsets, pmap.mu.copy(),
                                  ego_pose=pmap.ego_pose, perception_range=pmap.perception_range)


def sample_map(pmap: VectorMap, seed: int) -> VectorMap:
    """Draw one map realization, each coordinate from its own Laplace (one
    draw per element in element order, as ``Generator.laplace`` fills C order)."""
    mu = np.random.default_rng(seed).laplace(pmap.mu, pmap.b)
    return VectorMap.from_columns(pmap.elements, pmap.offsets, mu, ego_pose=pmap.ego_pose,
                                  perception_range=pmap.perception_range)
