"""Vectorized maps and their vertex uncertainty: the map data model.

A map is one type, :class:`VectorMap`, of one element type,
:class:`MapElement`. Every element holds its vertex locations ``mu`` (V, 2).
An estimated map's elements also carry, per vertex, two independent
univariate Laplace scales ``b`` (V, 2), one per coordinate, and class logits
``class_logits`` (V, C); a ground-truth or mean map's elements carry neither.
Every function here takes those arrays. This module provides the joint
vertex density and its negative log-likelihood with analytic gradients,
scale/standard-deviation conversions, the frame transform for axis-aligned
uncertainty, the mean and sampled maps, and the per-vertex feature rows
that downstream encoders consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DEFAULT_PERCEPTION_RANGE,
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

def _validate_scale(b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)) or np.any(b <= 0.0):
        raise ValueError("Laplace scale b must be positive and finite")
    return b


def laplace_pdf(x, mu, b):
    """Univariate Laplace density, evaluated elementwise."""
    b = _validate_scale(b)
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return np.exp(-np.abs(x - mu) / b) / (2.0 * b)


def laplace_logpdf(x, mu, b):
    """Log of :func:`laplace_pdf`, computed directly for stability."""
    b = _validate_scale(b)
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    return -np.log(2.0 * b) - np.abs(x - mu) / b


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
    """Joint log-density: the sum of per-coordinate Laplace log-densities."""
    mu, b, sample = _check_same_shape(mu, b, sample)
    return float(np.sum(laplace_logpdf(sample, mu, b)))


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
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0.0):
        raise ValueError("sigma must be positive and finite")
    return sigma / SQRT2

def rotate_uncertainty(sigma_x, sigma_y, theta):
    """Axis-aligned standard deviations after rotating the frame by theta.

    sigma_x' = sqrt(sigma_x^2 cos^2 + sigma_y^2 sin^2)
    sigma_y' = sqrt(sigma_x^2 sin^2 + sigma_y^2 cos^2)

    This is a moment-matching approximation: the rotated distribution is
    re-expressed as independent axis-aligned Laplace coordinates, so the
    quantity sigma_x^2 + sigma_y^2 is preserved but the transform only
    composes exactly for quarter-turn angles. All arguments broadcast.
    """
    sigma_x = np.asarray(sigma_x, dtype=float)
    sigma_y = np.asarray(sigma_y, dtype=float)
    if np.any(sigma_x <= 0.0) or np.any(sigma_y <= 0.0):
        raise ValueError("sigma must be positive")
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
    neither; a ground-truth or mean-map element carries neither. Slots in
    place of an instance dict keep an element small: a stack of sampled
    maps holds tens of thousands of them.
    """

    mu: np.ndarray
    element_class: ElementClass
    confidence: float = 1.0
    closed: bool = False
    b: np.ndarray | None = None
    class_logits: np.ndarray | None = None

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        if self.mu.ndim != 2 or self.mu.shape[1] != 2 or len(self.mu) < 2:
            raise ValueError(f"mu must be (V, 2) with V >= 2, got shape {self.mu.shape}")
        if not np.all(np.isfinite(self.mu)):
            raise ValueError("mu must be finite")
        if (self.b is None) != (self.class_logits is None):
            raise ValueError("b and class_logits must be given together")
        if self.b is not None:
            self.b = _validate_scale(self.b)
            self.class_logits = np.asarray(self.class_logits, dtype=float)
            if self.b.shape != self.mu.shape:
                raise ValueError("b must match mu's shape")
            if self.class_logits.shape != (len(self.mu), NUM_CLASSES):
                raise ValueError(f"class_logits must be (V, {NUM_CLASSES})")
            if not np.all(np.isfinite(self.class_logits)):
                raise ValueError("class_logits must be finite")
        if not isinstance(self.element_class, ElementClass):
            raise TypeError("element_class must be an ElementClass")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")

    @property
    def vertices(self) -> np.ndarray:
        """The vertex locations: ``mu`` itself."""
        return self.mu

    @property
    def n_vertices(self) -> int:
        return len(self.mu)


@dataclass
class VectorMap:
    """Map elements inside one perception window, with the ego pose.

    Either every element carries scales (an estimated map) or none does
    (a ground-truth or mean map). Building an estimated map counts its
    vertices outside the perception range and warns when there are any.
    """

    elements: list[MapElement]
    ego_pose: Pose2 = field(default_factory=Pose2.identity)
    perception_range: tuple[float, float] = DEFAULT_PERCEPTION_RANGE

    def __post_init__(self):
        scaled = [el.b is not None for el in self.elements]
        if any(scaled):
            if not all(scaled):
                raise ValueError("either every element of a map carries scales or none does")
            all_mu = np.vstack([el.mu for el in self.elements])
            check_perception_range(all_mu, self.ego_pose, self.perception_range)

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
    out = []
    for el in pmap.elements:
        mu = transform_points(el.mu, frame)
        sx, sy = rotate_uncertainty(sigma_from_b(el.b[:, 0]), sigma_from_b(el.b[:, 1]),
                                    frame.heading)
        b = np.column_stack([b_from_sigma(sx), b_from_sigma(sy)])
        out.append(MapElement(mu, el.element_class, el.confidence, el.closed,
                              b=b, class_logits=el.class_logits.copy()))
    return VectorMap(out, pose_in_frame(pmap.ego_pose, frame), pmap.perception_range)


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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
    elements = [
        MapElement(el.mu.copy(), el.element_class, el.confidence, el.closed)
        for el in pmap.elements
    ]
    return VectorMap(elements, pmap.ego_pose, pmap.perception_range)


def sample_map(pmap: VectorMap, seed: int) -> VectorMap:
    """Draw one map realization, each coordinate from its own Laplace."""
    rng = np.random.default_rng(seed)
    elements = [
        MapElement(rng.laplace(el.mu, el.b), el.element_class, el.confidence, el.closed)
        for el in pmap.elements
    ]
    return VectorMap(elements, pmap.ego_pose, pmap.perception_range)
