"""Planar geometry shared by every other module.

Points are length-2 float arrays in meters. Frames follow a heading-up
convention: expressing a world point in a pose's frame applies
``R(-heading) @ (p - position)``, so the pose's forward direction
``(-sin(heading), cos(heading))`` lands on the +y axis of its own frame.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Consecutive polyline vertices closer than this are merged at construction.
MERGE_EPS = 1e-9


class ElementClass(Enum):
    """Semantic class of a vectorized map element."""

    ROAD_BOUNDARY = "road_boundary"
    PED_CROSSING = "ped_crossing"
    LANE_DIVIDER = "lane_divider"
    LANE_CENTERLINE = "lane_centerline"


ALL_CLASSES = tuple(ElementClass)
NUM_CLASSES = len(ALL_CLASSES)
CLASS_INDEX = {c: i for i, c in enumerate(ALL_CLASSES)}


def wrap_angle(theta: float) -> float:
    """Wrap an angle in radians to the interval (-pi, pi]."""
    wrapped = math.remainder(theta, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) point array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points must be finite")
    return arr


@dataclass(frozen=True)
class Pose2:
    """Rigid 2D pose: a position plus a frame heading in radians.

    ``heading`` is normalized to (-pi, pi] at construction. A heading of 0
    means the pose's forward direction is world +y.
    """

    x: float
    y: float
    heading: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "heading"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"Pose2.{name} must be finite")
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    @classmethod
    def identity(cls) -> "Pose2":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def facing(cls, x: float, y: float, direction) -> "Pose2":
        """Pose at (x, y) whose forward axis points along ``direction``."""
        dx, dy = float(direction[0]), float(direction[1])
        if dx == 0.0 and dy == 0.0:
            raise ValueError("direction must be nonzero")
        return cls(x, y, math.atan2(-dx, dy))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def forward(self) -> np.ndarray:
        """Unit forward direction in world coordinates."""
        return np.array([-math.sin(self.heading), math.cos(self.heading)])

    def inverse(self) -> "Pose2":
        """Pose whose transform undoes this pose's transform."""
        c = math.cos(self.heading)
        s = math.sin(self.heading)
        return Pose2(-(c * self.x + s * self.y), -(-s * self.x + c * self.y), -self.heading)


def transform_point(p, pose: Pose2) -> np.ndarray:
    """Express a world point in ``pose``'s frame: R(-heading) @ (p - position)."""
    return transform_points(np.asarray(p, dtype=float).reshape(1, 2), pose)[0]


def transform_points(points, pose: Pose2) -> np.ndarray:
    """Vectorized :func:`transform_point` over an (N, 2) array."""
    pts = _as_points(points)
    c = math.cos(pose.heading)
    s = math.sin(pose.heading)
    dx = pts[:, 0] - pose.x
    dy = pts[:, 1] - pose.y
    return np.column_stack([c * dx + s * dy, -s * dx + c * dy])


def pose_in_frame(pose: Pose2, frame: Pose2) -> Pose2:
    """Express ``pose`` in ``frame``'s coordinates."""
    qx, qy = transform_point(pose.position, frame)
    return Pose2(float(qx), float(qy), pose.heading - frame.heading)


@dataclass
class Polyline:
    """Ordered vertex sequence, open or closed.

    Construction coerces vertices to float64, merges consecutive vertices
    closer than ``MERGE_EPS`` (for closed polylines this includes an explicit
    trailing repeat of the first vertex), and requires at least two distinct
    vertices afterwards.
    """

    vertices: np.ndarray
    closed: bool = False

    def __post_init__(self):
        pts = _as_points(self.vertices)
        step = np.diff(pts, axis=0)
        if np.all(np.hypot(step[:, 0], step[:, 1]) >= MERGE_EPS):
            # The loop below would keep every vertex. Copy, as its indexing
            # does, so the polyline never shares the caller's array.
            pts = pts.copy()
        else:
            keep = [0]
            for i in range(1, len(pts)):
                if np.hypot(*(pts[i] - pts[keep[-1]])) >= MERGE_EPS:
                    keep.append(i)
            pts = pts[keep]
        if self.closed and len(pts) > 2 and np.hypot(*(pts[-1] - pts[0])) < MERGE_EPS:
            pts = pts[:-1]
        if len(pts) < 2:
            raise ValueError("degenerate polyline: fewer than 2 distinct vertices")
        self.vertices = pts

    def __len__(self) -> int:
        return len(self.vertices)

    def segment_lengths(self) -> np.ndarray:
        pts = self.vertices
        if self.closed:
            pts = np.vstack([pts, pts[:1]])
        seg = np.diff(pts, axis=0)
        return np.hypot(seg[:, 0], seg[:, 1])

    def arclength(self) -> float:
        return float(self.segment_lengths().sum())

    def reversed(self) -> "Polyline":
        return Polyline(self.vertices[::-1].copy(), closed=self.closed)


def _interp_along(pts: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Points at the given arclength positions along a vertex chain."""
    seg = np.diff(pts, axis=0)
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seglen) - 1)
    denom = np.where(seglen[idx] > 0, seglen[idx], 1.0)
    t = np.clip((targets - cum[idx]) / denom, 0.0, 1.0)
    return pts[idx] + t[:, None] * seg[idx]


def resample(p: Polyline, count: int) -> Polyline:
    """Resample to exactly ``count`` vertices, equally spaced by arclength.

    Open polylines keep both endpoints exactly; closed polylines are sampled
    uniformly around the loop starting at (and keeping) the first vertex.
    """
    if count < 2:
        raise ValueError("resample count must be >= 2")
    total = p.arclength()
    if total <= 0.0:
        raise ValueError("cannot resample a zero-length polyline")
    if p.closed:
        chain = np.vstack([p.vertices, p.vertices[:1]])
        targets = np.arange(count) * (total / count)
        out = _interp_along(chain, targets)
        out[0] = p.vertices[0]
        return Polyline(out, closed=True)
    targets = np.arange(count) * (total / (count - 1))
    out = _interp_along(p.vertices, targets)
    out[0] = p.vertices[0]
    out[-1] = p.vertices[-1]
    return Polyline(out, closed=False)


def point_along(p: Polyline, s):
    """Point(s) at arclength ``s`` along the polyline, clamped to its extent.

    ``s`` is a scalar, giving a ``(2,)`` point, or a 1-D array of
    arclengths, giving an ``(N, 2)`` array. Closed polylines wrap ``s``
    modulo their length first. The arclength table is built once per call,
    so walking a whole path costs one call, not one per point.
    """
    total = p.arclength()
    pts = p.vertices
    s = np.asarray(s, dtype=float)
    if p.closed:
        pts = np.vstack([pts, pts[:1]])
        s = np.mod(s, total)
    out = _interp_along(pts, np.clip(s, 0.0, total).reshape(-1))
    return out[0] if s.ndim == 0 else out


def nearest_point_on_polyline(p: Polyline, q) -> tuple[np.ndarray, float, float]:
    """Closest point on the polyline to ``q``.

    Returns (point, arclength of that point, distance to q).
    """
    q = np.asarray(q, dtype=float)
    pts = p.vertices
    if p.closed:
        pts = np.vstack([pts, pts[:1]])
    a = pts[:-1]
    seg = pts[1:] - a
    seglen2 = (seg * seg).sum(axis=1)
    seglen2_safe = np.where(seglen2 > 0, seglen2, 1.0)
    t = np.clip(((q - a) * seg).sum(axis=1) / seglen2_safe, 0.0, 1.0)
    proj = a + t[:, None] * seg
    d = np.hypot(proj[:, 0] - q[0], proj[:, 1] - q[1])
    i = int(np.argmin(d))
    seglen = np.sqrt(seglen2)
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    return proj[i], float(cum[i] + t[i] * seglen[i]), float(d[i])


def segment_intersects_disc(a, b, center, radius):
    """True when the closed segment a-b passes through the disc.

    Points are ``(..., 2)`` arrays and ``radius`` is a scalar or array; all
    four broadcast together, so one call tests every segment against every
    disc (say ``b`` of shape ``(N, 1, 2)`` against centres ``(1, M, 2)`` and
    radii ``(1, M)`` gives an ``(N, M)`` array). Scalar inputs give a plain
    ``bool``. A zero-length segment is the point ``a``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    center = np.asarray(center, dtype=float)
    seg = b - a
    rel = center - a
    seglen2 = seg[..., 0] * seg[..., 0] + seg[..., 1] * seg[..., 1]
    proj = rel[..., 0] * seg[..., 0] + rel[..., 1] * seg[..., 1]
    # With seg == 0 the projection is 0, so t = 0 and the closest point is a.
    t = np.clip(proj / np.where(seglen2 > 0.0, seglen2, 1.0), 0.0, 1.0)
    gap = a + t[..., None] * seg - center
    hit = np.hypot(gap[..., 0], gap[..., 1]) <= radius
    return bool(hit) if hit.ndim == 0 else hit


@dataclass
class MapElement:
    """One typed map element: a raw vertex sequence, class, and confidence."""

    vertices: np.ndarray
    element_class: ElementClass
    confidence: float = 1.0
    closed: bool = False

    def __post_init__(self):
        self.vertices = _as_points(self.vertices)
        if len(self.vertices) < 2:
            raise ValueError("map element needs at least 2 vertices")
        if not isinstance(self.element_class, ElementClass):
            raise TypeError("element_class must be an ElementClass")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")

    def as_polyline(self) -> Polyline:
        return Polyline(self.vertices.copy(), closed=self.closed)


DEFAULT_PERCEPTION_RANGE = (60.0, 30.0)


@dataclass
class VectorMap:
    """Map elements inside one perception window, with the ego pose."""

    elements: list[MapElement]
    ego_pose: Pose2 = field(default_factory=Pose2.identity)
    perception_range: tuple[float, float] = DEFAULT_PERCEPTION_RANGE

    def by_class(self, element_class: ElementClass) -> list[MapElement]:
        return [e for e in self.elements if e.element_class == element_class]


def check_perception_range(vertices: np.ndarray, ego_pose: Pose2,
                           perception_range: tuple[float, float], slack: float = 1e-6) -> int:
    """Count vertices outside the ego-centered window; warn when any are.

    The window spans half the longitudinal extent forward/backward (local y)
    and half the lateral extent to each side (local x).
    """
    local = transform_points(vertices, ego_pose)
    lon_half = perception_range[0] / 2 + slack
    lat_half = perception_range[1] / 2 + slack
    outside = int(np.sum((np.abs(local[:, 1]) > lon_half) | (np.abs(local[:, 0]) > lat_half)))
    if outside:
        warnings.warn(f"{outside} vertices fall outside the perception range", stacklevel=3)
    return outside
