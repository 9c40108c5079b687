"""Planar geometry shared by every other module: points, poses and frames,
polylines and their walks, and the perception-window check. The map
element and map types built on it live in :mod:`uncmap.probmap`.

Points are length-2 float arrays in meters. Frames follow a heading-up
convention: expressing a world point in a pose's frame applies
``R(-heading) @ (p - position)``, so the pose's forward direction
``(-sin(heading), cos(heading))`` lands on the +y axis of its own frame.

There are three polyline walks: :func:`resample` (a fixed count of
equally spaced vertices), :func:`point_along` (the points at given
arclengths) and :func:`nearest_point_on_polyline` (the closest point to a
query, with its arclength and distance). Each takes a list of vertex
chains with one ``closed`` flag per chain, so a caller walks all elements
of a map or scene in one call. It splits the chains into stacks of one
shape and flag and walks each (R, N, 2) stack at once: it builds every
row's arclength table with one ``cumsum(axis=1)`` and row sums, and finds
each target's segment by a comparison count in place of ``searchsorted``.

Rows are grouped by length rather than padded to one: numpy sums a row of
8 or more values pairwise, so a padded row's total rounds differently from
the polyline's own, while row sums and running sums of equal-length rows
match the single-row results bit for bit. Polyline normalisation (the
merging of steps shorter than ``MERGE_EPS`` and the trailing repeat of a
closed loop) is checked for a whole stack at once, on input and on output;
only the rows that need it build a :class:`Polyline`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
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
    """Rigid 2D pose: a position plus a frame heading in radians, each a finite
    number and not a bool, stored as a float.

    ``heading`` is normalized to (-pi, pi] at construction. A heading of 0
    means the pose's forward direction is world +y.
    """

    x: float
    y: float
    heading: float = 0.0

    def __post_init__(self):
        for name, value in (("x", self.x), ("y", self.y), ("heading", self.heading)):
            if isinstance(value, (bool, np.bool_)) or not math.isfinite(value):
                raise ValueError(f"Pose2.{name} must be a finite number")
            object.__setattr__(self, name, float(value))
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    @classmethod
    def identity(cls) -> "Pose2":
        return cls(0.0, 0.0, 0.0)

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
    """One vertex chain, open or closed, normalised by the reference merge
    loop, which the walks run only for the rows that need it.

    Construction coerces vertices to float64, merges consecutive vertices
    closer than ``MERGE_EPS`` (for closed polylines this includes an explicit
    trailing repeat of the first vertex), and requires at least two distinct
    vertices afterwards.
    """

    vertices: np.ndarray
    closed: bool = False

    def __post_init__(self):
        pts = _as_points(self.vertices)
        keep = []  # indexing copies, so the polyline never shares the caller's array
        for i in range(len(pts)):
            if not keep or np.hypot(*(pts[i] - pts[keep[-1]])) >= MERGE_EPS:
                keep.append(i)
        pts = pts[keep]
        if self.closed and len(pts) > 2 and np.hypot(*(pts[-1] - pts[0])) < MERGE_EPS:
            pts = pts[:-1]
        if len(pts) < 2:
            raise ValueError("degenerate polyline: fewer than 2 distinct vertices")
        self.vertices = pts


def group_indices(keys) -> list[tuple[tuple, list[int]]]:
    """(key, row indices) for each distinct key, in order of first appearance.

    The stacked kernels take one stack of equal-shape rows per call; this
    splits a ragged list into such stacks, say by (shape, closed).
    """
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.items())


def _stack(chains, rows) -> np.ndarray:
    """The chains at ``rows``, which share one shape, as one float stack."""
    return np.array([chains[r] for r in rows], dtype=float)


def _irregular(stack: np.ndarray, closed: bool) -> np.ndarray:
    """(R,) rows of an (R, N, 2) stack that ``Polyline`` would change or
    reject: a step shorter than ``MERGE_EPS``, a closed loop's trailing
    repeat of its first vertex, a non-finite value, or a bad shape."""
    if stack.ndim != 3 or stack.shape[1] < 2 or stack.shape[2] != 2:
        return np.ones(len(stack), dtype=bool)
    step = np.diff(stack, axis=1)
    bad = (np.hypot(step[..., 0], step[..., 1]) < MERGE_EPS).any(axis=1)
    bad |= ~np.isfinite(stack).all(axis=(1, 2))
    if closed and stack.shape[1] > 2:
        gap = stack[:, -1] - stack[:, 0]
        bad |= np.hypot(gap[:, 0], gap[:, 1]) < MERGE_EPS
    return bad


def _normalised(stack: np.ndarray, closed: bool) -> list[np.ndarray]:
    """The vertices ``Polyline`` keeps of each row; only irregular rows
    build one."""
    rows = list(stack)
    for r in np.flatnonzero(_irregular(stack, closed)):
        rows[r] = Polyline(stack[r], closed=closed).vertices
    return rows


def polyline_vertices(chains, closed) -> list[np.ndarray]:
    """The vertices ``Polyline(chain, closed=flag).vertices`` holds, for
    each chain and flag, with the same errors.

    Chains of one shape and flag are checked as one stack.
    """
    closed = [bool(c) for c in closed]
    out: list = [None] * len(chains)
    for (_, flag), rows in group_indices(zip(map(np.shape, chains), closed)):
        for r, pts in zip(rows, _normalised(_stack(chains, rows), flag)):
            out[r] = pts
    return out


def _chain(stack: np.ndarray, closed: bool) -> np.ndarray:
    """Vertex chains to walk: a closed loop repeats its first vertex last."""
    return np.concatenate([stack, stack[:, :1]], axis=1) if closed else stack


def _cumulative(seglen: np.ndarray) -> np.ndarray:
    """(R, K + 1) arclength at each vertex of (R, K) segment lengths."""
    cum = np.zeros((seglen.shape[0], seglen.shape[1] + 1))
    np.cumsum(seglen, axis=1, out=cum[:, 1:])
    return cum


def _walk(stack: np.ndarray, closed: bool, targets) -> np.ndarray:
    """(R, M, 2) points along each row of the stack.

    ``targets`` maps the (R, 1) row lengths (the row sums of the segment
    lengths) to the (R, M) arclengths to walk to. Closed rows are walked
    around the loop, back to the first vertex.
    """
    chain = _chain(stack, closed)
    seg = np.diff(chain, axis=1)
    seglen = np.hypot(seg[..., 0], seg[..., 1])
    cum = _cumulative(seglen)
    s = targets(seglen.sum(axis=1)[:, None])
    # The segment of each target: the number of vertex arclengths at or
    # below it, less one (``searchsorted(side="right") - 1`` of each row).
    idx = np.clip((cum[:, None, :] <= s[..., None]).sum(axis=2) - 1, 0, seglen.shape[1] - 1)
    rows = np.arange(len(chain))[:, None]
    denom = np.where(seglen[rows, idx] > 0, seglen[rows, idx], 1.0)
    t = np.clip((s - cum[rows, idx]) / denom, 0.0, 1.0)
    return chain[rows, idx] + t[..., None] * seg[rows, idx]


def _resample(stack: np.ndarray, closed: bool, count: int) -> np.ndarray:
    """(R, count, 2) resampled rows, before ``Polyline`` normalisation; ``count``
    must be an integer >= 2 (a numpy integer too, not a float)."""
    if not hasattr(count, "__index__") or operator.index(count) < 2:
        raise ValueError(f"resample count must be an integer >= 2, got {count!r}")

    def targets(total):
        if np.any(total <= 0.0):
            raise ValueError("cannot resample a zero-length polyline")
        return np.arange(count) * (total / (count if closed else count - 1))

    out = _walk(stack, closed, targets)
    out[:, 0] = stack[:, 0]
    if not closed:
        out[:, -1] = stack[:, -1]
    return out


def _point_along(stack: np.ndarray, closed: bool, s: np.ndarray) -> np.ndarray:
    """(R, M, 2) points at arclengths ``s`` (R, M), clamped to each row's
    extent; closed rows wrap ``s`` modulo their length first."""
    def targets(total):
        return np.clip(np.mod(s, total) if closed else s, 0.0, total)

    return _walk(stack, closed, targets)


def _nearest(stack: np.ndarray, closed: bool, q: np.ndarray):
    """Closest point of each row to its query ``q`` (R, 2): the (R, 2)
    points, their (R,) arclengths and (R,) distances."""
    chain = _chain(stack, closed)
    a = chain[:, :-1]
    seg = chain[:, 1:] - a
    seglen2 = (seg * seg).sum(axis=2)
    seglen2_safe = np.where(seglen2 > 0, seglen2, 1.0)
    t = np.clip(((q[:, None, :] - a) * seg).sum(axis=2) / seglen2_safe, 0.0, 1.0)
    proj = a + t[..., None] * seg
    d = np.hypot(proj[..., 0] - q[:, None, 0], proj[..., 1] - q[:, None, 1])
    i = np.argmin(d, axis=1)
    seglen = np.sqrt(seglen2)
    rows = np.arange(len(chain))
    s = _cumulative(seglen)[rows, i] + t[rows, i] * seglen[rows, i]
    return proj[rows, i], s, d[rows, i]


def resample(chains, closed, counts) -> list[np.ndarray]:
    """Each chain resampled to exactly its count of vertices, equally
    spaced by arclength, as ``Polyline`` keeps them; raw chains are
    normalised first (see :func:`polyline_vertices`), with the same errors.

    Open chains keep both endpoints exactly; closed chains are sampled
    uniformly around the loop starting at (and keeping) the first vertex.
    Chains of one shape, flag and count are resampled as one stack.
    """
    closed = [bool(c) for c in closed]
    verts = polyline_vertices(chains, closed)
    out: list = [None] * len(verts)
    for (_, flag, count), rows in group_indices(zip(map(np.shape, verts), closed, counts)):
        for r, pts in zip(rows, _normalised(_resample(_stack(verts, rows), flag, count),
                                            flag)):
            out[r] = pts
    return out


def point_along(chains, closed, s) -> np.ndarray:
    """(R, M, 2) points of each chain at its row of arclengths ``s`` (R, M),
    clamped to the chain's extent; closed chains wrap ``s`` modulo their
    length first. Chains are vertices as ``Polyline`` keeps them (see
    :func:`polyline_vertices`); chains of one shape and flag are walked as
    one stack."""
    s = np.asarray(s, dtype=float)
    out = np.empty(s.shape + (2,))
    for (_, flag), rows in group_indices(zip(map(np.shape, chains), map(bool, closed))):
        out[rows] = _point_along(_stack(chains, rows), flag, s[rows])
    return out


def nearest_point_on_polyline(chains, closed,
                              queries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closest point of each chain to its query (R, 2): the (R, 2) points,
    their (R,) arclengths and (R,) distances. Chains are vertices as
    ``Polyline`` keeps them (see :func:`polyline_vertices`); chains of one
    shape and flag are searched as one stack."""
    queries = np.asarray(queries, dtype=float).reshape(-1, 2)
    proj, s, d = np.empty((len(chains), 2)), np.empty(len(chains)), np.empty(len(chains))
    for (_, flag), rows in group_indices(zip(map(np.shape, chains), map(bool, closed))):
        proj[rows], s[rows], d[rows] = _nearest(_stack(chains, rows), flag, queries[rows])
    return proj, s, d


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


DEFAULT_PERCEPTION_RANGE = (60.0, 30.0)
# A vertex this far past the window's edge still counts as inside.
_RANGE_SLACK = 1e-6


def check_perception_range(vertices: np.ndarray, ego_pose: Pose2,
                           perception_range: tuple[float, float]) -> int:
    """Count vertices outside the ego-centered window.

    The window spans half the longitudinal extent forward/backward (local y)
    and half the lateral extent to each side (local x).
    """
    local = transform_points(vertices, ego_pose)
    lon_half = perception_range[0] / 2 + _RANGE_SLACK
    lat_half = perception_range[1] / 2 + _RANGE_SLACK
    return int(np.sum((np.abs(local[:, 1]) > lon_half) | (np.abs(local[:, 0]) > lat_half)))
