"""Deterministic synthetic scenes, a vertex noise model, and two tiny
goal-snapping predictors.

Scenes are built inside the default 60 m x 30 m ego-centered window with
the ego at the origin heading +y. The noise model inflates per-vertex
Laplace scales with distance from the ego, geometric occlusion (the
ego-to-vertex segment crossing an obstacle disc), and per-condition
multipliers, then draws the observed vertex locations from those
distributions, so generated datasets are self-calibrated by construction.

The two predictors share candidate generation (snap the propagated
endpoint onto nearby lane centerlines) and differ only in whether vertex
uncertainty influences candidate ranking and the blend toward plain
constant-velocity extrapolation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, islice

import numpy as np

from .geometry import (
    CLASS_INDEX,
    NUM_CLASSES,
    ElementClass,
    nearest_point_on_polyline,
    point_along,
    polyline_vertices,
    resample,
    segment_intersects_disc,
)
from .probmap import B_FLOOR, MapElement, VectorMap, _is_real, one_hot_logits

LANE_WIDTH = 3.5
RATE_HZ = 10
# The largest resample_count a config or CLI flag may ask for.
MAX_RESAMPLE_COUNT = 10_000
DT = 1.0 / RATE_HZ
HISTORY_STEPS = 20   # 2 s of history, current position last
FUTURE_STEPS = 30    # 3 s of future
DEFAULT_MODES = 6
DEFAULT_LAMBDA = 1.0
DEFAULT_B0 = 0.5
# Scenes per block of every stage: generate builds and writes one block at a time,
# and each report stage loads one and reduces it before the next. A block of
# README-config scenes holds about 3 500 vertices, so its temporaries stay small.
SCENE_BLOCK = 16


def scene_blocks(items):
    """``items`` in lists of up to ``SCENE_BLOCK``, in order. Each list is
    emptied before the next is read, so a stage that reduces a block and keeps
    none of its items holds one block of scenes at a time."""
    items = iter(items)
    while block := list(islice(items, SCENE_BLOCK)):
        yield block
        block.clear()


class Layout(Enum):
    STRAIGHT_ROAD = "straight_road"
    INTERSECTION = "intersection"
    PARKING_LOT = "parking_lot"


class Condition(Enum):
    DAY = "day"
    NIGHT = "night"
    RAIN = "rain"


@dataclass(frozen=True)
class Occluder:
    """Disc-shaped obstacle casting a geometric shadow from the ego."""

    x: float
    y: float
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("occluder radius must be positive")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass
class SceneSpec:
    """Everything needed to rebuild one scene deterministically."""

    layout: Layout
    seed: int
    n_agents: int = 2
    condition: Condition = Condition.DAY
    occluders: tuple[Occluder, ...] = ()
    lane_change_prob: float = 0.1
    duplicate_centerlines: bool = False


def _check_int(name: str, value, lo: int) -> int:
    """``value`` as an int: an integer (numpy's too, not a bool) >= ``lo``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r:.40}")
    return int(value)


def _check_real(name: str, value, lo: float, hi: float = math.inf, above: bool = False):
    """``value`` if it is a finite real number, not a bool, in [lo, hi], or
    in (lo, hi] with ``above``."""
    try:
        ok = (_is_real(value) and math.isfinite(value)
              and (value > lo if above else value >= lo) and value <= hi)
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        rule = f"{'>' if above else '>='} {lo}" + (f" and <= {hi}" if hi < math.inf else "")
        raise ValueError(f"{name} must be a finite number {rule}, got {value!r:.40}")
    return value


def _check_weights(name: str, weights, enum_cls) -> dict:
    """``weights`` keyed by ``enum_cls`` names (a member key is stored as its
    name), as floats >= 0 that sum to 1."""
    try:
        named = {enum_cls(k).value: w for k, w in weights.items()}
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"{name}: {exc}") from exc
    out = {k: float(_check_real(f"{name} {k}", w, 0)) for k, w in named.items()}
    if abs(sum(out.values()) - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1")
    return out


@dataclass
class NoiseModel:
    """Per-vertex Laplace scale model for the synthetic observer.

    The true scale of a vertex is
    base_b + distance_coeff * distance(vertex, ego), times the occlusion
    multiplier when the ego-to-vertex segment crosses an occluder, times
    the (condition, class) multiplier. The emitted scale equals the true
    scale times ``miscalibration`` (1.0 means well calibrated).

    ``condition_multipliers`` is the config's JSON form, ``{condition:
    {class or "*": number}}``; it is stored with ``"*"`` expanded to every
    class (a later key wins) and every key a name.
    """

    base_b: float = 0.2
    distance_coeff: float = 0.01
    occlusion_multiplier: float = 3.0
    condition_multipliers: dict[str, dict[str, float]] = field(
        default_factory=lambda: {"night": {"ped_crossing": 2.0}, "rain": {"*": 1.3}})
    miscalibration: float = 1.0
    class_mode: str = "calibrated"   # or "one_hot"

    def __post_init__(self):
        _check_real("base_b", self.base_b, B_FLOOR)
        _check_real("distance_coeff", self.distance_coeff, 0)
        _check_real("occlusion_multiplier", self.occlusion_multiplier, 1)
        _check_real("miscalibration", self.miscalibration, 0, above=True)
        try:
            rows = {Condition(cond).value: {
                cls.value: mult for key, mult in per_class.items()
                for cls in (ElementClass if key == "*" else [ElementClass(key)])}
                for cond, per_class in self.condition_multipliers.items()}
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"condition_multipliers: {exc}") from exc
        self.condition_multipliers = {
            cond: {cls: float(_check_real(f"condition_multipliers {cond} {cls}", mult, 1))
                   for cls, mult in row.items()} for cond, row in rows.items()}
        if self.class_mode not in ("calibrated", "one_hot"):
            raise ValueError(f"unknown class_mode {self.class_mode!r}")

    def true_scale(self, points: np.ndarray, ego: np.ndarray, multiplier,
                   shadowed: np.ndarray) -> np.ndarray:
        """(V,) true scales of the (V, 2) ``points`` seen from ``ego``, a (2,)
        or (V, 2) array: times ``occlusion_multiplier`` where ``shadowed`` and
        times ``multiplier``, each point's (condition, class) multiplier."""
        dist = np.hypot(points[:, 0] - ego[..., 0], points[:, 1] - ego[..., 1])
        b = self.base_b + self.distance_coeff * dist
        b = np.where(shadowed, b * self.occlusion_multiplier, b)
        return np.maximum(b * multiplier, B_FLOOR)


def in_shadow(ego: np.ndarray, points: np.ndarray, occluders) -> np.ndarray:
    """(V,) whether the segment from ``ego`` to each of the (V, 2) ``points``
    crosses one of the ``occluders``."""
    if not occluders:
        return np.zeros(len(points), dtype=bool)
    centers = np.array([[o.x, o.y] for o in occluders])
    radii = np.array([o.radius for o in occluders])
    return segment_intersects_disc(ego, points[:, None, :], centers[None],
                                   radii[None]).any(axis=1)


@dataclass
class AgentTrack:
    """One agent's history (current position last), ground-truth future and
    predicted modes, stored as finite float arrays (H, 2), (F, 2) with
    H, F >= 1, and (K, F, 2), where ``None`` means K = 0. Construction raises
    ``ValueError``, naming the field, for any other value."""

    history: np.ndarray
    future: np.ndarray
    modes: np.ndarray | None = None

    def __post_init__(self):
        for name in ("history", "future", "modes"):
            value = getattr(self, name)
            if name == "modes":
                rows, want = (len(self.future), 2), f"(K, {len(self.future)}, 2)"
                value = np.empty((0,) + rows) if value is None else value
            else:
                rows, want = (2,), "(N, 2) with N >= 1"
            arr = np.asarray(value, dtype=float)
            # shape[1:] fixes the rank; history and future need a point.
            if arr.shape[1:] != rows or (name != "modes" and len(arr) == 0):
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} holds a non-finite value")
            setattr(self, name, arr)


# ---------------------------------------------------------------------------
# Layout builders. Each returns a list of MapElement; centerlines are the
# elements agents can follow.
# ---------------------------------------------------------------------------

_HALF_LON = 30.0
_HALF_LAT = 15.0


def _line(x0, y0, x1, y1, cls, closed=False) -> MapElement:
    return MapElement(np.array([[x0, y0], [x1, y1]], dtype=float), cls, closed=closed)


def _straight_road(rng: np.random.Generator) -> list[MapElement]:
    n_lanes = int(rng.integers(2, 5))
    half = n_lanes * LANE_WIDTH / 2
    xc = float(rng.uniform(-(_HALF_LAT - half - 1.0), _HALF_LAT - half - 1.0)) \
        if _HALF_LAT - half > 1.0 else 0.0
    left = xc - half
    elements = [
        _line(left, -_HALF_LON, left, _HALF_LON, ElementClass.ROAD_BOUNDARY),
        _line(left + 2 * half, -_HALF_LON, left + 2 * half, _HALF_LON,
              ElementClass.ROAD_BOUNDARY),
    ]
    for k in range(1, n_lanes):
        x = left + k * LANE_WIDTH
        elements.append(_line(x, -_HALF_LON, x, _HALF_LON, ElementClass.LANE_DIVIDER))
    for k in range(n_lanes):
        x = left + (k + 0.5) * LANE_WIDTH
        elements.append(_line(x, -_HALF_LON, x, _HALF_LON, ElementClass.LANE_CENTERLINE))
    if rng.random() < 0.7:
        yc = float(rng.uniform(-20.0, 15.0))
        quad = np.array([[left, yc], [left + 2 * half, yc],
                         [left + 2 * half, yc + 3.0], [left, yc + 3.0]])
        elements.append(MapElement(quad, ElementClass.PED_CROSSING, closed=True))
    return elements


def _turn_arc(x_in: float, radius: float, n_pts: int = 12) -> np.ndarray:
    """Right-turn path: northbound along x = x_in, exiting eastbound."""
    y_in = -LANE_WIDTH / 2 - radius  # tangency: arc tops out on the exit lane
    center = np.array([x_in + radius, y_in])
    thetas = np.linspace(math.pi, math.pi / 2, n_pts)
    arc = center + radius * np.column_stack([np.cos(thetas), np.sin(thetas)])
    entry = np.array([[x_in, -_HALF_LON]])
    exit_pt = np.array([[_HALF_LAT, y_in + radius]])
    return np.vstack([entry, arc, exit_pt])


def _intersection(rng: np.random.Generator) -> list[MapElement]:
    wn = LANE_WIDTH            # NS road half-width (2 lanes)
    we = LANE_WIDTH            # EW road half-width
    elements = []
    # Corner boundaries (L shapes).
    for sx in (-1, 1):
        for sy in (-1, 1):
            pts = np.array([[sx * wn, sy * _HALF_LON], [sx * wn, sy * we],
                            [sx * _HALF_LAT, sy * we]])
            elements.append(MapElement(pts, ElementClass.ROAD_BOUNDARY))
    # Dividers, broken at the crossing box.
    elements.append(_line(0.0, we + 1.0, 0.0, _HALF_LON, ElementClass.LANE_DIVIDER))
    elements.append(_line(0.0, -_HALF_LON, 0.0, -we - 1.0, ElementClass.LANE_DIVIDER))
    elements.append(_line(-_HALF_LAT, 0.0, -wn - 1.0, 0.0, ElementClass.LANE_DIVIDER))
    elements.append(_line(wn + 1.0, 0.0, _HALF_LAT, 0.0, ElementClass.LANE_DIVIDER))
    # Through centerlines: two northbound, two eastbound.
    for x in (-LANE_WIDTH / 2, LANE_WIDTH / 2):
        elements.append(_line(x, -_HALF_LON, x, _HALF_LON, ElementClass.LANE_CENTERLINE))
    for y in (-LANE_WIDTH / 2, LANE_WIDTH / 2):
        elements.append(_line(-_HALF_LAT, y, _HALF_LAT, y, ElementClass.LANE_CENTERLINE))
    # Optional right-turn centerline from the northbound curb lane.
    if rng.random() < 0.7:
        arc = _turn_arc(LANE_WIDTH / 2, radius=5.0)
        elements.append(MapElement(arc, ElementClass.LANE_CENTERLINE))
    # Crosswalks on the north and south approaches.
    for sy in (-1, 1):
        if rng.random() < 0.8:
            y0 = sy * (we + 1.0)
            y1 = sy * (we + 3.0)
            quad = np.array([[-wn, y0], [wn, y0], [wn, y1], [-wn, y1]])
            elements.append(MapElement(quad, ElementClass.PED_CROSSING, closed=True))
    return elements


def _parking_lot(rng: np.random.Generator) -> list[MapElement]:
    xc = float(rng.uniform(-2.0, 2.0))
    rect = np.array([[-13.0, -24.0], [13.0, -24.0], [13.0, 24.0], [-13.0, 24.0]])
    elements = [MapElement(rect, ElementClass.ROAD_BOUNDARY, closed=True)]
    elements.append(_line(xc, -23.0, xc, 23.0, ElementClass.LANE_CENTERLINE))
    for k in range(-4, 5):
        y = 5.0 * k
        elements.append(_line(xc + 2.0, y, xc + 9.0, y, ElementClass.LANE_DIVIDER))
        elements.append(_line(xc - 9.0, y, xc - 2.0, y, ElementClass.LANE_DIVIDER))
    if rng.random() < 0.5:
        quad = np.array([[xc - 2.0, 20.0], [xc + 2.0, 20.0],
                         [xc + 2.0, 22.5], [xc - 2.0, 22.5]])
        elements.append(MapElement(quad, ElementClass.PED_CROSSING, closed=True))
    return elements


_BUILDERS = {
    Layout.STRAIGHT_ROAD: _straight_road,
    Layout.INTERSECTION: _intersection,
    Layout.PARKING_LOT: _parking_lot,
}

_SPEED_RANGE = {
    Layout.STRAIGHT_ROAD: (4.0, 10.0),
    Layout.INTERSECTION: (4.0, 9.0),
    Layout.PARKING_LOT: (2.0, 4.5),
}


def _layout(spec: SceneSpec, rng: np.random.Generator) -> VectorMap:
    """The ground-truth map of ``spec``, drawn from its scene stream."""
    elements = _BUILDERS[spec.layout](rng)
    if spec.duplicate_centerlines:
        elements += [MapElement(el.vertices + np.array([0.15, 0.0]), el.element_class,
                                el.confidence, el.closed)
                     for el in elements if el.element_class == ElementClass.LANE_CENTERLINE]
    return VectorMap(elements)


def _scene_block(specs) -> tuple[list[VectorMap], list[list[tuple[np.ndarray, np.ndarray]]]]:
    """The ground-truth map and each agent's (history, future) of every spec.

    Each scene draws from its own stream, in this order: the layout, then per
    agent its centerline, speed, start and whether it changes lane. No draw
    depends on a walk, so every agent of the block is walked in one
    ``point_along`` call, and the lane changes take one nearest-point call
    for the candidate lanes and one for the blend.
    """
    rngs = [np.random.default_rng(spec.seed) for spec in specs]
    gts = [_layout(spec, rng) for spec, rng in zip(specs, rngs)]
    lines = [gt.by_class(ElementClass.LANE_CENTERLINE) for gt in gts]
    closed = [c.closed for scene in lines for c in scene]
    chains = polyline_vertices([c.mu for scene in lines for c in scene], closed)
    back = (HISTORY_STEPS - 1) * DT
    fwd = FUTURE_STEPS * DT
    steps = np.arange(-(HISTORY_STEPS - 1), FUTURE_STEPS + 1)
    picked, s, changes, first = [], [], [], 0
    for spec, rng, scene in zip(specs, rngs, lines):
        speed_range = _SPEED_RANGE[spec.layout]
        for _ in range(spec.n_agents):
            idx = first + int(rng.integers(len(scene)))
            pts = chains[idx]
            step = np.diff(np.vstack([pts, pts[:1]]) if closed[idx] else pts, axis=0)
            length = float(np.hypot(step[:, 0], step[:, 1]).sum())
            v_hi = min(speed_range[1], (length - 2.0) / (back + fwd))
            v_lo = min(speed_range[0], max(v_hi - 0.5, 0.5))
            v = float(rng.uniform(v_lo, v_hi))
            s0 = float(rng.uniform(back * v + 0.5, length - fwd * v - 0.5))
            picked.append((idx, first, first + len(scene)))
            s.append(s0 + v * DT * steps)
            changes.append(rng.random() < spec.lane_change_prob)
        first += len(scene)
    track = point_along([chains[i] for i, _, _ in picked], [closed[i] for i, _, _ in picked],
                        np.array(s).reshape(len(picked), len(steps)))
    futures = list(track[:, HISTORY_STEPS:])
    _change_lanes(futures, [(a, *picked[a]) for a, change in enumerate(changes) if change],
                  chains, closed)
    bounds = list(accumulate((spec.n_agents for spec in specs), initial=0))
    return gts, [[(track[a, :HISTORY_STEPS], futures[a]) for a in range(lo, hi)]
                 for lo, hi in zip(bounds, bounds[1:])]


def _change_lanes(futures, movers, chains, closed) -> None:
    """Blend each mover's future onto the first other centerline of its scene
    that lies one lane width away at both ends of the future; ``movers``
    holds (agent, own chain, first and end chain of its scene). Every blended
    point stays within half a lane of one of the two lanes."""
    rows = [(a, c) for a, idx, lo, hi in movers for c in range(lo, hi) if c != idx]
    if not rows:
        return
    ends = np.array([futures[a][[0, -1]] for a, _ in rows]).reshape(-1, 2)
    gaps = nearest_point_on_polyline([chains[c] for _, c in rows for _ in range(2)],
                                     [closed[c] for _, c in rows for _ in range(2)], ends)[2]
    fits = (np.abs(gaps - LANE_WIDTH) < 0.1).reshape(-1, 2).all(axis=1)
    target = {}
    for (a, c), ok in zip(rows, fits):
        if ok:
            target.setdefault(a, c)
    if not target:
        return
    n = FUTURE_STEPS
    onto = nearest_point_on_polyline([chains[c] for c in target.values() for _ in range(n)],
                                     [closed[c] for c in target.values() for _ in range(n)],
                                     np.concatenate([futures[a] for a in target]))[0]
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(1, n + 1) / n))
    for j, a in enumerate(target):
        future = futures[a]
        futures[a] = future + ramp[:, None] * (onto[j * n:(j + 1) * n] - future)


def generate_scene(spec: SceneSpec) -> tuple[VectorMap, list[AgentTrack]]:
    """Build the ground-truth map and agent tracks for one scene spec.

    Output is a pure function of the spec (same spec, same bits). The ego
    sits at the origin heading +y; agents run along lane centerlines at
    constant speed, optionally blending onto an adjacent lane.
    """
    (gt,), (tracks,) = _scene_block([spec])
    return gt, [AgentTrack(history, future) for history, future in tracks]


def _observe_block(gts, noise: NoiseModel, specs, seeds, resample_count: int) -> list[VectorMap]:
    """:func:`observe` of each ground-truth map with its spec and seed.

    One call resamples every element of every map, one computes every true
    scale and one pass turns the drawn confidences into class logits. The
    draws stay per element, in each scene's own stream: the Laplace noise,
    then (with calibrated classes) the confidence q, the correctness test
    and the wrong class, then the element confidence.
    """
    elements = [el for gt in gts for el in gt.elements]
    points = resample([el.vertices for el in elements], [el.closed for el in elements],
                      [resample_count] * len(elements))
    rows = np.cumsum([0] + [len(p) for p in points])
    pts = np.concatenate(points) if points else np.empty((0, 2))
    scene_rows = rows[np.cumsum([0] + [len(gt.elements) for gt in gts])]
    shadowed = np.empty(len(pts), dtype=bool)
    for gt, spec, lo, hi in zip(gts, specs, scene_rows, scene_rows[1:]):
        shadowed[lo:hi] = in_shadow(gt.ego_pose.position, pts[lo:hi], spec.occluders)
    counts = np.diff(rows)
    true_idx = np.repeat([CLASS_INDEX[el.element_class] for el in elements], counts)
    multipliers = noise.condition_multipliers
    b_true = noise.true_scale(
        pts, np.repeat([gt.ego_pose.position for gt in gts], np.diff(scene_rows), axis=0),
        np.repeat([multipliers.get(spec.condition.value, {}).get(el.element_class.value, 1.0)
                   for gt, spec in zip(gts, specs) for el in gt.elements], counts),
        shadowed)
    calibrated = noise.class_mode == "calibrated"
    mu, q, u = np.empty_like(pts), np.empty(len(pts)), np.empty(len(pts))
    wrong = np.empty(len(pts), dtype=np.int64)
    labels, bounds = [], rows.tolist()
    for gt, seed in zip(gts, seeds):
        rng = np.random.default_rng(seed)
        for el in gt.elements:
            lo, hi = bounds[len(labels)], bounds[len(labels) + 1]
            mu[lo:hi] = rng.laplace(pts[lo:hi], b_true[lo:hi, None])
            if calibrated:
                q[lo:hi] = rng.uniform(0.55, 0.95, size=hi - lo)
                rng.random(out=u[lo:hi])
                wrong[lo:hi] = rng.choice(NUM_CLASSES - 1, size=hi - lo)
            labels.append(MapElement(None, el.element_class, float(rng.uniform(0.7, 1.0)),
                                     el.closed))
    b = np.maximum(b_true * noise.miscalibration, B_FLOOR)[:, None].repeat(2, axis=1)
    if calibrated:
        # The predicted class is the true one with probability exactly q, and
        # the emitted distribution puts q on it, so accuracy at confidence q
        # is q; a wrong draw skips the true class.
        wrong += wrong >= true_idx
        pred = np.where(u < q, true_idx, wrong)
        logits = np.repeat(((1.0 - q) / (NUM_CLASSES - 1))[:, None], NUM_CLASSES, axis=1)
        logits[np.arange(len(pts)), pred] = q
        np.log(logits, out=logits)
    else:
        logits = one_hot_logits(true_idx)
    out, e = [], 0
    for gt, lo, hi in zip(gts, scene_rows, scene_rows[1:]):
        n = len(gt.elements)
        scaled = hi > lo
        # Noise draws can push window-edge vertices just outside the
        # perception range; that is the intended output, and the map counts them.
        out.append(VectorMap.from_columns(labels[e:e + n], rows[e:e + n + 1] - lo, mu[lo:hi],
                                          b[lo:hi] if scaled else None,
                                          logits[lo:hi] if scaled else None,
                                          gt.ego_pose, gt.perception_range))
        e += n
    return out


def observe(gt: VectorMap, noise: NoiseModel, spec: SceneSpec, seed: int,
            resample_count: int = 20) -> VectorMap:
    """Emulate a probabilistic map estimate of a ground-truth map.

    Every element is resampled to ``resample_count`` vertices; each vertex
    gets its true scale from the noise model, a location drawn from
    Laplace(true vertex, true scale), and an emitted scale of
    true scale * miscalibration. Class logits are one-hot with
    ``class_mode="one_hot"``; otherwise each vertex's top-1 confidence
    matches its top-1 accuracy.
    """
    return _observe_block([gt], noise, [spec], [seed], resample_count)[0]


# ---------------------------------------------------------------------------
# Baseline predictors
# ---------------------------------------------------------------------------

def predict_scenes(histories, maps, k: int = DEFAULT_MODES, lam: float = DEFAULT_LAMBDA,
                   b0: float = DEFAULT_B0, weighted: bool = False) -> list[list[np.ndarray]]:
    """Goal-snapping predictions for every agent of each scene's list of
    ``histories`` on its map of ``maps``.

    Each agent's history (current position last) gives its position and a
    constant velocity. Candidate goals are the nearest points on the K
    centerlines closest to the constant-velocity endpoint; each mode runs
    along its centerline at the agent's current speed from the snapped
    entry point. An agent that does not move, or a map without
    centerlines, gets the single constant-velocity mode.

    With ``weighted``, the maps' elements carry scales and candidates
    are ranked by snap distance plus ``lam`` times the centerline's mean
    scale above the floor, so unreliable centerlines are demoted. Each
    snapped mode is then blended toward the constant-velocity path with
    weight w = excess / (excess + b0), so modes on confident centerlines
    stay put while modes on uncertain ones defer to the agent's own
    motion. With every scale at the floor the output is bit-identical to
    the unweighted one on the mean map.

    Returns, per scene, one (n_modes, FUTURE_STEPS, 2) array per agent,
    n_modes <= k. The goal distances of every (agent, centerline) pair of
    every scene take one nearest-point call, and the snap paths of every
    (agent, mode) one nearest-point call and one walk.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    flat = [np.asarray(h, dtype=float) for scene in histories for h in scene]
    pos = np.array([h[-1] for h in flat], dtype=float).reshape(len(flat), 2)
    vel = np.array([(h[-1] - h[-2]) / DT if len(h) >= 2 else np.zeros(2)
                    for h in flat], dtype=float).reshape(len(flat), 2)
    speed = np.hypot(vel[:, 0], vel[:, 1])
    steps = np.arange(1, FUTURE_STEPS + 1)
    cv = pos[:, None, :] + steps[:, None] * (vel * DT)[:, None, :]
    out = [path[None] for path in cv]
    lines = [vmap.by_class(ElementClass.LANE_CENTERLINE) for vmap in maps]
    # The first chain and the chain count of each agent's scene.
    offsets = list(accumulate(map(len, lines), initial=0))
    span = [(offsets[i], len(lines[i])) for i, scene in enumerate(histories) for _ in scene]
    movers = [a for a, moving in enumerate((speed >= 1e-9).tolist()) if moving and span[a][1]]
    if movers:
        centerlines = [c for scene in lines for c in scene]
        closed = [c.closed for c in centerlines]
        chains = polyline_vertices([c.mu for c in centerlines], closed)
        first, width = np.array([span[a] for a in movers]).T
        k = min(k, int(width.max()))  # a k past every row selects the same modes
        # Every (mover, centerline of its scene) pair, mover by mover.
        pairs = [lo + j for a in movers for lo, n in [span[a]] for j in range(n)]
        movers = np.array(movers)
        endpoint = pos[movers] + vel[movers] * DT * FUTURE_STEPS
        dist = nearest_point_on_polyline([chains[i] for i in pairs], [closed[i] for i in pairs],
                                         np.repeat(endpoint, width, axis=0))[2]
        if weighted:
            excess = np.array([max(float(c.b.mean()) - B_FLOOR, 0.0) for c in centerlines])
            dist = dist + lam * excess[pairs]
        else:
            excess = np.zeros(len(chains))
        # One row per mover; the padding of a short row is NaN, which a
        # stable sort puts after every distance.
        real = np.arange(width.max()) < width[:, None]
        goal_dist = np.full(real.shape, np.nan)
        goal_dist[real] = dist
        order = np.argsort(goal_dist, axis=1, kind="stable")[:, :k]
        n_modes = np.minimum(width, k)
        line = (first[:, None] + order)[real[:, :k]]
        agent = np.repeat(movers, n_modes)
        rows = line.tolist()
        mode_chains, mode_closed = [chains[i] for i in rows], [closed[i] for i in rows]
        s_entry = nearest_point_on_polyline(mode_chains, mode_closed, pos[agent])[1]
        paths = point_along(mode_chains, mode_closed,
                            s_entry[:, None] + (speed[agent] * DT)[:, None] * steps)
        w = excess[line] / (excess[line] + b0)
        blend = w > 0.0
        paths[blend] += w[blend, None, None] * (cv[agent[blend]] - paths[blend])
        lo = 0
        for a, n in zip(movers.tolist(), n_modes.tolist()):
            out[a], lo = paths[lo:lo + n], lo + n
    offsets = list(accumulate(map(len, histories), initial=0))
    return [out[lo:hi] for lo, hi in zip(offsets, offsets[1:])]


def predict_blind(history: np.ndarray, vmap: VectorMap, k: int = DEFAULT_MODES) -> np.ndarray:
    """Goal-snapping predictor that ignores map uncertainty: the one-agent
    :func:`predict_scenes`.

    Returns an (n_modes, FUTURE_STEPS, 2) array, n_modes <= k.
    """
    return predict_scenes([[history]], [vmap], k)[0][0]


def predict_weighted(history: np.ndarray, pmap: VectorMap, k: int = DEFAULT_MODES,
                     lam: float = DEFAULT_LAMBDA, b0: float = DEFAULT_B0) -> np.ndarray:
    """Goal-snapping predictor that listens to map uncertainty: the
    one-agent :func:`predict_scenes` with ``weighted=True``."""
    return predict_scenes([[history]], [pmap], k, lam, b0, weighted=True)[0][0]


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

@dataclass
class SceneRecord:
    scene_id: str
    spec: SceneSpec
    observe_seed: int
    gt_map: VectorMap
    observed_map: VectorMap
    agents: list[AgentTrack]


@dataclass
class DatasetConfig:
    """Knobs for :func:`build_dataset`; defaults give the standard benchmark.
    The fields hold the config's JSON form: weights keyed by layout and
    condition name."""

    n_scenes: int = 40
    seed: int = 0
    layout_weights: dict[str, float] = field(
        default_factory=lambda: {"straight_road": 0.6, "intersection": 0.25,
                                 "parking_lot": 0.15})
    condition_weights: dict[str, float] = field(
        default_factory=lambda: {"day": 0.7, "night": 0.2, "rain": 0.1})
    n_agents: int = 2
    max_occluders: int = 3
    occluder_radius: tuple[float, float] = (1.5, 4.0)
    lane_change_prob: float = 0.1
    duplicate_centerlines: bool = False
    noise: NoiseModel = field(default_factory=NoiseModel)
    resample_count: int = 20
    modes: int = DEFAULT_MODES
    predictor: str = "blind"   # blind | weighted | exact | none
    lam: float = DEFAULT_LAMBDA
    b0: float = DEFAULT_B0

    def __post_init__(self):
        for name, lo in (("n_scenes", 1), ("seed", 0), ("n_agents", 1), ("max_occluders", 0),
                         ("resample_count", 2), ("modes", 1)):
            setattr(self, name, _check_int(name, getattr(self, name), lo))
        if self.resample_count > MAX_RESAMPLE_COUNT:
            raise ValueError(f"resample_count must be <= {MAX_RESAMPLE_COUNT}, "
                             f"got {self.resample_count}")
        self.layout_weights = _check_weights("layout_weights", self.layout_weights, Layout)
        self.condition_weights = _check_weights("condition_weights", self.condition_weights,
                                                Condition)
        radius = self.occluder_radius   # rng.uniform's (low, high); it refuses high < low
        if not (isinstance(radius, (tuple, list)) and len(radius) == 2):
            raise ValueError(f"occluder_radius must hold 2 numbers, got {radius!r:.40}")
        low = float(_check_real("occluder_radius low", radius[0], 0, above=True))
        high = float(_check_real("occluder_radius high", radius[1], low))
        self.occluder_radius = (low, high)
        _check_real("lane_change_prob", self.lane_change_prob, 0, 1)
        dup = self.duplicate_centerlines
        if not isinstance(dup, bool):
            raise ValueError(f"duplicate_centerlines must be true or false, got {dup!r:.40}")
        if not isinstance(self.noise, NoiseModel):
            raise ValueError(f"noise must be a NoiseModel, got {self.noise!r:.40}")
        if self.predictor not in ("blind", "weighted", "exact", "none"):
            raise ValueError(f"unknown predictor {self.predictor!r}")
        _check_real("lam", self.lam, 0)
        _check_real("b0", self.b0, 0, above=True)


@dataclass
class SyntheticDataset:
    records: list[SceneRecord]
    config: DatasetConfig


def _weighted_choice(rng: np.random.Generator, weights: dict):
    keys = list(weights.keys())
    p = np.array([weights[k] for k in keys], dtype=float)
    return keys[int(rng.choice(len(keys), p=p / p.sum()))]


def _sample_occluders(rng: np.random.Generator, max_count: int,
                      radius_range: tuple[float, float]) -> tuple[Occluder, ...]:
    count = int(rng.integers(0, max_count + 1))
    out = []
    for _ in range(count):
        radius = float(rng.uniform(*radius_range))
        for _ in range(20):
            x = float(rng.uniform(-_HALF_LAT, _HALF_LAT))
            y = float(rng.uniform(-_HALF_LON, _HALF_LON))
            if math.hypot(x, y) > radius + 2.0:
                out.append(Occluder(x, y, radius))
                break
    return tuple(out)


def generate_records(cfg: DatasetConfig):
    """Yield the scene records of the dataset ``cfg`` describes, in order.

    The master stream draws only the scene specs and per-scene seeds, so
    each scene is built from its own seeds alone. Scenes are built in blocks
    of ``SCENE_BLOCK``: one call per block generates the maps and walks the
    agents, one observes the maps and one runs the predictor. A block is
    built when its first record is asked for, so a consumer that writes each
    record as it arrives holds one block at a time.
    """
    master = np.random.default_rng(cfg.seed)
    specs, seeds = [], []
    for _ in range(cfg.n_scenes):
        layout = Layout(_weighted_choice(master, cfg.layout_weights))
        condition = Condition(_weighted_choice(master, cfg.condition_weights))
        occluders = _sample_occluders(master, cfg.max_occluders, cfg.occluder_radius)
        scene_seed = int(master.integers(0, 2**63 - 1))
        seeds.append(int(master.integers(0, 2**63 - 1)))
        specs.append(SceneSpec(layout=layout, seed=scene_seed, n_agents=cfg.n_agents,
                               condition=condition, occluders=occluders,
                               lane_change_prob=cfg.lane_change_prob,
                               duplicate_centerlines=cfg.duplicate_centerlines))
    for block in scene_blocks(zip(range(cfg.n_scenes), specs, seeds)):
        yield from _record_block(cfg, block)


def _record_block(cfg: DatasetConfig, block) -> list[SceneRecord]:
    """The records of a block of (index, spec, observe seed) scenes."""
    index, specs, seeds = zip(*block)
    gts, tracks = _scene_block(specs)
    observed = _observe_block(gts, cfg.noise, specs, seeds, cfg.resample_count)
    if cfg.predictor in ("blind", "weighted"):  # lam and b0 move no blind mode
        modes = predict_scenes([[h for h, _ in scene] for scene in tracks], observed,
                               cfg.modes, cfg.lam, cfg.b0, weighted=cfg.predictor == "weighted")
    else:
        modes = [[future[None] if cfg.predictor == "exact" else None for _, future in scene]
                 for scene in tracks]
    return [SceneRecord(f"scene_{i:04d}", spec, seed, gt, obs,
                        [AgentTrack(history, future, m)
                         for (history, future), m in zip(scene, scene_modes)])
            for i, spec, seed, gt, obs, scene, scene_modes in zip(
                index, specs, seeds, gts, observed, tracks, modes)]


def build_dataset(config: DatasetConfig | None = None) -> SyntheticDataset:
    """Generate a full deterministic dataset from one master seed: the
    records of :func:`generate_records`, all held in one list."""
    cfg = config or DatasetConfig()
    return SyntheticDataset(list(generate_records(cfg)), cfg)
