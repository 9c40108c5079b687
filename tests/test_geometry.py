import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncmap.geometry import (
    MERGE_EPS,
    ElementClass,
    Polyline,
    Pose2,
    nearest_point_on_polyline,
    point_along,
    polyline_vertices,
    pose_in_frame,
    resample,
    segment_intersects_disc,
    transform_point,
    wrap_angle,
)
from uncmap.probmap import MapElement, VectorMap


class TestPolylineConstruction:
    def test_merges_near_duplicate_vertices(self):
        p = Polyline(np.array([[0, 0], [0, 1e-12], [1, 0]]))
        assert len(p.vertices) == 2

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Polyline(np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Polyline(np.array([[0.0, 0.0], [np.nan, 1.0]]))

    def test_closed_drops_explicit_closure(self):
        p = Polyline(np.array([[0, 0], [1, 0], [1, 1], [0, 0]]), closed=True)
        assert len(p.vertices) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Polyline(np.empty((0, 2)))


def reference_merge(vertices, closed):
    """Vertex merging as first written: keep a vertex when it lies at least
    MERGE_EPS from the last vertex kept, then drop a closed polyline's
    trailing repeat of its first vertex; fewer than 2 left is degenerate."""
    pts = np.asarray(vertices, dtype=float)
    keep = [0]
    for i in range(1, len(pts)):
        if np.hypot(*(pts[i] - pts[keep[-1]])) >= MERGE_EPS:
            keep.append(i)
    pts = pts[keep]
    if closed and len(pts) > 2 and np.hypot(*(pts[-1] - pts[0])) < MERGE_EPS:
        pts = pts[:-1]
    if len(pts) < 2:
        raise ValueError("degenerate")
    return pts


# Offsets around MERGE_EPS, so that runs of near-duplicates below it, steps
# just above it and short steps that add up to more than it are all common.
_NUDGES = [0.0, 3e-10, 6e-10, 9.99e-10, 1e-9, 1.5e-9]


@st.composite
def vertex_chains(draw):
    pts = [(draw(st.sampled_from([-2.0, 0.0, 1.0, 3.5])),
            draw(st.sampled_from([-1.0, 0.0, 2.0])))]
    for _ in range(draw(st.integers(0, 7))):
        if draw(st.booleans()):
            x, y = pts[-1]
            pts.append((x + draw(st.sampled_from(_NUDGES)),
                        y - draw(st.sampled_from(_NUDGES))))
        else:
            pts.append((draw(st.sampled_from([-2.0, 0.0, 1.0, 3.5])),
                        draw(st.sampled_from([-1.0, 0.0, 2.0]))))
    closed = draw(st.booleans())
    if closed and draw(st.booleans()):
        x, y = pts[0]
        pts.append((x + draw(st.sampled_from(_NUDGES)), y))
    return np.array(pts), closed


class TestPolylineMerge:
    @settings(max_examples=400, deadline=None)
    @given(vertex_chains())
    def test_matches_reference_loop(self, chain):
        vertices, closed = chain
        try:
            expected = reference_merge(vertices, closed)
        except ValueError:
            with pytest.raises(ValueError):
                Polyline(vertices.copy(), closed=closed)
            return
        p = Polyline(vertices, closed=closed)
        np.testing.assert_array_equal(p.vertices, expected)
        assert not np.shares_memory(p.vertices, vertices)


def segment_lengths(pts, closed=False):
    """Lengths of a chain's segments, a closed loop's closing one last."""
    seg = np.diff(np.vstack([pts, pts[:1]]) if closed else pts, axis=0)
    return np.hypot(seg[:, 0], seg[:, 1])


def arclength(pts, closed=False):
    return float(segment_lengths(pts, closed).sum())


def resample_one(pts, count, closed=False):
    return resample([np.asarray(pts, dtype=float)], [closed], [count])[0]


class TestResample:
    def test_straight_segment_count3(self):
        out = resample_one([[0, 0], [1, 0]], 3)
        np.testing.assert_allclose(out, [[0, 0], [0.5, 0], [1, 0]], atol=1e-15)

    def test_straight_segment_count2_identity(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(resample_one(pts, 2), pts)

    def test_l_shape_count5(self):
        out = resample_one([[0, 0], [1, 0], [1, 1]], 5)
        expected = [[0, 0], [0.5, 0], [1, 0], [1, 0.5], [1, 1]]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_closed_square(self):
        out = resample_one([[0, 0], [1, 0], [1, 1], [0, 1]], 8, closed=True)
        expected = [[0, 0], [0.5, 0], [1, 0], [1, 0.5], [1, 1], [0.5, 1], [0, 1], [0, 0.5]]
        np.testing.assert_allclose(out, expected, atol=1e-12)
        # A closed loop's samples do not repeat the first vertex at the end.
        assert not np.array_equal(out[-1], out[0])

    def test_count_below_two_rejected(self):
        with pytest.raises(ValueError):
            resample_one([[0, 0], [1, 0]], 1)

    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3), "3", True, None],
                             ids=["2.5", "3.0", "float64", "str", "bool", "none"])
    def test_count_that_is_not_an_integer_rejected(self, count):
        # 2.5 once gave 3 unevenly spaced points (x = 0, 6.67, 10).
        with pytest.raises(ValueError, match="integer >= 2"):
            resample([[[0, 0], [10, 0]]], [False], [count])

    def test_numpy_integer_count_accepted(self):
        out = resample([[[0, 0], [10, 0]]], [False], [np.int64(3)])[0]
        np.testing.assert_array_equal(out, [[0, 0], [5, 0], [10, 0]])

    def test_arclength_preserved_when_breakpoints_sampled(self):
        # Polylines with equal-length segments, resampled so every original
        # vertex lands on a sample: total arclength must survive exactly.
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_seg = int(rng.integers(1, 6))
            step = float(rng.uniform(0.5, 3.0))
            heading = rng.uniform(0, 2 * np.pi)
            pts = [np.zeros(2)]
            for _ in range(n_seg):
                heading += rng.uniform(-0.8, 0.8)
                pts.append(pts[-1] + step * np.array([np.cos(heading), np.sin(heading)]))
            m = int(rng.integers(1, 5))
            out = resample_one(pts, n_seg * m + 1)
            assert abs(arclength(out) - arclength(np.array(pts))) < 1e-9

    def test_uniform_spacing(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_seg = int(rng.integers(1, 6))
            step = float(rng.uniform(0.5, 3.0))
            heading = rng.uniform(0, 2 * np.pi)
            pts = [np.zeros(2)]
            for _ in range(n_seg):
                heading += rng.uniform(-0.8, 0.8)
                pts.append(pts[-1] + step * np.array([np.cos(heading), np.sin(heading)]))
            out = resample_one(pts, n_seg * int(rng.integers(1, 5)) + 1)
            gaps = segment_lengths(out)
            assert np.ptp(gaps) < 1e-9


@st.composite
def open_polylines(draw):
    """Open polylines whose steps are at least 0.01 long and turn by less
    than 70 degrees, so that no two consecutive resampled points fall
    within MERGE_EPS of each other (a hairpin can fold two onto one)."""
    n_seg = draw(st.integers(1, 6))
    heading = draw(st.floats(-math.pi, math.pi))
    pts = [np.array([draw(st.floats(-50, 50)), draw(st.floats(-50, 50))])]
    for _ in range(n_seg):
        heading += draw(st.floats(-1.2, 1.2))
        step = draw(st.floats(0.01, 10))
        pts.append(pts[-1] + step * np.array([math.cos(heading), math.sin(heading)]))
    return np.array(pts)


class TestResampleProperties:
    @given(open_polylines(), st.integers(2, 60))
    @settings(max_examples=300, deadline=None)
    def test_keeps_endpoints_and_count(self, pts, count):
        out = resample_one(pts, count)
        assert out.shape == (count, 2)
        np.testing.assert_array_equal(out[0], pts[0])
        np.testing.assert_array_equal(out[-1], pts[-1])


class TestTransforms:
    @pytest.mark.parametrize("values", [(True, 0.0, 0.0), (0.0, np.False_, 0.0),
                                        (0.0, 0.0, True), (np.nan, 0.0, 0.0)])
    def test_pose_needs_finite_numbers(self, values):
        with pytest.raises(ValueError, match="must be a finite number"):
            Pose2(*values)

    def test_identity(self):
        np.testing.assert_allclose(transform_point((1, 0), Pose2.identity()), [1, 0])

    def test_quarter_turn(self):
        out = transform_point((1, 0), Pose2(0, 0, np.pi / 2))
        np.testing.assert_allclose(out, [0, -1], atol=1e-12)

    def test_translation_to_origin(self):
        out = transform_point((2, 3), Pose2(2, 3, 0.77))
        np.testing.assert_allclose(out, [0, 0], atol=1e-12)

    def test_roundtrip_with_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            pose = Pose2(*rng.uniform(-50, 50, 2), rng.uniform(-np.pi, np.pi))
            p = rng.uniform(-50, 50, 2)
            back = transform_point(transform_point(p, pose), pose.inverse())
            np.testing.assert_allclose(back, p, atol=1e-12)

    def test_forward_maps_to_plus_y(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pose = Pose2(*rng.uniform(-5, 5, 2), rng.uniform(-np.pi, np.pi))
            tip = pose.position + pose.forward
            np.testing.assert_allclose(transform_point(tip, pose), [0, 1], atol=1e-12)

    def test_pose_in_frame_composes(self):
        frame = Pose2(1.0, -2.0, 0.6)
        pose = Pose2(3.0, 4.0, -1.1)
        rel = pose_in_frame(pose, frame)
        p = np.array([0.5, 7.0])
        direct = transform_point(transform_point(p, frame), rel)
        np.testing.assert_allclose(direct, transform_point(p, pose), atol=1e-12)


class TestAngles:
    def test_wrap_into_half_open_interval(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert wrap_angle(0.25) == pytest.approx(0.25)

    def test_heading_normalized_at_construction(self):
        assert Pose2(0, 0, 2 * math.pi + 0.5).heading == pytest.approx(0.5)
        assert -math.pi < Pose2(0, 0, -math.pi).heading <= math.pi


class TestPolylineQueries:
    def test_point_along_clamps(self):
        out = point_along([np.array([[0.0, 0.0], [2.0, 0.0]])], [False], [[-1.0, 5.0, 0.5]])
        np.testing.assert_allclose(out[0, 0], [0, 0])
        np.testing.assert_allclose(out[0, 1], [2, 0])
        np.testing.assert_allclose(out[0, 2], [0.5, 0])

    def test_nearest_point(self):
        pt, s, d = nearest_point_on_polyline([np.array([[0.0, 0.0], [10.0, 0.0]])], [False],
                                             [(3.0, 4.0)])
        np.testing.assert_allclose(pt[0], [3, 0])
        assert s[0] == pytest.approx(3.0)
        assert d[0] == pytest.approx(4.0)

    def test_segment_disc_intersection(self):
        assert segment_intersects_disc((0, 0), (10, 0), (5, 1), 2.0)
        assert not segment_intersects_disc((0, 0), (10, 0), (5, 3), 2.0)
        assert segment_intersects_disc((0, 0), (0, 0), (0, 1), 1.5)
        assert segment_intersects_disc((0, 0), (10, 0), (5, 1), 2.0) is True
        assert segment_intersects_disc((0, 0), (0, 0), (5, 1), 2.0) is False


class TestBatchedWalk:
    # Distinct vertices and an open end away from the start: Polyline keeps
    # them as they are, open or closed.
    VERTICES = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0], [-1.0, 5.5]])

    def walk(self, s, closed=False):
        """The points of one row of arclengths along VERTICES."""
        return point_along([self.VERTICES], [closed], np.asarray(s, dtype=float)[None])[0]

    @pytest.mark.parametrize("closed", [False, True])
    def test_array_matches_scalar_calls(self, closed):
        total = arclength(self.VERTICES, closed)
        on_vertices = np.concatenate([[0.0], np.cumsum(segment_lengths(self.VERTICES,
                                                                       closed))])
        ss = np.concatenate([
            [-2.5, -1e-12, 0.0, total, total + 1e-9, total + 7.0],
            on_vertices,
            np.random.default_rng(0).uniform(-total, 2.0 * total, 25),
            [2.5 * total, 3.0 * total + 0.3, -1.7 * total] if closed else [],
        ])
        batched = self.walk(ss, closed)
        assert batched.shape == (len(ss), 2)
        assert np.array_equal(batched, np.array([self.walk([s], closed)[0] for s in ss]))

    def test_lands_on_vertices(self):
        on_vertices = np.concatenate([[0.0], np.cumsum(segment_lengths(self.VERTICES))])
        np.testing.assert_allclose(self.walk(on_vertices), self.VERTICES, atol=1e-12)

    def test_closed_wraps_whole_laps(self):
        total = arclength(self.VERTICES, closed=True)
        laps = 1.25 + np.array([-2.0, -1.0, 0.0, 1.0, 3.0]) * total
        np.testing.assert_allclose(self.walk(laps, closed=True),
                                   np.repeat(self.walk([1.25], closed=True), 5, axis=0),
                                   atol=1e-12)

    def test_scalar_returns_one_point(self):
        for s in (0.7, np.float64(0.7), 3, -1.0, 99.0):
            assert point_along([self.VERTICES], [False], [[s]]).shape == (1, 1, 2)
        assert point_along([self.VERTICES] * 3, [False, True, False],
                           np.zeros((3, 4))).shape == (3, 4, 2)


class TestBroadcastDiscTest:
    def test_matches_scalar_calls_on_grid(self):
        rng = np.random.default_rng(5)
        a = np.array([0.5, -1.0])
        ends = np.vstack([rng.uniform(-10.0, 10.0, (40, 2)),
                          a,                       # zero-length segment
                          [10.5, -1.0]])           # horizontal, for the tangent disc
        centers = np.vstack([rng.uniform(-10.0, 10.0, (6, 2)),
                             a + [0.5, 0.0],       # holds the zero-length segment
                             [5.5, 1.0],           # tangent to the horizontal segment
                             ends[3] + [0.3, 0.2]])  # holds an endpoint
        radii = np.concatenate([rng.uniform(0.5, 4.0, 6), [1.0, 2.0, 1.0]])
        hit = segment_intersects_disc(a, ends[:, None, :], centers[None], radii[None])
        assert hit.shape == (len(ends), len(centers))
        expected = np.array([[segment_intersects_disc(a, b, c, r)
                              for c, r in zip(centers, radii)] for b in ends])
        assert np.array_equal(hit, expected)
        assert hit[40, 6] and not hit[40, 7]
        assert hit[41, 7]
        assert hit[3, 8]
        assert hit.any() and not hit.all()

class TestMapElement:
    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            VectorMap([MapElement(np.array([[0, 0], [1, 0]]), ElementClass.LANE_DIVIDER,
                                  confidence=1.5)])

    def test_vertices_preserved_verbatim(self):
        v = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        el = MapElement(v, ElementClass.ROAD_BOUNDARY)
        assert el.vertices.shape == (3, 2)


# The per-polyline kernels as they were before they became stacked, kept as
# the reference the stacked ones must match bit for bit.

def reference_interp_along(pts, targets):
    seg = np.diff(pts, axis=0)
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seglen)])
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seglen) - 1)
    denom = np.where(seglen[idx] > 0, seglen[idx], 1.0)
    t = np.clip((targets - cum[idx]) / denom, 0.0, 1.0)
    return pts[idx] + t[:, None] * seg[idx]


def reference_resample(p, count):
    if count < 2:
        raise ValueError("resample count must be >= 2")
    total = arclength(p.vertices, p.closed)
    if total <= 0.0:
        raise ValueError("cannot resample a zero-length polyline")
    if p.closed:
        chain = np.vstack([p.vertices, p.vertices[:1]])
        targets = np.arange(count) * (total / count)
        out = reference_interp_along(chain, targets)
        out[0] = p.vertices[0]
        return Polyline(out, closed=True).vertices
    targets = np.arange(count) * (total / (count - 1))
    out = reference_interp_along(p.vertices, targets)
    out[0] = p.vertices[0]
    out[-1] = p.vertices[-1]
    return Polyline(out, closed=False).vertices


def reference_point_along(p, s):
    total = arclength(p.vertices, p.closed)
    pts = p.vertices
    s = np.asarray(s, dtype=float)
    if p.closed:
        pts = np.vstack([pts, pts[:1]])
        s = np.mod(s, total)
    out = reference_interp_along(pts, np.clip(s, 0.0, total).reshape(-1))
    return out[0] if s.ndim == 0 else out


def reference_nearest(p, q):
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


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@st.composite
def raw_chains(draw):
    """A raw vertex chain and its closed flag: a plain random walk, one with
    steps shorter than MERGE_EPS, a tiny one that resampling merges (or
    that is degenerate), or a closed loop with a trailing repeat. Vertex
    counts cluster on a few values so that rows share stacks, and reach 41
    (40 segments) across numpy's pairwise-summation block of 8."""
    kind = draw(st.sampled_from(["plain", "short_steps", "tiny", "trailing_repeat"]))
    n = draw(st.one_of(st.sampled_from([2, 3, 9, 20]), st.integers(2, 41)))
    closed = kind == "trailing_repeat" or draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2e-9 if kind == "tiny" else rng.uniform(0.1, 5.0)
    angles = rng.uniform(-math.pi, math.pi, n - 1)
    steps = scale * rng.uniform(0.5, 1.5, (n - 1, 1)) * np.column_stack(
        [np.cos(angles), np.sin(angles)])
    pts = np.cumsum(np.vstack([rng.uniform(-20, 20, (1, 2)), steps]), axis=0)
    if kind == "short_steps":
        for i in sorted(rng.choice(n, size=min(n, 3), replace=False))[::-1]:
            pts = np.insert(pts, i + 1, pts[i] + rng.choice(_NUDGES), axis=0)
    if kind == "trailing_repeat":
        pts = np.vstack([pts, pts[:1] + np.array([rng.choice(_NUDGES), 0.0])])
    return pts, closed


def polyline_or_none(pts, closed):
    try:
        return Polyline(pts.copy(), closed=closed)
    except ValueError:
        return None


class TestStackedKernels:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(raw_chains(), min_size=1, max_size=12),
           st.lists(st.sampled_from([2, 3, 7, 20]), min_size=12, max_size=12))
    def test_resample_all_matches_per_polyline(self, chains, counts):
        counts = counts[:len(chains)]
        expected = []
        for (pts, closed), count in zip(chains, counts):
            try:
                expected.append(reference_resample(Polyline(pts.copy(), closed=closed),
                                                   count))
            except ValueError:
                expected.append(None)
        args = ([pts for pts, _ in chains], [closed for _, closed in chains], counts)
        if any(e is None for e in expected):
            with pytest.raises(ValueError):
                resample(*args)
            return
        got = resample(*args)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.shape == e.shape and np.array_equal(bits(g), bits(e))
        for (pts, closed), count, e in zip(chains, counts, expected):
            single = resample([pts], [closed], [count])[0]
            assert np.array_equal(bits(single), bits(e))
        for (pts, closed), v in zip(chains, polyline_vertices(*args[:2])):
            assert np.array_equal(bits(v), bits(Polyline(pts.copy(), closed=closed).vertices))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(raw_chains(), min_size=1, max_size=12), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_points_along_matches_per_polyline(self, chains, m, seed):
        polys = [p for p in (polyline_or_none(*c) for c in chains) if p is not None]
        if not polys:
            return
        rng = np.random.default_rng(seed)
        s = np.empty((len(polys), m))
        for row, p in zip(s, polys):
            total = arclength(p.vertices, p.closed)
            on_vertices = np.concatenate([[0.0], np.cumsum(segment_lengths(p.vertices,
                                                                           p.closed))])
            row[:] = rng.choice(np.concatenate([
                on_vertices, [-1.0, total, total + 1.0, 2.5 * total, -1.5 * total],
                rng.uniform(-total, 2 * total, 8)]), m)
        got = point_along([p.vertices for p in polys], [p.closed for p in polys], s)
        assert got.shape == (len(polys), m, 2)
        for g, p, row in zip(got, polys, s):
            assert np.array_equal(bits(g), bits(reference_point_along(p, row)))
            one = point_along([p.vertices], [p.closed], row[None])[0]
            assert np.array_equal(bits(one), bits(reference_point_along(p, row)))
            first = point_along([p.vertices], [p.closed], row[None, :1])[0, 0]
            assert np.array_equal(bits(first), bits(reference_point_along(p, row[0])))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(raw_chains(), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
    def test_nearest_points_matches_per_polyline(self, chains, seed):
        polys = [p for p in (polyline_or_none(*c) for c in chains) if p is not None]
        if not polys:
            return
        rng = np.random.default_rng(seed)
        queries = np.array([p.vertices[rng.integers(len(p.vertices))] + rng.normal(0, 3, 2)
                            for p in polys])
        proj, s, d = nearest_point_on_polyline([p.vertices for p in polys],
                                               [p.closed for p in polys], queries)
        for i, (p, q) in enumerate(zip(polys, queries)):
            e_proj, e_s, e_d = reference_nearest(p, q)
            assert np.array_equal(bits(proj[i]), bits(e_proj))
            assert np.array_equal(bits([s[i], d[i]]), bits([e_s, e_d]))
            one_proj, one_s, one_d = nearest_point_on_polyline([p.vertices], [p.closed], q[None])
            assert np.array_equal(bits(one_proj[0]), bits(e_proj))
            assert np.array_equal(bits([one_s[0], one_d[0]]), bits([e_s, e_d]))

    def test_long_rows_share_a_stack(self):
        # Rows of 8 to 40 segments, several per length, open and closed.
        rng = np.random.default_rng(3)
        chains = [np.cumsum(rng.normal(0, 2, (n, 2)), axis=0)
                  for n in range(9, 42) for _ in range(3)]
        closed = [i % 2 == 1 for i in range(len(chains))]
        got = resample(chains, closed, [20] * len(chains))
        for g, pts, flag in zip(got, chains, closed):
            e = reference_resample(Polyline(pts.copy(), closed=flag), 20)
            assert np.array_equal(bits(g), bits(e))

    def test_empty_and_errors(self):
        assert resample([], [], []) == []
        assert polyline_vertices([], []) == []
        with pytest.raises(ValueError, match="count"):
            resample([np.array([[0.0, 0.0], [1.0, 0.0]])], [False], [1])
        with pytest.raises(ValueError):
            resample([np.array([[0.0, 0.0], [0.0, 0.0]])], [False], [5])
        with pytest.raises(ValueError):
            polyline_vertices([np.array([[0.0, 0.0], [np.nan, 1.0]])], [False])
        with pytest.raises(ValueError):
            polyline_vertices([np.zeros((3, 3))], [False])
