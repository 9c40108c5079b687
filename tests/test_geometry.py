import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncmap.geometry import (
    MERGE_EPS,
    MapElement,
    ElementClass,
    Polyline,
    Pose2,
    nearest_point_on_polyline,
    point_along,
    pose_in_frame,
    resample,
    segment_intersects_disc,
    transform_point,
    wrap_angle,
)


class TestPolylineConstruction:
    def test_merges_near_duplicate_vertices(self):
        p = Polyline(np.array([[0, 0], [0, 1e-12], [1, 0]]))
        assert len(p) == 2

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Polyline(np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Polyline(np.array([[0.0, 0.0], [np.nan, 1.0]]))

    def test_closed_drops_explicit_closure(self):
        p = Polyline(np.array([[0, 0], [1, 0], [1, 1], [0, 0]]), closed=True)
        assert len(p) == 3

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


class TestResample:
    def test_straight_segment_count3(self):
        p = Polyline(np.array([[0, 0], [1, 0]]))
        out = resample(p, 3)
        np.testing.assert_allclose(out.vertices, [[0, 0], [0.5, 0], [1, 0]], atol=1e-15)

    def test_straight_segment_count2_identity(self):
        p = Polyline(np.array([[0, 0], [1, 0]]))
        out = resample(p, 2)
        np.testing.assert_array_equal(out.vertices, p.vertices)

    def test_l_shape_count5(self):
        p = Polyline(np.array([[0, 0], [1, 0], [1, 1]]))
        out = resample(p, 5)
        expected = [[0, 0], [0.5, 0], [1, 0], [1, 0.5], [1, 1]]
        np.testing.assert_allclose(out.vertices, expected, atol=1e-12)

    def test_closed_square(self):
        p = Polyline(np.array([[0, 0], [1, 0], [1, 1], [0, 1]]), closed=True)
        out = resample(p, 8)
        expected = [[0, 0], [0.5, 0], [1, 0], [1, 0.5], [1, 1], [0.5, 1], [0, 1], [0, 0.5]]
        np.testing.assert_allclose(out.vertices, expected, atol=1e-12)
        assert out.closed

    def test_count_below_two_rejected(self):
        p = Polyline(np.array([[0, 0], [1, 0]]))
        with pytest.raises(ValueError):
            resample(p, 1)

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
            p = Polyline(np.array(pts))
            m = int(rng.integers(1, 5))
            out = resample(p, n_seg * m + 1)
            assert abs(out.arclength() - p.arclength()) < 1e-9

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
            out = resample(Polyline(np.array(pts)), n_seg * int(rng.integers(1, 5)) + 1)
            gaps = out.segment_lengths()
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
    return Polyline(np.array(pts))


class TestResampleProperties:
    @given(open_polylines(), st.integers(2, 60))
    @settings(max_examples=300, deadline=None)
    def test_keeps_endpoints_and_count(self, p, count):
        out = resample(p, count)
        assert len(out.vertices) == count and not out.closed
        np.testing.assert_array_equal(out.vertices[0], p.vertices[0])
        np.testing.assert_array_equal(out.vertices[-1], p.vertices[-1])


class TestTransforms:
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
        p = Polyline(np.array([[0, 0], [2, 0]]))
        np.testing.assert_allclose(point_along(p, -1.0), [0, 0])
        np.testing.assert_allclose(point_along(p, 5.0), [2, 0])
        np.testing.assert_allclose(point_along(p, 0.5), [0.5, 0])

    def test_nearest_point(self):
        p = Polyline(np.array([[0, 0], [10, 0]]))
        pt, s, d = nearest_point_on_polyline(p, (3.0, 4.0))
        np.testing.assert_allclose(pt, [3, 0])
        assert s == pytest.approx(3.0)
        assert d == pytest.approx(4.0)

    def test_segment_disc_intersection(self):
        assert segment_intersects_disc((0, 0), (10, 0), (5, 1), 2.0)
        assert not segment_intersects_disc((0, 0), (10, 0), (5, 3), 2.0)
        assert segment_intersects_disc((0, 0), (0, 0), (0, 1), 1.5)
        assert segment_intersects_disc((0, 0), (10, 0), (5, 1), 2.0) is True
        assert segment_intersects_disc((0, 0), (0, 0), (5, 1), 2.0) is False


class TestBatchedWalk:
    VERTICES = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0], [-1.0, 5.5]])

    @pytest.mark.parametrize("closed", [False, True])
    def test_array_matches_scalar_calls(self, closed):
        p = Polyline(self.VERTICES, closed=closed)
        total = p.arclength()
        on_vertices = np.concatenate([[0.0], np.cumsum(p.segment_lengths())])
        ss = np.concatenate([
            [-2.5, -1e-12, 0.0, total, total + 1e-9, total + 7.0],
            on_vertices,
            np.random.default_rng(0).uniform(-total, 2.0 * total, 25),
            [2.5 * total, 3.0 * total + 0.3, -1.7 * total] if closed else [],
        ])
        batched = point_along(p, ss)
        assert batched.shape == (len(ss), 2)
        assert np.array_equal(batched, np.array([point_along(p, s) for s in ss]))

    def test_lands_on_vertices(self):
        p = Polyline(self.VERTICES)
        on_vertices = np.concatenate([[0.0], np.cumsum(p.segment_lengths())])
        np.testing.assert_allclose(point_along(p, on_vertices), self.VERTICES, atol=1e-12)

    def test_closed_wraps_whole_laps(self):
        p = Polyline(self.VERTICES, closed=True)
        total = p.arclength()
        laps = 1.25 + np.array([-2.0, -1.0, 0.0, 1.0, 3.0]) * total
        np.testing.assert_allclose(point_along(p, laps),
                                   np.repeat(point_along(p, 1.25)[None], 5, axis=0),
                                   atol=1e-12)

    def test_scalar_returns_one_point(self):
        p = Polyline(self.VERTICES)
        for s in (0.7, np.float64(0.7), 3, -1.0, 99.0):
            assert point_along(p, s).shape == (2,)
        assert point_along(p, np.array([0.7])).shape == (1, 2)


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
            MapElement(np.array([[0, 0], [1, 0]]), ElementClass.LANE_DIVIDER,
                       confidence=1.5)

    def test_vertices_preserved_verbatim(self):
        v = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        el = MapElement(v, ElementClass.ROAD_BOUNDARY)
        assert el.vertices.shape == (3, 2)
