import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from uncmap import map_eval
from uncmap.geometry import ALL_CLASSES, ElementClass, Pose2
from uncmap.map_eval import (
    APConfig,
    _element_point_sets,
    average_precision,
    chamfer,
    chamfer_matrices,
    evaluate_map,
    evaluate_scenes,
    greedy_match,
)
from uncmap.probmap import MapElement, VectorMap

CLS = ElementClass.LANE_DIVIDER


def brute_chamfer(s1, s2) -> float:
    """Independent oracle: plain nested loops plus exact summation."""
    mins1 = []
    for x in s1:
        best = math.inf
        for y in s2:
            dx = x[0] - y[0]
            dy = x[1] - y[1]
            best = min(best, math.sqrt(dx * dx + dy * dy))
        mins1.append(best)
    mins2 = []
    for y in s2:
        best = math.inf
        for x in s1:
            dx = y[0] - x[0]
            dy = y[1] - x[1]
            best = min(best, math.sqrt(dx * dx + dy * dy))
        mins2.append(best)
    return math.fsum(mins1) / len(s1) + math.fsum(mins2) / len(s2)


class TestChamfer:
    def test_identical_sets(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert chamfer(pts, pts) == 0.0

    def test_single_points(self):
        assert chamfer([[0.0, 0.0]], [[1.0, 0.0]]) == pytest.approx(2.0)

    def test_two_against_one(self):
        assert chamfer([[0.0, 0.0], [2.0, 0.0]], [[1.0, 0.0]]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chamfer(np.empty((0, 2)), [[0.0, 0.0]])

    def test_matches_brute_force_bitwise(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            s1 = rng.uniform(-40, 40, size=(int(rng.integers(1, 51)), 2))
            s2 = rng.uniform(-40, 40, size=(int(rng.integers(1, 51)), 2))
            assert chamfer(s1, s2) == brute_chamfer(s1, s2)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            s1 = rng.uniform(-10, 10, size=(int(rng.integers(1, 30)), 2))
            s2 = rng.uniform(-10, 10, size=(int(rng.integers(1, 30)), 2))
            assert chamfer(s1, s2) == chamfer(s2, s1)

    def test_nonnegative(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            s1 = rng.uniform(-10, 10, size=(5, 2))
            assert chamfer(s1, rng.uniform(-10, 10, size=(7, 2))) >= 0.0
            assert chamfer(s1, s1) == 0.0


point_sets = st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                      min_size=1, max_size=12).map(np.array)


class TestChamferProperties:
    @given(point_sets, point_sets)
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, s1, s2):
        assert chamfer(s1, s2) == chamfer(s2, s1)

    @given(point_sets)
    @settings(max_examples=200, deadline=None)
    def test_zero_against_itself(self, s1):
        assert chamfer(s1, s1) == 0.0


def chamfer_pair(a, b, count: int = 20) -> float:
    """Chamfer distance of two elements after fixed-count resampling."""
    return chamfer_matrices([([a], [b])], count)[0][0, 0]


def line(pts) -> MapElement:
    return MapElement(np.asarray(pts, dtype=float), CLS)


class TestChamferElements:
    def test_identical_polylines(self):
        p = line([[0, 0], [5, 1], [10, 0]])
        assert chamfer_pair(p, p) == 0.0

    def test_parallel_offset_segments(self):
        a = line([[0.0, 0.0], [10.0, 0.0]])
        b = line([[0.0, 0.7], [10.0, 0.7]])
        assert chamfer_pair(a, b) == pytest.approx(2 * 0.7, rel=1e-12)

    def test_direction_invariance(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            mu = rng.uniform(-10, 10, size=(5, 2))
            p = line(mu)
            q = line(rng.uniform(-10, 10, size=(4, 2)))
            assert chamfer_pair(p, q) == pytest.approx(chamfer_pair(line(mu[::-1]), q),
                                                       abs=1e-12)

    def test_probabilistic_element_uses_locations(self):
        mu = np.array([[0.0, 0.0], [10.0, 0.0]])
        el = MapElement(mu, CLS, b=np.full((2, 2), 3.0), class_logits=np.zeros((2, 4)))
        assert chamfer_pair(el, line(mu.copy())) == 0.0

    def test_resample_count_respected(self):
        a = line([[0.0, 0.0], [10.0, 0.0]])
        b = line([[0.0, 1.0], [10.0, 1.0]])
        assert chamfer_pair(a, b, count=5) == pytest.approx(2.0, rel=1e-12)


def tiny(x, y):
    """A 5e-9 m element: resampling merges its points below MERGE_EPS, so
    its point set is shorter than any resample count of 7 or more."""
    return MapElement(np.array([[x, y], [x + 5e-9, y]]), CLS)


@st.composite
def elements(draw, count):
    """A map element (open or closed), a tiny element, or an element of
    exactly ``count`` points, which is used verbatim."""
    kind = draw(st.sampled_from(["open", "closed", "tiny", "points"]))
    coord = st.integers(-40, 40).map(lambda v: v / 4)
    if kind == "tiny":
        return tiny(draw(coord), draw(coord))
    size = count if kind == "points" else draw(st.integers(2, 6))
    pts = draw(st.lists(st.tuples(coord, coord), min_size=size, max_size=size)
               .filter(lambda p: all(a != b for a, b in zip(p, p[1:]))))
    if kind == "points":
        return MapElement(np.array(pts), CLS)
    el = MapElement(np.array(pts), CLS, closed=kind == "closed")
    try:
        _element_point_sets([el], count)
    except ValueError:   # a hairpin whose samples all fold onto one point
        reject()
    return el


def mixed_elements(count):
    """Elements in any order, among them one of exactly ``count`` points and
    one tiny element that resampling merges below ``count`` points."""
    coord = st.integers(-40, 40).map(lambda v: v / 4)
    exact = st.lists(st.tuples(coord, coord), min_size=count, max_size=count).map(
        lambda pts: MapElement(np.array(pts), CLS))
    return st.tuples(exact, st.tuples(coord, coord).map(lambda xy: tiny(*xy)),
                     st.lists(elements(count), max_size=3)).flatmap(
        lambda t: st.permutations([t[0], t[1], *t[2]]))


def assert_equals_per_pair_chamfer(groups, count):
    mats = chamfer_matrices(groups, count)
    assert len(mats) == len(groups)
    for mat, (preds, gts) in zip(mats, groups):
        assert mat.shape == (len(preds), len(gts))
        for i, p in enumerate(preds):
            for j, g in enumerate(gts):
                assert mat[i, j] == brute_chamfer(_element_point_sets([p], count)[0],
                                                  _element_point_sets([g], count)[0])


class TestChamferMatrices:
    @given(st.integers(2, 8).flatmap(lambda count: st.tuples(st.just(count), st.lists(
        st.tuples(st.lists(elements(count), max_size=4),
                  st.lists(elements(count), max_size=4)), max_size=4))))
    @settings(max_examples=100, deadline=None)
    def test_equals_per_pair_chamfer(self, problem):
        count, groups = problem
        assert_equals_per_pair_chamfer(groups, count)

    @given(st.integers(7, 9).flatmap(lambda count: st.tuples(
        st.just(count),
        st.lists(elements(count), max_size=3), st.lists(elements(count), max_size=3),
        st.lists(elements(count), min_size=9, max_size=10),
        st.lists(elements(count), min_size=8, max_size=8))))
    @settings(max_examples=30, deadline=None)
    def test_group_straddles_block_edge(self, problem):
        count, preds0, gts0, preds, gts = problem
        preds = preds[:4] + [tiny(0.0, 0.0)] + preds[4:]
        assert len(_element_point_sets([preds[4]], count)[0]) < count
        # A block of count-point sets then holds 400 // count**2 <= 8 pairs.
        with mock.patch.object(map_eval, "_BLOCK", 1):
            assert len(preds) * len(gts) > 400 // count**2
            assert_equals_per_pair_chamfer([(preds0, gts0), (preds, gts), ([], gts)], count)

    @pytest.mark.parametrize("count", [20, 100, 300])
    def test_block_holds_bounded_distances(self, count, monkeypatch):
        blocks, kernel = [], map_eval._chamfer_block

        def spy(a, b):
            blocks.append((len(a), a.shape[1] * b.shape[1]))
            return kernel(a, b)
        monkeypatch.setattr(map_eval, "_chamfer_block", spy)
        rng = np.random.default_rng(count)
        preds = [line(rng.uniform(-20, 20, size=(5, 2))) for _ in range(12)]
        gts = [line(rng.uniform(-20, 20, size=(4, 2))) for _ in range(9)]
        (mat,) = chamfer_matrices([(preds, gts)], count)
        assert sum(n for n, _ in blocks) == mat.size
        assert all(n * entries <= map_eval._BLOCK * 400 for n, entries in blocks if n > 1)
        assert [n for n, _ in blocks] == {20: [64, 44], 100: [2] * 54, 300: [1] * 108}[count]
        monkeypatch.undo()
        sets = _element_point_sets(preds + gts, count)
        assert mat.tolist() == [[chamfer(p, g) for g in sets[len(preds):]]
                                for p in sets[:len(preds)]]

    @given(st.integers(7, 9).flatmap(lambda count: st.tuples(st.just(count), st.lists(
        st.tuples(mixed_elements(count), mixed_elements(count)), min_size=1, max_size=3))))
    @settings(max_examples=50, deadline=None)
    def test_groups_mix_full_and_merged_sets(self, problem):
        count, groups = problem
        for preds, gts in groups:
            for side in (preds, gts):
                sizes = {len(pts) for pts in _element_point_sets(side, count)}
                assert count in sizes and min(sizes) < count
        assert_equals_per_pair_chamfer(groups, count)

    def test_empty_groups(self):
        assert chamfer_matrices([], 20) == []
        mats = chamfer_matrices([([], []), ([seg(0, 0, 1, 0)], []),
                                 ([], [seg(0, 0, 1, 0)])], 20)
        assert [m.shape for m in mats] == [(0, 0), (1, 0), (0, 1)]


def seg(x0, y0, x1, y1, conf=1.0, cls=CLS):
    return MapElement(np.array([[x0, y0], [x1, y1]], float), cls, confidence=conf)


def oracle_ap(preds, gts, thr, count=20):
    """Exhaustive PR enumeration: rerun greedy matching from scratch on every
    confidence prefix, then integrate the precision envelope geometrically.

    Fully independent of the implementation: straight two-point elements are
    resampled with np.linspace and compared with the nested-loop oracle.
    """
    def pts(el):
        return np.column_stack([
            np.linspace(el.vertices[0, 0], el.vertices[1, 0], count),
            np.linspace(el.vertices[0, 1], el.vertices[1, 1], count),
        ])

    n_gt = len(gts)
    if n_gt == 0:
        return 0.0 if preds else None
    if not preds:
        return 0.0
    conf = np.array([p.confidence for p in preds])
    order = np.argsort(-conf, kind="stable")
    points = []
    for k in range(1, len(order) + 1):
        taken = set()
        tp = 0
        for idx in order[:k]:
            dists = [(brute_chamfer(pts(preds[idx]), pts(g)), j)
                     for j, g in enumerate(gts) if j not in taken]
            if not dists:
                continue
            best, j = min(dists)
            if best < thr:
                tp += 1
                taken.add(j)
        points.append((tp / n_gt, tp / k))
    area = 0.0
    prev_r = 0.0
    for r in sorted({r for r, _ in points}):
        if r <= prev_r:
            continue
        envelope = max(p for rr, p in points if rr >= r)
        area += (r - prev_r) * envelope
        prev_r = r
    return area


class TestAveragePrecision:
    def test_perfect_detections(self):
        gts = [seg(0, 0, 0, 10), seg(5, 0, 5, 10)]
        preds = [seg(0, 0, 0, 10, conf=0.9), seg(5, 0, 5, 10, conf=0.8)]
        assert average_precision(preds, gts, CLS, 0.5) == pytest.approx(1.0)

    def test_hand_derived_pr_curve(self):
        # two GT; confidence order TP, FP, TP -> envelope area 5/6
        gts = [seg(0, 0, 0, 10), seg(5, 0, 5, 10)]
        preds = [seg(0.1, 0, 0.1, 10, conf=0.9), seg(20, 0, 20, 10, conf=0.8),
                 seg(5.1, 0, 5.1, 10, conf=0.7)]
        assert average_precision(preds, gts, CLS, 1.0) == pytest.approx(5 / 6,
                                                                        abs=1e-12)

    def test_all_beyond_threshold(self):
        gts = [seg(0, 0, 0, 10)]
        preds = [seg(30, 0, 30, 10, conf=0.9)]
        assert average_precision(preds, gts, CLS, 1.5) == 0.0

    def test_empty_gt_with_predictions(self):
        assert average_precision([seg(0, 0, 0, 10)], [], CLS, 1.0) == 0.0

    def test_empty_everything_is_undefined(self):
        assert average_precision([], [], CLS, 1.0) is None

    def test_monotone_confidence_transform_invariance(self):
        rng = np.random.default_rng(46)
        gts = [seg(rng.uniform(0, 20), 0, rng.uniform(0, 20), 10) for _ in range(3)]
        preds = [seg(rng.uniform(0, 20), 0, rng.uniform(0, 20), 10,
                     conf=float(rng.uniform(0.1, 0.9))) for _ in range(5)]
        base = average_precision(preds, gts, CLS, 1.5)
        squashed = [MapElement(p.vertices, p.element_class, p.confidence ** 3,
                               p.closed) for p in preds]
        assert average_precision(squashed, gts, CLS, 1.5) == pytest.approx(base,
                                                                           abs=1e-12)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            gts = [seg(rng.uniform(0, 20), 0, rng.uniform(0, 20), 10)
                   for _ in range(int(rng.integers(0, 5)))]
            preds = [seg(rng.uniform(0, 20), 0, rng.uniform(0, 20), 10,
                         conf=float(rng.random()))
                     for _ in range(int(rng.integers(0, 7)))]
            thr = float(rng.uniform(0.5, 3.0))
            got = average_precision(preds, gts, CLS, thr)
            want = oracle_ap(preds, gts, thr)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_hungarian_agrees_on_unambiguous_scenes(self):
        gts = [seg(0, 0, 0, 10), seg(8, 0, 8, 10)]
        preds = [seg(0.2, 0, 0.2, 10, conf=0.9), seg(8.1, 0, 8.1, 10, conf=0.7)]
        greedy = average_precision(preds, gts, CLS, 1.0, APConfig(matching="greedy"))
        hung = average_precision(preds, gts, CLS, 1.0, APConfig(matching="hungarian"))
        assert greedy == hung == pytest.approx(1.0)


def _scene_maps(shift=np.zeros(2)):
    """One map with all four classes; elements are diagonal or curved so a
    rigid shift produces nearest-neighbor slack below the per-point offset."""
    t = np.linspace(0, 2 * np.pi, 9)
    arc = np.column_stack([8 + 2 * np.cos(t[:5]), 2 * np.sin(t[:5])])
    elements = [
        MapElement(np.array([[-10.0, -10.0], [10.0, 10.0]]), ElementClass.ROAD_BOUNDARY),
        MapElement(np.array([[-10.0, -6.0], [10.0, 14.0]]), ElementClass.LANE_DIVIDER),
        MapElement(np.array([[-10.0, -2.0], [10.0, 18.0]]), ElementClass.LANE_CENTERLINE),
        MapElement(arc, ElementClass.PED_CROSSING),
    ]
    shifted = [MapElement(el.vertices + shift, el.element_class, el.confidence,
                          el.closed) for el in elements]
    return VectorMap(shifted, Pose2.identity()), VectorMap(elements, Pose2.identity())


class TestEvaluateMap:
    def test_identity_gives_perfect_map_score(self):
        pred, gt = _scene_maps()
        report = evaluate_map(pred, gt)
        assert report.map_score == pytest.approx(1.0)

    def test_uniform_shift_thresholds_follow_chamfer_oracle(self):
        cfg = APConfig()
        shift = np.array([0.0, 0.75])
        pred, gt = _scene_maps(shift)
        # oracle chamfer per element on the resampled point sets
        report = evaluate_map(pred, gt, cfg)
        for ci, cls in enumerate(report.classes):
            p_el = pred.by_class(cls)[0]
            g_el = gt.by_class(cls)[0]
            d = brute_chamfer(_element_point_sets([p_el], cfg.resample_count)[0],
                              _element_point_sets([g_el], cfg.resample_count)[0])
            for ti, thr in enumerate(cfg.thresholds):
                expected = 1.0 if d < thr else 0.0
                assert report.ap[ci, ti] == pytest.approx(expected), (cls, thr, d)
        # the constructed diagonal shift must actually split the thresholds
        assert 0.0 < report.map_score < 1.0

    def test_no_predictions(self):
        _, gt = _scene_maps()
        report = evaluate_map(VectorMap([], Pose2.identity()), gt)
        assert report.map_score == 0.0

    def test_undefined_cells_excluded(self):
        pred = VectorMap([seg(0, 0, 0, 10, cls=ElementClass.LANE_DIVIDER)],
                         Pose2.identity())
        gt = VectorMap([seg(0, 0, 0, 10, cls=ElementClass.LANE_DIVIDER)],
                       Pose2.identity())
        report = evaluate_map(pred, gt)
        divider_row = report.classes.index(ElementClass.LANE_DIVIDER)
        assert np.all(report.ap[divider_row] == 1.0)
        other_rows = [i for i in range(len(report.classes)) if i != divider_row]
        assert np.all(np.isnan(report.ap[other_rows]))
        assert report.map_score == pytest.approx(1.0)

    def test_map_score_is_mean_of_defined_cells(self):
        rng = np.random.default_rng(47)
        preds, gts = [], []
        for cls in (CLS, ElementClass.ROAD_BOUNDARY):
            for _ in range(3):
                x = rng.uniform(0, 20)
                gts.append(seg(x, 0, x, 10, cls=cls))
                preds.append(seg(x + rng.uniform(0, 1.2), 0, x + rng.uniform(0, 1.2),
                                 10, conf=float(rng.random()), cls=cls))
        report = evaluate_map(VectorMap(preds, Pose2.identity()),
                              VectorMap(gts, Pose2.identity()))
        defined = report.ap[~np.isnan(report.ap)]
        assert report.map_score == pytest.approx(defined.mean(), abs=1e-12)

    def test_pooled_across_scenes(self):
        pred1, gt1 = _scene_maps()
        pred2, gt2 = _scene_maps(np.array([5.0, 0.0]))
        report = evaluate_scenes([(pred1, gt1), (pred2, gt2)])
        assert 0.0 < report.map_score < 1.0

    def test_chamfer_once_per_pair_and_scene(self, monkeypatch):
        # Distances are evaluated in the pooled kernel's blocks, or by
        # chamfer for a pair it cannot stack; count the pairs through both,
        # and the pairs handed to chamfer_matrices.
        passed, evaluated = [], []
        original = (map_eval.chamfer_matrices, map_eval._chamfer_block, map_eval.chamfer)

        def counting_matrices(groups, count):
            groups = [(list(p), list(g)) for p, g in groups]
            passed.extend(1 for p, g in groups for _ in range(len(p) * len(g)))
            return original[0](groups, count)

        def counting_block(a, b):
            evaluated.extend([1] * len(a))
            return original[1](a, b)

        def counting_chamfer(a, b):
            evaluated.append(1)
            return original[2](a, b)

        monkeypatch.setattr(map_eval, "chamfer_matrices", counting_matrices)
        monkeypatch.setattr(map_eval, "_chamfer_block", counting_block)
        monkeypatch.setattr(map_eval, "chamfer", counting_chamfer)
        pairs = [_scene_maps(), _scene_maps(np.array([0.7, 0.0])),
                 (VectorMap([seg(0, 0, 0, 10), seg(4, 0, 4, 10)], Pose2.identity()),
                  VectorMap([seg(0.2, 0, 0.2, 10), seg(9, 0, 9, 10), seg(3, 0, 3, 10)],
                            Pose2.identity()))]
        expected = sum(len(pred.by_class(cls)) * len(gt.by_class(cls))
                       for pred, gt in pairs for cls in ALL_CLASSES)
        for matching in ("greedy", "hungarian"):
            passed.clear()
            evaluated.clear()
            evaluate_scenes(pairs, APConfig(thresholds=(0.5, 1.0, 1.5), matching=matching))
            assert len(passed) == expected
            assert len(evaluated) == expected


class TestAPConfig:
    def test_fractional_resample_count_rejected(self):
        pred, gt = _scene_maps()
        with pytest.raises(ValueError, match="integer >= 2"):
            evaluate_map(pred, gt, APConfig(resample_count=2.5))

    @pytest.mark.parametrize("thresholds", [
        (), (0.0, 1.0), (1.0, 0.5), (0.5, 0.5),
        # NaN passes every comparison, and json writes infinity as Infinity.
        (0.5, math.inf), (math.nan,), (math.nan, 1.0), (0.5, math.nan), (-math.inf, 1.0)])
    def test_invalid_thresholds_rejected(self, thresholds):
        with pytest.raises(ValueError, match="finite, positive and strictly increasing"):
            APConfig(thresholds=thresholds)


@st.composite
def scenes(draw):
    """(pred, gt) maps of up to four two-point elements of two classes."""
    coord = st.integers(-20, 20).map(float)

    def elements(with_conf):
        return st.lists(st.builds(
            lambda x0, y0, dx, dy, conf, cls: seg(x0, y0, x0 + dx, y0 + dy, conf, cls),
            coord, coord, st.integers(1, 6).map(float), st.integers(-3, 3).map(float),
            st.floats(0, 1) if with_conf else st.just(1.0),
            st.sampled_from([CLS, ElementClass.ROAD_BOUNDARY])), max_size=4)

    return (VectorMap(draw(elements(True)), Pose2.identity()),
            VectorMap(draw(elements(False)), Pose2.identity()))


class TestAPBounds:
    @given(st.lists(scenes(), min_size=1, max_size=3),
           st.sampled_from(["greedy", "hungarian"]))
    @settings(max_examples=100, deadline=None)
    def test_defined_cells_lie_in_unit_interval(self, pairs, matching):
        report = evaluate_scenes(pairs, APConfig(thresholds=(0.5, 2.0, 8.0),
                                                 matching=matching))
        defined = report.ap[~np.isnan(report.ap)]
        assert np.all((defined >= 0.0) & (defined <= 1.0))
        if len(defined):
            assert 0.0 <= report.map_score <= 1.0


def reference_greedy(confidence, cost, threshold):
    """The matching loop as first written: visit predictions by descending
    confidence (ties by index); each takes the first free column of least
    cost, kept only when that cost is strictly below the threshold."""
    order = sorted(range(len(confidence)), key=lambda i: (-confidence[i], i))
    free = list(range(len(cost[0]) if len(cost) else 0))
    match = [-1] * len(confidence)
    for i in order:
        best = None
        for j in free:
            if best is None or cost[i][j] < cost[i][best]:
                best = j
        if best is not None and cost[i][best] < threshold:
            match[i] = best
            free.remove(best)
    return match


@st.composite
def matching_problems(draw):
    n_pred = draw(st.integers(0, 6))
    n_gt = draw(st.integers(0, 6))
    # Few distinct values, so tied confidences and tied costs are common.
    conf = draw(st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]),
                         min_size=n_pred, max_size=n_pred))
    cost = draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.5]),
                                  min_size=n_gt, max_size=n_gt),
                         min_size=n_pred, max_size=n_pred))
    threshold = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 100.0]))
    return conf, cost, n_gt, threshold


class TestGreedyMatch:
    @settings(max_examples=300, deadline=None)
    @given(matching_problems())
    def test_matches_reference_loop(self, problem):
        conf, cost, n_gt, threshold = problem
        mat = np.array(cost, dtype=float).reshape(len(conf), n_gt)
        got = greedy_match(np.array(conf), mat, threshold)
        assert got.tolist() == reference_greedy(conf, cost, threshold)
