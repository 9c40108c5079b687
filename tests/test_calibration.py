import math

import numpy as np
import pytest

from uncmap import synth
from uncmap.calibration import (
    coverage_arrays,
    laplace_interval,
    match_vertex_pairs,
    pair_vertices,
    reliability,
)
from uncmap.geometry import CLASS_INDEX, ElementClass, Pose2, group_indices, resample
from uncmap.map_eval import _element_point_sets, chamfer, greedy_match
from uncmap.probmap import (
    MapElement,
    VectorMap,
    softmax,
    standardize_map,
)


class TestLaplaceInterval:
    def test_half_mass(self):
        lo, hi = laplace_interval(0.0, 1.0, 0.5)
        assert hi == pytest.approx(math.log(2), rel=1e-12)
        assert lo == pytest.approx(-math.log(2), rel=1e-12)

    def test_ninety_percent(self):
        lo, hi = laplace_interval(0.0, 1.0, 0.9)
        assert hi == pytest.approx(math.log(10), rel=1e-12)

    def test_collapses_at_tiny_level(self):
        lo, hi = laplace_interval(3.0, 2.0, 1e-12)
        assert hi - lo == pytest.approx(0.0, abs=1e-10)
        assert lo == pytest.approx(3.0, abs=1e-10)

    def test_monotone_in_level(self):
        widths = [laplace_interval(0.0, 1.0, lv)[1] for lv in
                  (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_level_out_of_range(self):
        for lv in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                laplace_interval(0.0, 1.0, lv)

    def test_broadcast(self):
        # (3, 1) locations against (2,) scales give a (3, 2) interval grid.
        mu = np.array([[0.0], [1.0], [-2.0]])
        b = np.array([1.0, 0.5])
        lo, hi = laplace_interval(mu, b, 0.5)
        assert lo.shape == hi.shape == (3, 2)
        np.testing.assert_allclose(hi - mu, np.broadcast_to(b * math.log(2), (3, 2)),
                                   rtol=1e-12)
        np.testing.assert_allclose(mu - lo, hi - mu, rtol=1e-12)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_interval(np.zeros(2), np.array([1.0, 0.0]), 0.5)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_scale_rule_is_the_map_rule(self, bad):
        with pytest.raises(ValueError, match="Laplace scale b must be positive and finite"):
            laplace_interval(np.zeros(2), np.array([1.0, bad]), 0.5)


class TestCoverage:
    def test_exact_locations_cover_everything(self):
        mu = np.zeros((100, 2))
        rep = coverage_arrays(mu, np.ones_like(mu), mu.copy(), [0.1, 0.5, 0.9])
        np.testing.assert_array_equal(rep.empirical_coverage, 1.0)

    def test_monte_carlo_self_calibration(self):
        rng = np.random.default_rng(0)
        n = 100_000
        mu = rng.uniform(-5, 5, (n, 2))
        b = rng.uniform(0.1, 2.0, (n, 2))
        gt = rng.laplace(mu, b)
        rep = coverage_arrays(mu, b, gt, [0.5, 0.9])
        assert rep.empirical_coverage[0] == pytest.approx(0.5, abs=0.01)
        assert rep.empirical_coverage[1] == pytest.approx(0.9, abs=0.01)
        assert rep.n == 2 * n

    def test_halved_scales_strictly_undercover(self):
        rng = np.random.default_rng(1)
        n = 20_000
        mu = np.zeros((n, 2))
        b = np.full((n, 2), 0.7)
        gt = rng.laplace(mu, b)
        full = coverage_arrays(mu, b, gt, [0.3, 0.5, 0.9])
        halved = coverage_arrays(mu, b / 2, gt, [0.3, 0.5, 0.9])
        assert np.all(halved.empirical_coverage < full.empirical_coverage)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(2)
        mu = np.zeros((500, 2))
        b = np.ones((500, 2))
        gt = rng.laplace(mu, b)
        rep = coverage_arrays(mu, b, gt, [0.1, 0.4, 0.6, 0.95])
        assert np.all(np.diff(rep.empirical_coverage) >= 0)

    def test_pair_interface(self):
        rep = coverage_arrays([[0.0, 0.0]], [[1.0, 1.0]], [[0.0, 10.0]], [0.5])
        # x hits, y misses
        assert rep.empirical_coverage[0] == pytest.approx(0.5)
        assert rep.coverage_x[0] == 1.0
        assert rep.coverage_y[0] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coverage_arrays(np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)), [0.5])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_scale_rejected(self, bad):
        # Such a scale used to report a coverage of 0 for its coordinate.
        b = np.ones((3, 2))
        b[1, 0] = bad
        with pytest.raises(ValueError, match="Laplace scale b must be positive and finite"):
            coverage_arrays(np.zeros((3, 2)), b, np.zeros((3, 2)), [0.5])


class TestReliability:
    def test_sampled_labels_are_calibrated(self):
        rng = np.random.default_rng(3)
        n = 100_000
        probs = rng.dirichlet(np.ones(4), size=n)
        labels = np.array([rng.choice(4, p=p) for p in probs])
        rep = reliability(probs, labels, bins=10)
        assert rep.ece < 0.01

    def test_one_hot_correct_predictions(self):
        labels = np.array([0, 1, 2, 3, 2, 1])
        probs = np.eye(4)[labels]
        rep = reliability(probs, labels)
        assert rep.ece == 0.0

    def test_overconfident_single_bin(self):
        n = 1000
        probs = np.tile([0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3], (n, 1))
        labels = np.zeros(n, dtype=int)
        labels[: n // 2] = 1  # half wrong
        rep = reliability(probs, labels)
        assert rep.ece == pytest.approx(0.4, abs=1e-9)

    def test_zero_gap_bins_give_zero_ece(self):
        # two confidence groups, each with accuracy equal to its confidence
        probs = np.vstack([
            np.tile([0.75, 0.25 / 3, 0.25 / 3, 0.25 / 3], (8, 1)),
            np.tile([0.45, 0.35, 0.1, 0.1], (20, 1)),
        ])
        labels = np.concatenate([
            np.array([0] * 6 + [1] * 2),          # accuracy 0.75 at conf 0.75
            np.array([0] * 9 + [1] * 11),         # accuracy 0.45 at conf 0.45
        ])
        rep = reliability(probs, labels, bins=10)
        assert rep.ece == pytest.approx(0.0, abs=1e-12)

    def test_invalid_probs_rejected(self):
        with pytest.raises(ValueError):
            reliability(np.array([[0.5, 0.2, 0.2, 0.2]]), np.array([0]))


def _prob_map(mu_elements, b=0.4, cls=ElementClass.LANE_DIVIDER, conf=1.0):
    els = []
    for mu in mu_elements:
        mu = np.asarray(mu, float)
        logits = np.full((len(mu), 4), -16.0)
        logits[:, 2] = 0.0
        els.append(MapElement(mu, cls, conf, b=np.full_like(mu, b), class_logits=logits))
    return VectorMap(els, Pose2.identity(), perception_range=(1e6, 1e6))


class TestVertexPairing:
    def test_index_alignment_same_counts(self):
        pts = np.column_stack([np.linspace(0, 10, 20), np.zeros(20)])
        pred = _prob_map([pts + np.array([0.0, 0.1])])
        gt = VectorMap([MapElement(np.array([[0.0, 0.0], [10.0, 0.0]]),
                                   ElementClass.LANE_DIVIDER)], Pose2.identity())
        matched = match_vertex_pairs(pred, gt)
        assert len(matched.mu) == 20
        np.testing.assert_allclose(matched.gt, pts, atol=1e-12)
        np.testing.assert_array_equal(matched.labels, 2)

    def test_reversed_gt_is_reoriented(self):
        pts = np.column_stack([np.linspace(0, 10, 20), np.zeros(20)])
        pred = _prob_map([pts])
        gt = VectorMap([MapElement(np.array([[10.0, 0.0], [0.0, 0.0]]),
                                   ElementClass.LANE_DIVIDER)], Pose2.identity())
        matched = match_vertex_pairs(pred, gt)
        np.testing.assert_allclose(matched.gt, pts, atol=1e-12)

    def test_fractional_resample_count_rejected(self):
        pts = np.column_stack([np.linspace(0, 10, 20), np.zeros(20)])
        gt = VectorMap([MapElement(np.array([[0.0, 0.0], [10.0, 0.0]]),
                                   ElementClass.LANE_DIVIDER)], Pose2.identity())
        with pytest.raises(ValueError, match="integer >= 2"):
            pair_vertices([(_prob_map([pts]), gt)], resample_count=2.5)

    def test_beyond_threshold_excluded(self):
        pts = np.column_stack([np.linspace(0, 10, 20), np.zeros(20)])
        pred = _prob_map([pts + np.array([0.0, 50.0])])
        gt = VectorMap([MapElement(np.array([[0.0, 0.0], [10.0, 0.0]]),
                                   ElementClass.LANE_DIVIDER)], Pose2.identity())
        matched = match_vertex_pairs(pred, gt, threshold=1.5)
        assert len(matched.mu) == 0


def reference_match_vertex_pairs(pred_map, gt_map, threshold=1.5, resample_count=20):
    """The pairing as written before the pooled Chamfer kernel: one chamfer
    call per pair, and every matched ground truth resampled again to the
    prediction's vertex count."""
    mu_parts, b_parts, gt_parts, prob_parts, label_parts = [], [], [], [], []
    classes = {el.element_class for el in pred_map.elements}
    classes |= {el.element_class for el in gt_map.elements}
    for cls in sorted(classes, key=lambda c: c.value):
        preds = pred_map.by_class(cls)
        gts = gt_map.by_class(cls)
        if not preds or not gts:
            continue
        conf = np.array([p.confidence for p in preds], dtype=float)
        mat = np.array([[chamfer(_element_point_sets([p], resample_count)[0],
                                 _element_point_sets([g], resample_count)[0]) for g in gts]
                        for p in preds])
        match = greedy_match(conf, mat, threshold)
        for pi in np.argsort(-conf, kind="stable"):
            if match[pi] < 0:
                continue
            pred = preds[pi]
            gt = gts[match[pi]]
            gt_pts = resample([gt.mu], [gt.closed], [pred.n_vertices])[0]
            fwd = np.hypot(*(pred.mu - gt_pts).T).sum()
            rev_pts = gt_pts[::-1]
            rev = np.hypot(*(pred.mu - rev_pts).T).sum()
            if rev < fwd:
                gt_pts = rev_pts
            mu_parts.append(pred.mu)
            b_parts.append(pred.b)
            gt_parts.append(gt_pts)
            prob_parts.append(softmax(pred.class_logits))
            label_parts.append(np.full(pred.n_vertices, CLASS_INDEX[cls], dtype=int))
    return (np.vstack(mu_parts), np.vstack(b_parts), np.vstack(gt_parts),
            np.vstack(prob_parts), np.concatenate(label_parts))


def _pairing_case(name):
    """(pred map, gt map, resample count) for one pinned pairing case. Each
    has a second class and an unmatched prediction besides its subject."""
    t = np.linspace(0.0, 1.0, 20)
    line = np.column_stack([10 * t, np.zeros(20)])
    boundary = MapElement(np.array([[0.0, 5.0], [4.0, 6.0], [9.0, 6.0]]),
                          ElementClass.ROAD_BOUNDARY)
    count = 20
    if name == "gt_has_resample_count":
        # 20 gt vertices, bunched towards the start: a resample moves them.
        gt = MapElement(np.column_stack([10 * t ** 2, np.sin(3 * t)]),
                        ElementClass.LANE_DIVIDER)
        pred_mu = [line + np.array([0.0, 0.3]), line + np.array([0.0, 40.0])]
    elif name == "count_10_with_20_vertex_predictions":
        count = 10
        gt = MapElement(np.array([[0.0, 0.0], [4.0, 1.0], [10.0, 0.0]]),
                        ElementClass.LANE_DIVIDER)
        pred_mu = [line + np.array([0.0, 0.2]), line + np.array([0.0, 40.0])]
    else:
        gt = MapElement(np.array([[10.0, 0.0], [6.0, 1.0], [0.0, 0.5]]),
                        ElementClass.LANE_DIVIDER)
        pred_mu = [line + np.array([0.0, 0.4]), line + np.array([0.0, 40.0])]
    # One map built from all its elements, so its columns hold every row.
    pred_elements = (_prob_map(pred_mu, conf=0.8).elements
                     + _prob_map([boundary.vertices + 0.1], cls=ElementClass.ROAD_BOUNDARY,
                                 conf=0.6).elements)
    pred = VectorMap(pred_elements, Pose2.identity(), perception_range=(1e6, 1e6))
    return pred, VectorMap([gt, boundary], Pose2.identity()), count


class TestPairingPinned:
    @pytest.mark.parametrize("name", ["gt_has_resample_count",
                                      "count_10_with_20_vertex_predictions",
                                      "reversed_gt"])
    def test_matches_per_pair_loop(self, name):
        pred, gt, count = _pairing_case(name)
        matched = match_vertex_pairs(pred, gt, resample_count=count)
        expected = reference_match_vertex_pairs(pred, gt, resample_count=count)
        assert len(matched.mu) == 20 + 3   # one divider and the boundary
        for got, want in zip((matched.mu, matched.b, matched.gt, matched.class_probs,
                              matched.labels), expected):
            np.testing.assert_array_equal(got, want)


def per_scene_match_vertex_pairs(pred_map, gt_map, threshold=1.5, resample_count=20):
    """The pairing of one map pair as it was before it took a list of map
    pairs: the reference that the list form, pooled over its pairs, must
    match bit for bit. A matched ground truth whose prediction has the
    resample count, and which itself does not, reuses its Chamfer point set
    instead of being resampled again, as that pairing did."""
    classes = {el.element_class for el in pred_map.elements}
    classes |= {el.element_class for el in gt_map.elements}
    groups = [(cls, pred_map.by_class(cls), gt_map.by_class(cls))
              for cls in sorted(classes, key=lambda c: c.value)]
    groups = [(cls, preds, gts) for cls, preds, gts in groups if preds and gts]
    preds, labels, gt_sets, todo = [], [], [], []
    for cls, cls_preds, gts in groups:
        pred_sets = _element_point_sets(cls_preds, resample_count)
        chamfer_sets = _element_point_sets(gts, resample_count)
        mat = np.array([[chamfer(a, b) for b in chamfer_sets] for a in pred_sets])
        conf = np.array([p.confidence for p in cls_preds], dtype=float)
        match = greedy_match(conf, mat, threshold)
        for pi in np.argsort(-conf, kind="stable"):
            if match[pi] < 0:
                continue
            pred, gt = cls_preds[pi], gts[match[pi]]
            if pred.n_vertices == resample_count and len(gt.vertices) != resample_count:
                gt = chamfer_sets[match[pi]]
            else:
                todo.append(len(gt_sets))
            preds.append(pred)
            labels.append(CLASS_INDEX[cls])
            gt_sets.append(gt)
    if not preds:
        return (np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)),
                np.empty((0, len(CLASS_INDEX))), np.empty(0, dtype=int))
    for i, pts in zip(todo, resample([gt_sets[i].vertices for i in todo],
                                     [gt_sets[i].closed for i in todo],
                                     [preds[i].n_vertices for i in todo])):
        gt_sets[i] = pts
    for pred, gt in zip(preds, gt_sets):
        if len(gt) != pred.n_vertices:
            raise ValueError(f"a matched {pred.element_class.value} ground truth is too "
                             f"short to resample to {pred.n_vertices} points; resampling "
                             f"merges them to {len(gt)}")
    for _, rows in group_indices((p.mu.shape, g.shape) for p, g in zip(preds, gt_sets)):
        mu = np.array([preds[i].mu for i in rows])
        gt = np.array([gt_sets[i] for i in rows])
        fwd, rev = mu - gt, mu - gt[:, ::-1]
        flip = (np.hypot(rev[..., 0], rev[..., 1]).sum(axis=1)
                < np.hypot(fwd[..., 0], fwd[..., 1]).sum(axis=1))
        for i in np.asarray(rows)[flip]:
            gt_sets[i] = gt_sets[i][::-1]
    return (np.vstack([p.mu for p in preds]), np.vstack([p.b for p in preds]),
            np.vstack(gt_sets), softmax(np.vstack([p.class_logits for p in preds])),
            np.repeat(np.array(labels, dtype=int), [p.n_vertices for p in preds]))


def _one_sided_scene():
    """A scene whose prediction has a class the ground truth lacks and whose
    ground truth has a class the prediction lacks, with a closed crossing
    on both sides."""
    square = np.array([[2.0, 2.0], [6.0, 2.0], [6.0, 6.0], [2.0, 6.0]])
    logits = np.zeros((4, 4))
    pred = VectorMap([
        MapElement(square + 0.2, ElementClass.PED_CROSSING, 0.7, closed=True,
                   b=np.full((4, 2), 0.3), class_logits=logits),
        MapElement(np.array([[0.0, -5.0], [8.0, -5.0], [12.0, -4.0]]),
                   ElementClass.ROAD_BOUNDARY, 0.9, b=np.full((3, 2), 0.2),
                   class_logits=np.zeros((3, 4)))],
        Pose2.identity(), perception_range=(1e6, 1e6))
    gt = VectorMap([MapElement(square, ElementClass.PED_CROSSING, closed=True),
                    MapElement(np.array([[0.0, 9.0], [9.0, 9.0]]),
                               ElementClass.LANE_DIVIDER)], Pose2.identity())
    return pred, gt


def _generated_scenes():
    """Observed and ground-truth maps of one generated scene per layout."""
    out = []
    for seed, layout in enumerate(synth.Layout):
        spec = synth.SceneSpec(layout, seed=seed, n_agents=1)
        gt, _ = synth.generate_scene(spec)
        out.append((synth.observe(gt, synth.NoiseModel(), spec, seed=seed + 20), gt))
    return out


def _short_gt_scene():
    """A 20-vertex divider matched to a 1e-8 m ground truth, which
    resampling merges to fewer points than the prediction has."""
    pred = _prob_map([np.column_stack([np.full(20, 20.1), 20.0 + 0.01 * np.arange(20)])])
    gt = VectorMap([MapElement(np.array([[20.0, 20.0], [20.0, 20.0 + 1e-8]]),
                               ElementClass.LANE_DIVIDER)], Pose2.identity())
    return pred, gt


class TestPairingListPinned:
    @pytest.mark.parametrize("count", [20, 10, 15])
    def test_matches_per_scene_pairing(self, count):
        cases = [_pairing_case(name)[:2] for name in
                 ("gt_has_resample_count", "count_10_with_20_vertex_predictions",
                  "reversed_gt")]
        pairs = ([_one_sided_scene()] + cases[:1] + _generated_scenes()
                 + [(VectorMap([]), cases[1][1]), (cases[2][0], VectorMap([]))] + cases[1:])
        matched = pair_vertices(pairs, resample_count=count)
        parts = [per_scene_match_vertex_pairs(pred, gt, resample_count=count)
                 for pred, gt in pairs]
        assert sum(len(p[0]) for p in parts) > 60
        for got, want in zip((matched.mu, matched.b, matched.gt, matched.class_probs,
                              matched.labels), zip(*parts)):
            np.testing.assert_array_equal(got, np.concatenate(want))
        for (pred, gt), part in zip(pairs, parts):
            one = match_vertex_pairs(pred, gt, resample_count=count)
            for got, want in zip((one.mu, one.b, one.gt, one.class_probs, one.labels), part):
                np.testing.assert_array_equal(got, want)

    def test_ground_truth_too_short_raises_as_per_scene(self):
        pairs = [_one_sided_scene(), _short_gt_scene(), _pairing_case("reversed_gt")[:2]]
        with pytest.raises(ValueError) as want:
            per_scene_match_vertex_pairs(*pairs[1])
        with pytest.raises(ValueError, match="too short") as got:
            pair_vertices(pairs)
        assert str(got.value) == str(want.value)

    def test_no_pairs(self):
        matched = pair_vertices([])
        assert matched.mu.shape == (0, 2) and matched.labels.shape == (0,)


class TestStandardizeConsistency:
    def test_interval_endpoints_swap_under_quarter_turn(self):
        pmap = _prob_map([np.array([[1.0, 2.0], [3.0, 4.0]])], b=0.4)
        pmap.elements[0].b[:, 1] = 0.9
        out = standardize_map(pmap, Pose2(0, 0, np.pi / 2))
        old, new = pmap.elements[0], out.elements[0]
        for i in range(2):
            lo_old, hi_old = laplace_interval(old.mu[i, 1], old.b[i, 1], 0.8)
            lo_new, hi_new = laplace_interval(new.mu[i, 0], new.b[i, 0], 0.8)
            # after a quarter turn the old y axis becomes the new x axis
            assert hi_new - lo_new == pytest.approx(hi_old - lo_old, rel=1e-9)
