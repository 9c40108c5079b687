import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from uncmap import synth
from uncmap import io as uio
from uncmap.geometry import (
    CLASS_INDEX,
    NUM_CLASSES,
    ElementClass,
    Polyline,
    Pose2,
    nearest_point_on_polyline,
    point_along,
    polyline_vertices,
    resample,
    segment_intersects_disc,
)
from uncmap.map_eval import evaluate_scenes
from uncmap.probmap import B_FLOOR, MapElement, VectorMap, mean_map
from uncmap.synth import (
    DT,
    FUTURE_STEPS,
    HISTORY_STEPS,
    LANE_WIDTH,
    Condition,
    DatasetConfig,
    Layout,
    NoiseModel,
    Occluder,
    SceneSpec,
    build_dataset,
    generate_scene,
    in_shadow,
    observe,
    predict_blind,
    predict_scenes,
    predict_weighted,
)


def quiet_noise(**kwargs) -> NoiseModel:
    defaults = dict(base_b=B_FLOOR, distance_coeff=0.0, occlusion_multiplier=1.0,
                    condition_multipliers={}, miscalibration=1.0, class_mode="one_hot")
    defaults.update(kwargs)
    return NoiseModel(**defaults)


class TestGenerateScene:
    def test_deterministic(self):
        spec = SceneSpec(Layout.INTERSECTION, seed=5, n_agents=3)
        gt1, agents1 = generate_scene(spec)
        gt2, agents2 = generate_scene(spec)
        assert len(gt1.elements) == len(gt2.elements)
        for a, b in zip(gt1.elements, gt2.elements):
            np.testing.assert_array_equal(a.vertices, b.vertices)
        for a, b in zip(agents1, agents2):
            np.testing.assert_array_equal(a.future, b.future)

    def test_straight_road_centerlines_parallel_to_heading(self):
        for seed in range(5):
            gt, _ = generate_scene(SceneSpec(Layout.STRAIGHT_ROAD, seed=seed))
            for el in gt.by_class(ElementClass.LANE_CENTERLINE):
                assert np.ptp(el.vertices[:, 0]) == 0.0

    def test_all_layouts_have_all_interesting_classes(self):
        for layout in Layout:
            found = set()
            for seed in range(6):
                gt, _ = generate_scene(SceneSpec(layout, seed=seed))
                found |= {el.element_class for el in gt.elements}
            assert ElementClass.ROAD_BOUNDARY in found
            assert ElementClass.LANE_CENTERLINE in found
            assert ElementClass.PED_CROSSING in found

    def test_agents_have_expected_horizons(self):
        gt, agents = generate_scene(SceneSpec(Layout.STRAIGHT_ROAD, seed=0,
                                              n_agents=4))
        for agent in agents:
            assert agent.history.shape == (20, 2)
            assert agent.future.shape == (30, 2)

    def test_futures_stay_inside_lane_corridors(self):
        for layout in Layout:
            for seed in range(8):
                spec = SceneSpec(layout, seed=seed, n_agents=3, lane_change_prob=0.5)
                gt, agents = generate_scene(spec)
                lanes = gt.by_class(ElementClass.LANE_CENTERLINE)
                closed = [el.closed for el in lanes]
                chains = polyline_vertices([el.mu for el in lanes], closed)
                for agent in agents:
                    for p in agent.future:
                        gap = nearest_point_on_polyline(chains, closed,
                                                        np.tile(p, (len(chains), 1)))[2].min()
                        assert gap <= LANE_WIDTH / 2 + 1e-6

    def test_duplicate_centerline_flag(self):
        spec = SceneSpec(Layout.STRAIGHT_ROAD, seed=1, duplicate_centerlines=True)
        gt, _ = generate_scene(spec)
        base = generate_scene(SceneSpec(Layout.STRAIGHT_ROAD, seed=1))[0]
        assert len(gt.by_class(ElementClass.LANE_CENTERLINE)) == \
            2 * len(base.by_class(ElementClass.LANE_CENTERLINE))


class TestObserve:
    def test_noiseless_limit(self):
        gt, _ = generate_scene(SceneSpec(Layout.STRAIGHT_ROAD, seed=2))
        observed = observe(gt, quiet_noise(), SceneSpec(Layout.STRAIGHT_ROAD, seed=2),
                           seed=7)
        for el in observed.elements:
            np.testing.assert_array_equal(el.b, np.full_like(el.b, B_FLOOR))
        all_mu = np.vstack([el.mu for el in observed.elements])
        # reconstruct the resampled truth to compare against
        all_gt = np.vstack([resample([el.mu], [el.closed], [20])[0] for el in gt.elements])
        assert np.abs(all_mu - all_gt).max() < 1e-4

    def test_emitted_scale_matches_noise_model(self):
        spec = SceneSpec(Layout.INTERSECTION, seed=3, condition=Condition.NIGHT,
                         occluders=(Occluder(3.0, 6.0, 2.0),))
        gt, _ = generate_scene(spec)
        noise = NoiseModel(base_b=0.1, distance_coeff=0.02, occlusion_multiplier=4.0)
        observed = observe(gt, noise, spec, seed=11)
        for gt_el, obs_el in zip(gt.elements, observed.elements):
            pts = resample([gt_el.mu], [gt_el.closed], [20])[0]
            expected = 0.1 + 0.02 * np.hypot(pts[:, 0], pts[:, 1])
            blocked = np.array([
                segment_intersects_disc((0, 0), p, (3.0, 6.0), 2.0) for p in pts
            ])
            expected = np.where(blocked, expected * 4.0, expected)
            if gt_el.element_class is ElementClass.PED_CROSSING:
                expected = expected * 2.0  # default night crossing multiplier
            np.testing.assert_allclose(obs_el.b[:, 0], expected, rtol=1e-12)
            np.testing.assert_array_equal(obs_el.b[:, 0], obs_el.b[:, 1])

    @pytest.mark.parametrize("n_occluders", [0, 1, 3])
    def test_true_scale_matches_reference_loop(self, n_occluders):
        occluders = (Occluder(3.0, 6.0, 2.0), Occluder(-4.0, 9.0, 1.5),
                     Occluder(0.0, -8.0, 3.0))[:n_occluders]
        pts = np.random.default_rng(n_occluders).uniform([-15, -30], [15, 30], (200, 2))
        ego = np.zeros(2)
        noise = NoiseModel(base_b=0.1, distance_coeff=0.02, occlusion_multiplier=4.0)
        # Per-point multipliers, as the points of a block's classes carry them.
        multiplier = np.where(np.arange(len(pts)) % 3 == 0, 2.0, 1.3)
        got = noise.true_scale(pts, np.tile(ego, (len(pts), 1)), multiplier,
                               in_shadow(ego, pts, occluders))
        expected, shadowed = [], 0
        for p, m in zip(pts, multiplier):
            b = 0.1 + 0.02 * np.hypot(p[0], p[1])
            if any(segment_intersects_disc(ego, p, o.center, o.radius) for o in occluders):
                b *= 4.0
                shadowed += 1
            expected.append(max(b * m, B_FLOOR))
        assert np.array_equal(got, expected)
        assert (shadowed > 0) == (n_occluders > 0)

    def test_occlusion_ratio_exact(self):
        gt = VectorMap([
            MapElement(np.array([[-5.0, -10.0], [-5.0, 10.0]]),
                       ElementClass.ROAD_BOUNDARY),
            MapElement(np.array([[5.0, -10.0], [5.0, 10.0]]),
                       ElementClass.ROAD_BOUNDARY),
        ])
        spec = SceneSpec(Layout.STRAIGHT_ROAD, seed=0,
                         occluders=(Occluder(2.5, 0.0, 1.0),))
        noise = NoiseModel(base_b=0.2, distance_coeff=0.05, occlusion_multiplier=3.0)
        observed = observe(gt, noise, spec, seed=0)
        clear_b = observed.elements[0].b[:, 0]
        shadowed_b = observed.elements[1].b[:, 0]
        ratio = shadowed_b / clear_b
        assert np.all((np.isclose(ratio, 1.0, rtol=1e-12))
                      | (np.isclose(ratio, 3.0, rtol=1e-12)))
        assert np.any(np.isclose(ratio, 3.0, rtol=1e-12))

    def test_night_doubles_crossing_scales(self):
        # seed 0 straight road includes a crossing
        spec_day = SceneSpec(Layout.STRAIGHT_ROAD, seed=0, condition=Condition.DAY)
        spec_night = SceneSpec(Layout.STRAIGHT_ROAD, seed=0,
                               condition=Condition.NIGHT)
        gt, _ = generate_scene(spec_day)
        noise = NoiseModel(base_b=0.2, distance_coeff=0.01)
        day = observe(gt, noise, spec_day, seed=5)
        night = observe(gt, noise, spec_night, seed=5)
        saw_crossing = False
        for d_el, n_el in zip(day.elements, night.elements):
            if d_el.element_class is ElementClass.PED_CROSSING:
                saw_crossing = True
                np.testing.assert_allclose(n_el.b, 2.0 * d_el.b, rtol=1e-12)
            else:
                np.testing.assert_allclose(n_el.b, d_el.b, rtol=1e-12)
        assert saw_crossing

    def test_miscalibration_scales_emitted_b_only(self):
        gt, _ = generate_scene(SceneSpec(Layout.STRAIGHT_ROAD, seed=4))
        spec = SceneSpec(Layout.STRAIGHT_ROAD, seed=4)
        noise = NoiseModel(base_b=0.3, distance_coeff=0.0)
        shrunk = NoiseModel(base_b=0.3, distance_coeff=0.0, miscalibration=0.5)
        a = observe(gt, noise, spec, seed=9)
        b = observe(gt, shrunk, spec, seed=9)
        np.testing.assert_allclose(b.elements[0].b, 0.5 * a.elements[0].b, rtol=1e-12)
        np.testing.assert_array_equal(b.elements[0].mu, a.elements[0].mu)


class TestPredictors:
    def _loner(self, seed=0):
        spec = SceneSpec(Layout.STRAIGHT_ROAD, seed=seed, n_agents=1,
                         lane_change_prob=0.0)
        gt, agents = generate_scene(spec)
        return spec, gt, agents[0]

    def test_on_centerline_noiseless_first_mode_is_exact(self):
        spec, gt, agent = self._loner()
        modes = predict_blind(agent.history, gt, k=6)
        endpoint_err = np.hypot(*(modes[0, -1] - agent.future[-1]))
        assert endpoint_err < 1e-6

    def test_deterministic(self):
        spec, gt, agent = self._loner(seed=3)
        a = predict_blind(agent.history, gt, k=6)
        b = predict_blind(agent.history, gt, k=6)
        np.testing.assert_array_equal(a, b)

    def test_k1_snaps_to_nearest(self):
        spec, gt, agent = self._loner(seed=5)
        one = predict_blind(agent.history, gt, k=1)
        assert one.shape[0] == 1
        six = predict_blind(agent.history, gt, k=6)
        np.testing.assert_array_equal(one[0], six[0])

    def test_no_centerlines_falls_back_to_constant_velocity(self):
        vmap = VectorMap([MapElement(np.array([[0.0, 0.0], [0.0, 10.0]]),
                                     ElementClass.ROAD_BOUNDARY)])
        history = np.column_stack([np.zeros(20), np.linspace(-2, 0, 20)])
        modes = predict_blind(history, vmap, k=6)
        assert modes.shape == (1, 30, 2)
        step = history[-1] - history[-2]
        np.testing.assert_allclose(modes[0, 0], history[-1] + step, atol=1e-12)

    def test_floor_scales_make_predictors_bit_identical(self):
        spec = SceneSpec(Layout.STRAIGHT_ROAD, seed=8, n_agents=2)
        gt, agents = generate_scene(spec)
        observed = observe(gt, quiet_noise(), spec, seed=1)
        plain = mean_map(observed)
        for agent in agents:
            blind = predict_blind(agent.history, plain, k=6)
            weighted = predict_weighted(agent.history, observed, k=6)
            assert blind.shape == weighted.shape
            assert np.array_equal(blind, weighted)

    def test_uncertain_centerline_demoted(self):
        mu_left = np.array([[-LANE_WIDTH / 2, -30.0], [-LANE_WIDTH / 2, 30.0]])
        mu_right = np.array([[LANE_WIDTH / 2, -30.0], [LANE_WIDTH / 2, 30.0]])
        logits = np.full((2, 4), -16.0)
        logits[:, 3] = 0.0
        left = MapElement(mu_left, ElementClass.LANE_CENTERLINE,
                          b=np.full((2, 2), 2.0), class_logits=logits)
        right = MapElement(mu_right, ElementClass.LANE_CENTERLINE,
                           b=np.full((2, 2), 0.2), class_logits=logits)
        pmap = VectorMap([left, right], Pose2.identity())
        history = np.column_stack([np.zeros(20), np.linspace(-6, 0, 20)])
        modes = predict_weighted(history, pmap, k=2)
        # first mode must track the confident (right) centerline
        assert modes[0, -1, 0] > 0


class TestDataset:
    def test_distance_trend(self):
        cfg = DatasetConfig(
            n_scenes=20, seed=6, predictor="none", max_occluders=0,
            noise=NoiseModel(base_b=0.05, distance_coeff=0.02,
                             occlusion_multiplier=1.0, condition_multipliers={}))
        ds = build_dataset(cfg)
        b_all, d_all = [], []
        for rec in ds.records:
            ego = rec.gt_map.ego_pose.position
            for el in rec.observed_map.elements:
                b_all.append(el.b.mean(axis=1))
                d_all.append(np.hypot(el.mu[:, 0] - ego[0], el.mu[:, 1] - ego[1]))
        rho = spearmanr(np.concatenate(b_all), np.concatenate(d_all)).statistic
        assert rho > 0.9

    def test_zero_noise_gives_perfect_map_score(self):
        cfg = DatasetConfig(n_scenes=6, seed=9, predictor="none",
                            max_occluders=0, noise=quiet_noise())
        ds = build_dataset(cfg)
        report = evaluate_scenes([(r.observed_map, r.gt_map) for r in ds.records])
        assert report.map_score == pytest.approx(1.0)

    def test_exact_predictor_stores_ground_truth(self):
        cfg = DatasetConfig(n_scenes=2, seed=1, predictor="exact")
        ds = build_dataset(cfg)
        rec = ds.records[0]
        np.testing.assert_array_equal(rec.agents[0].modes[0], rec.agents[0].future)


# The per-agent predictors as they were before the per-scene form, kept as
# the reference it must match bit for bit.

def reference_candidates(pos, vel, centerlines, dt, horizon):
    endpoint = pos + vel * dt * horizon
    polys = [Polyline(c.mu, closed=c.closed) for c in centerlines]
    goal_dist = np.array([nearest_point_on_polyline([p.vertices], [p.closed],
                                                    endpoint[None])[2][0] for p in polys])
    return polys, goal_dist


def reference_snap_path(poly, pos, speed, dt, horizon):
    s_entry = nearest_point_on_polyline([poly.vertices], [poly.closed], pos[None])[1][0]
    s = s_entry + speed * dt * np.arange(1, horizon + 1)
    return point_along([poly.vertices], [poly.closed], s[None])[0]


def reference_predict(history, vmap, k, lam=None, b0=None, dt=0.1, horizon=30):
    """predict_blind when ``lam`` is None, else predict_weighted."""
    history = np.asarray(history, dtype=float)
    centerlines = vmap.by_class(ElementClass.LANE_CENTERLINE)
    pos = history[-1]
    vel = (history[-1] - history[-2]) / dt if len(history) >= 2 else np.zeros(2)
    cv = pos + np.arange(1, horizon + 1)[:, None] * (vel * dt)
    if not centerlines or float(np.hypot(*vel)) < 1e-9:
        return cv[None]
    polys, goal_dist = reference_candidates(pos, vel, centerlines, dt, horizon)
    speed = float(np.hypot(*vel))
    if lam is None:
        order = np.argsort(goal_dist, kind="stable")[:k]
        return np.stack([reference_snap_path(polys[i], pos, speed, dt, horizon)
                         for i in order])
    excess = np.array([max(float(c.b.mean()) - B_FLOOR, 0.0) for c in centerlines])
    order = np.argsort(goal_dist + lam * excess, kind="stable")[:k]
    modes = []
    for i in order:
        path = reference_snap_path(polys[i], pos, speed, dt, horizon)
        w = excess[i] / (excess[i] + b0)
        if w > 0.0:
            path = path + w * (cv - path)
        modes.append(path)
    return np.stack(modes)


def assert_scene_matches_reference(histories, observed, k, lam=1.0, b0=0.5):
    plain = mean_map(observed)
    blind = predict_scenes([histories], [plain], k)[0]
    weighted = predict_scenes([histories], [observed], k, lam, b0, weighted=True)[0]
    assert len(blind) == len(weighted) == len(histories)
    for h, b, w in zip(histories, blind, weighted):
        for got, expected in ((b, reference_predict(h, plain, k)),
                              (w, reference_predict(h, observed, k, lam, b0))):
            assert got.shape == expected.shape
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert np.array_equal(predict_blind(h, plain, k), b)
        assert np.array_equal(predict_weighted(h, observed, k, lam, b0), w)


def prob_centerline(mu, b, closed=False):
    logits = np.zeros((len(mu), 4))
    return MapElement(np.asarray(mu, dtype=float), ElementClass.LANE_CENTERLINE, 0.9, closed,
                      b=np.full((len(mu), 2), b), class_logits=logits)


class TestPerScenePredictor:
    @pytest.mark.parametrize("layout, duplicate", [
        (Layout.STRAIGHT_ROAD, False), (Layout.INTERSECTION, False),
        (Layout.PARKING_LOT, False), (Layout.INTERSECTION, True),
        (Layout.STRAIGHT_ROAD, True)])
    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_generated_scenes_match_per_agent_loop(self, layout, duplicate, k):
        for seed in range(4):
            spec = SceneSpec(layout, seed=seed, n_agents=4, lane_change_prob=0.5,
                             duplicate_centerlines=duplicate)
            gt, agents = generate_scene(spec)
            observed = observe(gt, NoiseModel(), spec, seed=seed + 10)
            histories = [a.history for a in agents]
            # A stationary agent, a one-point history and a short history ride
            # along with the moving agents of the scene.
            histories += [np.repeat(agents[0].history[-1:], 5, axis=0),
                          agents[1].history[-1:], agents[2].history[-3:]]
            assert_scene_matches_reference(histories, observed, k, lam=0.7, b0=0.4)

    def test_mixed_vertex_counts_and_closed_centerline(self):
        loop = [[-6.0, -6.0], [6.0, -6.0], [6.0, 6.0], [-6.0, 6.0]]
        arc = np.column_stack([10 * np.cos(np.linspace(0, 1.5, 9)),
                               10 * np.sin(np.linspace(0, 1.5, 9))])
        pmap = VectorMap([
            prob_centerline([[-1.75, -30.0], [-1.75, 30.0]], 0.05),
            prob_centerline([[1.75, -30.0], [1.75, 0.0], [1.75, 30.0]], 0.9),
            prob_centerline(loop, 0.3, closed=True),
            prob_centerline(loop[::-1], 0.3, closed=True),
            prob_centerline(arc, 1.5),
            prob_centerline(arc + 0.2, B_FLOOR),
        ], Pose2.identity())
        rng = np.random.default_rng(4)
        histories = [np.cumsum(rng.normal(0, 0.4, (n, 2)), axis=0) + rng.uniform(-8, 8, 2)
                     for n in (20, 2, 7, 20, 1)]
        for k in (1, 4, 6, 9):
            assert_scene_matches_reference(histories, pmap, k)

    def test_map_without_centerlines(self):
        boundary = MapElement(np.array([[0.0, 0.0], [0.0, 10.0]]), ElementClass.ROAD_BOUNDARY)
        history = np.column_stack([np.zeros(20), np.linspace(-2, 0, 20)])
        modes = predict_scenes([[history, history[-1:]]], [VectorMap([boundary])], k=6)[0]
        expected = [reference_predict(history, VectorMap([boundary]), 6),
                    reference_predict(history[-1:], VectorMap([boundary]), 6)]
        for got, e in zip(modes, expected):
            assert got.shape == (1, 30, 2) and np.array_equal(got, e)

    def test_no_agents_and_bad_k(self):
        assert predict_scenes([[]], [VectorMap([])], k=3) == [[]]
        with pytest.raises(ValueError):
            predict_scenes([[np.zeros((2, 2))]], [VectorMap([])], k=0)


# build_dataset as it was before scenes were built in blocks, one scene and
# one element at a time, kept as the reference the blocks must match bit for
# bit. The predictors are the per-agent reference above.

def reference_true_scale(noise, points, ego, element_class, condition, occluders):
    dist = np.hypot(points[:, 0] - ego[0], points[:, 1] - ego[1])
    b = noise.base_b + noise.distance_coeff * dist
    if occluders:
        centers = np.array([[o.x, o.y] for o in occluders])
        radii = np.array([o.radius for o in occluders])
        shadowed = segment_intersects_disc(ego, points[:, None, :], centers[None],
                                           radii[None]).any(axis=1)
        b = np.where(shadowed, b * noise.occlusion_multiplier, b)
    b = b * noise.condition_multipliers.get(condition.value, {}).get(element_class.value, 1.0)
    return np.maximum(b, B_FLOOR)


def reference_agent(rng, chains, closed, speed_range, lane_change_prob):
    idx = int(rng.integers(len(chains)))
    pts = chains[idx]
    step = np.diff(np.vstack([pts, pts[:1]]) if closed[idx] else pts, axis=0)
    length = float(np.hypot(step[:, 0], step[:, 1]).sum())
    back = (HISTORY_STEPS - 1) * DT
    fwd = FUTURE_STEPS * DT
    v_hi = min(speed_range[1], (length - 2.0) / (back + fwd))
    v_lo = min(speed_range[0], max(v_hi - 0.5, 0.5))
    v = float(rng.uniform(v_lo, v_hi))
    s0 = float(rng.uniform(back * v + 0.5, length - fwd * v - 0.5))
    steps = np.arange(-(HISTORY_STEPS - 1), FUTURE_STEPS + 1)
    track = point_along([pts], [closed[idx]], (s0 + v * DT * steps)[None])[0]
    history = track[:HISTORY_STEPS]
    future = track[HISTORY_STEPS:]
    if rng.random() < lane_change_prob:
        target = None
        for i, cand in enumerate(chains):
            if i == idx:
                continue
            gap0, gap1 = nearest_point_on_polyline([cand] * 2, [closed[i]] * 2,
                                                   future[[0, -1]])[2]
            if abs(gap0 - LANE_WIDTH) < 0.1 and abs(gap1 - LANE_WIDTH) < 0.1:
                target = i
                break
        if target is not None:
            ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(1, FUTURE_STEPS + 1) / FUTURE_STEPS))
            onto = nearest_point_on_polyline([chains[target]] * len(future),
                                             [closed[target]] * len(future), future)[0]
            future = future + ramp[:, None] * (onto - future)
    return history, future


def reference_generate_scene(spec):
    rng = np.random.default_rng(spec.seed)
    elements = synth._BUILDERS[spec.layout](rng)
    if spec.duplicate_centerlines:
        elements += [MapElement(el.vertices + np.array([0.15, 0.0]), el.element_class,
                                el.confidence, el.closed)
                     for el in elements if el.element_class == ElementClass.LANE_CENTERLINE]
    gt = VectorMap(elements)
    centerlines = gt.by_class(ElementClass.LANE_CENTERLINE)
    closed = [c.closed for c in centerlines]
    chains = polyline_vertices([c.mu for c in centerlines], closed)
    return gt, [reference_agent(rng, chains, closed, synth._SPEED_RANGE[spec.layout],
                                spec.lane_change_prob) for _ in range(spec.n_agents)]


def reference_observe(gt, noise, spec, seed, resample_count):
    rng = np.random.default_rng(seed)
    ego = gt.ego_pose.position
    points = resample([el.vertices for el in gt.elements], [el.closed for el in gt.elements],
                      [resample_count] * len(gt.elements))
    out = []
    for el, pts in zip(gt.elements, points):
        b_true = reference_true_scale(noise, pts, ego, el.element_class, spec.condition,
                                      spec.occluders)
        mu = rng.laplace(pts, b_true[:, None])
        b_emit = np.maximum(b_true * noise.miscalibration, B_FLOOR)
        true_idx = CLASS_INDEX[el.element_class]
        n = len(pts)
        if noise.class_mode == "one_hot":
            logits = np.full((n, NUM_CLASSES), -16.0)
            logits[:, true_idx] = 0.0
        else:
            q = rng.uniform(0.55, 0.95, size=n)
            correct = rng.random(n) < q
            others = [c for c in range(NUM_CLASSES) if c != true_idx]
            pred = np.where(correct, true_idx, rng.choice(others, size=n))
            probs = np.repeat(((1.0 - q) / (NUM_CLASSES - 1))[:, None], NUM_CLASSES, axis=1)
            probs[np.arange(n), pred] = q
            logits = np.log(probs)
        conf = float(rng.uniform(0.7, 1.0))
        out.append(MapElement(mu, el.element_class, conf, el.closed,
                              b=np.column_stack([b_emit, b_emit]), class_logits=logits))
    return VectorMap(out, gt.ego_pose, gt.perception_range)


def reference_build_dataset(cfg):
    """(spec, observe seed, gt, observed, [(history, future, modes)]) per scene."""
    master = np.random.default_rng(cfg.seed)
    out = []
    for _ in range(cfg.n_scenes):
        layout = Layout(synth._weighted_choice(master, cfg.layout_weights))
        condition = Condition(synth._weighted_choice(master, cfg.condition_weights))
        occluders = synth._sample_occluders(master, cfg.max_occluders, cfg.occluder_radius)
        scene_seed = int(master.integers(0, 2**63 - 1))
        observe_seed = int(master.integers(0, 2**63 - 1))
        spec = SceneSpec(layout=layout, seed=scene_seed, n_agents=cfg.n_agents,
                         condition=condition, occluders=occluders,
                         lane_change_prob=cfg.lane_change_prob,
                         duplicate_centerlines=cfg.duplicate_centerlines)
        gt, tracks = reference_generate_scene(spec)
        observed = reference_observe(gt, cfg.noise, spec, observe_seed, cfg.resample_count)
        agents = []
        for history, future in tracks:
            if cfg.predictor == "blind":
                modes = reference_predict(history, observed, cfg.modes)
            elif cfg.predictor == "weighted":
                modes = reference_predict(history, observed, cfg.modes, cfg.lam, cfg.b0)
            else:
                modes = future[None] if cfg.predictor == "exact" else np.empty((0, 30, 2))
            agents.append((history, future, modes))
        out.append((spec, observe_seed, gt, observed, agents))
    return out


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_map(got, want):
    assert same_bits(got.offsets, want.offsets) and same_bits(got.mu, want.mu)
    for name in ("b", "class_logits"):
        if getattr(want, name) is None:
            assert getattr(got, name) is None
        else:
            assert same_bits(getattr(got, name), getattr(want, name))
    assert [(e.element_class, e.closed) for e in got.elements] == \
        [(e.element_class, e.closed) for e in want.elements]
    assert [e.confidence for e in got.elements] == [e.confidence for e in want.elements]
    assert (got.ego_pose, got.perception_range, got.out_of_range) == \
        (want.ego_pose, want.perception_range, want.out_of_range)


_WEIGHTS = st.lists(st.integers(0, 4), min_size=3, max_size=3).filter(any).map(
    lambda w: [x / sum(w) for x in w])


# Per condition, multipliers for "*" and for named classes, in any order.
_MULTIPLIERS = st.dictionaries(
    st.sampled_from([c.value for c in Condition]),
    st.dictionaries(st.sampled_from(["*"] + [c.value for c in ElementClass]),
                    st.sampled_from([1, 1.3, 2.0, 4.5]), max_size=3), max_size=3)


@st.composite
def dataset_configs(draw):
    layouts, conditions = draw(_WEIGHTS), draw(_WEIGHTS)
    noise = NoiseModel(base_b=draw(st.sampled_from([B_FLOOR, 1e-5, 0.05, 0.2])),
                       distance_coeff=draw(st.sampled_from([0.0, 0.01, 0.03])),
                       occlusion_multiplier=draw(st.sampled_from([1.0, 3.0, 6.0])),
                       condition_multipliers=draw(_MULTIPLIERS),
                       miscalibration=draw(st.sampled_from([0.05, 1.0, 1.7])),
                       class_mode=draw(st.sampled_from(["calibrated", "one_hot"])))
    return DatasetConfig(
        # Above and below the block size, and across a block boundary.
        n_scenes=draw(st.integers(1, 2 * synth.SCENE_BLOCK + 3)),
        seed=draw(st.integers(0, 2**32)),
        layout_weights=dict(zip(Layout, layouts)),
        condition_weights=dict(zip(Condition, conditions)),
        n_agents=draw(st.integers(1, 4)),
        max_occluders=draw(st.integers(0, 5)),
        lane_change_prob=draw(st.sampled_from([0.0, 0.1, 0.6, 1.0])),
        duplicate_centerlines=draw(st.booleans()),
        noise=noise,
        resample_count=draw(st.integers(2, 25)),
        modes=draw(st.integers(1, 8)),
        predictor=draw(st.sampled_from(["blind", "weighted", "exact", "none"])),
        lam=draw(st.sampled_from([0.0, 1.0, 2.5])),
        b0=draw(st.sampled_from([0.1, 0.5, 3.0])))


class TestConfigRecords:
    """The config records hold the JSON form: names for keys, and multipliers
    per condition and class."""

    @settings(max_examples=50, deadline=None)
    @given(cfg=dataset_configs())
    def test_json_form_round_trips(self, cfg):
        assert uio.parse_dataset_config(uio._plain(cfg)) == cfg

    def test_member_keys_stored_as_names(self):
        cfg = DatasetConfig(layout_weights={Layout.PARKING_LOT: 0.5, "intersection": 0.5},
                            condition_weights={Condition.RAIN: 1},
                            noise=NoiseModel(condition_multipliers={
                                Condition.NIGHT: {ElementClass.PED_CROSSING: 2}}))
        assert cfg.layout_weights == {"parking_lot": 0.5, "intersection": 0.5}
        assert cfg.condition_weights == {"rain": 1.0}
        assert cfg.noise.condition_multipliers == {"night": {"ped_crossing": 2.0}}

    def test_wildcard_expands_in_insertion_order(self):
        noise = NoiseModel(condition_multipliers={"night": {"lane_centerline": 3.0, "*": 2},
                                                  "rain": {"*": 1.5, "ped_crossing": 4}})
        night = {"lane_centerline": 2.0} | {c.value: 2.0 for c in ElementClass}
        rain = {c.value: 1.5 for c in ElementClass} | {"ped_crossing": 4.0}
        assert noise.condition_multipliers == {"night": night, "rain": rain}
        assert list(noise.condition_multipliers["night"]) == list(night)
        assert NoiseModel().condition_multipliers == {
            "night": {"ped_crossing": 2.0}, "rain": {c.value: 1.3 for c in ElementClass}}

    # TestConfigContract covers a non-object, an unknown condition and NaN.
    @pytest.mark.parametrize("multipliers, message", [
        ({"day": {"kerb": 2}}, "condition_multipliers: 'kerb' is not a valid ElementClass"),
        ({"day": {"*": 0.5}}, "condition_multipliers day road_boundary must be a finite "
                              "number >= 1, got 0.5"),
    ])
    def test_bad_multipliers_rejected(self, multipliers, message):
        with pytest.raises(ValueError) as err:
            NoiseModel(condition_multipliers=multipliers)
        assert str(err.value) == message


class TestBlockBuild:
    @settings(max_examples=25, deadline=None)
    @given(cfg=dataset_configs())
    def test_matches_per_scene_loop(self, cfg):
        records = build_dataset(cfg).records
        want = reference_build_dataset(cfg)
        assert len(records) == len(want) == cfg.n_scenes
        for i, (rec, (spec, seed, gt, observed, agents)) in enumerate(zip(records, want)):
            assert (rec.scene_id, rec.spec, rec.observe_seed) == (f"scene_{i:04d}", spec, seed)
            assert_same_map(rec.gt_map, gt)
            assert_same_map(rec.observed_map, observed)
            assert len(rec.agents) == len(agents)
            for got, (history, future, modes) in zip(rec.agents, agents):
                assert same_bits(got.history, history) and same_bits(got.future, future)
                assert same_bits(got.modes, modes)

    def test_one_scene_calls_match_the_block(self):
        cfg = DatasetConfig(n_scenes=synth.SCENE_BLOCK + 2, seed=4, lane_change_prob=0.5,
                            max_occluders=4)
        for rec in build_dataset(cfg).records:
            gt, agents = generate_scene(rec.spec)
            assert_same_map(gt, rec.gt_map)
            observed = observe(gt, cfg.noise, rec.spec, rec.observe_seed, cfg.resample_count)
            assert_same_map(observed, rec.observed_map)
            modes = predict_scenes([[a.history for a in agents]], [observed], cfg.modes)[0]
            for got, track, m in zip(rec.agents, agents, modes):
                assert same_bits(got.history, track.history)
                assert same_bits(got.future, track.future) and same_bits(got.modes, m)
