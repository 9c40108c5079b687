import math
import numbers
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from uncmap.geometry import MERGE_EPS, NUM_CLASSES, ElementClass, Pose2
from uncmap.probmap import (
    MapElement,
    VectorMap,
    b_from_sigma,
    density,
    laplace_pdf,
    log_density,
    mean_map,
    nll_loss,
    rotate_uncertainty,
    sample_map,
    sigma_from_b,
    softmax,
    standardize_map,
    vertex_features,
)

V1 = (np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))


def _element(mu, b, cls=ElementClass.LANE_DIVIDER, confidence=1.0):
    logits = np.zeros((len(mu), 4))
    return MapElement(np.asarray(mu, float), cls, confidence, b=np.asarray(b, float),
                      class_logits=logits)


class TestDensity:
    def test_peak_value(self):
        assert density(*V1, np.array([[0.0, 0.0]])) == pytest.approx(0.25)

    def test_one_meter_off(self):
        val = density(*V1, np.array([[1.0, 0.0]]))
        assert val == pytest.approx(0.25 * math.exp(-1), rel=1e-12)

    def test_log_density_adds_over_vertices(self):
        mu = np.array([[0.0, 0.0], [2.0, -1.0]])
        b = np.array([[0.5, 1.0], [2.0, 0.25]])
        sample = np.array([[0.3, -0.2], [1.0, 1.0]])
        total = log_density(mu, b, sample)
        parts = sum(log_density(mu[i:i + 1], b[i:i + 1], sample[i:i + 1])
                    for i in range(2))
        assert total == pytest.approx(parts, rel=1e-12)

    def test_exp_log_density_matches_density(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = int(rng.integers(1, 8))
            mu = rng.uniform(-5, 5, (v, 2))
            b = rng.uniform(0.05, 3.0, (v, 2))
            sample = rng.uniform(-5, 5, (v, 2))
            d = density(mu, b, sample)
            if d > 1e-300:
                assert math.exp(log_density(mu, b, sample)) == pytest.approx(d, rel=1e-12)

    def test_1d_density_integrates_to_one(self):
        for mu, b in [(0.0, 1.0), (2.5, 0.2), (-3.0, 4.0)]:
            total, _ = quad(lambda x: laplace_pdf(x, mu, b), mu - 40 * b, mu + 40 * b)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            density(*V1, np.array([[0.0, 0.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_log_density_scale_rule(self, bad):
        with pytest.raises(ValueError, match="Laplace scale b must be positive and finite"):
            log_density(np.zeros((1, 2)), np.array([[1.0, bad]]), np.zeros((1, 2)))


class TestNllLoss:
    def test_zero_residual(self):
        loss, _, _ = nll_loss(np.array([[0.0, 0.0]]), np.array([[0.5, 0.5]]),
                              np.array([[0.0, 0.0]]))
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        loss, _, _ = nll_loss(*V1, np.array([[1.0, 0.0]]))
        assert loss == pytest.approx(2 * math.log(2) + 1, rel=1e-12)

    def test_scale_gradient_zero_at_mle(self):
        _, _, gb = nll_loss(np.array([0.0]), np.array([1.0]), np.array([1.0]))
        assert gb[0] == pytest.approx(0.0, abs=1e-15)

    def test_subgradient_zero_at_target(self):
        _, gmu, _ = nll_loss(np.array([2.0]), np.array([1.0]), np.array([2.0]))
        assert gmu[0] == 0.0

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            nll_loss(np.array([0.0]), np.array([0.0]), np.array([1.0]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        n = 1000
        mu = rng.uniform(-3, 3, n)
        b = rng.uniform(0.05, 5.0, n)
        v = rng.uniform(-3, 3, n)
        h = 1e-6
        _, gmu, gb = nll_loss(mu, b, v)

        def terms(mu_, b_):
            return np.log(2 * b_) + np.abs(v - mu_) / b_

        fd_mu = (terms(mu + h, b) - terms(mu - h, b)) / (2 * h)
        fd_b = (terms(mu, b + h) - terms(mu, b - h)) / (2 * h)
        rel_mu = np.abs(gmu - fd_mu) / np.maximum(np.abs(fd_mu), 1e-12)
        rel_b = np.abs(gb - fd_b) / np.maximum(np.abs(fd_b), 1e-12)
        assert rel_mu.max() < 1e-6
        assert rel_b.max() < 1e-6


class TestScaleConversions:
    def test_sigma_from_b(self):
        assert sigma_from_b(1.0) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_inverse(self):
        assert b_from_sigma(math.sqrt(2)) == pytest.approx(1.0, rel=1e-15)

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        b = rng.uniform(0.01, 10, 1000)
        np.testing.assert_allclose(b_from_sigma(sigma_from_b(b)), b, rtol=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            sigma_from_b(0.0)
        with pytest.raises(ValueError):
            b_from_sigma(-1.0)


class TestRotateUncertainty:
    def test_zero_angle_identity(self):
        sx, sy = rotate_uncertainty(3.0, 4.0, 0.0)
        assert (sx, sy) == (3.0, 4.0)

    def test_quarter_turn_swaps(self):
        sx, sy = rotate_uncertainty(3.0, 4.0, np.pi / 2)
        assert (float(sx), float(sy)) == (4.0, 3.0)

    def test_energy_preserved(self):
        rng = np.random.default_rng(3)
        sx = rng.uniform(0.1, 10, 2000)
        sy = rng.uniform(0.1, 10, 2000)
        for theta in rng.uniform(-np.pi, np.pi, 5):
            rx, ry = rotate_uncertainty(sx, sy, theta)
            np.testing.assert_allclose(rx * rx + ry * ry, sx * sx + sy * sy, rtol=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            rotate_uncertainty(0.0, 1.0, 0.3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            rotate_uncertainty(1.0, bad, 0.3)


def _small_map(b=(0.3, 0.8)):
    el = MapElement(
        np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 5.0]]),
        ElementClass.ROAD_BOUNDARY,
        confidence=0.9,
        b=np.tile(np.asarray(b, float), (3, 1)),
        class_logits=np.arange(12, dtype=float).reshape(3, 4),
    )
    return VectorMap([el], Pose2.identity())


class TestStandardize:
    def test_identity_frame_is_noop(self):
        pmap = _small_map()
        out = standardize_map(pmap, Pose2.identity())
        np.testing.assert_allclose(out.elements[0].mu, pmap.elements[0].mu, atol=1e-12)
        np.testing.assert_allclose(out.elements[0].b, pmap.elements[0].b, atol=1e-12)

    def test_quarter_turn_swaps_scales(self):
        pmap = _small_map(b=(0.3, 0.8))
        out = standardize_map(pmap, Pose2(0, 0, np.pi / 2))
        np.testing.assert_allclose(out.elements[0].b[:, 0], 0.8, rtol=1e-12)
        np.testing.assert_allclose(out.elements[0].b[:, 1], 0.3, rtol=1e-12)

    def test_then_identity_composes(self):
        pmap = _small_map()
        frame = Pose2(1.0, -0.5, 0.4)
        once = standardize_map(pmap, frame)
        twice = standardize_map(once, Pose2.identity())
        np.testing.assert_allclose(twice.elements[0].mu, once.elements[0].mu, atol=1e-12)
        np.testing.assert_allclose(twice.elements[0].b, once.elements[0].b, atol=1e-12)

    def test_inverse_frame_restores_locations(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pmap = _small_map(b=tuple(rng.uniform(0.1, 2.0, 2)))
            frame = Pose2(*rng.uniform(-5, 5, 2), rng.uniform(-np.pi, np.pi))
            back = standardize_map(standardize_map(pmap, frame), frame.inverse())
            np.testing.assert_allclose(back.elements[0].mu, pmap.elements[0].mu,
                                       atol=1e-9)

    def test_inverse_frame_restores_scales_for_quarter_turns(self):
        for heading in (0.0, np.pi / 2, np.pi, -np.pi / 2):
            pmap = _small_map(b=(0.25, 1.5))
            frame = Pose2(2.0, 1.0, heading)
            back = standardize_map(standardize_map(pmap, frame), frame.inverse())
            np.testing.assert_allclose(back.elements[0].b, pmap.elements[0].b,
                                       rtol=1e-9)

    def test_generic_rotation_does_not_restore_scales(self):
        pmap = _small_map(b=(0.25, 1.5))
        frame = Pose2(0, 0, 0.7)
        back = standardize_map(standardize_map(pmap, frame), frame.inverse())
        assert not np.allclose(back.elements[0].b, pmap.elements[0].b, rtol=1e-3)


class TestEncodeVertex:
    def test_uniform_logits(self):
        feat = vertex_features(_element(np.zeros((2, 2)), np.ones((2, 2))))
        np.testing.assert_allclose(feat[:, 4:], 0.25, rtol=1e-12)

    def test_hand_feature(self):
        el = MapElement(np.array([[1.0, 2.0], [0.0, 0.0]]), ElementClass.LANE_DIVIDER,
                        b=np.array([[0.1, 0.2], [1.0, 1.0]]),
                        class_logits=np.array([[math.log(2), 0.0, 0.0, 0.0], [0.0] * 4]))
        np.testing.assert_allclose(
            vertex_features(el)[0], [1, 2, 0.1, 0.2, 0.4, 0.2, 0.2, 0.2], rtol=1e-12)

    def test_length_and_simplex(self):
        rng = np.random.default_rng(5)
        el = MapElement(np.zeros((100, 2)), ElementClass.LANE_DIVIDER, b=np.ones((100, 2)),
                        class_logits=rng.uniform(-10, 10, (100, 4)))
        feat = vertex_features(el)
        assert feat.shape == (100, 8)
        np.testing.assert_array_equal(feat[:, :2], el.mu)
        np.testing.assert_array_equal(feat[:, 2:4], el.b)
        np.testing.assert_allclose(feat[:, 4:].sum(axis=1), 1.0, atol=1e-9)
        assert np.all(feat[:, 4:] >= 0)

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(6)
        logits = rng.uniform(-3, 3, 4)
        np.testing.assert_allclose(softmax(logits), softmax(logits + 17.3), rtol=1e-9)


class TestMeanAndSampleMap:
    def test_mean_map_ignores_scale(self):
        wide = _small_map(b=(1.0, 1.0))
        narrow = _small_map(b=(0.01, 0.01))
        np.testing.assert_array_equal(mean_map(wide).elements[0].vertices,
                                      mean_map(narrow).elements[0].vertices)

    def test_empty_map(self):
        out = mean_map(VectorMap([], Pose2.identity()))
        assert out.elements == []

    def test_vertex_count_preserved(self):
        pmap = _small_map()
        out = mean_map(pmap)
        assert len(out.elements[0].vertices) == pmap.elements[0].n_vertices

    def test_sampling_deterministic(self):
        pmap = _small_map()
        a = sample_map(pmap, seed=42)
        b = sample_map(pmap, seed=42)
        np.testing.assert_array_equal(a.elements[0].vertices, b.elements[0].vertices)

    def test_degenerate_scale_collapses_to_location(self):
        pmap = _small_map(b=(1e-12, 1e-12))
        out = sample_map(pmap, seed=7)
        np.testing.assert_allclose(out.elements[0].vertices, pmap.elements[0].mu,
                                   atol=1e-9)

    def test_one_draw_over_the_map_is_one_draw_per_element(self):
        rng = np.random.default_rng(4)
        els = [MapElement(rng.uniform(-9, 9, (n, 2)), ElementClass.LANE_DIVIDER,
                          b=rng.uniform(0.1, 2.0, (n, 2)), class_logits=np.zeros((n, 4)))
               for n in (3, 5, 2)]
        pmap = VectorMap(els, Pose2.identity(), (1e3, 1e3))
        per_element = np.random.default_rng(11)
        for el, got in zip(pmap.elements, sample_map(pmap, seed=11).elements):
            np.testing.assert_array_equal(got.mu, per_element.laplace(el.mu, el.b))

    def test_sample_moments(self):
        # One vertex off the origin keeps the element a valid polyline.
        mu = np.zeros((50_000, 2))
        mu[-1] = [1.0, 0.0]
        el = MapElement(mu, ElementClass.LANE_DIVIDER,
                        b=np.ones((50_000, 2)), class_logits=np.zeros((50_000, 4)))
        pmap = VectorMap([el], Pose2.identity(), perception_range=(1e6, 1e6))
        draws = (sample_map(pmap, seed=123).elements[0].vertices - mu).ravel()
        assert len(draws) == 100_000
        assert abs(np.median(draws)) < 0.01
        assert abs(np.abs(draws).mean() - 1.0) < 0.01


class TestValidation:
    def test_element_requires_positive_scale(self):
        with pytest.raises(ValueError):
            VectorMap([_element([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 1.0]])])

    def test_element_requires_two_vertices(self):
        with pytest.raises(ValueError):
            VectorMap([_element(np.zeros((1, 2)), np.ones((1, 2)))])

    def test_range_check_counts(self):
        el = _element(np.array([[0.0, 0.0], [100.0, 0.0]]), np.ones((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert VectorMap([el], Pose2.identity()).out_of_range == 1

    def test_range_check_skips_maps_without_scales(self):
        el = MapElement(np.array([[0.0, 0.0], [100.0, 0.0]]), ElementClass.LANE_DIVIDER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert VectorMap([el], Pose2.identity()).out_of_range == 0

    # Any other window makes out_of_range meaningless: a NaN side counts no
    # vertex and a negative one every vertex.
    @pytest.mark.parametrize("window", [(np.nan, 30.0), (-5.0, 0.0), ("60", 30.0),
                                        (True, 30.0), (60.0,), (10**400, 30.0)])
    def test_window_must_hold_two_finite_positive_numbers(self, window):
        el = _element(np.array([[0.0, 0.0], [100.0, 0.0]]), np.ones((2, 2)))
        with pytest.raises(ValueError, match="perception_range must hold 2 numbers"):
            VectorMap([el], Pose2.identity(), window)

    @pytest.mark.parametrize("labels", [{"closed": "no"}, {"closed": 1},
                                        {"confidence": "0.9"}, {"confidence": True}])
    def test_labels_must_be_a_bool_and_a_number(self, labels):
        el = MapElement(np.array([[0.0, 0.0], [1.0, 0.0]]), ElementClass.LANE_DIVIDER, **labels)
        with pytest.raises(ValueError, match=next(iter(labels))):
            VectorMap([el])

    def test_window_and_labels_stored_as_floats_and_bools(self):
        el = MapElement(np.array([[0.0, 0.0], [1.0, 0.0]]), ElementClass.LANE_DIVIDER,
                        np.int64(1), np.True_)
        vmap = VectorMap([el], Pose2.identity(), (60, np.float64(30.0)))
        assert [type(v) for v in vmap.perception_range] == [float, float]
        assert vmap.perception_range == (60.0, 30.0)
        got = vmap.elements[0]
        assert type(got.confidence) is float and got.confidence == 1.0 and got.closed is True

    @pytest.mark.parametrize("given", ["b", "class_logits"])
    def test_scales_and_logits_come_together(self, given):
        arrays = {"b": np.ones((2, 2)), "class_logits": np.zeros((2, 4))}
        with pytest.raises(ValueError, match="b and class_logits must be given together"):
            VectorMap([MapElement(np.zeros((2, 2)) + [[0.0], [1.0]],
                                  ElementClass.LANE_DIVIDER, **{given: arrays[given]})])

    def test_map_mixing_scaled_and_plain_elements_rejected(self):
        scaled = _element([[0.0, 0.0], [1.0, 0.0]], np.ones((2, 2)))
        plain = MapElement(np.array([[0.0, 1.0], [1.0, 1.0]]), ElementClass.LANE_DIVIDER)
        with pytest.raises(ValueError, match="every element"):
            VectorMap([scaled, plain])

    def test_vertices_is_mu(self):
        plain = VectorMap([MapElement([[0, 0], [1, 0]], ElementClass.LANE_DIVIDER)]).elements[0]
        scaled = VectorMap([_element([[0.0, 0.0], [1.0, 0.0]], np.ones((2, 2)))]).elements[0]
        for el in (plain, scaled):
            assert el.vertices is el.mu and el.mu.dtype == float
            assert el.n_vertices == 2
            with pytest.raises(AttributeError):
                el.vertices = np.zeros((2, 2))
        assert plain.b is None and plain.class_logits is None


# The map checks as they stood when each element checked itself, kept as the
# reference for VectorMap's one pass over a map: every element's checks in
# turn (with the label rules added later), then the map's, then the
# coincident-vertex rule that io applied to a loaded map (there as a
# DataError, a ValueError).
def _reference_element(el) -> np.ndarray:
    mu = np.asarray(el.mu, dtype=float)
    if mu.ndim != 2 or mu.shape[1] != 2 or len(mu) < 2:
        raise ValueError("mu shape")
    if not np.all(np.isfinite(mu)):
        raise ValueError("mu finite")
    if (el.b is None) != (el.class_logits is None):
        raise ValueError("b and class_logits together")
    if el.b is not None:
        b = np.asarray(el.b, dtype=float)
        if not np.all(np.isfinite(b)) or np.any(b <= 0.0):
            raise ValueError("b positive and finite")
        logits = np.asarray(el.class_logits, dtype=float)
        if b.shape != mu.shape:
            raise ValueError("b shape")
        if logits.shape != (len(mu), NUM_CLASSES):
            raise ValueError("class_logits shape")
        if not np.all(np.isfinite(logits)):
            raise ValueError("class_logits finite")
    if not isinstance(el.element_class, ElementClass):
        raise TypeError("element_class")
    # The label rules added since: a confidence is a real number, not a
    # bool, and closed is a bool.
    if isinstance(el.confidence, bool) or not isinstance(el.confidence, numbers.Real):
        raise ValueError("confidence type")
    if not 0.0 <= el.confidence <= 1.0:
        raise ValueError("confidence")
    if not isinstance(el.closed, (bool, np.bool_)):
        raise ValueError("closed")
    return mu


def reference_map_check(elements) -> None:
    mus = [_reference_element(el) for el in elements]
    scaled = [el.b is not None for el in elements]
    if any(scaled) and not all(scaled):
        raise ValueError("mixed")
    if not mus:
        return
    counts = [len(v) for v in mus]
    starts = np.cumsum([0] + counts[:-1])
    pts = np.concatenate(mus)
    step = pts - np.repeat(pts[starts], counts, axis=0)
    far = np.hypot(step[:, 0], step[:, 1]) >= MERGE_EPS
    if not np.logical_or.reduceat(far, starts).all():
        raise ValueError("coincident vertices")


_DEFECTS = ["nan_mu", "inf_b", "nan_logits", "zero_b", "negative_b", "mu_shape", "b_shape",
            "logits_shape", "rows_moved", "few_vertices", "coincident", "mixed", "b_alone",
            "confidence", "closed", "class"]


@st.composite
def _element_lists(draw):
    """Element lists with, when ``defect`` is not None, one kind of defect
    injected into some of their elements."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scaled = draw(st.booleans())
    elements = []
    for _ in range(draw(st.integers(1, 4))):  # test_empty_map covers none
        n = int(rng.integers(2, 6))
        b = logits = None
        if scaled:
            b, logits = rng.uniform(0.05, 2.0, (n, 2)), rng.normal(size=(n, NUM_CLASSES))
        elements.append(MapElement(rng.uniform(-20, 20, (n, 2)),
                                   draw(st.sampled_from(list(ElementClass))),
                                   draw(st.floats(0.0, 1.0)), draw(st.booleans()), b, logits))
    defect = draw(st.sampled_from([None] + _DEFECTS)) if elements else None
    targets = draw(st.sets(st.integers(0, len(elements) - 1), min_size=1)) if defect else ()
    for i in targets:
        el = elements[i]
        n = len(el.mu)
        if defect == "nan_mu":
            el.mu[rng.integers(n), rng.integers(2)] = np.nan
        elif defect == "mu_shape":
            el.mu = draw(st.sampled_from([np.zeros((n, 3)), np.zeros(n), el.mu[..., None],
                                          np.float64(1.0)]))
        elif defect == "few_vertices":
            keep = draw(st.integers(0, 1))
            el.mu = el.mu[:keep]
            el.b, el.class_logits = (None, None) if el.b is None else (el.b[:keep],
                                                                        el.class_logits[:keep])
        elif defect == "coincident":
            el.mu = el.mu[:1] + rng.uniform(-0.4, 0.4, (n, 2)) * MERGE_EPS
        elif defect == "mixed":
            el.b, el.class_logits = (rng.uniform(0.05, 2.0, (n, 2)), np.zeros((n, NUM_CLASSES))) \
                if el.b is None else (None, None)
        elif defect == "b_alone":
            el.b = np.ones((n, 2)) if el.b is None else el.b
            el.class_logits = None
        elif defect == "confidence":
            el.confidence = draw(st.sampled_from([-0.1, 1.5, np.nan, None, "0.9", True, False]))
        elif defect == "closed":
            el.closed = draw(st.sampled_from(["no", "false", 0.5, 0, None]))
        elif defect == "class":
            el.element_class = draw(st.sampled_from(["lane_divider", None, 3]))
        elif el.b is not None:  # the defects of an estimated element's scales and logits
            if defect == "inf_b":
                el.b[rng.integers(n), rng.integers(2)] = np.inf
            elif defect == "zero_b":
                el.b[rng.integers(n), rng.integers(2)] = 0.0
            elif defect == "negative_b":
                el.b[rng.integers(n), rng.integers(2)] = -0.5
            elif defect == "nan_logits":
                el.class_logits[rng.integers(n), rng.integers(NUM_CLASSES)] = np.nan
            elif defect == "b_shape":
                el.b = draw(st.sampled_from([np.ones((n, 3)), np.ones((n + 1, 2))]))
            elif defect == "logits_shape":
                el.class_logits = draw(st.sampled_from([np.zeros((n, 3)),
                                                        np.zeros((n + 1, NUM_CLASSES))]))
            elif defect == "rows_moved" and i + 1 < len(elements):
                # One row of scales moves to the next element: the totals still match.
                name = draw(st.sampled_from(["b", "class_logits"]))
                here, there = getattr(el, name), getattr(elements[i + 1], name)
                setattr(el, name, here[:-1])
                setattr(elements[i + 1], name, np.vstack([here[-1:], there]))
    if draw(st.booleans()):  # nested lists stack as arrays do
        for el in elements:
            if isinstance(el.mu, np.ndarray):
                el.mu = el.mu.tolist()
    return elements


class TestOnePassValidation:
    @settings(max_examples=400, deadline=None)
    @given(elements=_element_lists())
    def test_raises_exactly_when_the_element_checks_did(self, elements):
        given_arrays = [(el.mu, el.b, el.class_logits) for el in elements]
        try:
            reference_map_check(elements)
        except (TypeError, ValueError) as exc:
            with pytest.raises((TypeError, ValueError)) as got:
                VectorMap(elements, Pose2.identity(), (1e3, 1e3))
            assert got.type is type(exc), (exc, got.value)
            return
        vmap = VectorMap(elements, Pose2.identity(), (1e3, 1e3))
        assert len(vmap.elements) == len(elements)
        for el, got, arrays in zip(elements, vmap.elements, given_arrays):
            # The given elements are left as they were.
            assert all(a is b for a, b in zip((el.mu, el.b, el.class_logits), arrays))
            assert (got.element_class, got.confidence, got.closed) == \
                (el.element_class, el.confidence, el.closed)
            for name, column in (("mu", vmap.mu), ("b", vmap.b),
                                 ("class_logits", vmap.class_logits)):
                value = getattr(got, name)
                if getattr(el, name) is None:
                    assert value is None and column is None
                else:
                    assert np.shares_memory(value, column)
                    np.testing.assert_array_equal(value, np.asarray(getattr(el, name)))
