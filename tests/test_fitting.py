import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from uncmap.fitting import (FitConfig, _mean_nll, _sorted_oracle, _sorted_prefix,
                            fit_closed_form, fit_gradient, fit_map)
from uncmap.geometry import CLASS_INDEX, ElementClass, Pose2
from uncmap.probmap import B_FLOOR, MapElement, VectorMap, nll_loss, one_hot_logits


class TestClosedForm:
    def test_symmetric_triple(self):
        res = fit_closed_form([-1.0, 0.0, 1.0])
        assert res.mu_hat == 0.0
        assert res.b_hat == pytest.approx(2 / 3)
        assert res.iterations == 0

    def test_identical_samples_floored_and_flagged(self):
        res = fit_closed_form([5.0, 5.0, 5.0, 5.0])
        assert res.mu_hat == 5.0
        assert res.b_hat == B_FLOOR
        assert res.clamped

    def test_even_count_lower_median(self):
        res = fit_closed_form([0.0, 4.0])
        assert res.mu_hat == 0.0
        assert res.b_hat == pytest.approx(2.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_closed_form([1.0])

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        # a coarse grid gives ties; a constant series and one a hair off it
        # are clamped to the scale floor
        st.lists(st.integers(-4, 4).map(lambda i: i * 0.5), min_size=2, max_size=60),
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=60),
        st.tuples(st.floats(-1e3, 1e3, allow_nan=False), st.integers(2, 60)).map(
            lambda vn: [vn[0]] * vn[1]),
        st.tuples(st.integers(2, 60), st.integers(0, 59)).map(
            lambda nk: [1.0 + (1e-7 if i == nk[1] % nk[0] else 0.0) for i in range(nk[0])]),
    ))
    def test_matches_sort_reference_bit_for_bit(self, values):
        x = np.array(values)
        before = x.copy()
        res = fit_closed_form(x)
        assert x.tobytes() == before.tobytes()  # the caller's order is kept
        mu = float(np.sort(x)[(len(x) - 1) // 2])
        dev = float(np.abs(x - mu).mean())
        b = max(dev, B_FLOOR)
        got = np.array([res.mu_hat, res.b_hat, res.final_loss])
        assert got.tobytes() == np.array([mu, b, _mean_nll(x, mu, b)]).tobytes()
        assert type(res.clamped) is bool and res.clamped == (dev < B_FLOOR)
        assert (res.iterations, res.converged, res.loss_trace) == (0, True, None)


class TestGradientFit:
    def test_recovers_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.laplace(2.5, 0.7, 10_000)
        cf = fit_closed_form(x)
        gd = fit_gradient(x)
        assert gd.converged
        assert abs(gd.mu_hat - cf.mu_hat) < 1e-3
        assert abs(gd.b_hat - cf.b_hat) < 1e-3

    def test_init_at_optimum_converges_fast(self):
        x = np.random.default_rng(9).laplace(0.0, 1.0, 101)
        cf = fit_closed_form(x)
        gd = fit_gradient(x, FitConfig(init_mu=cf.mu_hat, init_b=cf.b_hat))
        assert gd.converged
        assert gd.iterations <= 2

    def test_standard_laplace_scale_recovery(self):
        x = np.random.default_rng(5).laplace(0.0, 1.0, 100_000)
        gd = fit_gradient(x)
        assert abs(gd.b_hat - 1.0) < 0.02

    def test_loss_trace_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.laplace(rng.uniform(-2, 2), rng.uniform(0.1, 2.0),
                            int(rng.integers(10, 500)))
            gd = fit_gradient(x)
            assert np.all(np.diff(gd.loss_trace) <= 0)
            assert gd.converged

    def test_short_series_certified(self):
        # Short series put the optimum on a kink of the L1 term, where a
        # rule that stops when the loss stops moving stalls or stops early.
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(10, 51))
            x = rng.laplace(rng.uniform(-2, 2), rng.uniform(0.1, 2.0), n)
            gd = fit_gradient(x, FitConfig(max_iters=300))
            cf = fit_closed_form(x)
            assert gd.converged
            assert abs(gd.final_loss - cf.final_loss) <= 1e-9 * abs(cf.final_loss)
            # The trace adds up per-step changes; it must end at the loss.
            assert gd.loss_trace[-1] == pytest.approx(gd.final_loss, rel=1e-12)

    def test_long_skewed_series_certified(self):
        # The mean starts 13 000 samples from the median; steps must pass
        # many samples at once, not one per iteration.
        x = np.random.default_rng(1).exponential(1.0, 100_000)
        gd = fit_gradient(x)
        assert gd.converged and gd.iterations < 100
        assert gd.final_loss == pytest.approx(fit_closed_form(x).final_loss, rel=1e-12)

    def test_closed_form_attains_global_optimum(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(5, 200)))
            cf = fit_closed_form(x)
            gd = fit_gradient(x)
            assert cf.final_loss <= gd.final_loss + 1e-10

    def test_scale_positive_by_construction(self):
        x = np.array([0.0, 1e-9, -1e-9, 2e-9])
        gd = fit_gradient(x)
        assert gd.b_hat > 0

    @pytest.mark.parametrize("x", [[0.0, 1e-9, -1e-9, 2e-9], [0.0, 5e-324],
                                   [0.0, 1e-300, 2e-300]])
    def test_scale_floored_below_b_floor(self, x):
        gd = fit_gradient(x)
        assert gd.converged and gd.clamped and gd.b_hat == B_FLOOR
        assert gd.final_loss == fit_closed_form(x).final_loss

    def test_start_far_below_the_scale(self):
        # Below the optimum the loss grows like exp(-log b), so an unbounded
        # step in log b overshoots b by orders of magnitude.
        x = np.random.default_rng(2).laplace(2.0, 3.0, 200)
        gd = fit_gradient(x, FitConfig(init_mu=-40.0, init_b=6e-6))
        assert gd.converged and gd.iterations < 100
        assert gd.final_loss == pytest.approx(fit_closed_form(x).final_loss, rel=1e-12)

    def test_heavy_tailed_series_from_any_start_certified(self):
        # A start far from the median of a heavy tail starts b large; a mu
        # step that shrank like 1/b crawled there for thousands of iterations.
        rng = np.random.default_rng(0)
        for _ in range(300):
            x = rng.standard_cauchy(int(rng.integers(2, 301)))
            gd = fit_gradient(x, FitConfig(init_mu=rng.uniform(x.min(), x.max())))
            assert gd.converged
            assert gd.final_loss == pytest.approx(fit_closed_form(x).final_loss, rel=1e-12)

    def test_identical_samples_short_circuit(self):
        gd = fit_gradient([3.0, 3.0, 3.0])
        assert gd.clamped
        assert gd.b_hat == B_FLOOR


# Samples on a coarse grid, so that ties are common, mixed with free floats.
_samples = st.lists(st.one_of(st.integers(-8, 8).map(lambda k: k / 4),
                              st.floats(-10, 10)), min_size=2, max_size=40)


class TestSortedOracle:
    """The sorted-prefix oracle inside fit_gradient against nll_loss."""

    @settings(max_examples=200, deadline=None)
    @given(samples=_samples, data=st.data(), s=st.floats(-3, 3))
    def test_matches_nll_loss(self, samples, data, s):
        x = np.array(samples)
        on_sample = data.draw(st.booleans())
        mu = data.draw(st.sampled_from(samples) if on_sample else st.floats(-12, 12))
        n, b = len(x), math.exp(s)
        loss, g_mu, g_s, below, upto = _sorted_oracle(*_sorted_prefix(x), mu, s)
        total, grad_mu, grad_b = nll_loss(np.full(n, mu), np.full(n, b), x)
        # Rounding scales with the size of the two terms, not of their sum.
        scale = abs(math.log(2 * b)) + np.abs(x - mu).mean() / b
        assert loss == pytest.approx(total / n, rel=1e-12, abs=1e-12 * scale)
        assert g_s == pytest.approx(grad_b.mean() * b, rel=1e-12, abs=1e-12 * scale)
        n_below, n_above = int(np.sum(x < mu)), int(np.sum(x > mu))
        n_at = n - n_below - n_above
        assert (below, upto) == (n_below, n_below + n_at)
        assert (g_mu == 0.0) == (abs(n_below - n_above) <= n_at)
        if n_at == 0:
            assert g_mu == pytest.approx(grad_mu.mean(), rel=1e-12)


def _template_map():
    pts = np.column_stack([np.zeros(8), np.linspace(0, 20, 8)])
    elements = [
        MapElement(pts, ElementClass.LANE_DIVIDER),
        MapElement(pts + np.array([3.5, 0.0]), ElementClass.LANE_CENTERLINE),
    ]
    return VectorMap(elements, Pose2.identity())


def _jittered(template, rng, scale_fn):
    elements = []
    for el in template.elements:
        d = np.hypot(el.vertices[:, 0], el.vertices[:, 1])
        noise = rng.laplace(0.0, scale_fn(d)[:, None], el.vertices.shape)
        elements.append(MapElement(el.vertices + noise, el.element_class,
                                   el.confidence, el.closed))
    return VectorMap(elements, template.ego_pose, template.perception_range)


def _fit_map_per_element(observations, template):
    """fit_map as one sort per element, each element rebuilt and re-stacked."""
    fitted = []
    for ei, tel in enumerate(template.elements):
        stack = np.stack([obs.elements[ei].vertices for obs in observations])
        mu = np.sort(stack, axis=0)[(len(stack) - 1) // 2]
        b = np.maximum(np.abs(stack - mu).mean(axis=0), B_FLOOR)
        logits = one_hot_logits([CLASS_INDEX[tel.element_class]] * len(mu))
        fitted.append(MapElement(mu, tel.element_class, tel.confidence, tel.closed, b=b,
                                 class_logits=logits))
    return VectorMap(fitted, template.ego_pose, template.perception_range)


@st.composite
def _observed_stacks(draw):
    """A template of 0-4 elements of unequal lengths and 1-7 noisy observations of it."""
    specs = draw(st.lists(st.tuples(st.integers(2, 9), st.sampled_from(list(ElementClass)),
                                    st.floats(0.0, 1.0), st.booleans()), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    template = VectorMap([
        MapElement(np.column_stack([np.arange(n, dtype=float), rng.uniform(-1, 1, n)]) + 5 * i,
                   cls, conf, closed)
        for i, (n, cls, conf, closed) in enumerate(specs)], Pose2(1.0, -2.0, 0.3), (40.0, 25.0))
    observations = [VectorMap.from_columns(template.elements, template.offsets,
                                           template.mu + rng.laplace(0, 0.2, template.mu.shape))
                    for _ in range(draw(st.integers(1, 7)))]
    return observations, template


class TestFitMap:
    @settings(max_examples=60, deadline=None)
    @given(_observed_stacks())
    def test_matches_per_element_fit_bit_for_bit(self, case):
        observations, template = case
        fitted = fit_map(observations, template)
        ref = _fit_map_per_element(observations, template)
        for column in ("mu", "b", "class_logits", "offsets"):
            got, want = getattr(fitted, column), getattr(ref, column)
            if want is None:  # a map with no elements carries no scales
                assert got is None
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert [(el.element_class, el.confidence, el.closed) for el in fitted.elements] == \
            [(el.element_class, el.confidence, el.closed) for el in ref.elements]
        assert (fitted.ego_pose, fitted.perception_range) == (ref.ego_pose, ref.perception_range)

    def test_columns_own_their_memory(self):
        template = _template_map()
        rng = np.random.default_rng(4)
        fitted = fit_map([_jittered(template, rng, lambda d: 0.1 + 0 * d) for _ in range(5)],
                         template)
        # a view would keep the (N, V, 2) sorted stack alive as its base
        assert fitted.mu.base is None and fitted.b.base is None

    def test_identical_observations(self):
        template = _template_map()
        fitted = fit_map([template, template, template], template)
        for fel, tel in zip(fitted.elements, template.elements):
            np.testing.assert_array_equal(fel.mu, tel.vertices)
            np.testing.assert_array_equal(fel.b, np.full_like(fel.b, B_FLOOR))

    def test_two_point_spread(self):
        template = _template_map()
        lo = VectorMap([MapElement(el.vertices - 1.0, el.element_class)
                        for el in template.elements], template.ego_pose)
        hi = VectorMap([MapElement(el.vertices + 1.0, el.element_class)
                        for el in template.elements], template.ego_pose)
        fitted = fit_map([lo, hi], template)
        np.testing.assert_allclose(fitted.elements[0].b, 1.0, rtol=1e-12)
        np.testing.assert_allclose(fitted.elements[0].mu,
                                   template.elements[0].vertices - 1.0, atol=1e-12)

    def test_scale_tracks_distance(self):
        template = _template_map()
        rng = np.random.default_rng(11)
        obs = [_jittered(template, rng, lambda d: 0.05 + 0.03 * d) for _ in range(200)]
        fitted = fit_map(obs, template)
        b = np.concatenate([el.b.mean(axis=1) for el in fitted.elements])
        d = np.concatenate([
            np.hypot(el.vertices[:, 0], el.vertices[:, 1]) for el in template.elements
        ])
        rho = spearmanr(b, d).statistic
        assert rho > 0.9

    def test_structural_mismatch_rejected(self):
        template = _template_map()
        wrong = VectorMap(template.elements[:1], template.ego_pose)
        with pytest.raises(ValueError):
            fit_map([wrong], template)
