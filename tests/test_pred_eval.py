import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uncmap.pred_eval import (
    TrajectorySet,
    agent_errors,
    binned_ci,
    evaluate_trajectories,
    min_ade,
    min_fde,
    miss,
)


def straight(offsets, t=10):
    """Trajectory along x with the given per-step x offsets from the origin."""
    return np.column_stack([np.asarray(offsets, float), np.zeros(t)])


def fde_selection_counterexample():
    """Two modes: A has the better endpoint but the worse average error."""
    gt = np.zeros((10, 2))
    mode_a = straight([19.5 / 9] * 9 + [0.5])   # ADE 2.0, FDE 0.5
    mode_b = straight([0.0] * 9 + [1.0])        # ADE 0.1, FDE 1.0
    return TrajectorySet(np.stack([mode_a, mode_b]), gt)


class TestModeSelection:
    def test_exact_mode_zero(self):
        gt = np.cumsum(np.ones((30, 2)) * 0.1, axis=0)
        ts = TrajectorySet(np.stack([gt, gt + 5.0]), gt)
        assert min_ade(ts) == 0.0
        assert min_fde(ts) == 0.0

    def test_constant_offset(self):
        gt = np.zeros((30, 2))
        mode = gt + np.array([1.0, 0.0])
        ts = TrajectorySet(mode[None], gt)
        assert min_ade(ts) == pytest.approx(1.0)
        assert min_fde(ts) == pytest.approx(1.0)

    def test_best_mode_chosen_by_final_error(self):
        ts = fde_selection_counterexample()
        assert min_fde(ts) == pytest.approx(0.5)
        # the endpoint-best mode supplies the average error: 2.0, not 0.1
        assert min_ade(ts) == pytest.approx(2.0)

    def test_min_fde_values(self):
        gt = np.zeros((5, 2))
        modes = np.stack([gt + np.array([e, 0.0]) for e in (1.2, 0.4)])
        assert min_fde(TrajectorySet(modes, gt)) == pytest.approx(0.4)
        modes6 = np.stack([gt + np.array([3.0, 0.0])] * 6)
        assert min_fde(TrajectorySet(modes6, gt)) == pytest.approx(3.0)

    def test_duplicate_mode_changes_nothing(self):
        ts = fde_selection_counterexample()
        dup = TrajectorySet(np.concatenate([ts.modes, ts.modes[:1]]), ts.gt)
        assert min_ade(dup) == min_ade(ts)
        assert min_fde(dup) == min_fde(ts)
        assert miss(dup) == miss(ts)


class TestMissRate:
    def test_exactly_at_threshold_is_not_a_miss(self):
        gt = np.zeros((5, 2))
        ts = TrajectorySet((gt + np.array([2.0, 0.0]))[None], gt)
        assert min_fde(ts) == 2.0
        assert not miss(ts)

    def test_just_over_threshold_is_a_miss(self):
        gt = np.zeros((5, 2))
        ts = TrajectorySet((gt + np.array([2.0001, 0.0]))[None], gt)
        assert miss(ts)

    def test_rate_fraction(self):
        gt = np.zeros((5, 2))
        near = TrajectorySet((gt + np.array([0.5, 0.0]))[None], gt)
        far = TrajectorySet((gt + np.array([5.0, 0.0]))[None], gt)
        sets = [far] * 3 + [near] * 7
        assert evaluate_trajectories(sets).MR == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_trajectories([])

    def test_monotone_in_added_modes(self):
        rng = np.random.default_rng(0)
        gt = np.cumsum(rng.normal(size=(20, 2)), axis=0)
        modes = [gt + rng.normal(scale=2.0, size=gt.shape) for _ in range(6)]
        rates = []
        for k in range(1, 7):
            rates.append(evaluate_trajectories([TrajectorySet(np.stack(modes[:k]), gt)]).MR)
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestRigidInvariance:
    def test_metrics_survive_rigid_motion(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            gt = np.cumsum(rng.normal(size=(15, 2)), axis=0)
            modes = np.stack([gt + rng.normal(scale=1.5, size=gt.shape)
                              for _ in range(4)])
            ts = TrajectorySet(modes, gt)
            theta = rng.uniform(-np.pi, np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            shift = rng.uniform(-100, 100, 2)
            ts2 = TrajectorySet(modes @ rot.T + shift, gt @ rot.T + shift)
            assert min_ade(ts2) == pytest.approx(min_ade(ts), abs=1e-9)
            assert min_fde(ts2) == pytest.approx(min_fde(ts), abs=1e-9)
            assert miss(ts2) == miss(ts)


class TestAggregate:
    def test_report_fields(self):
        gt = np.zeros((5, 2))
        sets = [TrajectorySet((gt + np.array([1.0, 0.0]))[None], gt),
                TrajectorySet((gt + np.array([3.0, 0.0]))[None], gt)]
        rep = evaluate_trajectories(sets)
        assert rep.minADE == pytest.approx(2.0)
        assert rep.minFDE == pytest.approx(2.0)
        assert rep.MR == pytest.approx(0.5)
        assert rep.n_agents == 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TrajectorySet(np.zeros((2, 5, 2)), np.zeros((6, 2)))
        with pytest.raises(ValueError):
            TrajectorySet(np.zeros((0, 5, 2)), np.zeros((5, 2)))


# The per-agent metrics as they were before agent_errors stacked the agents,
# kept as the reference the stacked pass must match bit for bit.

def reference_final_errors(modes, gt):
    d = modes[:, -1, :] - gt[-1]
    return np.hypot(d[:, 0], d[:, 1])


def reference_min_fde(modes, gt):
    return float(reference_final_errors(modes, gt).min())


def reference_min_ade(modes, gt):
    k = int(np.argmin(reference_final_errors(modes, gt)))
    d = modes[k] - gt
    return float(np.hypot(d[:, 0], d[:, 1]).mean())


def reference_miss(modes, gt, threshold):
    return reference_min_fde(modes, gt) > threshold


@st.composite
def agent_batches(draw):
    """Agents with ragged K and mixed horizons, some with tied final errors,
    and a miss threshold that may equal one agent's minFDE."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes, gts = [], []
    for _ in range(draw(st.integers(1, 6))):
        t = draw(st.sampled_from([1, 2, 7, 8, 9, 30]))
        k = draw(st.integers(1, 7))
        gt = np.cumsum(rng.normal(0.0, 1.0, (t, 2)), axis=0)
        m = gt + rng.normal(0.0, draw(st.sampled_from([0.3, 3.0])), (k, t, 2))
        if k >= 2 and draw(st.booleans()):
            # A later mode ends where an earlier one does: the final errors
            # tie exactly, and the lower index must win.
            i, j = sorted(draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                                        unique=True)))
            m[j, -1] = m[i, -1]
        modes.append(m)
        gts.append(gt)
    threshold = draw(st.sampled_from([0.5, 2.0, None]))
    if threshold is None:
        threshold = reference_min_fde(modes[0], gts[0])
    return modes, gts, threshold


class TestAgentErrorsPinned:
    @settings(max_examples=200, deadline=None)
    @given(batch=agent_batches())
    @example(batch=([np.array([[[1.0, 0.0], [3.0, 0.0]], [[0.0, 0.5], [0.0, 2.0]]])],
                    [np.zeros((2, 2))], 2.0))
    def test_matches_per_agent_reference(self, batch):
        modes, gts, threshold = batch
        ade, fde, missed = agent_errors(modes, gts, threshold)
        assert ade.shape == fde.shape == missed.shape == (len(gts),)
        for a, (m, gt) in enumerate(zip(modes, gts)):
            assert ade[a] == reference_min_ade(m, gt)
            assert fde[a] == reference_min_fde(m, gt)
            assert bool(missed[a]) == reference_miss(m, gt, threshold)
            ts = TrajectorySet(m, gt)
            assert (min_ade(ts), min_fde(ts), miss(ts, threshold)) == (
                reference_min_ade(m, gt), reference_min_fde(m, gt),
                reference_miss(m, gt, threshold))
        report = evaluate_trajectories([TrajectorySet(m, gt) for m, gt in zip(modes, gts)],
                                       threshold)
        assert report.minADE == float(np.mean([reference_min_ade(m, g)
                                               for m, g in zip(modes, gts)]))
        assert report.minFDE == float(np.mean([reference_min_fde(m, g)
                                               for m, g in zip(modes, gts)]))
        assert report.MR == float(np.mean([reference_miss(m, g, threshold)
                                           for m, g in zip(modes, gts)]))

    def test_no_agents(self):
        ade, fde, missed = agent_errors([], [])
        assert ade.shape == fde.shape == missed.shape == (0,)


class TestBinnedCi:
    def test_single_value_bins(self):
        stat = binned_ci([0.5, 1.5], [3.0, 7.0], [0.0, 1.0, 2.0])
        np.testing.assert_allclose(stat.mean, [3.0, 7.0])
        np.testing.assert_array_equal(stat.ci95_half_width, [0.0, 0.0])
        np.testing.assert_array_equal(stat.count, [1, 1])

    def test_zero_variance_bin(self):
        stat = binned_ci([0.1] * 4, [1.0] * 4, [0.0, 1.0])
        assert stat.mean[0] == pytest.approx(1.0)
        assert stat.ci95_half_width[0] == 0.0

    def test_hand_computed_half_width(self):
        stat = binned_ci([0.2, 0.8], [0.0, 2.0], [0.0, 1.0])
        assert stat.mean[0] == pytest.approx(1.0)
        # s = sqrt(2), so 1.96 * sqrt(2) / sqrt(2) = 1.96
        assert stat.ci95_half_width[0] == pytest.approx(1.96)

    def test_right_edge_included_in_last_bin(self):
        stat = binned_ci([2.0], [5.0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(stat.count, [0, 1])

    def test_out_of_range_dropped(self):
        stat = binned_ci([-1.0, 3.0], [5.0, 5.0], [0.0, 1.0, 2.0])
        assert stat.count.sum() == 0

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            binned_ci([0.5], [1.0], [1.0, 0.0])

    @pytest.mark.parametrize("edges", [[0.0, np.inf], [0.0, np.nan], [np.nan, 1.0],
                                       [-np.inf, 0.0], [0.0, 1.0, np.nan]])
    def test_non_finite_edges_rejected(self, edges):
        # [nan, 1] used to give one silently empty bin.
        with pytest.raises(ValueError, match="edges must be finite"):
            binned_ci([0.5], [1.0], edges)
