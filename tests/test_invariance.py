"""Symmetries of the whole pipeline on small generated datasets.

Every map metric, the calibration pairing and both predictors are run on a
dataset of 1 to 3 scenes and on a transformed copy of it:

- permuting the elements of every map changes no output bit;
- translating every map, ego pose and track by one vector changes no AP,
  coverage, calibration pair, reliability or miss, and should move minADE
  and minFDE by no more than 1e-9 relative. That last property fails on a
  pinned example (a strict expected failure below).
- permuting the scenes changes no AP, coverage or per-agent error bit,
  except the Hungarian mean matched Chamfer distance, a pooled mean summed
  in scene order, which stays within 1e-12 relative;
- permuting the agents of each scene changes no agent's modes or errors.

Rotation is not a property here: each vertex carries one Laplace scale per
world axis, and per-axis scales are not rotation invariant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncmap.calibration import coverage_arrays, pair_vertices, reliability
from uncmap.geometry import Pose2
from uncmap.map_eval import APConfig, evaluate_scenes
from uncmap.pred_eval import PredEvalReport, agent_errors
from uncmap.probmap import VectorMap
from uncmap.synth import AgentTrack, DatasetConfig, NoiseModel, build_dataset, predict_scenes

LEVELS = (0.5, 0.9)


def dataset(n_scenes: int, seed: int):
    """(observed, gt) map pairs and each scene's agent tracks."""
    cfg = DatasetConfig(n_scenes=n_scenes, seed=seed, lane_change_prob=0.3,
                        noise=NoiseModel(base_b=0.15, distance_coeff=0.01,
                                         occlusion_multiplier=6.0))
    records = build_dataset(cfg).records
    return [(r.observed_map, r.gt_map) for r in records], [r.agents for r in records]


def pipeline(pairs, tracks):
    """Every output of the stages: the AP report, the calibration pairs with
    their coverage and reliability (``None`` without pairs), and each
    predictor's per-agent errors."""
    ap = evaluate_scenes(pairs)
    matched = pair_vertices(pairs)
    coverage = rel = None
    if len(matched.mu):
        coverage = coverage_arrays(matched.mu, matched.b, matched.gt, LEVELS)
        rel = reliability(matched.class_probs, matched.labels)
    histories = [[a.history for a in agents] for agents in tracks]
    futures = [a.future for agents in tracks for a in agents]
    errors = [agent_errors([m for scene in predict_scenes(histories, [o for o, _ in pairs],
                                                          weighted=weighted) for m in scene],
                           futures) for weighted in (False, True)]
    return ap, matched, coverage, rel, errors


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_fields(a, b, *names):
    """The ``names`` fields of two reports (all fields by default) hold the same bits."""
    assert (a is None) == (b is None)
    for name in names or (vars(a) if a is not None else ()):
        assert same_bits(getattr(a, name), getattr(b, name)), name


def permuted(vmap: VectorMap, rng) -> VectorMap:
    order = rng.permutation(len(vmap.elements))
    return VectorMap([vmap.elements[i] for i in order], vmap.ego_pose, vmap.perception_range)


def translated(vmap: VectorMap, shift) -> VectorMap:
    pose = vmap.ego_pose
    return VectorMap.from_columns(vmap.elements, vmap.offsets, vmap.mu + shift, vmap.b,
                                  vmap.class_logits,
                                  Pose2(pose.x + shift[0], pose.y + shift[1], pose.heading),
                                  vmap.perception_range)


scenes = st.tuples(st.integers(1, 3), st.integers(0, 2**32 - 1))


class TestElementPermutation:
    @settings(max_examples=20, deadline=None)
    @given(scenes, st.integers(0, 2**32 - 1))
    def test_every_output_bit_identical(self, spec, perm_seed):
        pairs, tracks = dataset(*spec)
        rng = np.random.default_rng(perm_seed)
        shuffled = [(permuted(o, rng), permuted(g, rng)) for o, g in pairs]
        ap, matched, coverage, rel, errors = pipeline(pairs, tracks)
        ap2, matched2, coverage2, rel2, errors2 = pipeline(shuffled, tracks)
        assert_same_fields(ap, ap2, "ap", "map_score", "mean_matched_chamfer", "n_pred", "n_gt")
        # Pairs are appended in descending confidence within a map pair and
        # class, not in element order, so even the pair order is unchanged.
        assert_same_fields(matched, matched2)
        assert_same_fields(coverage, coverage2)
        assert_same_fields(rel, rel2)
        for columns, columns2 in zip(errors, errors2):
            assert all(same_bits(a, b) for a, b in zip(columns, columns2))


def translated_pipelines(spec, shift):
    """:func:`pipeline` of the dataset ``spec`` and of its copy moved by ``shift``."""
    pairs, tracks = dataset(*spec)
    shift = np.array(shift)
    moved = [(translated(o, shift), translated(g, shift)) for o, g in pairs]
    moved_tracks = [[AgentTrack(a.history + shift, a.future + shift) for a in agents]
                    for agents in tracks]
    return pipeline(pairs, tracks), pipeline(moved, moved_tracks)


class TestTranslation:
    @settings(max_examples=20, deadline=None)
    @given(scenes, st.tuples(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5)))
    def test_scores_unchanged(self, spec, shift):
        (ap, matched, coverage, rel, errors), (ap2, matched2, coverage2, rel2, errors2) = \
            translated_pipelines(spec, shift)
        assert_same_fields(ap, ap2, "ap", "map_score", "n_pred", "n_gt")
        # Which vertices pair with which does not move, so neither do the
        # class columns and the reliability summed over them.
        assert_same_fields(matched, matched2, "class_probs", "labels")
        assert_same_fields(rel, rel2)
        assert_same_fields(coverage, coverage2)
        for columns, columns2 in zip(errors, errors2):
            assert same_bits(columns[2], columns2[2])  # miss

    @pytest.mark.xfail(strict=True, reason="a shift of 65547 moves this one-scene minFDE by "
                       "1.3e-9 (blind) and 2.1e-9 (weighted) relative")
    def test_min_errors_within_1e_9_relative(self):
        (*_, errors), (*_, errors2) = translated_pipelines((1, 11947), (0.0, 65547.0))
        for columns, columns2 in zip(errors, errors2):
            report, report2 = (PredEvalReport.from_errors(*c) for c in (columns, columns2))
            np.testing.assert_allclose([report2.minADE, report2.minFDE],
                                       [report.minADE, report.minFDE], rtol=1e-9, atol=0)


def flat_index(tracks, picks) -> np.ndarray:
    """Indices into the flat agent list of ``tracks`` of the ``picks``: per
    scene, its index and the indices of its agents, in the order taken."""
    starts = np.cumsum([0] + [len(agents) for agents in tracks])
    return np.array([starts[s] + i for s, agents in picks for i in agents], dtype=int)


class TestSceneOrder:
    @settings(max_examples=20, deadline=None)
    @given(scenes, st.integers(0, 2**32 - 1))
    def test_reports_and_agent_errors_unchanged(self, spec, perm_seed):
        pairs, tracks = dataset(*spec)
        order = np.random.default_rng(perm_seed).permutation(len(pairs))
        shuffled, shuffled_tracks = [pairs[i] for i in order], [tracks[i] for i in order]
        ap, _, coverage, _, errors = pipeline(pairs, tracks)
        ap2, _, coverage2, _, errors2 = pipeline(shuffled, shuffled_tracks)
        # Greedy costs are pooled in confidence order, which no scene order
        # changes while confidences do not tie (they are drawn continuously).
        assert_same_fields(ap, ap2)
        assert_same_fields(coverage, coverage2)
        index = flat_index(tracks, [(i, range(len(tracks[i]))) for i in order])
        for columns, columns2 in zip(errors, errors2):
            assert all(same_bits(a[index], b) for a, b in zip(columns, columns2))
        # Hungarian costs are pooled in scene order, so their mean is rounded
        # in another order.
        hungarian = APConfig(matching="hungarian")
        h, h2 = evaluate_scenes(pairs, hungarian), evaluate_scenes(shuffled, hungarian)
        assert_same_fields(h, h2, "ap", "map_score", "n_pred", "n_gt")
        np.testing.assert_allclose(h2.mean_matched_chamfer, h.mean_matched_chamfer,
                                   rtol=1e-12, atol=0)


class TestAgentOrder:
    @settings(max_examples=20, deadline=None)
    @given(scenes, st.integers(0, 2**32 - 1))
    def test_modes_and_errors_unchanged(self, spec, perm_seed):
        pairs, tracks = dataset(*spec)
        rng = np.random.default_rng(perm_seed)
        orders = [rng.permutation(len(agents)) for agents in tracks]
        maps = [o for o, _ in pairs]
        for weighted in (False, True):
            runs = []
            for scene_tracks in (tracks, [[agents[i] for i in o]
                                          for agents, o in zip(tracks, orders)]):
                modes = predict_scenes([[a.history for a in agents] for agents in scene_tracks],
                                       maps, weighted=weighted)
                flat = [m for scene in modes for m in scene]
                runs.append((modes, agent_errors(flat, [a.future for agents in scene_tracks
                                                        for a in agents])))
            (modes, errors), (modes2, errors2) = runs
            for scene, scene2, o in zip(modes, modes2, orders):
                assert all(same_bits(scene[i], m) for i, m in zip(o, scene2))
            index = flat_index(tracks, enumerate(orders))
            assert all(same_bits(a[index], b) for a, b in zip(errors, errors2))
