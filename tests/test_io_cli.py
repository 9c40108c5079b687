import copy
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
import weakref
import zlib
from contextlib import redirect_stderr
from dataclasses import dataclass
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uncmap import __version__, calibration, pred_eval, synth
from uncmap import io as uio
from uncmap.cli import build_parser, main
from uncmap.geometry import (
    MERGE_EPS,
    ElementClass,
    Polyline,
    Pose2,
    nearest_point_on_polyline,
    polyline_vertices,
)
from uncmap.probmap import B_FLOOR, MapElement, VectorMap
from uncmap.synth import AgentTrack, DatasetConfig


def small_prob_map():
    rng = np.random.default_rng(0)
    els = []
    for cls in (ElementClass.ROAD_BOUNDARY, ElementClass.PED_CROSSING):
        mu = rng.uniform(-10, 10, (5, 2))
        b = rng.uniform(0.05, 1.5, (5, 2))
        logits = rng.uniform(-4, 4, (5, 4))
        els.append(MapElement(mu, cls, confidence=0.83, closed=cls is ElementClass.PED_CROSSING,
                              b=b, class_logits=logits))
    return VectorMap(els, Pose2(1.25, -3.5, 0.7), (60.0, 30.0))


def small_mean_map():
    rng = np.random.default_rng(1)
    els = [MapElement(rng.uniform(-10, 10, (4, 2)), ElementClass.LANE_DIVIDER, 0.5)]
    return VectorMap(els, Pose2.identity())


class TestMapRoundTrip:
    def test_probabilistic_map(self, tmp_path):
        m = small_prob_map()
        path = tmp_path / "m.json"
        uio.save_map(m, path)
        back = uio.load_map(path)
        assert isinstance(back, VectorMap) and all(el.b is not None for el in back.elements)
        assert back.ego_pose == m.ego_pose
        for a, b in zip(back.elements, m.elements):
            np.testing.assert_array_equal(a.mu, b.mu)
            np.testing.assert_array_equal(a.b, b.b)
            np.testing.assert_array_equal(a.class_logits, b.class_logits)
            assert a.element_class == b.element_class
            assert a.confidence == b.confidence
            assert a.closed == b.closed

    def test_mean_map(self, tmp_path):
        m = small_mean_map()
        path = tmp_path / "m.json"
        uio.save_map(m, path)
        back = uio.load_map(path)
        assert isinstance(back, VectorMap)
        assert back.elements[0].b is None and back.elements[0].class_logits is None
        np.testing.assert_array_equal(back.elements[0].vertices,
                                      m.elements[0].vertices)

    def test_mixed_scale_presence_rejected(self, tmp_path):
        data = uio.map_to_dict(small_prob_map())
        del data["elements"][0]["vertices"][0]["b"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(uio.DataError):
            uio.load_map(path)

    def test_wrong_schema_rejected(self, tmp_path):
        data = uio.map_to_dict(small_mean_map())
        data["schema_version"] = "something/9"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(uio.DataError):
            uio.load_map(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(uio.DataError):
            uio.load_map(tmp_path / "nope.json")

    @pytest.mark.parametrize("name, message", [
        ("nope.json", "file not found: {}"),
        ("a_file/nope.json", "file not found: {}"),
        ("a_dir", "cannot read {}: Is a directory"),
    ])
    def test_unreadable_path_message(self, name, message, tmp_path):
        (tmp_path / "a_file").touch()
        (tmp_path / "a_dir").mkdir()
        with pytest.raises(uio.DataError) as exc:
            uio.load_map(tmp_path / name)
        assert str(exc.value) == message.format(tmp_path / name)


class TestCoincidentVertices:
    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(st.tuples(st.floats(-2e-9, 2e-9), st.floats(-2e-9, 2e-9)),
                          min_size=1, max_size=6),
           closed=st.booleans())
    def test_rejected_exactly_when_polyline_is(self, steps, closed):
        # Tiny steps drift in and out of MERGE_EPS of the first vertex.
        pts = np.cumsum(np.vstack([[3.0, -1.0], steps]), axis=0)
        good = MapElement(np.array([[0.0, 0.0], [1.0, 0.0]]), ElementClass.LANE_DIVIDER)
        elements = [good, MapElement(pts, ElementClass.ROAD_BOUNDARY, closed=closed)]
        # The map file is written from a valid map, then given the element.
        data = uio.map_to_dict(VectorMap([good, good], Pose2.identity()))
        data["elements"][1].update({"class": "road_boundary", "closed": closed,
                                    "vertices": [{"mu": p} for p in pts.tolist()]})
        try:
            Polyline(pts, closed=closed)
        except ValueError:
            with pytest.raises(ValueError, match="map element 1 "):
                VectorMap(elements, Pose2.identity())
            with pytest.raises(uio.DataError, match="map element 1 "):
                uio.map_from_dict(data)
        else:
            VectorMap(elements, Pose2.identity())
            uio.map_from_dict(data)

    def test_spacing_at_merge_eps_accepted(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.5 * MERGE_EPS], [0.0, MERGE_EPS]])
        data = uio.map_to_dict(VectorMap([MapElement(pts, ElementClass.LANE_DIVIDER)],
                                         Pose2.identity()))
        uio.map_from_dict(data)
        data["elements"][0]["vertices"].pop()
        with pytest.raises(uio.DataError, match="map element 0 "):
            uio.map_from_dict(data)


# Floats whose text and bits json must keep: signed zero, the smallest
# subnormal, huge magnitudes, the edges of the range in which orjson writes
# float.__repr__'s text ([1e-4, 1e16)) and values just outside it, and
# ordinary values, some inside that range.
_RANGE_EDGES = [1e-4, float(np.nextafter(1e-4, 0)), 1e16, float(np.nextafter(1e16, 0)),
                B_FLOOR, 5.803152648087284e-05]
_BIT_FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300]
                                        + _RANGE_EDGES),
                        st.floats(-1e300, 1e300), st.floats(-1e3, 1e3))
_POSITIVE_FLOATS = st.one_of(st.sampled_from([5e-324, 1e-300, 1e300] + _RANGE_EDGES),
                             st.floats(1e-300, 1e300), st.floats(1e-3, 1e3))
# An example draws its values and scales from the strategies above, from
# inside that range only, so that many records take the orjson path, or from
# inside it and its edges, so that one value at an edge decides the path.
_IN_RANGE = st.floats(1e-3, 1e3)
_NEAR_RANGE = st.one_of(st.sampled_from(_RANGE_EDGES), _IN_RANGE)
_RECORD_FLOATS = [(_BIT_FLOATS, _POSITIVE_FLOATS),
                  (st.one_of(_IN_RANGE, st.floats(-1e3, -1e-3)), _IN_RANGE),
                  (st.one_of(_NEAR_RANGE, st.floats(-1e3, -1e-3)), _NEAR_RANGE)]
# A pose coordinate as a float, an np.float64 (which orjson refuses) or an int.
_COORDINATES = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3).map(np.float64),
                         st.integers(-1000, 1000))


def _bits_equal(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _arrays(draw, shape, elements=_BIT_FLOATS):
    return np.array(draw(st.lists(elements, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))).reshape(shape)


@st.composite
def _maps(draw):
    probabilistic = draw(st.booleans())
    values, scales = draw(st.sampled_from(_RECORD_FLOATS))
    elements = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(2, 5))
        mu = _arrays(draw, (n, 2), values)
        # A vertex far from the first keeps the element a valid polyline.
        mu[-1] = np.where(np.abs(mu[0]) >= 1.0, -mu[0], mu[0] + 1.0)
        cls = draw(st.sampled_from(list(ElementClass)))
        confidence = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        closed = draw(st.booleans())
        b = logits = None
        if probabilistic:
            b, logits = _arrays(draw, (n, 2), scales), _arrays(draw, (n, 4), values)
        elements.append(MapElement(mu, cls, confidence, closed, b=b, class_logits=logits))
    heading = draw(st.one_of(st.sampled_from([np.pi, -np.pi, np.nextafter(np.pi, 0),
                                              np.nextafter(-np.pi, 0)]),
                             st.floats(-3.2, 3.2)))
    pose = Pose2(draw(_COORDINATES), draw(_COORDINATES), heading)
    rng = (draw(st.floats(1.0, 200.0)), draw(st.floats(1.0, 200.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # vertices outside the perception range
        return VectorMap(elements, pose, rng)


class TestBitExactRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(m=_maps())
    def test_maps(self, m, tmp_path_factory):
        folder = tmp_path_factory.mktemp("map")
        path = folder / "m.json"
        uio.save_map(m, path)
        assert path.read_text() == json.dumps(uio.map_to_dict(m), indent=2) + "\n"
        # The second load builds the map from the entry the first made, and
        # the third from the cache file it was written to.
        manifest = {"_root": folder, "scenes": [{"gt_map": "m.json", "observed_map": "m.json"}]}
        cache = uio._Cache(manifest)
        loaded = [uio.load_map(path, cache=cache) for _ in range(2)]
        cache.close()
        cache = uio._Cache(manifest)
        for back in loaded + [uio.load_map(path, cache=cache)]:
            assert type(back) is type(m)
            assert _bits_equal([back.ego_pose.x, back.ego_pose.y, back.ego_pose.heading],
                               [m.ego_pose.x, m.ego_pose.y, m.ego_pose.heading])
            assert _bits_equal(back.perception_range, m.perception_range)
            assert len(back.elements) == len(m.elements)
            for a, b in zip(back.elements, m.elements):
                assert (a.element_class, a.closed) == (b.element_class, b.closed)
                assert _bits_equal(a.confidence, b.confidence)
                assert _bits_equal(a.mu, b.mu)
                if b.b is None:
                    assert a.b is None and a.class_logits is None
                else:
                    assert _bits_equal(a.b, b.b) and _bits_equal(a.class_logits, b.class_logits)
        assert b"m.json" in cache.found and not cache.new
        cache.close()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_trajectories(self, data, tmp_path_factory):
        n_agents = data.draw(st.integers(1, 3))
        horizon = data.draw(st.integers(1, 4))
        values, _ = data.draw(st.sampled_from(_RECORD_FLOATS))

        def points(*shape):
            return _arrays(data.draw, shape, values)
        agents = [AgentTrack(points(data.draw(st.integers(1, 4)), 2), points(horizon, 2),
                             points(data.draw(st.integers(0, 3)), horizon, 2))
                  for _ in range(n_agents)]
        path = tmp_path_factory.mktemp("traj") / "t.json"
        uio.save_trajectories(agents, path)
        assert path.read_text() == json.dumps(uio.trajectories_to_dict(agents), indent=2) + "\n"
        for a, b in zip(uio.load_trajectories(path), agents, strict=True):
            assert _bits_equal(a.history, b.history) and _bits_equal(a.future, b.future)
            assert _bits_equal(a.modes, b.modes)


class TestTrajectoryRoundTrip:
    def test_agents_and_modes(self, tmp_path):
        rng = np.random.default_rng(2)
        agents = [AgentTrack(rng.normal(size=(20, 2)), rng.normal(size=(30, 2)),
                             rng.normal(size=(6, 30, 2))) for _ in range(3)]
        path = tmp_path / "t.json"
        uio.save_trajectories(agents, path)
        back_agents = uio.load_trajectories(path)
        assert json.loads(path.read_text())["rate_hz"] == 10
        for a, b in zip(back_agents, agents, strict=True):
            np.testing.assert_array_equal(a.history, b.history)
            np.testing.assert_array_equal(a.future, b.future)
            np.testing.assert_array_equal(a.modes, b.modes)

    @pytest.mark.parametrize("modes", [0, False, {}, "", None])
    def test_modes_that_are_not_a_list_rejected(self, tmp_path, modes):
        path = tmp_path / "t.json"
        uio.save_trajectories([AgentTrack(np.zeros((20, 2)), np.zeros((30, 2)))] * 2, path)
        data = json.loads(path.read_text())
        data["agents"][1]["modes"] = modes
        path.write_text(json.dumps(data))
        with pytest.raises(uio.DataError, match=f"^agent 1 modes must be a list, got {modes!r}$"):
            uio.load_trajectories(path)

    def test_mode_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"modes must have shape \(K, 30, 2\)"):
            AgentTrack(np.zeros((20, 2)), np.zeros((30, 2)), np.zeros((2, 29, 2)))


# The trajectory checks as io made them before AgentTrack checked itself, kept
# as its reference: the load-side check of each array (an empty modes list
# meaning none) and the save-side check that every mode spans the future.
def _reference_track_points(value, horizon=None) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if horizon is None:
        ok = arr.ndim == 2 and arr.shape[1] == 2 and len(arr) >= 1
    else:
        ok = arr.ndim == 3 and arr.shape[1:] == (horizon, 2)
    if not ok:
        raise ValueError("shape")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite")
    return arr


def reference_track_check(history, future, modes) -> None:
    _reference_track_points(history)
    future = _reference_track_points(future)
    modes = _reference_track_points(modes, len(future)) if modes \
        else np.empty((0, len(future), 2))
    for mode in modes:
        if len(mode) != len(future):
            raise ValueError("every mode must span the future horizon")


_TRACK_DEFECTS = [None, "empty", "three_columns", "nan", "inf", "horizon", "ragged",
                  "empty_mode"]


@st.composite
def _tracks(draw):
    """(history, future, modes) as a trajectory file holds them, nested lists
    with ``[]`` for no modes, with one kind of defect injected or none."""
    def points(n):
        return [[draw(_BIT_FLOATS), draw(_BIT_FLOATS)] for _ in range(n)]
    horizon = draw(st.integers(1, 4))
    track = {"history": points(draw(st.integers(1, 4))), "future": points(horizon),
             "modes": [points(horizon) for _ in range(draw(st.integers(0, 3)))]}
    defect = draw(st.sampled_from(_TRACK_DEFECTS))
    name = draw(st.sampled_from([key for key, value in track.items() if value]))
    # The points of one array: history, future, or one mode.
    rows = track[name] if name != "modes" else draw(st.sampled_from(track[name]))
    i = draw(st.integers(0, len(rows) - 1))
    if defect == "empty":
        track[name] = []
    elif defect == "three_columns":
        for row in rows:
            row.append(0.0)
    elif defect in ("nan", "inf"):
        rows[i][draw(st.integers(0, 1))] = float(defect) * draw(st.sampled_from([1, -1]))
    elif defect == "horizon":  # the future, or every mode, gains or loses a point
        for arr in [track["future"]] if name == "future" else track["modes"]:
            if draw(st.booleans()):
                arr.append([0.0, 1.0])
            else:
                arr.pop()
    elif defect == "ragged":
        rows[i] = rows[i][:1]
    elif defect == "empty_mode":
        track["modes"] = [[]]
    return track["history"], track["future"], track["modes"]


class TestAgentTrackChecks:
    # A file's empty list has shape (0,); an array can have no points but two columns.
    @pytest.mark.parametrize("name", ["history", "future"])
    def test_no_points_refused(self, name):
        arrays = {"history": np.zeros((3, 2)), "future": np.zeros((3, 2)), name: np.empty((0, 2))}
        with pytest.raises(ValueError, match=f"^{name} must have shape"):
            AgentTrack(**arrays)

    @settings(max_examples=400, deadline=None)
    @given(track=_tracks())
    def test_raises_exactly_when_io_did(self, track, tmp_path_factory):
        history, future, modes = track
        doc = {"schema_version": uio.TRAJ_SCHEMA, "rate_hz": 10,
               "agents": [{"history": history, "future_gt": future, "modes": modes}]}
        try:
            reference_track_check(history, future, modes)
        except ValueError:
            with pytest.raises(ValueError):
                AgentTrack(history, future, modes or None)
            with pytest.raises(uio.DataError, match="^agent 0 "):
                uio.trajectories_from_dict(doc)
            return
        agent = AgentTrack(history, future, modes or None)
        path = tmp_path_factory.mktemp("track") / "t.json"
        uio.save_trajectories([agent], path)
        # The file is the one io wrote before, and every value reloads bit for bit.
        assert path.read_text() == json.dumps(doc, indent=2) + "\n"
        want = (np.array(history), np.array(future),
                np.array(modes) if modes else np.empty((0, len(future), 2)))
        for got in (agent, *uio.trajectories_from_dict(doc), *uio.load_trajectories(path)):
            assert all(_bits_equal(a, b) for a, b in zip((got.history, got.future, got.modes),
                                                         want, strict=True))


# Values json writes with indent=2: floats of every kind (alone and in the
# all-float lists that io writes in one piece), np.float64, big ints, bools,
# None and strings that need escapes, in lists, tuples and dicts with str or
# int keys.
_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300]
_json_floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS),
                         st.floats().map(np.float64))


def _json_tree(integers):
    return st.recursive(
        st.one_of(_json_floats, st.lists(_json_floats, max_size=4), integers,
                  st.booleans(), st.none(), st.text(max_size=6)),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-5, 5)), children,
                            max_size=4)),
        max_leaves=20)


_json_values = _json_tree(st.integers(-10**30, 10**30))


# JSON objects such as scene files hold, for the orjson path: finite floats
# (the edges of orjson's repr range, values past them and values whose text
# ends in one of its odd tails, such as 10.00005), 64-bit ints, bools, None
# and ASCII strings that spell numbers. DEL is left out: json escapes it and
# orjson does not.
_SCENE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_RANGE_EDGES + [5e-324, -1e-7, 1e300, 10.00005, 1.5e16, -0.0]))
_NUMBER_TEXT = st.text(st.one_of(st.sampled_from(list("0.e-+, \n\"")),
                                 st.characters(max_codepoint=0x7e)), max_size=8)
_scene_json_objects = st.dictionaries(_NUMBER_TEXT, st.recursive(
    st.one_of(_SCENE_FLOATS, st.lists(_SCENE_FLOATS, max_size=4),
              st.integers(-2**63, 2**63 - 1), st.booleans(), st.none(), _NUMBER_TEXT),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_NUMBER_TEXT, children, max_size=4)),
    max_leaves=20), max_size=4)


@dataclass
class _Stat:
    edges: tuple
    count: np.ndarray


# A report as a stage hands it to io, and the plain JSON data it is written as.
_RAW_REPORT = {"stat": _Stat((0.0, 1.5), np.array([2, 0])), "pair": (1, 2.5),
               "grid": np.array([[0.5, np.nan], [1.0, 2.0]]),
               "n": np.int64(3), "x": np.float64(0.1), "ok": np.bool_(True)}
_PLAIN_REPORT = {"stat": {"edges": [0.0, 1.5], "count": [2, 0]}, "pair": [1, 2.5],
                 "grid": [[0.5, None], [1.0, 2.0]], "n": 3, "x": 0.1, "ok": True,
                 "reproducibility": {"config_hash": uio.config_hash({"command": "c"}),
                                     "tool_version": __version__,
                                     "seeds": {"master_seed": 7, "dataset_config_hash": "h"}}}


class TestWriteJson:
    @pytest.mark.parametrize("write, expected", [
        (lambda path: uio.write_report(path, _RAW_REPORT, {"command": "c"},
                                       {"master_seed": 7, "config_hash": "h"}),
         json.dumps(_PLAIN_REPORT, indent=2) + "\n"),
        (lambda path: uio.write_csv(path, ["x"], [[np.float64(0.1)]]), "x\n0.1\n"),
        (lambda path: uio.write_csv(path, ["a", "b", "c"], [(np.nan, np.int64(3), 2.5)]),
         "a,b,c\n,3,2.5\n"),
        (lambda path: uio.write_csv(path, ["a", "b"], [[True, np.bool_(False)]]), "a,b\n1,0\n"),
    ], ids=["report", "csv-float64", "csv-nan", "csv-bool"])
    def test_report_writers(self, write, expected, tmp_path):
        write(tmp_path / "report")
        assert (tmp_path / "report").read_text() == expected

    @settings(max_examples=400, deadline=None)
    @given(_json_values)
    def test_bytes_match_json_dumps(self, tmp_path_factory, obj):
        path = tmp_path_factory.getbasetemp() / "write_json.json"
        uio.write_json(path, obj)
        assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode("utf-8")

    @pytest.mark.parametrize("obj", [
        {"a": [1.0, np.zeros(2)]},
        {"a": {(1, 2): 0.5}},
        [np.int64(3)],
    ])
    def test_unserialisable_raises_json_type_error(self, obj, tmp_path):
        with pytest.raises(TypeError) as expected:
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError) as got:
            uio.write_json(tmp_path / "x.json", obj)
        assert str(got.value) == str(expected.value)
        assert not (tmp_path / "x.json").exists()

    def test_circular_raises_json_value_error(self, tmp_path):
        obj = {"a": []}
        obj["a"].append(obj)
        with pytest.raises(ValueError, match="Circular reference"):
            uio.write_json(tmp_path / "x.json", obj)

    @pytest.mark.parametrize("value", _RANGE_EDGES + [5e-324, 1e-7, 1.5e-5, 1e300, 1.5e16,
                                           10.00005])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scene_files_outside_range_stay_on_orjson(self, value, sign, tmp_path):
        """A finite float outside [1e-4, 1e16) is written by orjson, its token in
        repr's text, next to the in-range values a scene file holds."""
        logits = np.array([[value * sign, -1.0, 0.5, 2.0]] * 2)
        el = MapElement(np.array([[value * sign, 1.0], [3.0, -2.0]]), ElementClass.LANE_DIVIDER,
                        0.5, b=np.array([[value, 0.25], [0.5, value]]), class_logits=logits)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # vertices outside the perception range
            m = VectorMap([el], Pose2(value * sign, 2.0, 0.5))
        agents = [AgentTrack([[value * sign, 0.0]], [[1.0, value]], [[[value, -value]]])]
        expected = [json.dumps(uio.map_to_dict(m), indent=2) + "\n",
                    json.dumps(uio.trajectories_to_dict(agents), indent=2) + "\n"]
        with mock.patch.object(uio.json, "dumps", side_effect=AssertionError("json path")):
            uio.save_map(m, tmp_path / "m.json")
            uio.save_trajectories(agents, tmp_path / "t.json")
        assert [(tmp_path / f).read_text() for f in ("m.json", "t.json")] == expected

    @settings(max_examples=300, deadline=None)
    @given(_scene_json_objects)
    def test_orjson_path_bytes_match_json_dumps(self, tmp_path_factory, obj):
        floats = []

        def collect(value):
            if isinstance(value, float):
                floats.append(value)
            for child in value.values() if isinstance(value, dict) else \
                    value if isinstance(value, list) else ():
                collect(child)
        collect(obj)
        expected = (json.dumps(obj, indent=2) + "\n").encode("utf-8")
        path = tmp_path_factory.getbasetemp() / "orjson_path.json"
        with mock.patch.object(uio.json, "dumps", side_effect=AssertionError("json path")):
            uio.write_json(path, obj, [floats])
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_floats_raise(self, value, tmp_path):
        """A scene record holds finite floats only, so a non-finite one is a bug."""
        obj = {"a": [1e-7, value]}
        with pytest.raises(ValueError, match="finite"):
            uio.write_json(tmp_path / "x.json", obj, [obj["a"]])
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("x, y", [(np.int64(3), 0), (np.float64(-2.5), np.int32(4)),
                                      (np.float32(0.1), np.uint8(7))])
    def test_numpy_pose_coordinates_write_as_json_dumps(self, x, y, tmp_path):
        m = VectorMap([MapElement(np.array([[0.0, 1.0], [2.0, 3.5]]), ElementClass.LANE_DIVIDER)],
                      Pose2(x, y, np.float64(0.25)))
        uio.save_map(m, tmp_path / "m.json")
        assert (tmp_path / "m.json").read_text() == json.dumps(uio.map_to_dict(m), indent=2) + "\n"
        assert uio.load_map(tmp_path / "m.json").ego_pose == Pose2(float(x), float(y), 0.25)

    def test_makes_missing_directories(self, tmp_path, monkeypatch):
        mkdir = []
        monkeypatch.setattr(Path, "mkdir", lambda self, *a, **k: mkdir.append(self) or
                            os.makedirs(self, exist_ok=True))
        for name in ("a.json", "b.json"):
            uio.write_json(tmp_path / "d" / "e" / name, {"x": 1.5}, [[1.5]])
        assert mkdir == [tmp_path / "d" / "e"]
        assert (tmp_path / "d" / "e" / "b.json").read_text() == '{\n  "x": 1.5\n}\n'

    def test_deep_nesting(self, tmp_path):
        obj = [1.5]
        for i in range(60):
            obj = {"k": obj, "i": i} if i % 2 else [obj, 0.5]
        uio.write_json(tmp_path / "x.json", obj)
        assert (tmp_path / "x.json").read_text() == json.dumps(obj, indent=2) + "\n"


# JSON objects whose integers fit in 64 bits, as scene files hold: orjson
# reads an integer outside the int64 and uint64 ranges as a float.
_json_objects_64 = st.dictionaries(st.text(max_size=4),
                                   _json_tree(st.integers(-2**63, 2**64 - 1)), max_size=4)


def _same_json(a, b) -> bool:
    """Equal decoded JSON values, with floats compared by their bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return _bits_equal(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same_json(a[k], b[k]) for k in a)
    return a == b


def _read_as_before(path):
    """What scene files read as with ``json`` alone: the value, or the message."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return f"{path} is not valid JSON: {exc}"


@pytest.fixture
def decoded(monkeypatch):
    """The bytes of every ``orjson.loads`` call, in order."""
    calls = []

    def spy(raw, _loads=orjson.loads):
        calls.append(bytes(raw))
        return _loads(raw)
    monkeypatch.setattr(orjson, "loads", spy)
    return calls


def _fresh_copy(dataset_dir: Path, tmp_path: Path) -> Path:
    """A copy of the dataset at ``dataset_dir`` without its cache file."""
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data, ignore=shutil.ignore_patterns(f"{uio.CACHE_FILE}*"))
    return data


def _load_scene_file(path: Path, cache=None):
    """The scene file at ``path`` loaded as a stage loads it: a map through
    ``cache``, a trajectory file from its JSON."""
    if path.parent.name == "traj":
        return uio.load_trajectories(path)
    return uio.load_map(path, cache=cache)


def _records(dataset: Path) -> list[tuple[str, bytes, bytes]]:
    """The name, key and entry of every record in the cache file of
    ``dataset``, in file order; none where it has no cache file."""
    path = dataset / uio.CACHE_FILE
    data, at, records = path.read_bytes() if path.is_file() else b"", 0, []
    while at < len(data):
        key, n, size = (data[at:at + 32], int.from_bytes(data[at + 32:at + 40], "little"),
                        int.from_bytes(data[at + 40:at + 48], "little"))
        at += 48 + n + size
        assert at <= len(data)
        records.append((data[at - size - n:at - size].decode(), key, data[at - size:at]))
    return records


def _write_records(dataset: Path, records) -> None:
    """Write ``records``, each a name, a key and an entry, as the cache file
    of ``dataset``."""
    (dataset / uio.CACHE_FILE).write_bytes(b"".join(
        key + len(name.encode()).to_bytes(8, "little") + len(entry).to_bytes(8, "little")
        + name.encode() + entry for name, key, entry in records))


def _stored(path: Path, dataset: Path) -> bool:
    """Whether the cache file of ``dataset`` holds the entry of the current
    bytes of the scene file at ``path``."""
    return any((dataset / name).resolve() == path.resolve()
               and key == uio._cache_key(path.read_bytes())
               for name, key, _ in _records(dataset))


def _manifest_maps(dataset: Path) -> list[str]:
    """The map file names of the manifest of ``dataset``, in its order."""
    scenes = json.loads((dataset / "manifest.json").read_text())["scenes"]
    return [scene[key] for scene in scenes for key in ("gt_map", "observed_map")]


def _read_scene(path):
    try:
        return uio._read_json(path, uio._scene_loads)
    except uio.DataError as exc:
        return str(exc)


class TestReadSceneJson:
    @settings(max_examples=400, deadline=None)
    @given(_json_objects_64)
    def test_value_matches_json_loads(self, tmp_path_factory, obj):
        path = tmp_path_factory.getbasetemp() / "read_json.json"
        uio.write_json(path, obj)
        assert _same_json(_read_scene(path), json.loads(path.read_text(encoding="utf-8")))

    @pytest.mark.parametrize("raw", [
        b'{"a": NaN}',
        b'{"a": [Infinity, -Infinity, 0.5]}',
        b'{"a": 1e400, "b": -1e400}',
        b'{"a": "\\ud800"}',
        b'{"a": "\xff"}',
        b'\xef\xbb\xbf{"a": 1}',
        b'{"a": [1.5,\r\n  2',
        b'{\r"a":\r\n[0.25,\r\r',
        b'',
    ], ids=["nan", "infinity", "overflow", "lone_surrogate", "invalid_utf8", "bom",
            "truncated_crlf", "truncated_cr", "empty"])
    def test_refused_by_orjson_reads_as_before(self, raw, tmp_path):
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(raw)
        path = tmp_path / "scene.json"
        path.write_bytes(raw)
        expected = _read_as_before(path)
        assert _same_json(_read_scene(path), expected)
        if isinstance(expected, str):
            for load in (uio.load_map, uio.load_trajectories):
                with pytest.raises(uio.DataError) as exc:
                    load(path)
                assert str(exc.value) == expected

    def test_orjson_once_per_scene_file(self, dataset_dir, tmp_path, decoded):
        data = _fresh_copy(dataset_dir, tmp_path)
        manifest = uio.load_manifest(data / "manifest.json")
        assert decoded == []
        files = [data / scene[key] for scene in manifest["scenes"] for key in uio.SCENE_FILES]
        cache = uio._Cache(manifest)
        for path in files:
            _load_scene_file(path, cache)
        # A map file on its first load (a file with the bytes of another has an
        # entry of its own), a trajectory file on every load.
        maps = [path.read_bytes() for path in files if path.parent.name == "maps"]
        traj = [path.read_bytes() for path in files if path.parent.name == "traj"]
        assert [raw for raw in decoded if raw in maps] == maps
        assert [raw for raw in decoded if raw not in maps] == traj
        decoded.clear()
        for path in files:
            _load_scene_file(path, cache)
        assert decoded == traj
        decoded.clear()
        files[0].write_bytes(files[0].read_bytes() + b"\n")
        for path in files:
            _load_scene_file(path, cache)
        cache.close()
        assert decoded == [files[0].read_bytes()] + traj


class TestConfigParsing:
    def test_minimal(self):
        cfg = uio.parse_dataset_config({"n_scenes": 3, "seed": 5})
        assert cfg.n_scenes == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(uio.ConfigError):
            uio.parse_dataset_config({"n_scenez": 3})

    def test_bad_layout_rejected(self):
        with pytest.raises(uio.ConfigError):
            uio.parse_dataset_config({"layout_weights": {"freeway": 1.0}})

    def test_wildcard_multiplier(self):
        cfg = uio.parse_dataset_config({
            "noise": {"condition_multipliers": {"rain": {"*": 1.4}}}})
        assert cfg.noise.condition_multipliers == {"rain": {c.value: 1.4 for c in ElementClass}}

    def test_roundtrip_through_dict(self):
        cfg = DatasetConfig(n_scenes=4, seed=9)
        again = uio.parse_dataset_config(uio._plain(cfg))
        assert again == cfg


def _tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def write_config(tmp_path, **overrides) -> Path:
    cfg = {"n_scenes": 5, "seed": 3, "n_agents": 2,
           "noise": {"base_b": 0.15, "distance_coeff": 0.01,
                     "occlusion_multiplier": 4.0}}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestUnwritableOut:
    """An --out that cannot be written (here under a regular file) ends a stage
    with exit 2 and one line that names the path."""

    @pytest.mark.parametrize("command", ["generate", "eval-pred", "analyze-uncertainty"])
    def test_out_under_a_file_exits_2(self, command, dataset_dir, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        if command == "generate":
            argv = ["generate", "--config", str(write_config(tmp_path)),
                    "--out", str(afile / "sub")]
        else:  # eval-pred writes a JSON report first, analyze-uncertainty a CSV
            argv = [command, "--manifest", str(dataset_dir / "manifest.json"),
                    "--out", str(afile)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1, err
        assert str(afile) in err, err


class TestCliGenerate:
    def test_deterministic_tree(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "b")]) == 0
        assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")

    def test_creates_missing_out_dir(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "deep" / "nested" / "dir"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()

    def test_invalid_layout_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, layout_weights={"moon_base": 1.0})
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("key, value", [("b0", -0.1), ("lam", float("nan"))])
    def test_invalid_predictor_knob_exits_2(self, key, value, tmp_path, capsys):
        cfg = write_config(tmp_path, **{key: value})
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["generate", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("damage", ["undecodable", "directory"])
    def test_unreadable_config_exits_2(self, damage, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        if damage == "undecodable":
            bad.write_bytes(b"\xff\xfe{}")
        else:
            bad.mkdir()
        assert main(["generate", "--config", str(bad),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_usage_error_exits_2(self):
        assert main(["generate"]) == 2

    def test_threads_other_than_1_exits_2(self, tmp_path, capsys):
        # Scenes are built serially; --threads only accepts 1.
        cfg = write_config(tmp_path)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--threads", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--threads" in err
        assert not (tmp_path / "x").exists()
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "y"),
                     "--threads", "1"]) == 0

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "uncmap generate: error: argument --seed: must be >= 0, got -1\n"
        assert not (tmp_path / "x").exists()

    def test_fractional_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--seed=1.5"]) == 2
        err = capsys.readouterr().err
        assert err == "uncmap generate: error: argument --seed: expected an integer, got '1.5'\n"
        assert not (tmp_path / "x").exists()

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b"),
              "--seed", "99"])
        assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "b")


# sha256 of the tree that `generate` writes for GOLDEN_CONFIG, recorded before
# the batched arclength walk and the broadcast occlusion test went in. Any
# change to the generator's output bits shows up here.
GOLDEN_CONFIG = {"n_scenes": 12, "seed": 0, "n_agents": 2,
                 "noise": {"base_b": 0.15, "distance_coeff": 0.01,
                           "occlusion_multiplier": 6.0}}
GOLDEN_DIGEST = "80cd731c581fdf39e9f66183778d0a5a56c6cb5fccd691e6f8eb5a229d17eef8"


def _lane_changes(gt, agents) -> int:
    """Agents whose future ends off every centerline their history ends on."""
    lanes = gt.by_class(ElementClass.LANE_CENTERLINE)
    closed = [e.closed for e in lanes]
    chains = polyline_vertices([e.mu for e in lanes], closed)

    def gap(i, point):
        return nearest_point_on_polyline([chains[i]], [closed[i]], point[None])[2][0]

    count = 0
    for agent in agents:
        on = [i for i in range(len(chains)) if gap(i, agent.history[-1]) < 1e-6]
        if all(gap(i, agent.future[-1]) > 1.0 for i in on):
            count += 1
    return count


class TestGoldenGenerate:
    def test_tree_digest_pinned(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(GOLDEN_CONFIG))
        out = tmp_path / "d"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        digest = hashlib.sha256(
            json.dumps(_tree_digest(out), sort_keys=True).encode()).hexdigest()
        manifest = uio.load_manifest(out / "manifest.json")
        scenes = list(uio.iter_scene_files(manifest))
        assert {s["layout"] for s, *_ in scenes} == {"straight_road", "intersection",
                                                     "parking_lot"}
        assert any(s["occluders"] for s, *_ in scenes)
        assert sum(_lane_changes(gt, agents) for _, gt, _, agents, _ in scenes) >= 1
        assert digest == GOLDEN_DIGEST


# sha256 of the trees `generate` writes for configs that reach what
# GOLDEN_CONFIG does not: one-hot classes, the weighted predictor over a
# block boundary, duplicate centerlines, a lane change for every agent, up to
# 5 occluders, 15 and 2 vertices per element, scales below 1e-4 (and floored
# at B_FLOOR in the exact run), and the exact and none predictors. Recorded
# before scenes were built in blocks.
GOLDEN_BRANCHES = [
    ({"n_scenes": 20, "seed": 5, "n_agents": 3, "predictor": "weighted",
      "duplicate_centerlines": True, "lane_change_prob": 1.0, "max_occluders": 5,
      "resample_count": 15,
      "noise": {"base_b": 1e-5, "distance_coeff": 0, "class_mode": "one_hot"}},
     "bad25b3691c20f197a22eaad7ef841bce15decd4e4bc747296e2c4341feb416a"),
    ({"n_scenes": 3, "seed": 1, "predictor": "exact", "lane_change_prob": 1.0,
      "noise": {"base_b": 1e-5, "distance_coeff": 0, "miscalibration": 0.05}},
     "3980d1c2e9d2021788f6db9c5b573e6022f68a5dc153c0ff3cdde0508580c7d9"),
    ({"n_scenes": 3, "seed": 2, "predictor": "none", "max_occluders": 5,
      "resample_count": 2},
     "277dfb9abc2c46cbf0b54aea6724cf40a78185895b867175fe00ab1dc1455f23"),
]


class TestGoldenBranches:
    @pytest.mark.parametrize("config, digest", GOLDEN_BRANCHES,
                             ids=[c["predictor"] for c, _ in GOLDEN_BRANCHES])
    def test_tree_digest_pinned(self, config, digest, tmp_path):
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "d"
        assert main(["generate", "--config", str(tmp_path / "config.json"),
                     "--out", str(out)]) == 0
        assert hashlib.sha256(
            json.dumps(_tree_digest(out), sort_keys=True).encode()).hexdigest() == digest


# sha256 of the reports that eval-map and calibrate write for the GOLDEN_CONFIG
# tree, recorded before the matchers were merged into map_eval.greedy_match.
GOLDEN_REPORTS = [
    (["eval-map", "--matching", "greedy"], "eval_map.json",
     "ba94d05bddb4510a661a25f939718700b3ff4c8843552404f72e32b1c0074e71"),
    (["eval-map", "--matching", "hungarian"], "eval_map.json",
     "9f085def40e754ea333fdc0e8e2fb6fe99710e8499a89f87cd6787eaac4dc7d7"),
    (["calibrate"], "calibration.json",
     "af5246a3657741c034cf6c0a13ca6ca36945ad6f7dc7396eb8bfe73deb14fca3"),
    # The other report files of the five stages, recorded while every file
    # was written by json.dumps(indent=2) and before each stage read only the
    # scene files it uses. Reports are still written by json.dumps;
    # uncertainty_bins.json holds nulls.
    (["eval-map"], "eval_map.csv",
     "d433ac8c171f6de34f6c12c710c15c4b0eff59bea4ce8d917d1e8217d845c87b"),
    (["eval-pred"], "eval_pred.json",
     "5505b976dd0e92d057b9dad86cdaa898d7313a02082100fa1f87f36827b4864c"),
    (["eval-pred"], "eval_pred_agents.csv",
     "2af3359e83de9c6fa6f22e46f02eba691e7ae12dec676c1d1d7867eb0bf44bc9"),
    (["calibrate"], "coverage.csv",
     "b74e57d601e49c231251343f12873360ed4c96268c5a4cbd0a07bf6a4c539e65"),
    (["calibrate"], "reliability.csv",
     "17af996ede8b1c2621635c1df264d454f7b1633ae198e6ade930f6095397cadd"),
    (["analyze-uncertainty"], "uncertainty_bins.json",
     "c18ff42ef76f87e394de77f7966e331284775d84126986d153ded8c14c59c73b"),
    (["analyze-uncertainty"], "uncertainty_bins.csv",
     "c191c2fad2a6c8bac852de97330349f6572a89a2df320363403569203cb14f25"),
    (["compare-predictors"], "compare_predictors.json",
     "bd637ed24f6933d04dc928270a3722df388515416d490477163a11e5d98616e9"),
    (["compare-predictors"], "compare_predictors.csv",
     "83f1278101eb101f3dbf5fe24d3c937446c8d47e253d027faf0a86339c409560"),
]


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(GOLDEN_CONFIG))
    assert main(["generate", "--config", str(cfg), "--out", str(root / "d")]) == 0
    return root / "d"


class TestGoldenReports:
    @pytest.mark.parametrize("command, report, digest", GOLDEN_REPORTS)
    def test_report_digest_pinned(self, command, report, digest, golden_dir, tmp_path):
        assert main(command + ["--manifest", str(golden_dir / "manifest.json"),
                               "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / report).read_bytes()).hexdigest() == digest


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """One shared small dataset for the evaluation commands."""
    root = tmp_path_factory.mktemp("ds")
    cfg = write_config(root)
    assert main(["generate", "--config", str(cfg), "--out", str(root / "data")]) == 0
    return root / "data"


def write_one_scene(out: Path, gt: VectorMap, observed: VectorMap, agents) -> Path:
    """A hand-built dataset of one scene under ``out``; returns its manifest."""
    uio.save_map(gt, out / "maps/scene_0000_gt.json")
    uio.save_map(observed, out / "maps/scene_0000_obs.json")
    uio.save_trajectories(agents, out / "traj/scene_0000.json")
    manifest = {
        "schema_version": uio.MANIFEST_SCHEMA,
        "master_seed": 0,
        "config": {},
        "config_hash": uio.config_hash({}),
        "tool_version": "0",
        "scenes": [{"id": "scene_0000", "seed": 0, "observe_seed": 0,
                    "layout": "straight_road", "condition": "day",
                    "occluders": [],
                    "gt_map": "maps/scene_0000_gt.json",
                    "observed_map": "maps/scene_0000_obs.json",
                    "trajectories": "traj/scene_0000.json"}],
    }
    uio.write_json(out / "manifest.json", manifest)
    return out / "manifest.json"


class TestCliEval:
    def test_eval_map_on_noisy_data(self, dataset_dir, tmp_path):
        rc = main(["eval-map", "--manifest", str(dataset_dir / "manifest.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "eval_map.json").read_text())
        assert 0.0 < report["report"]["mAP"] <= 1.0
        assert "config_hash" in report["reproducibility"]
        assert (tmp_path / "eval_map.csv").exists()

    def test_eval_map_identity_dataset(self, tmp_path):
        cfg = write_config(tmp_path, noise={"base_b": B_FLOOR, "distance_coeff": 0.0,
                                            "occlusion_multiplier": 1.0,
                                            "condition_multipliers": {},
                                            "class_mode": "one_hot"})
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")])
        rc = main(["eval-map", "--manifest", str(tmp_path / "d" / "manifest.json"),
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        report = json.loads((tmp_path / "r" / "eval_map.json").read_text())
        assert report["report"]["mAP"] == pytest.approx(1.0)

    def test_eval_pred_exact_modes(self, tmp_path):
        cfg = write_config(tmp_path, predictor="exact")
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")])
        rc = main(["eval-pred", "--manifest", str(tmp_path / "d" / "manifest.json"),
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        report = json.loads((tmp_path / "r" / "eval_pred.json").read_text())
        assert report["report"]["minADE"] == 0.0
        assert report["report"]["minFDE"] == 0.0
        assert report["report"]["MR"] == 0.0

    def test_eval_map_without_elements_writes_undefined_values_empty(self, tmp_path):
        # Maps without elements leave every AP cell and the mAP undefined:
        # null in the JSON report and an empty field in the CSV.
        empty = VectorMap([], Pose2.identity())
        manifest = write_one_scene(tmp_path / "d", empty, empty, [])
        assert main(["eval-map", "--manifest", str(manifest), "--out", str(tmp_path / "r")]) == 0
        report = json.loads((tmp_path / "r" / "eval_map.json").read_text())["report"]
        assert report["mAP"] is None
        assert {v for row in report["ap"] for v in row} == {None}
        lines = (tmp_path / "r" / "eval_map.csv").read_text().splitlines()
        assert lines[0] == "class,threshold,ap"
        assert all(line.endswith(",") for line in lines[1:])
        assert lines[-1] == "__mean__,,"

    def test_eval_pred_offsets(self, tmp_path):
        # hand-built dataset: single agent, single mode at fixed endpoint error
        out = tmp_path / "d"
        future = np.column_stack([np.zeros(30), np.linspace(0.1, 3.0, 30)])
        history = np.column_stack([np.zeros(20), np.linspace(-1.9, 0.0, 20)])
        for name, offset in (("one", 1.0), ("three", 3.0)):
            agents = [AgentTrack(history, future, np.stack([future + np.array([offset, 0.0])]))]
            manifest = write_one_scene(out, small_mean_map(), small_prob_map(), agents)
            rc = main(["eval-pred", "--manifest", str(manifest),
                       "--out", str(tmp_path / f"r_{name}")])
            assert rc == 0
            rep = json.loads(
                (tmp_path / f"r_{name}" / "eval_pred.json").read_text())["report"]
            assert rep["minFDE"] == pytest.approx(offset)
            assert rep["MR"] == (0.0 if offset <= 2.0 else 1.0)

    def test_empty_manifest_exits_3(self, tmp_path):
        manifest = {"schema_version": uio.MANIFEST_SCHEMA, "master_seed": 0,
                    "config": {}, "config_hash": uio.config_hash({}),
                    "tool_version": "0", "scenes": []}
        uio.write_json(tmp_path / "manifest.json", manifest)
        assert main(["eval-map", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3

    def test_missing_manifest_exits_3(self, tmp_path):
        assert main(["eval-map", "--manifest", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "r")]) == 3

    def test_scene_without_path_exits_3(self, dataset_dir, tmp_path, capsys):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        for scene in manifest["scenes"]:
            for key in ("gt_map", "observed_map", "trajectories"):
                scene[key] = str(dataset_dir / scene[key])
        for key in ("gt_map", "observed_map", "trajectories"):
            broken = json.loads(json.dumps(manifest))
            del broken["scenes"][1][key]
            path = tmp_path / f"no_{key}.json"
            uio.write_json(path, broken)
            with pytest.raises(uio.DataError, match=key):
                uio.load_manifest(path)
            assert main(["eval-map", "--manifest", str(path),
                         "--out", str(tmp_path / "r")]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error:") and err.count("\n") == 1


    @pytest.mark.parametrize("where", ["absolute", "parent", "through_a_subdirectory"])
    def test_scene_path_outside_the_dataset_is_cached_in_the_dataset(self, where, dataset_dir,
                                                                     tmp_path, capsys):
        data, outside = _outside_scene_files(dataset_dir, tmp_path, where)
        plain = _fresh_copy(dataset_dir, tmp_path / "plain")
        reports = {}
        for i, command in enumerate(("eval-map", "eval-pred", "eval-map")):
            for name, root in (("outside", data), ("plain", plain)):
                out = tmp_path / "r" / name / str(i)
                assert main([command, "--manifest", str(root / "manifest.json"),
                             "--out", str(out)]) == 0
                assert capsys.readouterr().err == ""
                reports.setdefault(name, []).append(_tree_digest(out))
        assert reports["outside"] == reports["plain"]
        assert reports["outside"][0] == reports["outside"][2]
        assert sorted(p.name for p in outside.iterdir()) == ["gt.json", "traj.json"]
        assert _stored(outside / "gt.json", data) and not _stored(outside / "traj.json", data)
        assert _stored(data / "maps" / "scene_0000_gt.json", data)

    def test_scene_path_outside_the_dataset_decodes_once(self, dataset_dir, tmp_path,
                                                         decoded):
        data, outside = _outside_scene_files(dataset_dir, tmp_path, "parent")
        assert main(["eval-map", "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 0
        assert (outside / "gt.json").read_bytes() in decoded
        decoded.clear()
        assert main(["calibrate", "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 0
        assert decoded == []

    def test_scene_path_through_a_subdirectory_inside_the_dataset(self, dataset_dir,
                                                                   tmp_path):
        data = _fresh_copy(dataset_dir, tmp_path)
        manifest = json.loads((data / "manifest.json").read_text())
        for scene in manifest["scenes"]:
            scene["gt_map"] = f"traj/../{scene['gt_map']}"
        uio.write_json(data / "manifest.json", manifest)
        assert main(["eval-map", "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 0

    def test_scene_without_id_or_condition_exits_3(self, dataset_dir, tmp_path, capsys):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        for scene in manifest["scenes"]:
            for key in ("gt_map", "observed_map", "trajectories"):
                scene[key] = str(dataset_dir / scene[key])
            del scene["id"], scene["condition"]
        path = tmp_path / "manifest.json"
        uio.write_json(path, manifest)
        with pytest.raises(uio.DataError, match="'id'"):
            uio.load_manifest(path)
        for command in ("eval-pred", "analyze-uncertainty"):
            assert main([command, "--manifest", str(path),
                         "--out", str(tmp_path / "r")]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error:") and err.count("\n") == 1


def _outside_scene_files(dataset_dir, tmp_path, where):
    """A fresh copy of the dataset whose manifest names scene 1's ground-truth
    map and trajectory file by ``where`` in a directory ``outside`` it;
    returns the copy and that directory."""
    data = _fresh_copy(dataset_dir, tmp_path)
    manifest = json.loads((data / "manifest.json").read_text())
    scene = manifest["scenes"][1]
    outside = tmp_path / "outside"
    outside.mkdir()
    for key, name in (("gt_map", "gt.json"), ("trajectories", "traj.json")):
        shutil.copy(data / scene[key], outside / name)
        scene[key] = {"absolute": str(outside / name), "parent": f"../outside/{name}",
                      "through_a_subdirectory": f"maps/../../outside/{name}"}[where]
    uio.write_json(data / "manifest.json", manifest)
    return data, outside


# The scene files each report stage reads.
STAGE_READS = {
    "eval-map": ("gt_map", "observed_map"),
    "eval-pred": ("trajectories",),
    "calibrate": ("gt_map", "observed_map"),
    "analyze-uncertainty": ("observed_map",),
    "compare-predictors": ("observed_map", "trajectories"),
}


class TestSceneFileReads:
    def test_iter_scene_files_parts(self, dataset_dir):
        manifest = uio.load_manifest(dataset_dir / "manifest.json")
        rows = list(uio.iter_scene_files(manifest, "trajectories", "observed_map"))
        assert len(rows) == len(manifest["scenes"])
        scene, agents, modes, observed = rows[0]
        assert scene is manifest["scenes"][0]
        assert observed.elements and all(el.b is not None for el in observed.elements)
        assert len(agents) == len(modes)
        assert all(len(row) == 5 for row in uio.iter_scene_files(manifest))
        with pytest.raises(ValueError, match="unknown scene files"):
            next(uio.iter_scene_files(manifest, "lidar"))

    @pytest.mark.parametrize("command", sorted(STAGE_READS))
    def test_stage_reads_only_its_files(self, command, dataset_dir, tmp_path,
                                        monkeypatch):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        kind = {dataset_dir / scene[key]: key for scene in manifest["scenes"]
                for key in uio.SCENE_FILES}
        read = []
        for name in ("load_map", "load_trajectories"):
            def spy(path, _load=getattr(uio, name), **kwargs):
                read.append(kind[Path(path)])
                return _load(path, **kwargs)
            monkeypatch.setattr(uio, name, spy)
        assert main([command, "--manifest", str(dataset_dir / "manifest.json"),
                     "--out", str(tmp_path)]) == 0
        assert sorted(read) == sorted(STAGE_READS[command] * len(manifest["scenes"]))

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, keys in STAGE_READS.items() for key in keys])
    def test_truncated_file_exits_3(self, command, key, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        target = data / manifest["scenes"][1][key]
        text = target.read_bytes()
        target.write_bytes(text[:len(text) // 2])
        assert main([command, "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert err.startswith(f"data error: scene {manifest['scenes'][1]['id']} {key}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", uio.SCENE_FILES)
    def test_missing_file_exits_3_in_the_stages_that_read_it(self, key, dataset_dir, tmp_path,
                                                             capsys):
        data = _fresh_copy(dataset_dir, tmp_path)
        scene = json.loads((data / "manifest.json").read_text())["scenes"][1]
        target = data / scene[key]
        target.unlink()
        for command, reads in STAGE_READS.items():
            rc = main([command, "--manifest", str(data / "manifest.json"),
                       "--out", str(tmp_path / "r")])
            if key in reads:
                assert (rc, capsys.readouterr().err) == (
                    3, f"data error: scene {scene['id']} {key}: file not found: {target}\n")
            else:
                assert (rc, capsys.readouterr().err) == (0, "")

    @pytest.mark.parametrize("command, key, damage", [
        ("eval-map", "observed_map", "undecodable"),
        ("eval-map", "gt_map", "not_an_object"),
        ("eval-map", "manifest", "not_an_object"),
        ("eval-pred", "trajectories", "directory"),
    ])
    def test_unreadable_file_exits_3(self, command, key, damage, dataset_dir, tmp_path,
                                     capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        target = data / ("manifest.json" if key == "manifest"
                         else manifest["scenes"][0][key])
        if damage == "undecodable":
            target.write_bytes(b"\xff\xfe" + target.read_bytes())
        elif damage == "not_an_object":
            target.write_text("[1, 2]\n")
        else:
            target.unlink()
            target.mkdir()
        assert main([command, "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "Traceback" not in err


    @pytest.mark.parametrize("command, key", [
        ("eval-map", "gt_map"), ("calibrate", "gt_map"),
        ("compare-predictors", "observed_map")])
    def test_coincident_vertices_exit_3(self, command, key, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        target = data / manifest["scenes"][0][key]
        m = json.loads(target.read_text())
        element = next(el for el in m["elements"] if el["class"] == "lane_centerline")
        element["vertices"] = [element["vertices"][0]] * len(element["vertices"])
        target.write_text(json.dumps(m))
        assert main([command, "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "fewer than 2 vertices" in err

    @pytest.mark.parametrize("command", ["eval-pred", "compare-predictors"])
    @pytest.mark.parametrize("key, damage", [
        ("history", "empty"), ("history", "three_columns"), ("history", "nan"),
        ("future_gt", "empty"), ("future_gt", "three_columns"), ("future_gt", "nan"),
        ("modes", "three_columns"), ("modes", "nan"),
    ])
    def test_malformed_trajectory_exits_3(self, command, key, damage, dataset_dir,
                                          tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        target = data / manifest["scenes"][0]["trajectories"]
        traj = json.loads(target.read_text())
        agent = traj["agents"][0]
        value = np.array(agent[key], dtype=float)
        if damage == "empty":
            value = value[:0]
        elif damage == "three_columns":
            value = np.concatenate([value, np.zeros(value.shape[:-1] + (1,))], axis=-1)
        else:
            value.flat[3] = np.nan
        agent[key] = value.tolist()
        target.write_text(json.dumps(traj))
        assert main([command, "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        # The message names the AgentTrack field the file key maps onto.
        assert f"agent 0 {key.removesuffix('_gt')}" in err

    @pytest.mark.parametrize("command", ["eval-pred", "compare-predictors"])
    def test_integer_past_float_range_exits_3(self, command, dataset_dir, tmp_path, capsys):
        # orjson refuses a 400-digit integer; json reads it exactly, and float()
        # of it overflows.
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        target = data / manifest["scenes"][0]["trajectories"]
        traj = json.loads(target.read_text())
        traj["agents"][0]["history"][0][0] = 10**400
        target.write_text(json.dumps(traj))
        assert main([command, "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        scene = manifest["scenes"][0]["id"]
        assert err.startswith(f"data error: scene {scene} trajectories: "
                              "malformed trajectory file") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval-pred", "compare-predictors"])
    @pytest.mark.parametrize("rate", [20, 10.9, True, "10", 2**70])
    def test_rate_other_than_int_10_exits_3(self, command, rate, dataset_dir, tmp_path,
                                            capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        target = data / manifest["scenes"][0]["trajectories"]
        traj = json.loads(target.read_text())
        traj["rate_hz"] = rate
        target.write_text(json.dumps(traj))
        assert main([command, "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        scene = manifest["scenes"][0]["id"]
        assert err.startswith(f"data error: scene {scene} trajectories: "
                              "rate_hz must be the integer 10")
        assert err.count("\n") == 1


def _record_bits(record):
    """All a loaded map or trajectory list holds, each array and float as its
    dtype, shape and bytes."""
    def bits(value):
        a = np.asarray(value)
        return a.dtype.str, a.shape, a.tobytes()
    if isinstance(record, VectorMap):
        pose = record.ego_pose
        return (bits(record.mu), bits(record.offsets),
                record.b is None or (bits(record.b), bits(record.class_logits)),
                [(el.element_class, bits(el.confidence), el.closed) for el in record.elements],
                bits([pose.x, pose.y, pose.heading]), bits(record.perception_range),
                record.out_of_range)
    return [(bits(a.history), bits(a.future), bits(a.modes)) for a in record]


def _from_json(path: Path):
    """The scene file at ``path`` read from its JSON alone, as before the cache."""
    from_dict = (uio.trajectories_from_dict if path.parent.name == "traj"
                 else uio.map_from_dict)
    return from_dict(uio._read_json(path, uio._scene_loads))


def _reports_without_cache(dataset_dir: Path, tmp_path: Path, command: str) -> dict:
    """The digest of the reports ``command`` writes for a copy of the dataset
    whose cache path is taken by a directory."""
    data = _fresh_copy(dataset_dir, tmp_path / "no_cache")
    (data / uio.CACHE_FILE).mkdir()
    out = tmp_path / "no_cache" / "r"
    assert main([command, "--manifest", str(data / "manifest.json"), "--out", str(out)]) == 0
    return _tree_digest(out)


def _run(command: str, data: Path, out: Path) -> None:
    assert main([command, "--manifest", str(data / "manifest.json"), "--out", str(out)]) == 0


def _records_match_files(data: Path) -> bool:
    """Whether the cache file of ``data`` holds one record per map file its
    manifest names, in its order, each of the file's current bytes."""
    return [(name, key) for name, key, _ in _records(data)] == [
        (name, uio._cache_key((data / name).read_bytes())) for name in _manifest_maps(data)]


class TestSceneCache:
    """A map file's bytes decode once: later loads of the same bytes build the
    map from its entry in the ``.uncmap-cache`` file beside the manifest."""

    def test_warm_load_bit_identical(self, dataset_dir, tmp_path, decoded):
        data = _fresh_copy(dataset_dir, tmp_path)
        manifest = uio.load_manifest(data / "manifest.json")
        files = [data / name for name in _manifest_maps(data)]
        reference = [_record_bits(_from_json(path)) for path in files]
        decoded.clear()
        cache = uio._Cache(manifest)
        assert [_record_bits(uio.load_map(path, cache=cache)) for path in files] == reference
        n_cold = len(decoded)
        # Warm from the entries this stage made, then from the cache file alone.
        assert [_record_bits(uio.load_map(path, cache=cache)) for path in files] == reference
        cache.close()
        cache = uio._Cache(manifest)
        assert [_record_bits(uio.load_map(path, cache=cache)) for path in files] == reference
        cache.close()
        assert len(decoded) == n_cold == len(files)
        assert any(_from_json(path).out_of_range for path in files)
        # One record per map file, and no temporary file left.
        assert [p.name for p in data.glob(f"{uio.CACHE_FILE}*")] == [uio.CACHE_FILE]
        assert _records_match_files(data)

    def test_loader_without_cache_writes_nothing(self, tmp_path):
        uio.save_map(small_prob_map(), tmp_path / "m.json")
        uio.save_trajectories([AgentTrack(np.zeros((2, 2)), np.ones((3, 2)))],
                              tmp_path / "t.json")
        before = _tree_digest(tmp_path)
        for _ in range(2):
            uio.load_map(tmp_path / "m.json")
            uio.load_trajectories(tmp_path / "t.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "t.json"]
        assert _tree_digest(tmp_path) == before

    def test_stage_that_reads_no_map_writes_nothing(self, dataset_dir, tmp_path):
        data = _fresh_copy(dataset_dir, tmp_path)
        before = _tree_digest(data)
        _run("eval-pred", data, tmp_path / "r")
        assert _tree_digest(data) == before and not (data / uio.CACHE_FILE).exists()

    def test_file_rewritten_at_same_length_decodes_again(self, dataset_dir, tmp_path,
                                                         decoded):
        data = _fresh_copy(dataset_dir, tmp_path)
        manifest = uio.load_manifest(data / "manifest.json")
        target = data / manifest["scenes"][0]["gt_map"]
        cache = uio._Cache(manifest)
        assert uio.load_map(target, cache=cache).elements[0].confidence == 1.0
        raw, stat = target.read_bytes(), target.stat()
        edited = raw.replace(b'"confidence": 1.0', b'"confidence": 0.5', 1)
        assert edited != raw and len(edited) == len(raw)
        target.write_bytes(edited)
        os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        decoded.clear()
        assert uio.load_map(target, cache=cache).elements[0].confidence == 0.5
        cache.close()
        assert decoded == [edited]

    @pytest.mark.parametrize("key", ["observed_map", "gt_map"])
    @pytest.mark.parametrize("damage", ["truncated", "one_float_short", "garbage",
                                        "one_byte_flipped", "other_kind", "other_bytes",
                                        "other_key"])
    def test_bad_entry_is_decoded_again_and_rewritten(self, key, damage, dataset_dir,
                                                      tmp_path, decoded):
        # "other_kind": the entry of the other kind of map (a mean map's for a
        # map with scales and the other way round) under the file's key;
        # "other_bytes": that map's whole record under the file's name;
        # "other_key": that record with its checksum made with the file's key.
        data = _fresh_copy(dataset_dir, tmp_path)
        manifest = uio.load_manifest(data / "manifest.json")
        scene = manifest["scenes"][0]
        name, other = scene[key], scene[{"observed_map": "gt_map",
                                         "gt_map": "observed_map"}[key]]
        target = data / name
        cache = uio._Cache(manifest)
        reference = _record_bits(uio.load_map(target, cache=cache))
        cache.close()
        good = (data / uio.CACHE_FILE).read_bytes()
        cache = uio._Cache(manifest)
        uio.load_map(data / other, cache=cache)
        cache.close()
        records = {record[0]: record for record in _records(data)}
        assert sorted(records) == sorted([name, other])
        _, target_key, entry = records[name]
        other_entry = records[other][2][:-8]
        other_entry += np.array([zlib.crc32(other_entry, zlib.crc32(target_key))],
                                dtype="<f8").tobytes()
        bad = {"one_float_short": entry[:-8], "garbage": b"\xff" * len(entry),
               "one_byte_flipped": entry[:40] + bytes([entry[40] ^ 1]) + entry[41:],
               "other_kind": records[other][2]}.get(damage)
        if damage == "truncated":
            (data / uio.CACHE_FILE).write_bytes(good[:len(good) // 2 + 3])
        elif damage == "other_bytes":
            _write_records(data, [(name, *records[other][1:])])
        elif damage == "other_key":
            _write_records(data, [(name, records[other][1], other_entry)])
        else:
            _write_records(data, [(name, target_key, bad)])
        cache = uio._Cache(manifest)
        decoded.clear()
        assert _record_bits(uio.load_map(target, cache=cache)) == reference
        assert decoded == [target.read_bytes()]
        # The entry is written again, in a cache file of the same bytes.
        cache.close()
        assert (data / uio.CACHE_FILE).read_bytes() == good
        cache = uio._Cache(manifest)
        assert _record_bits(uio.load_map(target, cache=cache)) == reference
        cache.close()
        assert len(decoded) == 1

    @pytest.mark.parametrize("key, damage", [
        ("observed_map", "truncated"), ("gt_map", "coincident_vertices"),
        ("trajectories", "rate_hz"), ("trajectories", "short_modes")])
    def test_malformed_file_writes_no_entry(self, key, damage, dataset_dir, tmp_path,
                                            capsys):
        data = _fresh_copy(dataset_dir, tmp_path)
        scene = uio.load_manifest(data / "manifest.json")["scenes"][1]
        target = data / scene[key]
        if damage == "truncated":
            target.write_bytes(target.read_bytes()[:-40])
        else:
            tree = json.loads(target.read_text())
            if damage == "coincident_vertices":
                vertices = tree["elements"][0]["vertices"]
                vertices[:] = [vertices[0]] * len(vertices)
            elif damage == "rate_hz":
                tree["rate_hz"] = 20
            else:
                tree["agents"][0]["modes"][0].pop()
            target.write_text(json.dumps(tree))
        with pytest.raises(uio.DataError) as expected:
            _from_json(target)
        command = "eval-pred" if key == "trajectories" else "eval-map"
        assert main([command, "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err == (
            f"data error: scene {scene['id']} {key}: {expected.value}\n")
        assert not _stored(target, data)

    def test_key_covers_the_decoding_code(self, tmp_path, monkeypatch):
        edited = tmp_path / "io.py"
        edited.write_bytes(Path(uio.__file__).read_bytes() + b"# edited\n")
        keys = [uio._cache_key(b"{}")]
        for name, value in (("__file__", str(edited)), ("ALL_CLASSES", uio.ALL_CLASSES[::-1])):
            with monkeypatch.context() as patch:
                patch.setattr(uio, name, value)
                uio._key_salt.cache_clear()
                keys.append(uio._cache_key(b"{}"))
        uio._key_salt.cache_clear()
        assert uio._cache_key(b"{}") == keys[0]
        assert len(set(keys)) == 3

    @pytest.mark.parametrize("blocked_by", ["a_directory", "a_read_only_dataset",
                                            "a_refused_rename"])
    def test_cache_file_that_cannot_be_written(self, blocked_by, dataset_dir, tmp_path,
                                               monkeypatch, capsys):
        reports = []
        for blocked in (False, True):
            data = _fresh_copy(dataset_dir, tmp_path / str(blocked))
            cache = data / uio.CACHE_FILE
            with monkeypatch.context() as patch:
                if blocked and blocked_by == "a_directory":
                    cache.mkdir()
                elif blocked and blocked_by == "a_read_only_dataset":
                    # Tests run as root, so chmod cannot refuse the write.
                    def refuse(file, mode="r", *args, _open=open, **kwargs):
                        if "w" in mode and Path(file).parent == data:
                            raise PermissionError(13, "Permission denied", str(file))
                        return _open(file, mode, *args, **kwargs)
                    patch.setattr(uio, "open", refuse, raising=False)
                elif blocked:
                    def refuse(src, dst, _replace=os.replace):
                        if Path(dst) == cache:
                            raise PermissionError(13, "Permission denied", str(dst))
                        return _replace(src, dst)
                    patch.setattr(os, "replace", refuse)
                before = _tree_digest(data)
                for command in STAGE_READS:
                    _run(command, data, tmp_path / str(blocked) / "r")
            assert capsys.readouterr().err == ""
            reports.append(_tree_digest(tmp_path / str(blocked) / "r"))
            if blocked:
                # No cache file and no temporary file: the dataset is as it was.
                assert _tree_digest(data) == before
                assert [p.name for p in data.glob(f"{uio.CACHE_FILE}*")] == (
                    [uio.CACHE_FILE] if blocked_by == "a_directory" else [])
                assert blocked_by != "a_directory" or not any(cache.iterdir())
            else:
                # The stages write only the cache file.
                assert dict(before, **{uio.CACHE_FILE: mock.ANY}) == _tree_digest(data)
                assert _records_match_files(data)
        assert len(reports[0]) == 11 and reports[1] == reports[0]

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty"])
    def test_damaged_cache_file(self, damage, dataset_dir, tmp_path):
        data = _fresh_copy(dataset_dir, tmp_path)
        for command in STAGE_READS:
            _run(command, data, tmp_path / "cold")
        cache = data / uio.CACHE_FILE
        raw = cache.read_bytes()
        cache.write_bytes({"truncated": raw[:len(raw) // 2], "garbage": bytes(range(256)) * 64,
                           "empty": b""}[damage])
        for command in STAGE_READS:
            _run(command, data, tmp_path / "damaged")
        assert _tree_digest(tmp_path / "damaged") == _tree_digest(tmp_path / "cold")
        assert cache.read_bytes() == raw

    def test_cache_file_keeps_one_record_per_map_file_of_the_manifest(self, dataset_dir,
                                                                       tmp_path):
        data = _fresh_copy(dataset_dir, tmp_path)
        manifest = json.loads((data / "manifest.json").read_text())
        target = data / manifest["scenes"][1]["observed_map"]
        raw = target.read_bytes()
        for edit in range(3):
            target.write_bytes(raw + b"\n" * (edit + 1))
            if edit < 2:
                _run("eval-map", data, tmp_path / "r")
                assert _records_match_files(data)
        # A manifest without scene 0: its map files' records are dropped.
        manifest["scenes"] = manifest["scenes"][1:]
        uio.write_json(data / "manifest.json", manifest)
        _run("calibrate", data, tmp_path / "r")
        assert _records_match_files(data)
        # A stage that reads only the observed maps keeps the other records.
        target.write_bytes(raw)
        _run("analyze-uncertainty", data, tmp_path / "r")
        assert _records_match_files(data)

    @pytest.mark.parametrize("warm", [False, True])
    def test_cache_file_replaced_during_a_stage(self, warm, dataset_dir, tmp_path,
                                                monkeypatch, decoded):
        # A stage reads entries from the cache file it opened. Halfway through
        # it another is renamed over it, holding valid records: those of the
        # whole dataset (cold), or each map file's record under the name of
        # the other map file of its scene (warm). No load reads that file.
        reference = _reports_without_cache(dataset_dir, tmp_path, "calibrate")
        data = _fresh_copy(dataset_dir, tmp_path)
        donor = _fresh_copy(dataset_dir, tmp_path / "donor")
        _run("eval-map", donor, tmp_path / "r0")
        if warm:
            _run("eval-map", data, tmp_path / "r0")
            records = _records(donor)
            _write_records(donor, [(records[i ^ 1][0], key, entry)
                                   for i, (_, key, entry) in enumerate(records)])
        maps = [data / name for name in _manifest_maps(data)]
        expected = {path: _record_bits(_from_json(path)) for path in maps}
        loaded = []

        def load_map(path, _load=uio.load_map, **kwargs):
            if len(loaded) == len(maps) // 2:
                os.replace(donor / uio.CACHE_FILE, data / uio.CACHE_FILE)
            loaded.append(path)
            m = _load(path, **kwargs)
            assert _record_bits(m) == expected[path]
            return m
        monkeypatch.setattr(uio, "load_map", load_map)
        decoded.clear()
        _run("calibrate", data, tmp_path / "r")
        assert _tree_digest(tmp_path / "r") == reference
        assert sorted(loaded) == sorted(maps)
        assert decoded == ([] if warm else [path.read_bytes() for path in loaded])
        # Cold, the stage made entries and wrote its own cache file over the other.
        assert _records_match_files(data) != warm

    def test_failed_stage_writes_the_entries_it_made(self, dataset_dir, tmp_path, capsys):
        data = _fresh_copy(dataset_dir, tmp_path)
        scenes = uio.load_manifest(data / "manifest.json")["scenes"]
        bad = data / scenes[2]["observed_map"]
        bad.write_bytes(bad.read_bytes()[:-40])
        assert main(["eval-map", "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err.startswith(f"data error: scene {scenes[2]['id']} ")
        loaded = [data / scene[key] for scene in scenes[:2] for key in ("gt_map", "observed_map")]
        assert all(_stored(path, data) for path in loaded + [data / scenes[2]["gt_map"]])
        assert not _stored(bad, data)


def _strip_scales(dataset_dir, tmp_path) -> Path:
    """A copy of the dataset whose scene 0 observed map is a mean map."""
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    manifest = json.loads((data / "manifest.json").read_text())
    target = data / manifest["scenes"][0]["observed_map"]
    m = json.loads(target.read_text())
    assert m["elements"]
    for el in m["elements"]:
        for v in el["vertices"]:
            del v["b"], v["class_logits"]
    target.write_text(json.dumps(m))
    assert all(el.b is None for el in uio.load_map(target).elements)
    return data / "manifest.json"


class TestCliMeanObservedMap:
    @pytest.mark.parametrize("command", ["analyze-uncertainty", "calibrate",
                                         "compare-predictors"])
    def test_stage_reading_scales_exits_3(self, command, dataset_dir, tmp_path, capsys):
        manifest = _strip_scales(dataset_dir, tmp_path)
        scene_id = json.loads(manifest.read_text())["scenes"][0]["id"]
        assert main([command, "--manifest", str(manifest),
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: scene {scene_id}: observed map carries no scales\n"

    @pytest.mark.parametrize("command", ["analyze-uncertainty", "calibrate",
                                         "compare-predictors"])
    def test_stage_reading_scales_accepts_an_empty_map(self, command, dataset_dir,
                                                       tmp_path):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        target = data / manifest["scenes"][0]["observed_map"]
        m = json.loads(target.read_text())
        m["elements"] = []
        target.write_text(json.dumps(m))
        assert main([command, "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 0

    @pytest.mark.parametrize("command", ["eval-map", "eval-pred"])
    def test_stage_ignoring_scales_accepts_it(self, command, dataset_dir, tmp_path):
        manifest = _strip_scales(dataset_dir, tmp_path)
        assert main([command, "--manifest", str(manifest),
                     "--out", str(tmp_path / "r")]) == 0


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["uncmap", "uncmap.cli"])
    def test_version_and_data_error(self, module, tmp_path):
        src = str(Path(uio.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        run = [sys.executable, "-m", module]
        done = subprocess.run(run + ["--version"], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and done.stdout.startswith("uncmap ")
        done = subprocess.run(run + ["eval-map", "--manifest", str(tmp_path / "none.json")],
                              env=env, cwd=tmp_path, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 3 and done.stderr.startswith("data error:")


# (command, flag, value, the stderr message of the exit-2 line), pinned byte for byte.
INVALID_VALUES = [
    ("eval-map", "--resample-count", "1", "must be >= 2, got 1"),
    ("eval-map", "--resample-count", "1180591620717411303424",
     "must be <= 10000, got 1180591620717411303424"),
    ("eval-map", "--resample-count", "2.5", "expected an integer, got '2.5'"),
    ("calibrate", "--resample-count", "10001", "must be <= 10000, got 10001"),
    ("calibrate", "--bins", "0", "must be >= 1, got 0"),
    ("calibrate", "--bins", "1000000000000", "must be <= 10000, got 1000000000000"),
    ("calibrate", "--bins", "x", "expected an integer, got 'x'"),
    ("calibrate", "--levels", "1.5",
     "must be finite and strictly between 0 and 1, got '1.5'"),
    ("calibrate", "--levels", "", "must be finite and strictly between 0 and 1, got ''"),
    ("calibrate", "--match-threshold", "0", "must be a finite number > 0, got '0'"),
    ("calibrate", "--match-threshold", "nan", "must be a finite number > 0, got 'nan'"),
    ("compare-predictors", "--modes", "0", "must be >= 1, got 0"),
    ("analyze-uncertainty", "--bin-edges", "10,5,0",
     "must be finite and strictly increasing with at least 2 entries, got '10,5,0'"),
    ("eval-pred", "--miss-threshold", "nan", "must be a finite number > 0, got 'nan'"),
    ("compare-predictors", "--miss-threshold", "0", "must be a finite number > 0, got '0'"),
    ("compare-predictors", "--lam", "-5", "must be a finite number >= 0, got '-5'"),
    ("compare-predictors", "--lam", "x", "expected a number, got 'x'"),
    ("compare-predictors", "--b0", "0", "must be a finite number > 0, got '0'"),
    # json writes infinity as the invalid token Infinity.
    ("analyze-uncertainty", "--bin-edges", "0,inf",
     "must be finite and strictly increasing with at least 2 entries, got '0,inf'"),
    ("analyze-uncertainty", "--bin-edges", "-inf,0",
     "must be finite and strictly increasing with at least 2 entries, got '-inf,0'"),
    ("eval-map", "--ap-thresholds", "0.5,inf",
     "must be finite and positive and strictly increasing, got '0.5,inf'"),
]


class TestCliInvalidValues:
    @pytest.mark.parametrize("command, flag, value, message", INVALID_VALUES,
                             ids=["-".join(row[:3]) for row in INVALID_VALUES])
    def test_exits_2_with_one_line(self, command, flag, value, message, dataset_dir, tmp_path,
                                   capsys):
        # flag=value, so argparse does not read "-inf,0" as another option.
        rc = main([command, "--manifest", str(dataset_dir / "manifest.json"),
                   "--out", str(tmp_path / "r"), f"{flag}={value}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"uncmap {command}: error: argument {flag}: {message}\n"
        assert not (tmp_path / "r").exists()


class TestStageBlocks:
    """The report stages make one dataset-level pass per block of scenes."""

    def test_no_per_scene_calls(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, n_scenes=20)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        calls = {}

        def spy(module, name):
            original = getattr(module, name)

            def record(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, record)
        for module, name in [(synth, "predict_scenes"),
                             (calibration, "match_vertex_pairs"), (pred_eval, "min_ade"),
                             (pred_eval, "min_fde"), (pred_eval, "miss")]:
            spy(module, name)
        for stage in ("compare-predictors", "calibrate", "eval-pred"):
            assert main([stage, "--manifest", str(tmp_path / "d" / "manifest.json"),
                         "--out", str(tmp_path / "r")]) == 0
        assert 0 < calls["predict_scenes"] <= 2 * math.ceil(20 / synth.SCENE_BLOCK)
        assert not {"match_vertex_pairs", "min_ade", "min_fde", "miss"} & calls.keys()


# 40 scenes: the default block size splits them 16 + 16 + 8.
SEAM_CONFIG = dict(GOLDEN_CONFIG, n_scenes=40, seed=4)
REPORT_STAGES = ("eval-map", "eval-pred", "calibrate", "analyze-uncertainty",
                 "compare-predictors")


def _all_outputs(root: Path) -> dict[str, str]:
    """sha256 of every file that ``generate`` on SEAM_CONFIG, the five report
    stages and the Hungarian ``eval-map`` write under ``root``."""
    (root / "config.json").write_text(json.dumps(SEAM_CONFIG))
    assert main(["generate", "--config", str(root / "config.json"),
                 "--out", str(root / "d")]) == 0
    manifest = str(root / "d" / "manifest.json")
    for stage in REPORT_STAGES:
        assert main([stage, "--manifest", manifest, "--out", str(root / "r")]) == 0
    assert main(["eval-map", "--matching", "hungarian", "--manifest", manifest,
                 "--out", str(root / "h")]) == 0
    return _tree_digest(root)


@pytest.fixture(scope="module")
def seam_outputs(tmp_path_factory):
    return _all_outputs(tmp_path_factory.mktemp("seams"))


class TestBlockSeams:
    """No output depends on where the blocks of scenes split the dataset."""

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_outputs_byte_identical(self, block, seam_outputs, tmp_path, monkeypatch):
        # Beside the dataset, reports and Hungarian report: the cache file at
        # the dataset root, written by the first stage to read the maps,
        # byte-identical across block sizes too.
        assert [name for name in seam_outputs if uio.CACHE_FILE in name] == [
            f"d/{uio.CACHE_FILE}"]
        assert len(seam_outputs) == 1 + 3 * 40 + 1 + 11 + 2 + 1
        monkeypatch.setattr(synth, "SCENE_BLOCK", block)
        assert _all_outputs(tmp_path) == seam_outputs


class TestWorkingSet:
    """Each stage holds one block of scenes at a time."""

    def test_generate_writes_each_block_before_building_the_next(self, tmp_path,
                                                                 monkeypatch):
        events = []
        for module, name in [(synth, "_scene_block"), (uio, "save_map")]:
            def spy(*args, _name=name, _original=getattr(module, name)):
                events.append(_name)
                return _original(*args)
            monkeypatch.setattr(module, name, spy)
        cfg = write_config(tmp_path, n_scenes=40)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        sizes = [16, 16, 8]
        assert synth.SCENE_BLOCK == sizes[0]
        assert events == [e for n in sizes for e in ["_scene_block"] + ["save_map"] * 2 * n]

    @pytest.mark.parametrize("command", ["eval-map", "calibrate", "analyze-uncertainty",
                                         "compare-predictors"])
    def test_report_stage_holds_one_block_of_maps(self, command, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, n_scenes=40)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        alive, counts = weakref.WeakSet(), []

        def spy(path, _load=uio.load_map, **kwargs):
            loaded = _load(path, **kwargs)
            alive.add(loaded)
            counts.append(len(alive))
            return loaded
        monkeypatch.setattr(uio, "load_map", spy)
        assert main([command, "--manifest", str(tmp_path / "d" / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 0
        assert len(counts) == 40 * sum(key != "trajectories" for key in STAGE_READS[command])
        assert max(counts) <= 2 * synth.SCENE_BLOCK


class TestFailedGenerate:
    """A ``generate`` that fails writes no manifest."""

    def test_overflow_exits_2_without_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_scenes=20, noise={"base_b": 1e308})
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot build the dataset: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "d" / "manifest.json").exists()

    def test_later_block_keeps_earlier_files(self, tmp_path, monkeypatch, capsys):
        calls = []

        def observe_block(*args, _original=synth._observe_block):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("overflow in the second block")
            return _original(*args)
        monkeypatch.setattr(synth, "_observe_block", observe_block)
        cfg = write_config(tmp_path, n_scenes=20)
        out = tmp_path / "d"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: cannot build the dataset: "
                                           "overflow in the second block\n")
        files = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert files == sorted(f"{part}scene_{i:04d}{suffix}" for i in range(synth.SCENE_BLOCK)
                               for part, suffix in [("maps/", "_gt.json"),
                                                    ("maps/", "_obs.json"),
                                                    ("traj/", ".json")])


# The dataset config of the README, at seed 7.
README_CONFIG = {"n_scenes": 100, "seed": 7, "n_agents": 2,
                 "noise": {"base_b": 0.15, "distance_coeff": 0.01, "occlusion_multiplier": 6.0}}


class TestModesPastEveryMap:
    """No README map has more than 5 centerlines, so every ``modes`` from 6
    up, however large, gives the same predictions."""

    @pytest.fixture(scope="class")
    def readme_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("readme")
        (root / "config.json").write_text(json.dumps(README_CONFIG))
        assert main(["generate", "--config", str(root / "config.json"),
                     "--out", str(root / "d")]) == 0
        manifest = uio.load_manifest(root / "d" / "manifest.json")
        assert max(len(observed.by_class(ElementClass.LANE_CENTERLINE)) for _, observed
                   in uio.iter_scene_files(manifest, "observed_map")) <= 5
        return root / "d"

    def test_compare_predictors(self, readme_dir, tmp_path):
        for modes in ("6", str(10**30)):
            assert main(["compare-predictors", "--manifest", str(readme_dir / "manifest.json"),
                         "--out", str(tmp_path / modes), "--modes", modes]) == 0
        assert ((tmp_path / "6" / "compare_predictors.csv").read_bytes()
                == (tmp_path / str(10**30) / "compare_predictors.csv").read_bytes())

    def test_generate(self, readme_dir, tmp_path):
        (tmp_path / "config.json").write_text(json.dumps(dict(README_CONFIG, modes=10**30)))
        assert main(["generate", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "d")]) == 0
        files = sorted(p.relative_to(readme_dir) for p in readme_dir.rglob("*.json")
                       if p.name != "manifest.json")
        assert len(files) == 300
        assert sorted(p.relative_to(tmp_path / "d") for p in (tmp_path / "d").rglob("*.json")
                      if p.name != "manifest.json") == files
        for name in files:
            assert (tmp_path / "d" / name).read_bytes() == (readme_dir / name).read_bytes()


class TestCliCalibrate:
    def test_ground_truth_too_short_to_pair_exits_3(self, dataset_dir, tmp_path, capsys):
        # A 1e-8 m divider passes the load check (two vertices MERGE_EPS
        # apart) but resamples to fewer points than the 20-vertex prediction
        # matched to it, so its points cannot be paired by index.
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        scene = json.loads((data / "manifest.json").read_text())["scenes"][0]
        gt = json.loads((data / scene["gt_map"]).read_text())
        gt["elements"].append({"class": "lane_divider", "confidence": 1.0, "closed": False,
                               "vertices": [{"mu": [20.0, 20.0]}, {"mu": [20.0, 20.0 + 1e-8]}]})
        (data / scene["gt_map"]).write_text(json.dumps(gt))
        observed = json.loads((data / scene["observed_map"]).read_text())
        observed["elements"].append({
            "class": "lane_divider", "confidence": 1.0, "closed": False,
            "vertices": [{"mu": [20.1, 20.0 + 0.01 * k], "b": [0.2, 0.2],
                          "class_logits": [0.0, 3.0, 0.0, 0.0]} for k in range(20)]})
        (data / scene["observed_map"]).write_text(json.dumps(observed))
        manifest = str(data / "manifest.json")
        assert main(["eval-map", "--manifest", manifest, "--out", str(tmp_path / "r")]) == 0
        capsys.readouterr()
        assert main(["calibrate", "--manifest", manifest, "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: scene {scene['id']}: a matched lane_divider "
                              "ground truth is too short")
        assert err.count("\n") == 1

    def test_well_calibrated_dataset(self, tmp_path):
        cfg = write_config(tmp_path, n_scenes=30,
                           noise={"base_b": 0.2, "distance_coeff": 0.005,
                                  "occlusion_multiplier": 2.0})
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")])
        rc = main(["calibrate", "--manifest", str(tmp_path / "d" / "manifest.json"),
                   "--out", str(tmp_path / "r"), "--levels", "0.5,0.9"])
        assert rc == 0
        rep = json.loads((tmp_path / "r" / "calibration.json").read_text())
        cov = rep["coverage"]["empirical_coverage"]
        assert cov[0] == pytest.approx(0.5, abs=0.03)
        assert cov[1] == pytest.approx(0.9, abs=0.03)

    def test_shrunken_scales_undercover(self, tmp_path):
        cfg = write_config(tmp_path, n_scenes=20,
                           noise={"base_b": 0.2, "distance_coeff": 0.005,
                                  "miscalibration": 0.5})
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")])
        main(["calibrate", "--manifest", str(tmp_path / "d" / "manifest.json"),
              "--out", str(tmp_path / "r"), "--levels", "0.9"])
        rep = json.loads((tmp_path / "r" / "calibration.json").read_text())
        assert rep["coverage"]["empirical_coverage"][0] < 0.85

    def test_one_hot_classes_zero_ece(self, tmp_path):
        cfg = write_config(tmp_path, noise={"base_b": 0.1, "class_mode": "one_hot"})
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")])
        main(["calibrate", "--manifest", str(tmp_path / "d" / "manifest.json"),
              "--out", str(tmp_path / "r")])
        rep = json.loads((tmp_path / "r" / "calibration.json").read_text())
        assert rep["reliability"]["ece"] == pytest.approx(0.0, abs=1e-6)


class TestCliAnalyze:
    def test_distance_bins_monotone(self, tmp_path):
        cfg = write_config(tmp_path, n_scenes=12, max_occluders=0,
                           noise={"base_b": 0.05, "distance_coeff": 0.02,
                                  "occlusion_multiplier": 1.0,
                                  "condition_multipliers": {}})
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")])
        rc = main(["analyze-uncertainty",
                   "--manifest", str(tmp_path / "d" / "manifest.json"),
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        rep = json.loads((tmp_path / "r" / "uncertainty_bins.json").read_text())
        means = [v for v in rep["groups"]["all"]["mean_b"] if v is not None]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_flat_when_no_distance_term(self, tmp_path):
        cfg = write_config(tmp_path, n_scenes=12, max_occluders=0,
                           noise={"base_b": 0.3, "distance_coeff": 0.0,
                                  "occlusion_multiplier": 1.0,
                                  "condition_multipliers": {}})
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")])
        main(["analyze-uncertainty",
              "--manifest", str(tmp_path / "d" / "manifest.json"),
              "--out", str(tmp_path / "r")])
        rep = json.loads((tmp_path / "r" / "uncertainty_bins.json").read_text())
        g = rep["groups"]["all"]
        for mean, hw in zip(g["mean_b"], g["ci95_half_width"]):
            if mean is not None:
                assert abs(mean - 0.3) <= max(hw, 1e-9)

    def test_night_to_day_crossing_ratio(self, tmp_path):
        noise = {"base_b": 0.2, "distance_coeff": 0.005, "occlusion_multiplier": 1.0}
        for name, cond in (("day", {"day": 1.0}), ("night", {"night": 1.0})):
            cfg = write_config(tmp_path, n_scenes=15, max_occluders=0,
                               condition_weights=cond, noise=noise,
                               layout_weights={"straight_road": 1.0})
            cfg = cfg.rename(tmp_path / f"cfg_{name}.json")
            main(["generate", "--config", str(cfg),
                  "--out", str(tmp_path / f"d_{name}")])
            main(["analyze-uncertainty",
                  "--manifest", str(tmp_path / f"d_{name}" / "manifest.json"),
                  "--out", str(tmp_path / f"r_{name}")])
        day = json.loads((tmp_path / "r_day" / "uncertainty_bins.json").read_text())
        night = json.loads(
            (tmp_path / "r_night" / "uncertainty_bins.json").read_text())

        def overall(group):
            total = n = 0.0
            for mean, count in zip(group["mean_b"], group["count"]):
                if mean is not None:
                    total += mean * count
                    n += count
            return total / n

        # scales double exactly per vertex; binning by the noisy locations
        # only reshuffles bin membership, so compare count-weighted means
        ratio = overall(night["groups"]["condition:night|class:ped_crossing"]) / \
            overall(day["groups"]["condition:day|class:ped_crossing"])
        assert ratio == pytest.approx(2.0, rel=0.02)


class TestCliCompare:
    def test_floor_dataset_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path, noise={"base_b": B_FLOOR, "distance_coeff": 0.0,
                                            "occlusion_multiplier": 1.0,
                                            "condition_multipliers": {},
                                            "class_mode": "one_hot"})
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")])
        rc = main(["compare-predictors",
                   "--manifest", str(tmp_path / "d" / "manifest.json"),
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        rep = json.loads((tmp_path / "r" / "compare_predictors.json").read_text())
        assert rep["blind"] == rep["weighted"]

    def test_noisy_dataset_weighted_wins(self, tmp_path):
        cfg = write_config(tmp_path, n_scenes=60, seed=5,
                           noise={"base_b": 0.15, "distance_coeff": 0.01,
                                  "occlusion_multiplier": 6.0})
        main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")])
        main(["compare-predictors",
              "--manifest", str(tmp_path / "d" / "manifest.json"),
              "--out", str(tmp_path / "r")])
        rep = json.loads((tmp_path / "r" / "compare_predictors.json").read_text())
        assert rep["weighted"]["minFDE"] <= rep["blind"]["minFDE"]
        assert rep["weighted"]["MR"] <= rep["blind"]["MR"]
        assert "delta_pct" in rep
        csv_text = (tmp_path / "r" / "compare_predictors.csv").read_text()
        assert "%" in csv_text

    @pytest.mark.parametrize("modes", [0, False, {}, "", None])
    def test_modes_that_are_not_a_list_exit_3(self, modes, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        path = data / manifest["scenes"][1]["trajectories"]
        traj = json.loads(path.read_text())
        traj["agents"][1]["modes"] = modes
        path.write_text(json.dumps(traj))
        assert main(["compare-predictors", "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err == (
            f"data error: scene {manifest['scenes'][1]['id']} trajectories: "
            f"agent 1 modes must be a list, got {modes!r}\n")


# Per report stage: its JSON report and a valid non-default value of every
# flag it parses besides --manifest and --out.
STAGE_FLAGS = {
    "eval-map": ("eval_map.json", [("--ap-thresholds", "0.5,1.0"), ("--resample-count", "12"),
                                   ("--matching", "hungarian")]),
    "eval-pred": ("eval_pred.json", [("--miss-threshold", "1.5")]),
    "calibrate": ("calibration.json", [("--levels", "0.5,0.8"), ("--bins", "5"),
                                       ("--match-threshold", "2.0"),
                                       ("--resample-count", "12")]),
    "analyze-uncertainty": ("uncertainty_bins.json", [("--bin-edges", "0,10,20,40")]),
    "compare-predictors": ("compare_predictors.json",
                           [("--modes", "3"), ("--lam", "0.5"), ("--b0", "1.0"),
                            ("--miss-threshold", "1.5")]),
}


class TestReportConfigHash:
    """Each report's config hash covers the command and every flag its stage
    parsed, and nothing else."""

    @pytest.fixture(scope="class")
    def hashes(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("hash")
        data = root / "d"
        assert main(["generate", "--config", str(write_config(root, n_scenes=2)),
                     "--out", str(data)]) == 0
        manifest = str(data / "manifest.json")
        runs = {}
        for command, (report, flags) in STAGE_FLAGS.items():
            # The defaults write under the manifest's reports/, the others under --out.
            for name, args, out in ([("defaults", [], data / "reports"),
                                     ("--out", ["--out", str(root / "other")], root / "other")]
                                    + [(flag, ["--out", str(root / "r"), flag, value],
                                        root / "r") for flag, value in flags]):
                assert main([command, "--manifest", manifest, *args]) == 0
                runs[command, name] = json.loads(
                    (out / report).read_text())["reproducibility"]["config_hash"]
        return runs

    def test_flags_listed_are_the_parsed_flags(self):
        parser = build_parser()
        for command, (_, flags) in STAGE_FLAGS.items():
            defaults = vars(parser.parse_args([command, "--manifest", "m.json"]))
            moved = set()
            for flag, value in flags:
                parsed = vars(parser.parse_args([command, "--manifest", "m.json", flag, value]))
                moved |= {key for key in parsed if parsed[key] != defaults[key]}
            assert len(moved) == len(flags)
            assert moved == set(defaults) - {"manifest", "out", "func", "command"}

    def test_every_flag_moves_the_hash(self, hashes):
        distinct = {key: h for key, h in hashes.items() if key[1] != "--out"}
        assert len(distinct) == 5 + 13
        assert len(set(distinct.values())) == len(distinct)

    def test_out_does_not_move_the_hash(self, hashes):
        for command in STAGE_FLAGS:
            assert hashes[command, "--out"] == hashes[command, "defaults"]


class TestPipelineDeterminism:
    def test_full_pipeline_reports_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, n_scenes=6)
        digests = []
        for run in ("run1", "run2"):
            base = tmp_path / run
            main(["generate", "--config", str(cfg), "--out", str(base / "d")])
            man = str(base / "d" / "manifest.json")
            main(["eval-map", "--manifest", man, "--out", str(base / "r")])
            main(["eval-pred", "--manifest", man, "--out", str(base / "r")])
            main(["calibrate", "--manifest", man, "--out", str(base / "r")])
            main(["analyze-uncertainty", "--manifest", man, "--out", str(base / "r")])
            main(["compare-predictors", "--manifest", man, "--out", str(base / "r")])
            digests.append(_tree_digest(base))
        assert digests[0] == digests[1]


@pytest.fixture(scope="module")
def probe_dir(tmp_path_factory):
    """A three-scene dataset for the contract probe."""
    root = tmp_path_factory.mktemp("probe")
    cfg = write_config(root, n_scenes=3)
    assert main(["generate", "--config", str(cfg), "--out", str(root / "data")]) == 0
    return root / "data"


def _json_leaves(obj, path=()):
    """(path, value) of every non-container value in a JSON tree, and of
    every empty container."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else None
    if not items:
        return [(path, obj)]
    return [leaf for key, value in items for leaf in _json_leaves(value, path + (key,))]


# Replacement values: wrong types, non-finite and extreme numbers, huge
# integers and empty containers. Each draw is a copy, so a later mutation of
# a tree never changes the list or dict that the strategy holds.
_LEAF_VALUES = st.sampled_from([None, True, 0, -1, 2**70, 0.0, -3.5, 1e-300, 1e308,
                                float("nan"), float("inf"), "", "x", [], {}, [0.0, 0.0]]
                               ).map(copy.deepcopy)


class TestContractProbe:
    """Every report stage on a dataset with one or two JSON leaves replaced
    or deleted ends with exit 0 or 3, and never with a traceback."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mutated_dataset_exits_0_or_3(self, data, probe_dir, tmp_path_factory):
        root = tmp_path_factory.mktemp("mutated")
        shutil.copytree(probe_dir, root / "data")
        manifest = root / "data" / "manifest.json"
        files = sorted(str(p.relative_to(root / "data"))
                       for p in (root / "data").rglob("*.json"))
        for _ in range(data.draw(st.integers(1, 2))):
            target = root / "data" / data.draw(st.sampled_from(files))
            tree = json.loads(target.read_text())
            path, _ = data.draw(st.sampled_from(_json_leaves(tree)))
            if not path:
                continue
            parent = tree
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_LEAF_VALUES)
            target.write_text(json.dumps(tree))
        for command in STAGE_READS:
            err = StringIO()
            with redirect_stderr(err):
                rc = main([command, "--manifest", str(manifest),
                           "--out", str(root / "r")])
            assert rc in (0, 3), (command, rc, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if rc == 3:
                assert err.getvalue().splitlines()[-1].startswith("data error:")

    def test_future_of_other_length_than_predictions_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_scenes=2, predictor="none")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        manifest = tmp_path / "d" / "manifest.json"
        target = tmp_path / "d" / json.loads(manifest.read_text())["scenes"][0]["trajectories"]
        traj = json.loads(target.read_text())
        traj["agents"][0]["future_gt"].pop()
        target.write_text(json.dumps(traj))
        assert main(["compare-predictors", "--manifest", str(manifest),
                     "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err.startswith(
            "data error: scene scene_0000 agent 0: modes must be (K, T, 2) matching gt")

    @pytest.mark.parametrize("window", [[60.0], "12", [float("nan"), -5], [60, 0],
                                        ["60", 30], [True, 30]],
                             ids=["short", "string", "nan_negative", "zero", "string_item",
                                  "bool_item"])
    def test_short_perception_range_is_a_data_error(self, window):
        data = uio.map_to_dict(small_prob_map())
        data["perception_range"] = window
        with pytest.raises(uio.DataError, match="perception_range must hold 2 numbers"):
            uio.map_from_dict(data)

    # A leaf of the wrong type is refused, not coerced: bool("false") would
    # make a closed loop and float("0.9") a confidence.
    @pytest.mark.parametrize("key, value, names", [
        ("closed", "false", "closed"), ("closed", 0.5, "closed"),
        ("confidence", "0.9", "confidence"), ("confidence", True, "confidence"),
        ("position", [True, False], "Pose2.x")])
    def test_type_confused_map_leaf_exits_3(self, key, value, names, dataset_dir, tmp_path,
                                            capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        scene = json.loads((data / "manifest.json").read_text())["scenes"][0]
        target = data / scene["gt_map"]
        m = json.loads(target.read_text())
        (m["ego_pose"] if key == "position" else m["elements"][0])[key] = value
        with pytest.raises(uio.DataError, match=names):
            uio.map_from_dict(m)
        target.write_text(json.dumps(m))
        assert main(["eval-map", "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: scene {scene['id']} gt_map: malformed map file:")
        assert err.count("\n") == 1
        assert names in err

    @pytest.mark.parametrize("where", ["perception_range", "mu"])
    def test_integer_past_float_range_is_a_data_error(self, where):
        # json reads a 400-digit integer exactly; float() of it overflows.
        data = uio.map_to_dict(small_prob_map())
        if where == "perception_range":
            data["perception_range"] = [10**400, 30]
        else:
            data["elements"][0]["vertices"][0]["mu"][0] = 10**400
        with pytest.raises(uio.DataError, match="malformed map file"):
            uio.map_from_dict(data)

    @pytest.mark.parametrize("command, key", [("eval-map", "gt_map"),
                                              ("compare-predictors", "observed_map")])
    def test_overflowing_coordinate_exits_3(self, command, key, dataset_dir, tmp_path,
                                            capsys):
        # Finite, but a polyline walk over it overflows to infinity.
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        scene = manifest["scenes"][0]
        target = data / scene[key]
        m = json.loads(target.read_text())
        el = next(e for e in m["elements"] if e["class"] == "lane_centerline")
        el["vertices"][0]["mu"][1], el["vertices"][1]["mu"][1] = -1e308, 1e308
        target.write_text(json.dumps(m))
        # A numpy overflow warning would print lines before the error line.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--manifest", str(data / "manifest.json"),
                         "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1


# A config that sets every key, with integer-valued floats and a "*" multiplier.
FULL_CONFIG = {
    "n_scenes": 2, "seed": 11,
    "layout_weights": {"straight_road": 0.5, "intersection": 0.5, "parking_lot": 0},
    "condition_weights": {"day": 0.5, "night": 0.25, "rain": 0.25},
    "n_agents": 2, "max_occluders": 3, "occluder_radius": [1, 2.5], "lane_change_prob": 0.5,
    "duplicate_centerlines": True,
    "noise": {"base_b": 0.15, "distance_coeff": 0.01, "occlusion_multiplier": 2,
              "condition_multipliers": {"night": {"*": 2, "lane_centerline": 3.0}},
              "miscalibration": 1, "class_mode": "calibrated"},
    "resample_count": 15, "modes": 4, "predictor": "weighted", "lam": 2, "b0": 1,
}
_NAN, _INF = float("nan"), float("inf")


def _set(tree: dict, path: tuple, value) -> dict:
    """A deep copy of ``tree`` with the value at ``path`` replaced."""
    tree = json.loads(json.dumps(tree))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return tree


class TestConfigContract:
    """A malformed dataset config ends ``generate`` with exit 2 and one line
    that names the key, and ``parse_dataset_config`` raises nothing but
    :class:`ConfigError`."""

    @pytest.mark.parametrize("path, value, needle", [
        # The wrong JSON type for every top-level key.
        (("n_scenes",), "3", "n_scenes"),
        (("seed",), [1], "seed"),
        (("layout_weights",), [], "layout_weights"),
        (("condition_weights",), 1.0, "condition_weights"),
        (("n_agents",), None, "n_agents"),
        (("max_occluders",), {}, "max_occluders"),
        (("occluder_radius",), "x", "occluder_radius"),
        (("occluder_radius",), 3.0, "occluder_radius"),
        (("lane_change_prob",), "0.5", "lane_change_prob"),
        (("duplicate_centerlines",), "no", "duplicate_centerlines"),
        (("duplicate_centerlines",), 1, "duplicate_centerlines"),
        (("noise",), [], "noise"),
        (("noise",), "x", "noise"),
        (("resample_count",), "20", "resample_count"),
        (("modes",), [6], "modes"),
        (("predictor",), 1, "predictor"),
        (("lam",), "1", "lam"),
        (("b0",), None, "b0"),
        # The wrong JSON type for every noise key.
        (("noise", "base_b"), "0.2", "base_b"),
        (("noise", "distance_coeff"), None, "distance_coeff"),
        (("noise", "occlusion_multiplier"), True, "occlusion_multiplier"),
        (("noise", "condition_multipliers"), [], "condition_multipliers"),
        (("noise", "condition_multipliers"), {"rain": 1.5}, "condition_multipliers"),
        (("noise", "condition_multipliers", "night", "*"), "2", "condition_multipliers"),
        (("noise", "miscalibration"), [1.0], "miscalibration"),
        (("noise", "class_mode"), 0, "class_mode"),
        # NaN or infinity in each float.
        (("layout_weights", "parking_lot"), _NAN, "layout_weights"),
        (("condition_weights", "day"), _INF, "condition_weights"),
        (("occluder_radius",), [1.0, _INF], "occluder_radius"),
        (("lane_change_prob",), _NAN, "lane_change_prob"),
        (("noise", "base_b"), _NAN, "base_b"),
        (("noise", "distance_coeff"), _INF, "distance_coeff"),
        (("noise", "occlusion_multiplier"), _INF, "occlusion_multiplier"),
        (("noise", "condition_multipliers", "night", "*"), _NAN, "condition_multipliers"),
        (("noise", "miscalibration"), _INF, "miscalibration"),
        (("lam",), _INF, "lam"),
        (("b0",), _NAN, "b0"),
        # Floats or bools where integers belong, and negative counts.
        (("n_scenes",), True, "n_scenes"),
        (("seed",), 3.0, "seed"),
        (("n_agents",), False, "n_agents"),
        (("max_occluders",), 1.5, "max_occluders"),
        (("resample_count",), 20.5, "resample_count"),
        (("modes",), 2.0, "modes"),
        (("n_scenes",), -1, "n_scenes"),
        (("seed",), -1, "seed"),
        (("n_agents",), 0, "n_agents"),
        (("max_occluders",), -1, "max_occluders"),
        (("resample_count",), 1, "resample_count"),
        (("modes",), 0, "modes"),
        # Out of range, unknown or misplaced.
        (("lane_change_prob",), 1.5, "lane_change_prob"),
        (("layout_weights", "moon_base"), 0.0, "moon_base"),
        (("occluder_radius",), [2.5, 1.0], "occluder_radius"),
        (("noise", "base_B"), 0.5, "base_B"),
        (("noise", "occlusion_multplier"), 6.0, "occlusion_multplier"),
        (("noise", "condition_multipliers", "fog"), {"*": 2.0}, "fog"),
        # Finite, but the scales it gives overflow.
        (("noise", "base_b"), 1e308, "cannot build the dataset"),
        # Past the largest resample count.
        (("resample_count",), 10_001, "resample_count"),
        (("resample_count",), 2**70, "resample_count"),
    ], ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
    def test_malformed_config_exits_2(self, path, value, needle, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_set(FULL_CONFIG, path, value)))
        # A numpy overflow warning would print lines before the error line.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["generate", "--config", str(config),
                         "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert needle in err, err

    def test_full_config_generates(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(FULL_CONFIG))
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "d")]) == 0

    # sha256 of the manifest.json that generate writes, recorded while io
    # translated the config to tuple-keyed records and back. The second config
    # puts "*" after a named class, adds a second condition and reorders the
    # layouts; the manifest keeps each key where the config first put it.
    @pytest.mark.parametrize("changes, digest", [
        ({}, "fc29d3f02600d788c61298d9cfcb4263323d3d66d688c7b3b91fbe15cb91f299"),
        ({("noise", "condition_multipliers"): {"night": {"lane_centerline": 3.0, "*": 2},
                                                "rain": {"ped_crossing": 1.5}},
          ("layout_weights",): {"parking_lot": 0.2, "straight_road": 0.8}},
         "828679441b14c1f18b8fba10b384102d27c02bc6aa03c8c68450ce97d9c017ac"),
    ], ids=["full", "reordered"])
    def test_manifest_pinned(self, changes, digest, tmp_path):
        tree = FULL_CONFIG
        for path, value in changes.items():
            tree = _set(tree, path, value)
        (tmp_path / "config.json").write_text(json.dumps(tree))
        assert main(["generate", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "d")]) == 0
        assert hashlib.sha256((tmp_path / "d" / "manifest.json").read_bytes()).hexdigest() \
            == digest

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_config_parses_or_raises_config_error(self, data):
        tree = json.loads(json.dumps(FULL_CONFIG))
        for _ in range(data.draw(st.integers(1, 2))):
            path, _ = data.draw(st.sampled_from(_json_leaves(tree)))
            if data.draw(st.booleans()):
                parent = tree
                for key in path[:-1]:
                    parent = parent[key]
                del parent[path[-1]]
            else:
                tree = _set(tree, path, data.draw(_LEAF_VALUES))
        try:
            cfg = uio.parse_dataset_config(tree)
        except uio.ConfigError:
            return
        assert isinstance(cfg, DatasetConfig)
