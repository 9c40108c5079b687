"""File formats: maps, trajectories, run manifests, configs, and reports.

Everything is plain JSON, human-diffable, with floats serialized by
Python's shortest round-trip repr (values reload bit-exactly). A map file
either carries a scale ``b`` on every vertex (probabilistic map) or on
none (mean map); mixing is a data error. ``io`` only maps a map file onto
the columns of a :class:`~uncmap.probmap.VectorMap` and each agent of a
trajectory file onto an :class:`~uncmap.synth.AgentTrack` (an empty
``modes`` list means none, and any ``modes`` value other than a list is a
data error); each record checks itself, and one it refuses is a data
error. A trajectory file's ``rate_hz`` must be the int ``RATE_HZ``.

Every JSON file is byte-identical to ``json.dumps(obj, indent=2)`` plus a
final newline. Reports and manifests are written by ``json.dumps`` itself.
Scene files are written one way, by ``orjson.dumps`` with ``OPT_INDENT_2``:
the records they come from hold only finite Python floats (a map, its pose
and an agent track check and convert their values), and orjson writes such
a float as repr does, many times faster, when it is 0 or has a magnitude in
[1e-4, 1e16). Outside that range its float text differs (``0.00005`` for
``5e-05``, ``1e16`` for ``1e+16``), and those tokens are rewritten in
repr's text. ``save_map`` and ``save_trajectories`` pass the arrays that
hold the record's floats, and one numpy pass over them tells whether any
token needs it; a NaN or an infinity there is a ``ValueError``.

Scene files (maps and trajectories) are read with ``orjson.loads``, which
decodes them in about half the time ``json.loads`` takes, to the same
value with every float bit for bit. Where orjson refuses the bytes
(``NaN`` or ``Infinity``, a number that overflows, a lone surrogate
escape, invalid UTF-8, a byte-order mark, a truncated file) they are
decoded by ``json.loads`` as UTF-8 text with universal newlines, as
``Path.read_text`` gives it, so the value or the error message is json's.
The one file json refuses and orjson reads is one nested past Python's
recursion limit. Manifests and dataset configs stay on ``json``: they
carry user seeds, and orjson reads an integer outside the 64-bit range as
a float, which would change the ``master_seed`` a report records.

The report stages load the same map files again and again, and a map's
per-vertex JSON is slow to decode, so a stage decodes each map file's bytes
once (a trajectory file decodes on every load: an entry saves it too
little). :func:`iter_scene_files` opens the cache file ``.uncmap-cache``
beside the manifest for :func:`load_map`, which without it decodes the
JSON and writes nothing. The file holds an entry per map file the manifest
names: its columns and a CRC-32, under the file's name and the sha256 of
its bytes and of what decodes them (the tool version, this module's code
and the class order). The map is built from an entry by the constructor
the JSON path uses, so every check runs and the values are the same bit
for bit. A stage that decoded a map writes the cache file anew when it
stops, unless it cannot (a read-only dataset, or a directory of that
name). Of two stages that run at once the last to write wins, and an entry
lost so costs one decode; two manifests in one directory share the file.

:func:`load_manifest` checks each scene entry's keys and types but not that
its files exist: a missing scene file is a data error of the load that
reads it, so a stage does not notice a file it does not read.

Reports are written from a stage's raw values by :func:`write_report`
(JSON, ending in a ``reproducibility`` block of config hash, tool version
and seeds) and :func:`write_csv`, both by one rule, :func:`_plain`:
dataclasses, arrays and numpy scalars become plain data, and NaN is
``null`` in JSON and an empty field in CSV, where a float is its repr and
a bool is 1 or 0.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import math
import os
import re
import zlib
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import orjson

from . import __version__
from .geometry import ALL_CLASSES, CLASS_INDEX, NUM_CLASSES, ElementClass, Pose2
from .probmap import MapElement, VectorMap
from .synth import RATE_HZ, AgentTrack, DatasetConfig, NoiseModel

MAP_SCHEMA = "uncmap/1"
TRAJ_SCHEMA = "uncmap-traj/1"
MANIFEST_SCHEMA = "uncmap-manifest/1"
# The per-scene files a manifest references, by their manifest keys.
SCENE_FILES = ("gt_map", "observed_map", "trajectories")


class ConfigError(ValueError):
    """Invalid configuration or usage (CLI exit code 2)."""


class DataError(ValueError):
    """Missing, malformed, or inconsistent data files (CLI exit code 3)."""


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------

def map_to_dict(m: VectorMap) -> dict:
    mu = m.mu.tolist()
    if m.b is None:
        vertices = [{"mu": p} for p in mu]
    else:
        vertices = [{"mu": p, "b": b, "class_logits": logits}
                    for p, b, logits in zip(mu, m.b.tolist(), m.class_logits.tolist())]
    rows = m.offsets.tolist()
    return {
        "schema_version": MAP_SCHEMA,
        "ego_pose": {"position": [m.ego_pose.x, m.ego_pose.y],
                     "heading": m.ego_pose.heading},
        "perception_range": list(m.perception_range),
        "elements": [{"class": el.element_class.value, "confidence": el.confidence,
                      "closed": el.closed, "vertices": vertices[lo:hi]}
                     for el, lo, hi in zip(m.elements, rows, rows[1:])],
    }


def map_from_dict(data: dict) -> VectorMap:
    if data.get("schema_version") != MAP_SCHEMA:
        raise DataError(f"expected map schema {MAP_SCHEMA!r}, "
                        f"got {data.get('schema_version')!r}")
    try:
        ego = Pose2(data["ego_pose"]["position"][0], data["ego_pose"]["position"][1],
                    data["ego_pose"]["heading"])
        raw = data["elements"]
        labels = [MapElement(None, ElementClass(el["class"]), el["confidence"],
                             el.get("closed", False)) for el in raw]
        counts = [len(el["vertices"]) for el in raw]
        vertices = [v for el in raw for v in el["vertices"]]
        has_b = [("b" in v) for v in vertices]
        if has_b and any(has_b) != all(has_b):
            raise DataError("scale b must be present on all vertices or none")
        mu = np.array([v["mu"] for v in vertices], dtype=float) if vertices \
            else np.empty((0, 2))
        b = logits = None
        if has_b and has_b[0]:
            b = np.array([v["b"] for v in vertices], dtype=float)
            logits = np.array([v["class_logits"] for v in vertices], dtype=float)
        return VectorMap.from_columns(labels, np.cumsum([0] + counts), mu, b, logits, ego,
                                      data["perception_range"])
    except DataError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise DataError(f"malformed map file: {exc}") from exc


def save_map(m: VectorMap, path) -> None:
    pose = m.ego_pose
    write_json(path, map_to_dict(m), [m.mu, m.b, m.class_logits, [pose.x, pose.y, pose.heading],
                                      m.perception_range, [el.confidence for el in m.elements]])


def load_map(path, *, cache: _Cache | None = None) -> VectorMap:
    """The map in the file at ``path``. With ``cache``, where an entry of the
    file's bytes parses, the map is built from it; otherwise from the file's
    JSON, and its columns become the entry. Either way
    :meth:`VectorMap.from_columns` runs every check."""
    path = Path(path)
    raw = _read_bytes(path)
    if cache is None:
        return map_from_dict(_read_json(path, _scene_loads, raw))
    key = _cache_key(raw)
    with contextlib.suppress(KeyError, OSError, ValueError, TypeError, IndexError):
        return _map_from_columns(cache.get(path, key))  # unless it has no entry that parses
    m = map_from_dict(_read_json(path, _scene_loads, raw))
    cache.put(path, key, _map_columns(m))
    return m


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def trajectories_to_dict(agents: list[AgentTrack]) -> dict:
    return {"schema_version": TRAJ_SCHEMA, "rate_hz": RATE_HZ,
            "agents": [{"history": agent.history.tolist(), "future_gt": agent.future.tolist(),
                        "modes": agent.modes.tolist()} for agent in agents]}


def trajectories_from_dict(data: dict) -> list[AgentTrack]:
    if data.get("schema_version") != TRAJ_SCHEMA:
        raise DataError(f"expected trajectory schema {TRAJ_SCHEMA!r}, "
                        f"got {data.get('schema_version')!r}")
    try:
        agents = []
        for i, entry in enumerate(data["agents"]):
            try:
                if not isinstance(modes := entry["modes"], list):
                    raise ValueError(f"modes must be a list, got {modes!r}")
                agents.append(AgentTrack(entry["history"], entry["future_gt"], modes or None))
            except ValueError as exc:
                raise DataError(f"agent {i} {exc}") from exc
        rate = data["rate_hz"]
        # Predictors and metrics assume RATE_HZ; a file at another rate, or
        # one whose rate is not an int (10.0, "10", true), is refused.
        if type(rate) is not int or rate != RATE_HZ:
            raise DataError(f"rate_hz must be the integer {RATE_HZ}, got {rate!r}")
        return agents
    except DataError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed trajectory file: {exc}") from exc


def save_trajectories(agents, path) -> None:
    write_json(path, trajectories_to_dict(agents),
               [a for agent in agents for a in (agent.history, agent.future, agent.modes)])


def load_trajectories(path) -> list[AgentTrack]:
    """The agents in the trajectory file at ``path``, decoded from its JSON."""
    return trajectories_from_dict(_read_json(path, _scene_loads))


# ---------------------------------------------------------------------------
# Cache of decoded map files
# ---------------------------------------------------------------------------

CACHE_FILE = ".uncmap-cache"
# A map entry's header: element count, vertex count, whether the map has
# scales, ego pose (x, y, heading) and perception range (lon, lat).
_MAP_HEAD = 8


@functools.cache
def _key_salt() -> bytes:
    """What a key covers besides a file's bytes: the tool version, this
    module's code (the decoders and the entry layout) and the class order an
    entry's class indices refer to. A change to any of them gives every file
    a new key, so an entry is only read by the code that wrote it."""
    classes = ",".join(c.value for c in ALL_CLASSES).encode()
    return hashlib.sha256(b"\0".join([__version__.encode(), Path(__file__).read_bytes(),
                                      classes])).digest()


def _cache_key(raw: bytes) -> bytes:
    """The key of the entry of a map file holding ``raw``."""
    return hashlib.sha256(_key_salt() + raw).digest()


class _Cache:
    """The cache file of a manifest's dataset as one stage sees it: a run of
    records, one per map file the manifest names, each the key of the bytes
    its entry was made from (32 bytes), the sizes of its name and its entry
    (little-endian uint64s), the name as the manifest gives it and the
    entry, a float64 buffer of the map's columns and then the CRC-32 of the
    key and the columns. The records are indexed when the file is opened,
    and each entry is read when asked for from the file opened then."""

    def __init__(self, manifest: dict):
        root = manifest["_root"]
        self.path, self.found, self.new, self.file = root / CACHE_FILE, {}, {}, None
        self.names = {root / scene[key]: scene[key].encode("utf-8", "surrogatepass")
                      for scene in manifest["scenes"] for key in ("gt_map", "observed_map")}
        with contextlib.suppress(OSError):  # none yet, or a directory has its name
            self.file = open(self.path, "rb")
            end = os.fstat(self.file.fileno()).st_size
            while len(head := self.file.read(48)) == 48:
                n, size = (int.from_bytes(head[i:i + 8], "little") for i in (32, 40))
                at = self.file.tell() + n
                if at + size > end:
                    break
                self.found[self.file.read(n)] = (head[:32], at, size)
                self.file.seek(size, os.SEEK_CUR)

    def _record(self, name: bytes) -> tuple[bytes, bytes]:
        """The key and the entry of the map file ``name``, the one made in
        this stage or else the one in the cache file."""
        if name in self.new:
            return self.new[name]
        key, at, size = self.found[name]
        self.file.seek(at)
        return key, self.file.read(size)

    def get(self, path: Path, key: bytes) -> np.ndarray:
        """The floats of the entry of the manifest's map file at ``path``: a
        ``KeyError`` where it has none, a ``ValueError`` where it was made
        from other bytes than those of ``key`` or fails its checksum."""
        record_key, entry = self._record(self.names[path])
        floats = np.frombuffer(bytearray(entry), dtype="<f8")
        crc = zlib.crc32(memoryview(entry)[:-8], zlib.crc32(key))
        if record_key != key or not len(floats) or floats[-1] != crc:
            raise ValueError("no cache entry of these bytes")
        return floats[:-1]

    def put(self, path: Path, key: bytes, floats) -> None:
        body = np.asarray(floats, dtype="<f8").tobytes()
        crc = zlib.crc32(body, zlib.crc32(key))
        self.new[self.names[path]] = key, body + np.array([crc], dtype="<f8").tobytes()

    def close(self) -> None:
        """If this stage made entries, write the entry of each map file the
        manifest names that has one, in its order, as a new cache file renamed
        over the old one, so a reader finds either whole; then close the old."""
        tmp = self.path.with_name(f"{CACHE_FILE}.{os.getpid()}.tmp")
        try:
            if self.new:
                with open(tmp, "wb") as f:
                    for name in self.names.values():
                        if name in self.new or name in self.found:
                            key, entry = self._record(name)
                            f.write(key + len(name).to_bytes(8, "little")
                                    + len(entry).to_bytes(8, "little") + name + entry)
                os.replace(tmp, self.path)
        except OSError:  # a read-only dataset, or a directory has the name
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
        finally:
            if self.file is not None:
                self.file.close()


def _counts(values: np.ndarray) -> list[int]:
    """The floats ``values`` as ints, if each is a whole number in [0, 2**53)."""
    counts = values.tolist()
    if not all(0 <= v < 2.0**53 and v.is_integer() for v in counts):
        raise ValueError("a count in the cache entry is not a whole number")
    return [int(v) for v in counts]


def _map_columns(m: VectorMap) -> np.ndarray:
    """The floats of a map's entry: the header, per element its class index,
    confidence, closed flag and vertex count, then ``mu`` and, on a map with
    scales, ``b`` and ``class_logits``."""
    pose = m.ego_pose
    head = [len(m.elements), len(m.mu), m.b is not None,
            pose.x, pose.y, pose.heading, *m.perception_range]
    rows = [(CLASS_INDEX[el.element_class], el.confidence, el.closed, n)
            for el, n in zip(m.elements, np.diff(m.offsets).tolist())]
    scales = [] if m.b is None else [m.b, m.class_logits]
    return np.concatenate([head, np.ravel(rows)] + [np.ravel(c) for c in [m.mu] + scales])


def _map_from_columns(buf: np.ndarray) -> VectorMap:
    n_elements, n_vertices, has_b = _counts(buf[:3])
    width = 2 + NUM_CLASSES + 2 if has_b else 2
    at = _MAP_HEAD + 4 * n_elements
    if has_b > 1 or len(buf) != at + width * n_vertices:
        raise ValueError("map entry has the wrong size")
    x, y, heading, lon, lat = buf[3:_MAP_HEAD].tolist()
    rows = buf[_MAP_HEAD:at].reshape(n_elements, 4)
    labels = [MapElement(None, ALL_CLASSES[c], confidence, bool(closed))
              for c, confidence, closed in zip(_counts(rows[:, 0]), rows[:, 1].tolist(),
                                                rows[:, 2].tolist())]
    mu = buf[at:at + 2 * n_vertices].reshape(n_vertices, 2)
    b = logits = None
    if has_b:
        at += 2 * n_vertices
        b = buf[at:at + 2 * n_vertices].reshape(n_vertices, 2)
        logits = buf[at + 2 * n_vertices:].reshape(n_vertices, NUM_CLASSES)
    return VectorMap.from_columns(labels, np.cumsum([0] + _counts(rows[:, 3])), mu, b, logits,
                                  Pose2(x, y, heading), (lon, lat))


# ---------------------------------------------------------------------------
# Dataset config
# ---------------------------------------------------------------------------

def parse_dataset_config(raw: dict) -> DatasetConfig:
    """The config object ``raw`` as a :class:`DatasetConfig`, which holds it in
    the same JSON form (``_plain`` gives it back); an unknown key at any level
    or an invalid value is a :class:`ConfigError` naming it."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(DatasetConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "noise" in raw:
        try:
            raw = dict(raw, noise=NoiseModel(**raw["noise"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"noise: {exc}") from exc
    try:
        return DatasetConfig(**raw)
    except ValueError as exc:  # the message names the field
        raise ConfigError(str(exc)) from exc


def load_dataset_config(path) -> DatasetConfig:
    try:
        return parse_dataset_config(_read_json(path))
    except DataError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Dataset writer / manifest
# ---------------------------------------------------------------------------

def config_hash(obj: dict) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_dataset(records, config: DatasetConfig, out_dir) -> Path:
    """Write the maps and trajectories of each scene record as it arrives
    from the iterable ``records``, then the run manifest of the dataset
    ``config`` describes; returns the manifest path. Only the manifest's
    scene entries are kept, so a generator of records is written one block
    at a time, and one that raises leaves the scene files written before it
    and no manifest."""
    out = Path(out_dir)
    cfg_dict = _plain(config)
    scenes = []
    for rec in records:
        gt_rel = f"maps/{rec.scene_id}_gt.json"
        obs_rel = f"maps/{rec.scene_id}_obs.json"
        traj_rel = f"traj/{rec.scene_id}.json"
        save_map(rec.gt_map, out / gt_rel)
        save_map(rec.observed_map, out / obs_rel)
        save_trajectories(rec.agents, out / traj_rel)
        scenes.append({
            "id": rec.scene_id,
            "seed": rec.spec.seed,
            "observe_seed": rec.observe_seed,
            "layout": rec.spec.layout.value,
            "condition": rec.spec.condition.value,
            "occluders": [[o.x, o.y, o.radius] for o in rec.spec.occluders],
            "gt_map": gt_rel,
            "observed_map": obs_rel,
            "trajectories": traj_rel,
        })
    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "master_seed": config.seed,
        "config": cfg_dict,
        "config_hash": config_hash(cfg_dict),
        "tool_version": __version__,
        "scenes": scenes,
    }
    path = out / "manifest.json"
    write_json(path, manifest)
    return path


def load_manifest(path) -> dict:
    path = Path(path)
    data = _read_json(path)
    if data.get("schema_version") != MANIFEST_SCHEMA:
        raise DataError(f"expected manifest schema {MANIFEST_SCHEMA!r}, "
                        f"got {data.get('schema_version')!r}")
    if not isinstance(data.get("scenes"), list):
        raise DataError("manifest has no scene list")
    for i, scene in enumerate(data["scenes"]):
        for key in ("id", "condition") + SCENE_FILES:
            if not isinstance(scene, dict) or not isinstance(scene.get(key), str):
                raise DataError(f"manifest scene {i} has no {key!r} string")
    data["_root"] = path.parent
    return data


def iter_scene_files(manifest: dict, *parts: str):
    """Yield ``(scene entry, *loaded parts)`` per scene, reading only ``parts``.

    ``parts`` names files of :data:`SCENE_FILES`, in the order wanted
    (default: all three). A map loads as one value and the trajectory file
    as two, the agents and each agent's modes, so the default yields
    ``(scene, gt map, observed map, agents, modes)``. A load error, a
    missing file among them, names the scene and the file part. The map
    loads share the cache file beside the manifest, opened only when a map
    is read and written anew when the iteration stops if a load made an entry.
    """
    parts = parts or SCENE_FILES
    unknown = set(parts) - set(SCENE_FILES)
    if unknown:
        raise ValueError(f"unknown scene files {sorted(unknown)}")
    root = manifest["_root"]
    cache = _Cache(manifest) if set(parts) != {"trajectories"} else None
    try:
        for scene in manifest["scenes"]:
            row = [scene]
            for part in parts:
                try:
                    if part == "trajectories":
                        agents = load_trajectories(root / scene[part])
                        row += [agents, [agent.modes for agent in agents]]
                    else:
                        row.append(load_map(root / scene[part], cache=cache))
                except DataError as exc:
                    raise DataError(f"scene {scene['id']} {part}: {exc}") from exc
            yield tuple(row)
    finally:
        if cache is not None:
            cache.close()


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _json_loads(raw: bytes):
    """``json.loads`` of ``raw`` as ``Path.read_text(encoding="utf-8")``
    reads it: strict UTF-8 with universal newlines."""
    return json.loads(raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))


def _scene_loads(raw: bytes):
    """``orjson.loads(raw)``, or :func:`_json_loads` where orjson refuses it."""
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        return _json_loads(raw)


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except (FileNotFoundError, NotADirectoryError) as exc:  # as Path.exists sees it
        raise DataError(f"file not found: {path}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _read_json(path, loads=_json_loads, raw=None) -> dict:
    """The JSON object in the file at ``path``, decoded by ``loads`` from the
    file's bytes ``raw``, which are read here when not given."""
    path = Path(path)
    if raw is None:
        raw = _read_bytes(path)
    try:
        data = loads(raw)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
        raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path} does not hold a JSON object")
    return data


def _repr_safe(floats) -> bool:
    """Whether orjson writes every value of the arrays ``floats`` (``None``
    skipped) as ``float.__repr__`` does: each is 0 or has a magnitude in
    [1e-4, 1e16). A NaN or an infinity, which orjson would write as ``null``,
    raises ``ValueError``."""
    a = np.abs(np.concatenate([np.ravel(np.asarray(f, dtype=float))
                               for f in floats if f is not None] + [np.zeros(0)]))
    top = a.max(initial=0.0)
    if not top < math.inf:
        raise ValueError("a scene file's floats must be finite")
    return bool(top < 1e16 and a.min(where=a != 0, initial=1.0) >= 1e-4)


# The tail of each float token that orjson writes otherwise than repr: its
# fixed form below 1e-4 ("0.00005") and its exponent ("1e-7", "1e16"). In
# indented output a number ends its line and follows a space, and a string
# holds no raw newline, so these match numbers only.
_ODD_FLOATS = (re.compile(rb"0\.0000\d*(?=,?\n)"), re.compile(rb"e-?\d+(?=,?\n)"))


def _repr_floats(data: bytes) -> bytes:
    """``data``, indented orjson output, with each float token matched by
    ``_ODD_FLOATS`` rewritten as ``float.__repr__`` writes it."""
    spans = sorted({(data.rfind(b" ", 0, m.start()) + 1, m.end())
                    for pattern in _ODD_FLOATS for m in pattern.finditer(data)})
    out, last = [], 0
    for lo, hi in spans:
        out += [data[last:lo], repr(float(data[lo:hi])).encode()]
        last = hi
    out.append(data[last:])
    return b"".join(out)


def write_json(path, obj, floats=None) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline to ``path``. A scene
    file passes the arrays ``floats`` that hold every float of ``obj``, all
    finite Python floats, and is written by orjson (``obj``'s strings must
    then be ASCII, as a scene file's are); float tokens that
    :func:`_repr_safe` finds orjson writes otherwise are rewritten in repr's
    text. The text is encoded before the file is opened, so a failed write
    leaves no file; a missing directory is made."""
    if floats is None:
        data = (json.dumps(obj, indent=2) + "\n").encode("utf-8")
    else:
        safe = _repr_safe(floats)
        data = orjson.dumps(obj, option=orjson.OPT_INDENT_2) + b"\n"
        if not safe:
            data = _repr_floats(data)
    path = Path(path)
    try:
        path.write_bytes(data)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def _plain(value):
    """``value`` as plain JSON data: a dataclass as the dict of its fields in
    declaration order, a dict with its keys, a list, tuple or array as a list,
    a numpy scalar as its Python value and a float NaN as ``None``."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    return None if isinstance(value, float) and math.isnan(value) else value


def write_report(path, report, effective: dict, manifest: dict) -> None:
    """Write ``_plain(report)`` with a last key ``"reproducibility"``: the tool
    version, the dataset's seeds and the hash of the stage's ``effective``
    config, the command and every flag it parsed but ``--manifest`` and ``--out``."""
    seeds = {"master_seed": manifest.get("master_seed"),
             "dataset_config_hash": manifest.get("config_hash")}
    write_json(path, dict(_plain(report), reproducibility={
        "config_hash": config_hash(effective), "tool_version": __version__, "seeds": seeds}))


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and each of the iterable ``rows`` as :func:`_plain` data:
    a float as its repr, a bool as 1 or 0 and ``None`` as an empty field."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else
                             int(v) if isinstance(v, bool) else v for v in _plain(row)])
