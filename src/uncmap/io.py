"""File formats: maps, trajectories, run manifests, configs, and reports.

Everything is plain JSON, human-diffable, with floats serialized by
Python's shortest round-trip repr (values reload bit-exactly). A map file
either carries a scale ``b`` on every vertex (probabilistic map) or on
none (mean map); mixing is a data error.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import ElementClass, MapElement, Pose2, VectorMap
from .probmap import ProbMapElement, ProbVectorMap
from .synth import (
    AgentTrack,
    Condition,
    DatasetConfig,
    Layout,
    NoiseModel,
    SyntheticDataset,
    RATE_HZ,
)

MAP_SCHEMA = "uncmap/1"
TRAJ_SCHEMA = "uncmap-traj/1"
MANIFEST_SCHEMA = "uncmap-manifest/1"


class ConfigError(ValueError):
    """Invalid configuration or usage (CLI exit code 2)."""


class DataError(ValueError):
    """Missing, malformed, or inconsistent data files (CLI exit code 3)."""


def _points(arr) -> list[list[float]]:
    return [[float(x), float(y)] for x, y in np.asarray(arr, dtype=float)]


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------

def map_to_dict(m: VectorMap | ProbVectorMap) -> dict:
    elements = []
    for el in m.elements:
        entry = {
            "class": el.element_class.value,
            "confidence": float(el.confidence),
            "closed": bool(el.closed),
        }
        if isinstance(el, ProbMapElement):
            entry["vertices"] = [
                {"mu": [float(mu[0]), float(mu[1])],
                 "b": [float(b[0]), float(b[1])],
                 "class_logits": [float(v) for v in logits]}
                for mu, b, logits in zip(el.mu, el.b, el.class_logits)
            ]
        else:
            entry["vertices"] = [{"mu": [float(p[0]), float(p[1])]} for p in el.vertices]
        elements.append(entry)
    return {
        "schema_version": MAP_SCHEMA,
        "ego_pose": {"position": [m.ego_pose.x, m.ego_pose.y],
                     "heading": m.ego_pose.heading},
        "perception_range": [float(m.perception_range[0]), float(m.perception_range[1])],
        "elements": elements,
    }


def map_from_dict(data: dict) -> VectorMap | ProbVectorMap:
    if data.get("schema_version") != MAP_SCHEMA:
        raise DataError(f"expected map schema {MAP_SCHEMA!r}, "
                        f"got {data.get('schema_version')!r}")
    try:
        ego = Pose2(data["ego_pose"]["position"][0], data["ego_pose"]["position"][1],
                    data["ego_pose"]["heading"])
        rng = tuple(float(v) for v in data["perception_range"])
        has_b = [("b" in v) for el in data["elements"] for v in el["vertices"]]
        if has_b and any(has_b) != all(has_b):
            raise DataError("scale b must be present on all vertices or none")
        probabilistic = bool(has_b) and has_b[0]
        elements = []
        for el in data["elements"]:
            cls = ElementClass(el["class"])
            conf = float(el["confidence"])
            closed = bool(el.get("closed", False))
            mu = np.array([v["mu"] for v in el["vertices"]], dtype=float)
            if probabilistic:
                b = np.array([v["b"] for v in el["vertices"]], dtype=float)
                logits = np.array([v["class_logits"] for v in el["vertices"]], dtype=float)
                elements.append(ProbMapElement(mu, b, logits, cls, conf, closed))
            else:
                elements.append(MapElement(mu, cls, conf, closed))
    except DataError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DataError(f"malformed map file: {exc}") from exc
    if probabilistic:
        # The range check already ran when the map was first built.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return ProbVectorMap(elements, ego, rng)
    return VectorMap(elements, ego, rng)


def save_map(m: VectorMap | ProbVectorMap, path) -> None:
    write_json(path, map_to_dict(m))


def load_map(path) -> VectorMap | ProbVectorMap:
    return map_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def trajectories_to_dict(agents: list[AgentTrack], modes: list[np.ndarray],
                         rate_hz: int = RATE_HZ) -> dict:
    if modes and len(modes) != len(agents):
        raise ValueError("modes list must match agents list")
    entries = []
    for i, agent in enumerate(agents):
        agent_modes = modes[i] if modes else np.empty((0, len(agent.future), 2))
        for mode in agent_modes:
            if len(mode) != len(agent.future):
                raise ValueError("every mode must span the future horizon")
        entries.append({
            "history": _points(agent.history),
            "future_gt": _points(agent.future),
            "modes": [_points(mode) for mode in agent_modes],
        })
    return {"schema_version": TRAJ_SCHEMA, "rate_hz": int(rate_hz), "agents": entries}


def trajectories_from_dict(data: dict) -> tuple[list[AgentTrack], list[np.ndarray], int]:
    if data.get("schema_version") != TRAJ_SCHEMA:
        raise DataError(f"expected trajectory schema {TRAJ_SCHEMA!r}, "
                        f"got {data.get('schema_version')!r}")
    try:
        agents, modes = [], []
        for entry in data["agents"]:
            history = np.array(entry["history"], dtype=float)
            future = np.array(entry["future_gt"], dtype=float)
            agent_modes = np.array(entry["modes"], dtype=float) if entry["modes"] \
                else np.empty((0, len(future), 2))
            if agent_modes.size and agent_modes.shape[1] != len(future):
                raise DataError("mode length differs from future length")
            agents.append(AgentTrack(history, future))
            modes.append(agent_modes)
        return agents, modes, int(data["rate_hz"])
    except DataError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed trajectory file: {exc}") from exc


def save_trajectories(agents, modes, path, rate_hz: int = RATE_HZ) -> None:
    write_json(path, trajectories_to_dict(agents, modes, rate_hz))


def load_trajectories(path):
    return trajectories_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# Dataset config
# ---------------------------------------------------------------------------

def _enum_weights(raw: dict, enum_cls, what: str) -> dict:
    out = {}
    for key, value in raw.items():
        try:
            out[enum_cls(key)] = float(value)
        except ValueError as exc:
            raise ConfigError(f"unknown {what} {key!r}") from exc
    return out


def parse_noise_config(raw: dict) -> NoiseModel:
    multipliers = None
    if "condition_multipliers" in raw:
        multipliers = {}
        for cond_name, per_class in raw["condition_multipliers"].items():
            try:
                cond = Condition(cond_name)
            except ValueError as exc:
                raise ConfigError(f"unknown condition {cond_name!r}") from exc
            for cls_name, mult in per_class.items():
                classes = list(ElementClass) if cls_name == "*" else None
                if classes is None:
                    try:
                        classes = [ElementClass(cls_name)]
                    except ValueError as exc:
                        raise ConfigError(f"unknown element class {cls_name!r}") from exc
                for cls in classes:
                    multipliers[(cond, cls)] = float(mult)
    kwargs = {k: raw[k] for k in ("base_b", "distance_coeff", "occlusion_multiplier",
                                  "miscalibration", "class_mode") if k in raw}
    if multipliers is not None:
        kwargs["condition_multipliers"] = multipliers
    try:
        return NoiseModel(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid noise model: {exc}") from exc


def parse_dataset_config(raw: dict) -> DatasetConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {"n_scenes", "seed", "layout_weights", "condition_weights", "n_agents",
             "max_occluders", "occluder_radius", "lane_change_prob",
             "duplicate_centerlines", "noise", "resample_count", "modes", "predictor",
             "lam", "b0"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {k: raw[k] for k in known & set(raw) if k not in
              ("layout_weights", "condition_weights", "noise", "occluder_radius")}
    if "layout_weights" in raw:
        kwargs["layout_weights"] = _enum_weights(raw["layout_weights"], Layout, "layout")
    if "condition_weights" in raw:
        kwargs["condition_weights"] = _enum_weights(raw["condition_weights"], Condition,
                                                    "condition")
    if "occluder_radius" in raw:
        kwargs["occluder_radius"] = tuple(float(v) for v in raw["occluder_radius"])
    if "noise" in raw:
        kwargs["noise"] = parse_noise_config(raw["noise"])
    try:
        return DatasetConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def dataset_config_to_dict(cfg: DatasetConfig) -> dict:
    noise = cfg.noise
    multipliers: dict[str, dict[str, float]] = {}
    for (cond, cls), mult in noise.condition_multipliers.items():
        multipliers.setdefault(cond.value, {})[cls.value] = float(mult)
    return {
        "n_scenes": cfg.n_scenes,
        "seed": cfg.seed,
        "layout_weights": {k.value: v for k, v in cfg.layout_weights.items()},
        "condition_weights": {k.value: v for k, v in cfg.condition_weights.items()},
        "n_agents": cfg.n_agents,
        "max_occluders": cfg.max_occluders,
        "occluder_radius": list(cfg.occluder_radius),
        "lane_change_prob": cfg.lane_change_prob,
        "duplicate_centerlines": cfg.duplicate_centerlines,
        "noise": {
            "base_b": noise.base_b,
            "distance_coeff": noise.distance_coeff,
            "occlusion_multiplier": noise.occlusion_multiplier,
            "condition_multipliers": multipliers,
            "miscalibration": noise.miscalibration,
            "class_mode": noise.class_mode,
        },
        "resample_count": cfg.resample_count,
        "modes": cfg.modes,
        "predictor": cfg.predictor,
        "lam": cfg.lam,
        "b0": cfg.b0,
    }


def load_dataset_config(path) -> DatasetConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_dataset_config(raw)


# ---------------------------------------------------------------------------
# Dataset writer / manifest
# ---------------------------------------------------------------------------

def config_hash(obj: dict) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_dataset(dataset: SyntheticDataset, out_dir) -> Path:
    """Write maps, trajectories, and the run manifest; returns manifest path."""
    out = Path(out_dir)
    (out / "maps").mkdir(parents=True, exist_ok=True)
    (out / "traj").mkdir(parents=True, exist_ok=True)
    cfg_dict = dataset_config_to_dict(dataset.config)
    scenes = []
    for rec in dataset.records:
        gt_rel = f"maps/{rec.scene_id}_gt.json"
        obs_rel = f"maps/{rec.scene_id}_obs.json"
        traj_rel = f"traj/{rec.scene_id}.json"
        save_map(rec.gt_map, out / gt_rel)
        save_map(rec.observed_map, out / obs_rel)
        save_trajectories(rec.agents, rec.modes, out / traj_rel)
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
        "master_seed": dataset.config.seed,
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
    root = path.parent
    for i, scene in enumerate(data["scenes"]):
        for key in ("id", "condition", "gt_map", "observed_map", "trajectories"):
            if not isinstance(scene, dict) or not isinstance(scene.get(key), str):
                raise DataError(f"manifest scene {i} has no {key!r} string")
        for key in ("gt_map", "observed_map", "trajectories"):
            if not (root / scene[key]).exists():
                raise DataError(f"manifest references missing file {scene[key]!r}")
    data["_root"] = root
    return data


def iter_scene_files(manifest: dict):
    """Yield (scene entry, gt map, observed map, agents, modes) per scene."""
    root = manifest["_root"]
    for scene in manifest["scenes"]:
        gt = load_map(root / scene["gt_map"])
        observed = load_map(root / scene["observed_map"])
        agents, modes, _ = load_trajectories(root / scene["trajectories"])
        yield scene, gt, observed, agents, modes


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _read_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc


def write_json(path, obj: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def write_csv(path, header: list[str], rows: list[list]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def reproducibility_block(effective_config: dict, manifest: dict | None = None) -> dict:
    block = {
        "config_hash": config_hash(effective_config),
        "tool_version": __version__,
        "seeds": {},
    }
    if manifest is not None:
        block["seeds"]["master_seed"] = manifest.get("master_seed")
        block["seeds"]["dataset_config_hash"] = manifest.get("config_hash")
    return block
