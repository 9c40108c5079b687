"""Every name the benchmark traces must resolve on the package.

``perfbench/tracer.py`` wraps each (module, attribute path) of its
``TARGETS`` list; one that no longer resolves breaks every traced run. The
list is read from that file as it stands.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
RUN = TRACER.with_name("run.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tracer_targets() -> list[tuple]:
    return load_tracer().TARGETS


def test_targets_listed():
    assert len(tracer_targets()) > 0


@pytest.mark.parametrize("name, module, path",
                         [target[:3] for target in tracer_targets()])
def test_target_resolves(name, module, path):
    owner = importlib.import_module(f"uncmap.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"{name}: uncmap.{module} has no {path}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_report_stages_trace_the_walks(tmp_path):
    """The report stages walk polylines through the names the tracer wraps,
    so the benchmark's per-layer walk metrics of ``evaluate`` are live."""
    from uncmap import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_scenes": 3, "seed": 7}))
    manifest = tmp_path / "data" / "manifest.json"
    assert cli.main(["generate", "--config", str(config), "--out", str(manifest.parent)]) == 0
    tracing = load_tracer()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for stage in ("eval-map", "calibrate", "compare-predictors"):
            assert tracer.stage(stage, cli.main, [stage, "--manifest", str(manifest),
                                                  "--out", str(tmp_path / "r")]) == 0
    finally:
        uninstall()
    calls = tracer.aggregate()["calls"]
    for name in ("geometry.resample", "geometry.point_along",
                 "geometry.nearest_point_on_polyline"):
        assert calls.get(name, 0) > 0, name


def test_generate_writes_every_file_through_write_json(tmp_path, monkeypatch):
    """``generate`` on the benchmark's README config writes each file, scene
    files included, with one ``io.write_json`` call, whose path argument the
    tracer reads for ``io.bytes_written``."""
    from uncmap import cli, io

    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(run_constants("README_CONFIG")["README_CONFIG"], seed=7)))
    written = []
    write_json = io.write_json

    def spy(path, *args, **kwargs):
        written.append(Path(path))
        return write_json(path, *args, **kwargs)
    monkeypatch.setattr(io, "write_json", spy)
    out = tmp_path / "data"
    assert cli.main(["generate", "--config", str(config), "--out", str(out)]) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    assert len(written) == len(files) == 301
    assert sorted(written) == files


def test_report_stages_write_every_file_through_io(tmp_path, monkeypatch):
    """The five report stages write each report with one ``io.write_json`` or
    ``io.write_csv`` call, whose path argument the tracer reads for
    ``io.bytes_written`` on ``evaluate``."""
    from uncmap import cli, io

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_scenes": 3, "seed": 7}))
    manifest = tmp_path / "data" / "manifest.json"
    assert cli.main(["generate", "--config", str(config), "--out", str(manifest.parent)]) == 0
    written = []

    def spy(writer):
        def record(path, *args, **kwargs):
            written.append(Path(path))
            return writer(path, *args, **kwargs)
        return record
    for name in ("write_json", "write_csv"):
        monkeypatch.setattr(io, name, spy(getattr(io, name)))
    out = tmp_path / "reports"
    for stage in ("eval-map", "eval-pred", "calibrate", "analyze-uncertainty",
                  "compare-predictors"):
        assert cli.main([stage, "--manifest", str(manifest), "--out", str(out)]) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    assert len(written) == len(files) == 11
    assert sorted(written) == files


def test_fit_workload_attributes_resolve():
    """The attributes ``perfbench/run.py``'s fit workload reads resolve on
    the maps it builds: one scene through ``observe``, ``mean_map``,
    ``sample_map`` and ``fit_map``."""
    import numpy as np

    from uncmap import fitting, probmap, synth

    spec = synth.SceneSpec(synth.Layout.INTERSECTION, seed=7)
    observed = synth.observe(synth.generate_scene(spec)[0], synth.NoiseModel(), spec, seed=8)
    template = probmap.mean_map(observed)
    draws = [probmap.sample_map(observed, seed) for seed in range(5)]
    fitted = fitting.fit_map(draws, template)
    # The check stacks each element's realisations by index, ...
    stacks = [np.stack([d.elements[e].vertices for d in draws])
              for e in range(len(template.elements))]
    assert [s.shape for s in stacks] == [(5,) + el.mu.shape for el in template.elements]
    # ... compares the fitted mu and b and the classes, and pools the
    # fitted and generating scales.
    for fit_el, obs_el, tmpl_el in zip(fitted.elements, observed.elements,
                                       template.elements, strict=True):
        assert fit_el.mu.shape == fit_el.b.shape == obs_el.b.shape
        assert fit_el.element_class == obs_el.element_class == tmpl_el.element_class
        assert fit_el.confidence == obs_el.confidence == tmpl_el.confidence
    assert all(el.b is None for m in [template] + draws for el in m.elements)
    for m in [observed, template, fitted] + draws:
        assert m.elements
        assert all(el.vertices is el.mu for el in m.elements)


def run_constants(*names: str) -> dict:
    """The values ``perfbench/run.py`` assigns to ``names`` at module level,
    read from its syntax tree without importing it."""
    found = {}
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and getattr(node.targets[0], "id", None) in names:
            expr = ast.Expression(node.value)
            found[node.targets[0].id] = eval(compile(expr, str(RUN), "eval"),
                                             {"__builtins__": {}})
    assert sorted(found) == sorted(names)
    return found


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_benchmark_configs_parse(seed):
    """Every dataset config the ``generate`` and ``fit`` workloads build is
    one ``io.parse_dataset_config`` accepts."""
    from uncmap import io

    consts = run_constants("README_CONFIG", "FIT_LAYOUTS")
    readme, layouts = consts["README_CONFIG"], consts["FIT_LAYOUTS"]
    configs = [dict(readme, seed=seed)] + [
        dict(readme, n_scenes=1, seed=seed * len(layouts) + j, predictor="none",
             layout_weights={layout: 1.0})
        for j, layout in enumerate(layouts)]
    for raw in configs:
        cfg = io.parse_dataset_config(raw)
        assert cfg.seed == raw["seed"] and cfg.n_scenes == raw["n_scenes"]


def run_argvs() -> list[list[str]]:
    """Every argv ``perfbench/run.py`` passes to the CLI, read from its syntax
    tree: each stage of ``STAGES`` with the ``--manifest``/``--out`` its caller
    appends, and each list literal given to ``run_cli``. A string constant is
    kept, ``str()`` of a module-level constant becomes that constant's text,
    and any other element (a path) becomes ``"PATH"``."""
    tree = ast.parse(RUN.read_text(encoding="utf-8"))
    consts = {node.targets[0].id: node.value.value for node in tree.body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Constant)}

    def text(node) -> str:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "str" \
                and getattr(node.args[0], "id", None) in consts:
            return str(consts[node.args[0].id])
        return "PATH"

    def argvs(node) -> list[list[str]]:
        if isinstance(node, ast.List):
            return [[text(elt) for elt in node.elts]]
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return [a + b for a in argvs(node.left) for b in argvs(node.right)]
        if isinstance(node, ast.Name):  # the loop over STAGES' argvs
            return stages
        raise AssertionError(f"run.py line {node.lineno}: unread argv {ast.dump(node)}")

    stages = [argv for node in tree.body if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) == "STAGES"
              for value in node.value.values for argv in argvs(value.elts[0])]
    calls = [node.args[1] for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "run_cli"]
    return [argv for call in calls for argv in argvs(call)]


def test_benchmark_argvs_parse():
    """The CLI accepts every command line the benchmark runs, so a flag the
    benchmark passes cannot be deleted unnoticed."""
    from uncmap import cli

    argvs = run_argvs()
    assert sum(argv[0] == "generate" for argv in argvs) == 2 and len(argvs) == 7
    assert ["generate", "--config", "PATH", "--out", "PATH", "--threads", "1"] in argvs
    for argv in argvs:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"perfbench/run.py passes {argv}, which the CLI refuses")
