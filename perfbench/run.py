"""End-to-end benchmark of the uncmap pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload generate --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each exists):

- ``generate``: ``uncmap generate`` on the README config, one fresh output
  directory per repetition;
- ``evaluate``: the five report stages on a dataset built during set-up,
  one fresh report directory per repetition;
- ``fit``: ``fitting.fit_map`` on stacks of ``probmap.sample_map``
  realisations plus ``fit_gradient`` / ``fit_closed_form`` on long series.

The process builds the workload's inputs, then repeats the workload's unit
of work until ``--seconds`` have passed (at least three times), checks
every repetition's outputs, and prints one JSON object as its last line of
standard output. It builds the inputs SETUP_REPEATS times in all, the later
builds spread over the run, and reports the import time plus the median
build as ``setup_s``. With ``--trace 0`` it reports the end-to-end metrics
of BENCHMARK.json. With ``--trace 1`` it wraps the program's public functions on every other
repetition, reports the per-layer metrics of the traced repetitions, and
writes them, the wall times of traced and untraced repetitions and the
spans of the first repetition to
``.perfbench_out/trace_<workload>_seed<seed>.json``.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()
# One thread everywhere, set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_REPS = 3

README_CONFIG = {
    "n_scenes": 100,
    "n_agents": 2,
    "noise": {"base_b": 0.15, "distance_coeff": 0.01, "occlusion_multiplier": 6.0},
}
MODES = 6
RESAMPLE_COUNT = 20

# fit workload: one observed map per entry of FIT_LAYOUTS (the README mix of
# roughly 0.6 / 0.25 / 0.15, fixed by index), each realised FIT_DRAWS times,
# and FIT_SERIES 1-D series with lengths spread evenly over FIT_LENGTHS.
FIT_LAYOUTS = ("straight_road", "intersection", "straight_road", "parking_lot",
               "straight_road", "intersection") * 2
FIT_DRAWS = 60
FIT_SERIES = 400
FIT_LENGTHS = (2000, 6000)
SCALE_RATIO_TOL = 0.05

STAGES = {
    "eval-map": (["eval-map"], ("eval_map.json", "eval_map.csv")),
    "eval-pred": (["eval-pred"], ("eval_pred.json", "eval_pred_agents.csv")),
    "calibrate": (["calibrate", "--levels", "0.5,0.9"],
                  ("calibration.json", "coverage.csv", "reliability.csv")),
    "analyze-uncertainty": (["analyze-uncertainty"],
                            ("uncertainty_bins.json", "uncertainty_bins.csv")),
    "compare-predictors": (["compare-predictors", "--modes", str(MODES)],
                           ("compare_predictors.json", "compare_predictors.csv")),
}


def _import_program():
    """Import uncmap from this checkout's ``src`` and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import uncmap
        from uncmap import cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import uncmap from {src}: {exc}")
    if not Path(uncmap.__file__).resolve().is_relative_to(src):
        sys.exit(f"uncmap was imported from {uncmap.__file__}, not {src}")


def run_cli(tracer, argv: list[str]) -> int:
    from uncmap import cli

    with contextlib.redirect_stdout(sys.stderr):
        if tracer is None:
            return cli.main(argv)
        return tracer.stage(f"cli.{argv[0]}", cli.main, argv)


class Generate:
    """One repetition is ``uncmap generate`` into a fresh directory."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.first = None

    def setup(self, k: int) -> None:
        config = self.work / f"config{k}.json"
        config.write_text(json.dumps(dict(README_CONFIG, seed=self.seed)))
        if k == 0:
            self.config = config

    def ops_per_rep(self) -> int:
        return 1

    def unit(self, i: int, tracer):
        out = self.work / f"rep{i}"
        return out, run_cli(tracer, ["generate", "--config", str(self.config),
                                     "--out", str(out), "--threads", "1"])

    def check(self, i: int, result) -> list[str]:
        """One message per failed operation of the repetition."""
        out, code = result
        if code != 0:
            return [f"generate exited with {code}"]
        digest = checks.tree_digest(out)
        if self.first is None:
            found = checks.check_dataset(out, README_CONFIG["n_scenes"],
                                         README_CONFIG["n_agents"], MODES, RESAMPLE_COUNT)
            errors = ["; ".join(found)] if found else []
            self.first = (digest, errors)
        elif digest != self.first[0]:
            errors = ["dataset tree differs from the first repetition"]
        else:
            errors = self.first[1]
        shutil.rmtree(out)
        return errors


class Evaluate:
    """One repetition is the five report stages into a fresh directory."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.first = None

    def setup(self, k: int) -> None:
        config = self.work / "config.json"
        config.write_text(json.dumps(dict(README_CONFIG, seed=self.seed)))
        dataset = self.work / f"dataset{k}"
        code = run_cli(None, ["generate", "--config", str(config), "--out", str(dataset),
                              "--threads", "1"])
        if code != 0:
            sys.exit(f"set-up: generate exited with {code}")
        if k:
            shutil.rmtree(dataset)
        else:
            self.manifest = dataset / "manifest.json"

    def ops_per_rep(self) -> int:
        return len(STAGES)

    def unit(self, i: int, tracer):
        out = self.work / f"rep{i}"
        codes = {name: run_cli(tracer, argv + ["--manifest", str(self.manifest),
                                               "--out", str(out)])
                 for name, (argv, _) in STAGES.items()}
        return out, codes

    def check(self, i: int, result) -> list[str]:
        out, codes = result
        digest = checks.tree_digest(out)
        if self.first is None and not any(codes.values()):
            found = checks.check_reports(self.manifest.parent, out, RESAMPLE_COUNT)
            self.first = (digest, found)
        errors = []
        for name, (_, files) in STAGES.items():
            if codes[name] != 0:
                errors.append(f"{name} exited with {codes[name]}")
            elif self.first is None:
                errors.append(f"{name} was not checked: another stage failed")
            elif any(digest.get(f) is None or digest.get(f) != self.first[0].get(f)
                     for f in files):
                errors.append(f"{name} reports differ from the first repetition")
            elif self.first[1][name]:
                errors.append(f"{name}: {'; '.join(self.first[1][name])}")
        shutil.rmtree(out, ignore_errors=True)
        return errors


class Fit:
    """One repetition fits every map stack and every 1-D series."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.first = None

    def setup(self, k: int) -> None:
        import numpy as np
        from uncmap import io, probmap, synth

        # Every build gives the same inputs. The last one's are dropped first,
        # so that the process never holds two copies.
        self.stacks = self.series = None
        rng = np.random.default_rng(self.seed)
        self.stacks = []
        # The layout of each map is fixed by index, so the seed changes the
        # maps but not the mix of layouts, which sets most of the work.
        for j, layout in enumerate(FIT_LAYOUTS):
            cfg = io.parse_dataset_config(dict(
                README_CONFIG, n_scenes=1, seed=self.seed * len(FIT_LAYOUTS) + j,
                predictor="none", layout_weights={layout: 1.0}))
            observed = synth.build_dataset(cfg).records[0].observed_map
            draws = [probmap.sample_map(observed, int(rng.integers(2**63 - 1)))
                     for _ in range(FIT_DRAWS)]
            self.stacks.append((draws, probmap.mean_map(observed), observed))
        # Location and scale are spread evenly by index, so the seed changes
        # only the samples and the total work stays nearly seed-independent.
        lo, hi = FIT_LENGTHS
        self.series = [
            rng.laplace(-2.0 + 4.0 * ((j * 0.7548776662) % 1.0),
                        0.1 + 1.9 * ((j * 0.6180339887) % 1.0),
                        lo + (hi - lo) * j // FIT_SERIES)
            for j in range(FIT_SERIES)
        ]

    def ops_per_rep(self) -> int:
        return len(self.stacks) + 2 * len(self.series)

    def unit(self, i: int, tracer):
        from uncmap import fitting

        maps = [fitting.fit_map(draws, template) for draws, template, _ in self.stacks]
        fits = [(fitting.fit_gradient(x), fitting.fit_closed_form(x)) for x in self.series]
        return maps, fits

    def check(self, i: int, result) -> list[str]:
        import numpy as np

        maps, fits = result
        summary = ([(el.mu, el.b) for m in maps for el in m.elements],
                   [(g.mu_hat, g.b_hat, g.iterations, g.converged, c.mu_hat, c.b_hat)
                    for g, c in fits])
        if self.first is None:
            errors = []
            fitted_b = generating_b = 0.0
            for fitted, (draws, template, observed) in zip(maps, self.stacks):
                stacks = [np.stack([d.elements[e].vertices for d in draws])
                          for e in range(len(template.elements))]
                errors += ["; ".join(checks.check_fitted_map(
                    fitted, stacks, [el.element_class for el in template.elements]))]
                fitted_b += sum(float(el.b.sum()) for el in fitted.elements)
                generating_b += sum(float(el.b.sum()) for el in observed.elements)
            ratio = fitted_b / generating_b
            if abs(ratio - 1.0) > SCALE_RATIO_TOL:
                errors.append(f"pooled fitted/generating scale {ratio:.4f}")
            for x, (gradient, closed) in zip(self.series, fits):
                errors.append("; ".join(checks.check_series_fits(x, gradient, closed)))
            errors = [e for e in errors if e]
            self.first = (summary, errors)
            return errors
        same = (all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
                    for a, b in zip(summary[0], self.first[0][0]))
                and summary[1] == self.first[0][1])
        return self.first[1] if same else ["fit results differ from the first repetition"]


WORKLOADS = {"generate": Generate, "evaluate": Evaluate, "fit": Fit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    import_s = time.perf_counter() - _T0

    tracer = tracing.Tracer() if args.trace else None

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work_{args.workload}_{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        build_s = []

        def build() -> float:
            t = time.perf_counter()
            workload.setup(len(build_s))
            build_s.append(time.perf_counter() - t)
            return build_s[-1]

        build()

        # In a traced run, even repetitions are traced and odd ones are not:
        # both see the same drift in CPU speed, so their wall times give the
        # tracing overhead.
        walls, untraced_walls, aggregates, errors = [], [], [], []
        first_spans = None
        failed = 0
        start = time.perf_counter()
        i = 0
        min_reps = 2 * MIN_REPS if tracer else MIN_REPS
        while i < min_reps or time.perf_counter() - start < args.seconds:
            # The later builds of the inputs are spread over the run, so that
            # they meet other phases of the CPU-speed drift than the first.
            # They are left out of the measured window.
            if (len(build_s) < SETUP_REPEATS
                    and time.perf_counter() - start
                    >= args.seconds * len(build_s) / SETUP_REPEATS):
                start += build()
            gc.collect()
            traced = tracer is not None and i % 2 == 0
            if traced:
                tracer.reset()
                uninstall = tracing.install(tracer)
            t = time.perf_counter()
            result = workload.unit(i, tracer if traced else None)
            elapsed = time.perf_counter() - t
            if traced:
                uninstall()
                walls.append(elapsed)
                aggregates.append(tracer.aggregate())
                if first_spans is None:
                    first_spans = tracer.spans
            elif tracer is not None:
                untraced_walls.append(elapsed)
            else:
                walls.append(elapsed)
            rep_errors = workload.check(i, result)
            failed += len(rep_errors)
            errors += rep_errors
            i += 1
        while len(build_s) < SETUP_REPEATS:
            build()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_s = import_s + statistics.median(build_s)
    print(f"set-up builds (s): {build_s}", file=sys.stderr)

    for message in dict.fromkeys(errors):
        print(f"check failed: {message}", file=sys.stderr)
    result = {"correct": not errors, "attempted": i * workload.ops_per_rep(),
              "failed": failed}
    if tracer is None:
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        entries = spec["end_to_end"]
    else:
        values, count_errors = _per_layer(aggregates, spec["per_layer"])
        for message in count_errors:
            print(f"check failed: {message}", file=sys.stderr)
        result["correct"] = result["correct"] and not count_errors
        entries = spec["per_layer"]
        _write_trace(args, values, walls, untraced_walls, first_spans)
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in entries}
    print(json.dumps(result))
    return 0


def _per_layer(aggregates: list[dict], entries: list[dict]) -> tuple[dict, list[str]]:
    """Times as the median over repetitions; counts from the first
    repetition, which every later one must repeat exactly."""
    per_rep = [tracing.per_layer_metrics(agg, [m["name"] for m in entries])
               for agg in aggregates]
    values, errors = {}, []
    for m in entries:
        series = [rep[m["name"]] for rep in per_rep]
        if m["unit"] == "s":
            values[m["name"]] = statistics.median(series)
        else:
            values[m["name"]] = series[0]
            if any(v != series[0] for v in series):
                errors.append(f"count {m['name']} changed between repetitions: {series}")
    return values, errors


def _write_trace(args, values: dict, walls: list[float], untraced_walls: list[float],
                 spans: list[list]) -> None:
    t0 = spans[0][1]
    path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "traced_wall_s": walls,
        "untraced_wall_s": untraced_walls,
        "per_layer": values,
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "spans": [[n, s - t0, e - t0, p] for n, s, e, p in spans],
    }))
    print(f"trace written to {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
