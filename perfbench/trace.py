"""Traced run of every workload, with the tracing overhead.

Run from the repository root:

    python3 perfbench/trace.py [--seed 7]

For each workload it makes two traced runs (``run.py --trace 1``) with the
same seed, each for the ``run_seconds`` of BENCHMARK.json. It checks that every count repeats exactly between them, prints
the per-layer metrics the workload moves (the others read 0), and states
the tracing overhead: the median wall time of the traced repetitions over
that of the untraced repetitions interleaved with them in the same
process. The spans stay in ``.perfbench_out/trace_<workload>_seed<seed>.json``;
the summary goes to ``.perfbench_out/trace_summary.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from steady import ROOT, run_once


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    summary, ok = {}, True
    for w in (w["name"] for w in spec["workloads"]):
        runs = []
        for _ in range(2):
            res = run_once(w, args.seed, spec["run_seconds"], trace=1)
            trace_file = ROOT / ".perfbench_out" / f"trace_{w}_seed{args.seed}.json"
            runs.append((res, json.loads(trace_file.read_text())))
        counts = [{k: v["value"] for k, v in res["metrics"].items() if units[k] != "s"}
                  for res, _ in runs]
        repeat = counts[0] == counts[1]
        traced = statistics.median(t for _, tr in runs for t in tr["traced_wall_s"])
        untraced = statistics.median(t for _, tr in runs for t in tr["untraced_wall_s"])
        overhead = traced / untraced - 1.0
        ok = ok and repeat and all(res["correct"] for res, _ in runs)
        print(f"== {w}: traced repetitions {traced:.3f} s, untraced {untraced:.3f} s, "
              f"overhead {overhead:+.1%}, counts repeat: {repeat}")
        for name, entry in runs[0][0]["metrics"].items():
            if entry["value"]:
                print(f"   {name:45s} {entry['value']:.6g} {entry['unit']}")
        summary[w] = {"traced_wall_s": traced, "untraced_wall_s": untraced,
                      "overhead": overhead, "counts_repeat": repeat,
                      "per_layer": {k: v["value"] for k, v in runs[0][0]["metrics"].items()}}
    (ROOT / ".perfbench_out" / "trace_summary.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
