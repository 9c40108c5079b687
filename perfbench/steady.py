"""Steadiness check: two sets of benchmark runs of the same code.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10]

Each of the two sets runs every workload of BENCHMARK.json ``--runs`` times
for its ``run_seconds``, one seed per run (the first set seeds 1..runs, the
second runs+1..2*runs), visiting the workloads in turn so that each
workload's runs spread over the whole set. For every end-to-end metric it
prints each set's median and quartiles, the spread (interquartile distance
over the median) and the change of the second median against the first,
both as shares to compare with the metric's bound. The two sets agree when
every spread and the size of every change are within the bound, and the
share of failed operations is the same in both. The figures go to
``.perfbench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    sets = []
    for s in range(2):
        results = {w: [] for w in workloads}
        for r in range(args.runs):
            seed = s * args.runs + r + 1
            for w in workloads:
                t = time.perf_counter()
                res = run_once(w, seed, spec["run_seconds"])
                results[w].append(res)
                print(f"set {s + 1} {w} seed {seed}: "
                      + " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4f}"
                                 for m in metrics)
                      + f" failed={res['failed']}/{res['attempted']}"
                      + f" ({time.perf_counter() - t:.0f} s)", flush=True)
        sets.append(results)

    report, ok = {}, True
    print()
    for w in workloads:
        report[w] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [summary([r["metrics"][name]["value"] for r in results[w]])
                       for results in sets]
            entry = {"bound": bound, "sets": per_set}
            line = f"{w:9s} {name:12s} bound {bound:.2f}"
            for i, st in enumerate(per_set):
                line += (f" | set {i + 1}: median {st['median']:.4f} "
                         f"q1 {st['q1']:.4f} q3 {st['q3']:.4f} spread {st['spread']:.3f}")
                ok = ok and st["spread"] <= bound
            change = per_set[1]["median"] / per_set[0]["median"] - 1.0
            if m["better"] == "higher":
                change = -change
            entry["worsening"] = change
            line += f" | worsening {change:+.3f}"
            ok = ok and abs(change) <= bound
            report[w][name] = entry
            print(line)
        shares = [[(r["failed"], r["attempted"]) for r in results[w]] for results in sets]
        failed_share = [sum(f for f, _ in s) / sum(a for _, a in s) for s in shares]
        report[w]["failed_share"] = failed_share
        ok = ok and len(set(failed_share)) == 1 and all(r["correct"] for results in sets
                                                        for r in results[w])
        print(f"{w:9s} failed share per set: {failed_share}")
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    (ROOT / ".perfbench_out" / "steady.json").write_text(json.dumps(report, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
