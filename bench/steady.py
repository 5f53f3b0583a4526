#!/usr/bin/env python3
"""Steadiness check: two sets of untraced runs of the same code.

    python3 bench/steady.py --runs 10

Every workload of BENCHMARK.json runs for its run_seconds.  Run i of each
workload goes once into set A (seed i) and once into set B (seed
1000 + i); the two alternate which runs first.  For every end-to-end
metric the command prints each set's median and quartiles
(``statistics.quantiles(values, n=4)``), the quartile distance as a share
of the median ("spread"), the share by which set B's median is worse than
set A's ("gap"), and the metric's bound.  A row passes when the spread of
both sets and the size of the gap, in either direction, stay within the
bound; the failed share of the two sets must be equal.  It also prints
each set's median of the runs' speed-probe medians (hostspeed.py), which
has no bound.  The raw results go to .bench_results/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d exited %d" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    probe = re.search(r"median kernel ([0-9.]+) ms", proc.stderr)
    result["probe_ms"] = float(probe.group(1))
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {(w, s): [] for w in workloads for s in "AB"}
    for i in range(args.runs):
        for w in workloads:
            order = "AB" if i % 2 == 0 else "BA"
            for s in order:
                seed = 1 + i + (1000 if s == "B" else 0)
                res = one_run(w, seed, spec["run_seconds"])
                runs[(w, s)].append(res)
                print("run %d %s set %s seed %d: %.1f s wall, %s" % (
                    i, w, s, seed, res["wall_s"],
                    " ".join("%s=%.4g" % (k, m["value"]) for k, m in res["metrics"].items())),
                    file=sys.stderr, flush=True)
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    path = out / ("steady-%d.json" % time.time())
    path.write_text(json.dumps({"%s/%s" % k: v for k, v in runs.items()}), encoding="utf-8")

    ok = True
    print("%-16s %-14s %-36s %-36s %7s %6s" % ("workload", "metric", "set A median [q1, q3] spread",
                                              "set B median [q1, q3] spread", "gap", "bound"))
    for w in workloads:
        a_runs, b_runs = runs[(w, "A")], runs[(w, "B")]
        fa = [r["failed"] / r["attempted"] for r in a_runs]
        fb = [r["failed"] / r["attempted"] for r in b_runs]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            ma, qa1, qa3, sa = spread(a)
            mb, qb1, qb3, sb = spread(b)
            gap = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            row_ok = abs(gap) <= bound and sa <= bound and sb <= bound
            ok &= row_ok
            print("%-16s %-14s %10.4g [%9.4g, %9.4g] %5.3f %10.4g [%9.4g, %9.4g] %5.3f %+7.3f %6.3f %s" % (
                w, name, ma, qa1, qa3, sa, mb, qb1, qb3, sb, gap, bound, "ok" if row_ok else "FAIL"))
        print("%-16s %-14s %10.4g %49.4g" % (
            w, "probe_ms", statistics.median(r["probe_ms"] for r in a_runs),
            statistics.median(r["probe_ms"] for r in b_runs)))
        same = sum(fa) == sum(fb) and set(fa) == set(fb)
        ok &= same
        print("%-16s failed share A %s B %s %s" % (w, sorted(set(fa)), sorted(set(fb)),
                                                   "ok" if same else "FAIL"))
    print("raw results:", path.relative_to(ROOT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
