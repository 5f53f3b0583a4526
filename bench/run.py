#!/usr/bin/env python3
"""Benchmark of the permpat pipeline: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; ``permpat`` is imported from its
``src``.  The workload's inputs come from the seed alone.  Set-up imports
permpat, parses the inputs (three times; the median counts) and runs
warm-up queries (see ``ROUNDS``).  The query phase runs whole rounds for
a third of ``--seconds`` and then the same rounds twice more (see
``PASSES``).  Every answer is checked against the benchmark's own
computation (``checks.py``) outside the timed region, and times are
scaled to the reference machine's usual speed (``hostspeed.py``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced executions of each query, so its
``trace.overhead_ratio`` compares the two on the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_results"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("grid_exit", "dp_small", "decompose_large", "polyspace")
SETUP_REPEATS = 3
# The query phase runs its rounds three times and takes the median
# execution of each query.  The host's speed changes by up to twice within
# seconds (see README), so an execution far from the usual speed is
# outvoted by the other two, made a third of the run apart.
PASSES = 3
TIME_LIMIT_S = 170  # SIGALRM ends a run that would pass 180 s


class WrongExit(Exception):
    """The query took the other exit of the pipeline than its workload."""


class Query:
    """One call of the workload's operation and what the answer must be."""

    def __init__(self, target: List[int], pattern: Optional[List[int]] = None,
                 absent: bool = False, key: int = 0):
        self.target = target
        self.pattern = pattern
        self.absent = absent  # known absent from a class property
        self.key = key  # index of the target among the run's distinct targets
        self.args: tuple = ()


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, the timed call, the answer check
# ---------------------------------------------------------------------------

def grid_exit_rounds(rng: random.Random) -> List[List[Query]]:
    """One uniform target of n = 120000 with 1 2 or 2 1.  The builder
    stalls at this size and the grid exit answers; at n = 100000 some
    seeds still complete a sequence, and the DP then runs for minutes."""
    target = gen.uniform(120000, rng)
    return [[Query(target, rng.choice([[1, 2], [2, 1]]))]]


def dp_small_rounds(rng: random.Random, count: int = 60) -> List[List[Query]]:
    """Rounds with fresh targets: 3-patterns on uniform
    n = 18 and 14 and on separable n = 16, a 4-pattern on uniform n = 10,
    and 2413 or 3142 (absent) on separable n = 8."""
    rounds = []
    for r in range(count):
        base = 5 * r
        rounds.append([
            Query(gen.uniform(18, rng), gen.uniform(3, rng), key=base),
            Query(gen.separable(16, rng), gen.uniform(3, rng), key=base + 1),
            Query(gen.uniform(14, rng), gen.uniform(3, rng), key=base + 2),
            Query(gen.uniform(10, rng), gen.uniform(4, rng), key=base + 3),
            Query(gen.separable(8, rng), [2, 4, 1, 3] if r % 2 else [3, 1, 4, 2],
                  absent=True, key=base + 4),
        ])
    return rounds


def decompose_large_rounds(rng: random.Random) -> List[List[Query]]:
    """One separable target of n = 100000 for ``decompose --r 2 --verify``."""
    return [[Query(gen.separable(100000, rng))]]


def polyspace_rounds(rng: random.Random, count: int = 48) -> List[List[Query]]:
    """Rounds with fresh targets: a 5-pattern and a 4- or
    6-pattern planted in unions of two monotone runs of n = 2000, the
    decreasing 3-pattern on a union of two increasing runs of n = 1000
    (absent), and 2413 or 3142 on separable n = 30 (absent)."""
    rounds = []
    for r in range(count):
        base = 4 * r
        planted = []
        for i, ell in enumerate((5, 4 if r % 2 else 6)):
            word = gen.monotone_runs(2000, [rng.choice((1, -1)) for _ in range(2)], rng)
            planted.append(Query(word, gen.planted_pattern(word, ell, rng), key=base + i))
        rounds.append([
            planted[0],
            Query(gen.monotone_runs(1000, [1, 1], rng), [3, 2, 1], absent=True, key=base + 2),
            planted[1],
            Query(gen.separable(30, rng), [2, 4, 1, 3] if r % 2 else [3, 1, 4, 2],
                  absent=True, key=base + 3),
        ])
    return rounds


# workload -> (rounds of a run, warm-up rounds of a fixed seed).  The first
# query is the warm-up on the two large-input workloads.  On the
# small-input ones one query's cost varies several-fold with the seed, so
# three rounds drawn from a seed of their own keep that out of setup_s.
ROUNDS = {
    "grid_exit": (grid_exit_rounds, 0),
    "dp_small": (dp_small_rounds, 3),
    "decompose_large": (decompose_large_rounds, 0),
    "polyspace": (polyspace_rounds, 3),
}


class Workload:
    """Set-up, the timed call and the answer check of one workload."""

    def __init__(self, name: str, seed: int, permpat):
        self.name = name
        self.permpat = permpat
        make, warm_rounds = ROUNDS[name]
        self.rounds = make(random.Random("%s/%d" % (name, seed)))
        self.queries = [q for rnd in self.rounds for q in rnd]
        self.warmup = self.queries[:1]
        if warm_rounds:
            self.warmup = [q for rnd in make(random.Random(name + "/warm-up"), warm_rounds)
                           for q in rnd]
            for q in self.warmup:
                q.key = -1 - q.key  # apart from the measured targets
        self.verified = {}  # target key -> checked decompose output
        self.widths = {}  # target key -> width of its merge sequence
        if name == "decompose_large":
            OUT.mkdir(exist_ok=True)
            for q in self.queries:
                path = OUT / ("input-%s-%d.txt" % (name, q.key))
                path.write_text(gen.text(q.target), encoding="utf-8")
                q.args = (["decompose", "--text", str(path), "--r", "2", "--verify"],)

    def targets(self):
        seen = set()
        for q in self.queries + self.warmup:
            if q.key not in seen:
                seen.add(q.key)
                yield q

    def parse(self) -> None:
        """Turn the input texts into program objects (timed as set-up)."""
        if self.name == "decompose_large":
            return  # the CLI parses its input file inside each query
        core = self.permpat.core
        parsed = {}
        for q in self.targets():
            parsed[q.key] = core.parse_permutation(gen.text(q.target))
        for q in self.queries + self.warmup:
            q.args = (core.parse_permutation(gen.text(q.pattern)), parsed[q.key])

    def call(self, q: Query):
        p = self.permpat
        if self.name == "decompose_large":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = p.cli.main(*q.args)
            return rc, out.getvalue()
        if self.name == "polyspace":
            return p.monotone.poly_space_match(*q.args)
        return p.matcher.match_auto(*q.args)

    def check(self, q: Query, answer) -> None:
        if self.name == "decompose_large":
            rc, text = answer
            if rc != 0 or text.startswith("GRID"):
                raise WrongExit("decompose exited %d with %r" % (rc, text[:20]))
            if self.verified.get(q.key) == text:
                return
            self.widths[q.key] = checks.check_decompose_output(q.target, text, 2)
            self.verified[q.key] = text
            return
        if q.absent:
            checks.expect_absent(answer)
        elif answer is not None or checks.contains(q.pattern, q.target):
            checks.expect_found(q.pattern, q.target, answer)

    def install_exit_guard(self) -> None:
        """Make the other exit fail fast instead of answering."""
        if self.name == "grid_exit":
            self._guard(self.permpat.matcher, "find_pattern")
        elif self.name == "dp_small":
            self._guard(self.permpat.decompose, "find_grid")

    @staticmethod
    def _guard(module, attr: str) -> None:
        def refuse(*args, **kwargs):
            raise WrongExit("%s.%s called" % (module.__name__, attr))
        setattr(module, attr, refuse)

    def width(self, q: Query, seq) -> int:
        if q.key not in self.widths:
            self.widths[q.key] = checks.replay_width(q.target, [tuple(s) for s in seq])
        return self.widths[q.key]


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def import_permpat():
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import permpat
    import permpat.cli  # noqa: F401  (not re-exported by the package)
    import_s = time.perf_counter() - start
    here = Path(permpat.__file__).resolve()
    if ROOT / "src" not in here.parents:
        raise ImportError("permpat was imported from %s, not from %s" % (here, ROOT / "src"))
    return permpat, import_s


class Runner:
    def __init__(self, workload: Workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.last: Tuple[float, float] = (0.0, 0.0)  # start and end of the last call

    def attempt(self, q: Query, before: Callable = None,
                after: Callable = None) -> Optional[Tuple[float, float]]:
        """Run and check one query; the start and end of the call, or None
        if it failed."""
        self.attempted += 1
        try:
            if before is not None:
                before()
            start = time.perf_counter()
            try:
                answer = self.w.call(q)
            finally:
                end = time.perf_counter()
                self.last = (start, end)
                if after is not None:
                    after()
            self.w.check(q, answer)
        except WrongExit as exc:
            self.failed += 1
            print("failed query on target %d: %s" % (q.key, exc), file=sys.stderr)
            return None
        except checks.CheckFailed as exc:
            self.correct = False
            print("wrong answer on target %d: %s" % (q.key, exc), file=sys.stderr)
        return start, end

    def query_phase(self, seconds: float, run_round: Callable[[int, List[Query]], None],
                    passes: int = 1) -> None:
        """The first pass runs whole rounds, in order, until the next one
        would end past seconds / passes (at least one round); the other
        passes repeat the same rounds."""
        rounds = self.w.rounds
        spent = 0.0
        done = 0
        while True:
            start = time.perf_counter()
            run_round(done, rounds[done % len(rounds)])
            spent += time.perf_counter() - start
            done += 1
            if spent + spent / done > seconds / passes:
                break
        for _ in range(passes - 1):
            for i in range(done):
                run_round(i, rounds[i % len(rounds)])


def run(args) -> int:
    signal.alarm(TIME_LIMIT_S)
    try:
        permpat, import_s = import_permpat()
    except ImportError as exc:
        print("error: cannot import permpat from %s: %s" % (ROOT / "src", exc), file=sys.stderr)
        return 2
    w = Workload(args.workload, args.seed, permpat)
    w.install_exit_guard()
    runner = Runner(w)
    # the traced run reports raw times: the probe's samples would land in
    # the spans
    probe = hostspeed.Probe()
    if not args.trace:
        probe.start()

    parses = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        w.parse()
        parses.append((start, time.perf_counter()))
    warm = []
    for q in w.warmup:
        # a failed warm-up still counts as set-up; its query fails again
        # in the query phase, where it is counted
        runner.attempt(q)
        warm.append(runner.last)
    runner.attempted = runner.failed = 0  # the warm-up is set-up, not a query

    if args.trace:
        metrics = traced_phase(w, runner, args)
    else:
        runs: Dict[tuple, List[Tuple[float, float]]] = defaultdict(list)

        def run_round(i: int, rnd: List[Query]) -> None:
            for pos, q in enumerate(rnd):
                interval = runner.attempt(q)
                if interval is not None:
                    runs[(i, pos)].append(interval)

        runner.query_phase(args.seconds, run_round, PASSES)
        probe.stop()
        print("speed probe: %d samples, median kernel %.4f ms (reference %.4f ms)" % (
            len(probe.samples), 1000 * probe.median_kernel_s(), 1000 * hostspeed.REF_S),
            file=sys.stderr)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = (import_s + statistics.median(probe.scaled(*iv) for iv in parses)
                   + sum(probe.scaled(*iv) for iv in warm))
        # a query's latency is the median of its executions: see PASSES
        times = [statistics.median(probe.scaled(*iv) for iv in ivs)
                 for ivs in runs.values() if len(ivs) == PASSES]
        # with every query failed there is no latency to report
        metrics = {
            "queries_per_s": {"value": len(times) / sum(times) if times else 0.0, "unit": "1/s"},
            "query_p50_s": {"value": statistics.median(times) if times else None, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    result = {"correct": runner.correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if runner.correct else 1


def traced_phase(w: Workload, runner: Runner, args) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    w.parse()  # traced pass over the set-up parse, for core.parse_s
    tracer.uninstall()
    roots: List[int] = []
    ratios: List[float] = []
    widths: List[int] = []

    def traced_attempt(q: Query) -> Optional[Tuple[float, float]]:
        holder = []
        interval = runner.attempt(
            q, before=lambda: (tracer.install(), holder.append(tracer.begin("query"))),
            after=lambda: (tracer.end(holder[0]), tracer.uninstall()))
        if interval is not None:
            roots.append(holder[0])
            widths.extend(w.width(q, seq) for seq in tracer.sequences)
        tracer.sequences.clear()
        return interval

    pairs = [0]

    def run_round(i: int, rnd: List[Query]) -> None:
        for q in rnd:
            # alternate which of the pair runs first
            pairs[0] += 1
            if pairs[0] % 2:
                plain, traced = runner.attempt(q), traced_attempt(q)
            else:
                traced, plain = traced_attempt(q), runner.attempt(q)
            if plain is not None and traced is not None:
                ratios.append((traced[1] - traced[0]) / (plain[1] - plain[0]))

    runner.query_phase(args.seconds, run_round)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / ("spans-%s-%d.jsonl" % (w.name, args.seed)))
    targets = (len(roots) or 1) if w.name == "decompose_large" else len(list(w.targets()))
    overhead = statistics.median(ratios) if ratios else None  # None: every query failed
    layers = tracing.layer_metrics(tracer, roots, widths, overhead, targets)
    with open(OUT / ("layers-%s-%d.json" % (w.name, args.seed)), "w", encoding="utf-8") as fh:
        json.dump(layers, fh, indent=1)
    return {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process; a table, then, if all of them
    ran, one JSON line keyed by workload."""
    results = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s: exit %d" % (name, proc.returncode))
            status = 1
            continue
        res = json.loads(lines[-1])
        results[name] = res
        print("%s: correct=%s attempted=%d failed=%d" % (
            name, res["correct"], res["attempted"], res["failed"]))
        for metric, m in res["metrics"].items():
            print("  %-28s %14.6g %s" % (metric, m["value"], m["unit"]))
    if status == 0:
        print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
