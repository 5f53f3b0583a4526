"""Spans around the calls into permpat's layers, recorded from outside.

The traced run replaces the module-level names through which the pipeline
calls each layer (``permpat.matcher.build_decomposition``,
``permpat.decompose.find_grid``, ``permpat.cli.verify_wide``, ...) by
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Where the function takes a ``stats=`` dict
the wrapper passes one and keeps its counters.  Spans stay in memory until
the run writes them out.  ``oracle`` is a reference implementation and is
never wrapped.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# (module, attribute, span name).  The span name's first part is the layer.
HOOKS = [
    # entry points the benchmark itself calls
    ("permpat.cli", "main", "cli.main"),
    ("permpat.core", "parse_permutation", "core.parse"),
    # names the pipeline calls between layers
    ("permpat.cli", "parse_permutation", "core.parse"),
    ("permpat.matcher", "reduce", "core.reduce"),
    ("permpat.matcher", "verify_embedding", "core.verify_embedding"),
    ("permpat.monotone", "verify_embedding", "core.verify_embedding"),
    ("permpat.decompose", "verify_grid", "core.verify_grid"),
    ("permpat.griddetect", "verify_grid", "core.verify_grid"),
    ("permpat.cli", "verify_grid", "core.verify_grid"),
    ("permpat.cli", "format_merge_sequence", "core.format"),
    ("permpat.cli", "format_grid_witness", "core.format"),
    ("permpat.matcher", "build_decomposition", "decompose.build"),
    ("permpat.cli", "build_decomposition", "decompose.build"),
    ("permpat.cli", "verify_wide", "decompose.replay"),
    ("permpat.cli", "width_of_decomposition", "decompose.replay"),
    ("permpat.decompose", "find_grid", "griddetect.find_grid"),
    ("permpat.matcher", "find_pattern", "matcher.find_pattern"),
    ("permpat.monotone", "greedy_monotone_partition", "monotone.partition"),
    ("permpat.monotone", "sigma_pi_embedding", "monotone.twosat"),
]

STATS_ARG = {"decompose.build", "matcher.find_pattern"}

# per-layer self time metrics: metric name -> span name
SELF_TIMES = {
    "core.parse_s": "core.parse",
    "core.reduce_s": "core.reduce",
    "core.verify_embedding_s": "core.verify_embedding",
    "core.verify_grid_s": "core.verify_grid",
    "core.format_s": "core.format",
    "decompose.build_s": "decompose.build",
    "decompose.replay_s": "decompose.replay",
    "griddetect.find_grid_s": "griddetect.find_grid",
    "matcher.find_pattern_s": "matcher.find_pattern",
    "monotone.partition_s": "monotone.partition",
    "monotone.twosat_s": "monotone.twosat",
    "cli.self_s": "cli.main",
}


class Tracer:
    """Span and counter store of one traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        self._open: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.sequences: List = []  # merge sequences of completed builds
        self._saved: List[tuple] = []
        self._cells = 0

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        on_result = _ON_RESULT.get(name)
        pass_stats = name in STATS_ARG

        def traced(*args, **kwargs):
            if pass_stats and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- reduction -------------------------------------------------------

    def self_times(self, roots: List[int]) -> Dict[str, float]:
        """Total self time per span name over the spans under the given
        root spans (roots included); a span's self time is its duration
        minus the durations of its children, which never overlap."""
        under = set(roots)
        child_time: Dict[int, float] = defaultdict(float)
        for idx, (_, start, end, parent) in enumerate(self.spans):
            if parent in under:
                under.add(idx)
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for idx in under:
            name, start, end, _ = self.spans[idx]
            totals[name] += (end - start) - child_time[idx]
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


# -- counters collected from results ------------------------------------

def _on_build(tracer: Tracer, args, kwargs, result) -> None:
    stats = kwargs["stats"]
    tracer.counts["builds"] += 1
    tracer.counts["coarsenings"] += stats.get("coarsen_cols", 0) + stats.get("coarsen_rows", 0)
    n = len(args[0])
    if result.is_grid:
        tracer.counts["grid_exits"] += 1
        # at the stall every occupied cell holds one rectangle
        tracer.counts["merges"] += n - tracer._cells
    else:
        tracer.counts["merges"] += len(result.seq)
        tracer.sequences.append(result.seq)


def _on_find_grid(tracer: Tracer, args, kwargs, result) -> None:
    tracer._cells = len(args[0])
    tracer.counts["cells"] += tracer._cells


def _on_find_pattern(tracer: Tracer, args, kwargs, result) -> None:
    stats = kwargs["stats"]
    tracer.counts["dp_entries"] += stats.get("entries", 0)
    tracer.counts["max_components"] = max(tracer.counts["max_components"],
                                          stats.get("max_components", 0))


def _on_partition(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["partitions"] += 1
    tracer.counts["classes"] += result.t


def _on_twosat(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["twosat_calls"] += 1
    tracer.counts["twosat_hits"] += result is not None


def _on_replay(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["replays"] += 1


_ON_RESULT: Dict[str, Callable] = {
    "decompose.build": _on_build,
    "griddetect.find_grid": _on_find_grid,
    "matcher.find_pattern": _on_find_pattern,
    "monotone.partition": _on_partition,
    "monotone.twosat": _on_twosat,
    "decompose.replay": _on_replay,
}


def layer_metrics(tracer: Tracer, query_roots: List[int], widths: List[int],
                  overhead: Optional[float], targets: int) -> Dict[str, float]:
    """The per-layer metrics of a traced run.  Times are self seconds per
    traced query, except ``core.parse_s``, which is per target parsed
    (inside the queries on decompose_large, in a traced pass over the
    set-up inputs elsewhere, where the few short pattern texts are
    parsed too).  Counts are per traced query, except the
    totals ``decompose.grid_exits`` and ``trace.queries`` and the maxima."""
    q = len(query_roots) or 1  # no traced query answered: totals are 0
    per_query = tracer.self_times(query_roots)
    parses = [i for i, s in enumerate(tracer.spans) if s[0] == "core.parse"]
    parse_s = tracer.self_times(parses)["core.parse"] / targets if parses else 0.0
    c = tracer.counts
    out: Dict[str, float] = {}
    for metric, span in SELF_TIMES.items():
        out[metric] = parse_s if span == "core.parse" else per_query.get(span, 0.0) / q
    out.update({
        "decompose.merges": c["merges"] / q,
        "decompose.coarsenings": c["coarsenings"] / q,
        "decompose.grid_exits": c["grid_exits"],
        "decompose.seq_width_max": max(widths, default=0),
        "decompose.replays": c["replays"] / q,
        "griddetect.cells": c["cells"] / q,
        "matcher.dp_entries": c["dp_entries"] / q,
        "matcher.max_components": c["max_components"],
        "monotone.classes": c["classes"] / c["partitions"] if c["partitions"] else 0.0,
        "monotone.twosat_calls": c["twosat_calls"] / q,
        "monotone.twosat_hit_ratio": c["twosat_hits"] / c["twosat_calls"] if c["twosat_calls"] else 0.0,
        "trace.overhead_ratio": overhead,
        "trace.queries": len(query_roots),
    })
    return out
