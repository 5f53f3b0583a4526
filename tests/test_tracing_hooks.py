"""The traced benchmark reaches into the package by name; keep those names."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

from permpat import (build_decomposition, canonical_grid, find_pattern, match_auto,
                     parse_permutation, random_permutation, random_separable)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    if not TRACING.exists():
        pytest.skip("bench/tracing.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    missing = [(mod, attr) for mod, attr, _ in tracing.HOOKS
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_stats_hooks_accept_a_stats_dict(tracing):
    for mod, attr, span in tracing.HOOKS:
        if span in tracing.STATS_ARG:
            fn = getattr(importlib.import_module(mod), attr)
            assert "stats" in inspect.signature(fn).parameters, (mod, attr)
    # the counters the hooks read back
    pi = parse_permutation("3 2 7 8 4 6 1 5")
    build_stats, dp_stats = {}, {}
    seq = build_decomposition(pi, 2, stats=build_stats).seq
    find_pattern(parse_permutation("2 1 3"), pi, seq, stats=dp_stats)
    assert {"coarsen_cols", "coarsen_rows"} <= set(build_stats)
    assert {"entries", "max_components"} <= set(dp_stats)


def test_traced_match_auto_counts_every_build(tracing):
    # the benchmark's small-DP query shapes, which build from an explicit
    # budget, and one target that stalls the paper build into the grid exit
    small = []
    for seed in range(4):
        small += [(random_permutation(3, seed), random_permutation(18, seed)),
                  (random_permutation(3, seed + 4), random_separable(16, seed)),
                  (random_permutation(4, seed), random_permutation(10, seed))]
    grid = [(parse_permutation("2 1"), canonical_grid(500, 500))]
    for queries, grid_exits in ((small, 0), (grid, 1)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for sigma, pi in queries:
                match_auto(sigma, pi)
        finally:
            tracer.uninstall()
        assert tracer.counts["builds"] == len(queries)
        assert tracer.counts["grid_exits"] == grid_exits
