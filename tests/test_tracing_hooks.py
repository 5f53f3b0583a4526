"""The traced benchmark reaches into the package by name; keep those names."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

from permpat import build_decomposition, find_pattern, parse_permutation

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
