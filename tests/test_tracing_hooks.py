"""The traced benchmark reaches into the package by name; keep those names,
and keep no public code that only the tests call."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

from permpat import (build_decomposition, canonical_grid, find_pattern, match_auto,
                     parse_permutation, random_permutation, random_separable)

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


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
    # budget unless the target is separable (the four random_separable ones
    # take the interval pass instead), and one target that stalls the paper
    # build into the grid exit
    small = []
    for seed in range(4):
        small += [(random_permutation(3, seed), random_permutation(18, seed)),
                  (random_permutation(3, seed + 4), random_separable(16, seed)),
                  (random_permutation(4, seed), random_permutation(10, seed))]
    grid = [(parse_permutation("2 1"), canonical_grid(500, 500))]
    for queries, builds, grid_exits in ((small, 8, 0), (grid, 1, 1)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for sigma, pi in queries:
                match_auto(sigma, pi)
        finally:
            tracer.uninstall()
        assert tracer.counts["builds"] == builds
        assert tracer.counts["grid_exits"] == grid_exits


def _public_definitions(tree):
    """(name, node) of each public top-level function or class and each
    public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def test_public_code_has_a_caller_outside_the_tests(tracing):
    # a name counts as called when code (not docstring text) names it
    # outside its own definition, in the package or the benchmark
    sources = sorted((ROOT / "src" / "permpat").glob("*.py"))
    sources += sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    uses = []  # (name, path, line)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, path, node.lineno))
    hooked = {attr for _, attr, _ in tracing.HOOKS}
    uncalled = []
    for path, tree in trees.items():
        if path.parent.name != "permpat" or path.name in ("__init__.py", "oracle.py"):
            continue
        for name, node in _public_definitions(tree):
            if name in hooked:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(used == name and not (where == path and line in inside)
                       for used, where, line in uses):
                uncalled.append("%s:%s" % (path.name, name))
    assert uncalled == []
