"""Width replay and the budgeted decomposition builder."""

import gc
import hashlib
import itertools
import os
import pathlib
import random
import subprocess
import sys
import textwrap
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_checked, canonical_grid_decomposition, random_merge_sequence
from permpat import (
    DecompositionResult,
    GridWitness,
    MergeSequence,
    Permutation,
    Point,
    ValidationError,
    brute_force_match,
    build_decomposition,
    canonical_grid,
    exact_width,
    f_bound,
    first_violation,
    format_grid_witness,
    format_merge_sequence,
    parse_merge_sequence,
    parse_permutation,
    random_permutation,
    random_separable,
    validate_merge_sequence,
    verify_grid,
    verify_wide,
    width_of_decomposition,
)
import permpat
import permpat.decompose
from permpat.core import reduce
from permpat.decompose import _axis_views, _interval_merges, _ranks, _stall_free_budget
from permpat.griddetect import Columns, _lift, find_grid_or_reduce, format_point_set


def test_canonical_grid_decomposition_2x2_frozen_steps():
    seq = canonical_grid_decomposition(2, 2)
    assert [tuple(s) for s in seq] == [(2, 1, 5), (4, 3, 6), (5, 6, 7)]


def test_canonical_grid_decomposition_width_is_exactly_r():
    for r in (2, 3, 4):
        perm = canonical_grid(r, r)
        seq = canonical_grid_decomposition(r, r)
        validate_merge_sequence(seq, len(perm), require_complete=True)
        assert width_of_decomposition(perm, seq) == r


def test_width_replay_frozen_example():
    perm = canonical_grid(2, 2)
    seq = canonical_grid_decomposition(2, 2)
    assert verify_wide(perm, seq, 2)
    assert not verify_wide(perm, seq, 1)
    assert first_violation(perm, seq, 2) is None
    assert first_violation(perm, seq, 1) == (1, 1)
    assert not verify_wide(perm, seq, 0)
    with pytest.raises(ValidationError):
        first_violation(perm, seq, 0)


def test_width_convention_for_tiny_inputs():
    assert width_of_decomposition(parse_permutation("1"), MergeSequence([])) == 1


def test_builder_on_worked_example():
    perm = parse_permutation("3 2 7 8 4 6 1 5")
    res = build_decomposition(perm, 2)
    assert not res.is_grid
    validate_merge_sequence(res.seq, 8, require_complete=True)
    assert verify_wide(perm, res.seq, 384)


def test_builder_is_deterministic():
    perm = random_permutation(400, 3)
    a = build_decomposition(perm, 2)
    b = build_decomposition(perm, 2)
    assert [tuple(s) for s in a.seq] == [tuple(s) for s in b.seq]


def test_builder_merge_order_is_pinned():
    # the merge order is part of the output: a merge pick that takes the
    # large cells in another order changes these digests
    seq = build_decomposition(random_separable(5000, 1), 2).seq
    assert len(seq) == 4999
    assert hashlib.sha1(format_merge_sequence(seq).encode()).hexdigest() == \
        "e147b3cff1105a7692cf7ac05a04e75581dd62b8"
    cells = build_decomposition(random_permutation(3000, 1), d=5).cells
    assert isinstance(cells, Columns)
    assert (cells.p, cells.q, len(cells)) == (600, 600, 2996)
    assert hashlib.sha1(format_point_set(cells.point_set()).encode()).hexdigest() == \
        "d3b450c307f407e5cc985e3bf8a251983aab88ea"


def test_grid_exit_witness_is_pinned():
    # the witness the grid finder picks among the stalled cells, lifted
    # back to the permutation
    res = build_decomposition(random_permutation(100000, 1), 2)
    assert res.is_grid
    assert hashlib.sha1(format_grid_witness(res.grid).encode()).hexdigest() == \
        "1486609199ee88a91413cb2cb98660d8eed03934"


def test_a_dense_start_takes_the_grid_exit_without_merging():
    # the 261 x 261 starting lines of 384 ranks already hold more occupied
    # cells than the grid finder's bound needs, so nothing is merged.  A
    # starting cell lists its points, and one witness cell of this target
    # holds three: each must give its least label
    n, d = 100000, 384
    perm = random_permutation(n, 1)
    stats = {}
    res = build_decomposition(perm, 2, stats=stats)
    assert res.is_grid and verify_grid(perm, res.grid, 2)
    assert stats["merges"] == 0 and stats["dense"]
    assert stats["coarsen_cols"] == stats["coarsen_rows"] == 0
    word = perm.word
    sizes = []
    for pt in (pt for row in res.grid.witnesses for pt in row):
        c, w = (pt.x - 1) // d, (pt.y - 1) // d
        labels = [l for l in range(c * d + 1, min(n, c * d + d) + 1)
                  if (word[l - 1] - 1) // d == w]
        assert pt.x == labels[0]
        sizes.append(len(labels))
    assert max(sizes) > 1


def test_a_dense_start_builds_no_state(monkeypatch):
    # a dense start is read from one pass over the word; only a sparse
    # start makes the builder state
    real = permpat.decompose._build_state

    def no_state(*args):
        raise AssertionError("builder state made for a dense start")

    monkeypatch.setattr(permpat.decompose, "_build_state", no_state)
    stats = {}
    res = build_decomposition(random_permutation(100000, 1), 2, stats=stats)
    assert hashlib.sha1(format_grid_witness(res.grid).encode()).hexdigest() == \
        "1486609199ee88a91413cb2cb98660d8eed03934"
    assert stats["merges"] == 0 and stats["dense"]
    calls = []

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(permpat.decompose, "_build_state", counted)
    res = build_decomposition(random_separable(2000, 1), 2)
    assert calls == [384] and len(res.seq) == 1999


def test_builds_at_r_1_are_pinned():
    # at d = 4 most of these builds take the dense start, and the rest
    # stall or complete: the digest covers each outcome and its stats
    digest = hashlib.sha1()
    kinds = {"start": 0, "stall": 0, "complete": 0}
    for make in (random_permutation, random_separable):
        for s in (1, 2, 3):
            for n in range(2, 297, 7):
                stats = {}
                res = build_decomposition(make(n, s), 1, stats=stats)
                out = (format_grid_witness(res.grid) if res.is_grid
                       else format_merge_sequence(res.seq))
                digest.update(("%s %d %d\n%s\n%r\n" % (make.__name__, n, s, out,
                                                       sorted(stats.items()))).encode())
                kind = ("complete" if not res.is_grid
                        else "start" if stats["merges"] == 0 else "stall")
                kinds[kind] += 1
    assert kinds == {"start": 237, "stall": 9, "complete": 12}
    assert digest.hexdigest() == "ca8d8e21a56c4eda6178e107eda6336364b9bb1c"


def _check_starting_rows(monkeypatch, perm, budget):
    """Build perm at budget and compare the rows the builder starts from
    with (y - 1) // d: the ``row_of`` handed to the builder state, or the
    column sets of a dense start handed to the finder (a finder call after
    a builder state reads the stalled cells)."""
    seen = {"row_of": [], "start": []}
    real_state = permpat.decompose._build_state
    real_finder = permpat.decompose.find_grid

    def state(n, d, row_of):
        seen["row_of"].append(list(row_of))
        return real_state(n, d, row_of)

    def finder(M, r):
        if not seen["row_of"]:
            seen["start"].append(M.cols)
        return real_finder(M, r)

    with monkeypatch.context() as m:
        m.setattr(permpat.decompose, "_build_state", state)
        m.setattr(permpat.decompose, "find_grid", finder)
        build_decomposition(perm, **budget)
    n = len(perm)
    d = budget.get("d") or 4 * f_bound(budget["r"])
    row_of = [(y - 1) // d for y in perm.word]
    if seen["start"]:
        assert seen == {"row_of": [], "start": [[set(row_of[lo:lo + d])
                                                  for lo in range(0, n, d)]]}
    else:
        assert seen["row_of"] == [row_of]
    return seen


@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 2000])
def test_the_starting_rows_are_each_value_s_row(monkeypatch, n):
    # the builder reads a value's row from a table; it must agree with the
    # division at budgets around n and far above it (r = 10)
    perm = random_permutation(n, 1)
    budgets = [{"d": d} for d in sorted({1, 2, 3, n - 1, n, n + 1, 384}) if d >= 1]
    for budget in budgets + [{"r": 1}, {"r": 2}, {"r": 10}]:
        _check_starting_rows(monkeypatch, perm, budget)


def test_the_starting_rows_of_a_dense_start_are_each_value_s_row(monkeypatch):
    seen = _check_starting_rows(monkeypatch, random_permutation(120000, 1), {"r": 2})
    assert seen["start"]


def test_a_sparse_start_builds_a_complete_sequence():
    perm = random_permutation(90000, 1)
    stats = {}
    res = build_decomposition(perm, 2, stats=stats)
    assert res.seq is not None and len(res.seq) == 89999
    assert stats["merges"] == 89999 and not stats["dense"]


def test_a_dense_start_builds_no_pair_list_of_its_cells():
    # the grid exit hands the finder the starting column sets as they are:
    # beyond the row per label and those sets, the build allocates less
    # than an eighth of one list of the 69,416 cells as 2-tuples (64 bytes
    # a cell), so it builds no such list
    perm = random_permutation(120000, 1)
    n, d = len(perm), 384
    tracemalloc.start()
    try:
        row_of = [(y - 1) // d for y in perm.word]
        occupied = [set(row_of[lo:lo + d]) for lo in range(0, n, d)]
        held = tracemalloc.get_traced_memory()[0]
        cells = sum(map(len, occupied))
        del row_of, occupied
        tracemalloc.clear_traces()
        res = build_decomposition(perm, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.is_grid and cells == 69416
    assert peak - held < 64 * cells // 8, (peak, held)


def test_a_build_from_d_merges_from_a_dense_start(monkeypatch):
    # the same dense start at the explicit budget 384: the builder merges
    # up to the stall and returns the cells, and never calls the finder
    def no_finder(M, r):
        raise AssertionError("find_grid called on a build from d")

    monkeypatch.setattr(permpat.decompose, "find_grid", no_finder)
    stats = {}
    cells = build_decomposition(random_permutation(100000, 1), d=384, stats=stats).cells
    assert isinstance(cells, Columns) and stats["dense"]
    assert stats["merges"] == 100000 - len(cells) > 0


def test_a_wrong_lifted_witness_raises_also_under_optimized_mode():
    # a grid finder whose witness rows come back in reverse order: the
    # builder's own check of the lifted witness must catch it, on the
    # dense start, also under ``python -O``
    script = textwrap.dedent("""
        import sys
        import permpat.decompose as dec
        from permpat import GridWitness, build_decomposition, random_permutation

        real = dec.find_grid

        def reversed_rows(M, r):
            w = real(M, r)
            return GridWitness(w.col_cuts, w.row_cuts, w.witnesses[::-1])

        dec.find_grid = reversed_rows
        stats = {}
        try:
            build_decomposition(random_permutation(100000, 1), 2, stats=stats)
            print(sys.flags.optimize, stats["merges"], "returned")
        except AssertionError:
            print(sys.flags.optimize, stats["merges"], "raised")
    """)
    src = str(pathlib.Path(permpat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for flags, optimize in (([], "0"), (["-O"], "1")):
        proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [optimize, "0", "raised"]


NO_CYCLE_BUILDS = {
    "complete": (lambda: random_separable(2000, 1), {"r": 2}, "seq"),
    "stall from d": (lambda: random_permutation(3000, 1), {"d": 5}, "cells"),
    "grid exit": (lambda: random_permutation(100000, 1), {"r": 2}, "grid"),
}


@pytest.mark.parametrize("make, kwargs, outcome", NO_CYCLE_BUILDS.values(),
                         ids=NO_CYCLE_BUILDS.keys())
def test_builds_leave_no_cyclic_garbage(make, kwargs, outcome):
    # the builder's state holds no reference cycle, so reference counting
    # frees it as the build returns and the cyclic collector finds nothing
    perm = make()
    gc.collect()
    gc.disable()
    try:
        res = build_decomposition(perm, **kwargs)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert getattr(res, outcome) is not None


def test_builder_trivial_and_error_inputs():
    res = build_decomposition(parse_permutation("1"), 2)
    assert not res.is_grid and len(res.seq) == 0
    with pytest.raises(ValidationError):
        build_decomposition(parse_permutation("2 1"), d=0)
    # exactly one of the grid order and the explicit budget
    for r, d in ((None, None), (2, 384)):
        with pytest.raises(ValidationError):
            build_decomposition(parse_permutation("2 1"), r, d=d)
    # the grid order and the budget are ints: no bools, no floats
    for r, d in ((None, True), (None, 2.5), (2.0, None), (True, None)):
        with pytest.raises(ValidationError):
            build_decomposition(parse_permutation("2 1"), r, d=d)


def test_builder_invariants_hold_after_every_merge():
    # a complete build that coarsens both axes
    perm = random_separable(2000, 1)
    stats = {}
    res = build_checked(perm, 2, stats=stats)
    assert verify_wide(perm, res.seq, 384)
    assert stats["coarsen_cols"] > 0 and stats["coarsen_rows"] > 0
    # the builds at r = 1 that stall after merging, and a stall from d
    stalls = 0
    for make in (random_permutation, random_separable):
        for s in (1, 2, 3):
            for n in range(2, 297, 7):
                stats = {}
                if build_checked(make(n, s), 1, stats=stats).is_grid and stats["merges"]:
                    stalls += 1
    assert stalls == 9
    stats = {}
    assert build_checked(random_permutation(3000, 1), d=5, stats=stats).cells is not None
    assert stats["merges"] > 0


def test_builder_width_never_exceeds_budget_on_random_inputs():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 60)
        perm = random_permutation(n, rng.randrange(1 << 30))
        res = build_decomposition(perm, 2)
        assert not res.is_grid  # tiny inputs always complete
        assert width_of_decomposition(perm, res.seq) <= 384


def test_budget_variant_completes_with_generous_budget():
    perm = random_permutation(50, 8)
    res = build_decomposition(perm, d=100)
    assert res.grid is None and res.cells is None
    assert verify_wide(perm, res.seq, 100)


def test_a_result_carries_exactly_one_outcome():
    seq = build_decomposition(parse_permutation("2 1"), d=2).seq
    with pytest.raises(ValidationError):
        DecompositionResult()
    with pytest.raises(ValidationError):
        DecompositionResult(seq=seq, grid=GridWitness([], [], [[Point(1, 1)]]))


def test_a_stall_from_d_keeps_the_line_bounds_the_lift_reads():
    # every one of these builds stalls; a grid that one block round finds
    # on the stalled cells lifts back to the permutation through ``_lift``
    # and the result's line bounds
    rounds = hits = 0
    for n in (2000, 5000):
        for s in (1, 2, 3):
            perm = random_permutation(n, s)
            for d in (8, 16, 32):
                res = build_decomposition(perm, d=d)
                cells, xs, ys = res.cells, res.xs, res.ys
                assert cells is not None
                for bounds, lines in ((xs, cells.p), (ys, cells.q)):
                    assert bounds[0] == 0 and bounds[-1] == n and len(bounds) - 1 == lines
                    assert all(a < b for a, b in zip(bounds, bounds[1:]))
                for r in (2, 3, 4):
                    for transposed in (False, True):
                        rounds += 1
                        sub = find_grid_or_reduce(cells, r, transposed)
                        if isinstance(sub, GridWitness):
                            hits += 1
                            assert verify_grid(perm, _lift(perm, sub, xs, ys, perm.word), r)
    assert (rounds, hits) == (108, 89)


def test_budget_variant_dense_branch_returns_heavy_cells():
    perm = canonical_grid(5, 5)
    res = build_decomposition(perm, d=2)
    assert res.seq is None and res.grid is None and not res.is_grid
    out = res.cells
    assert isinstance(out, Columns)
    assert out.p + out.q > 2
    assert 4 * len(out) > 2 * (out.p + out.q - 2)
    again = build_decomposition(perm, d=2).cells
    assert out.point_set() == again.point_set()


def test_stalled_results_compare_by_their_cells():
    perm = canonical_grid(5, 5)
    assert build_decomposition(perm, d=2) == build_decomposition(perm, d=2)
    cells = build_decomposition(perm, d=2).cells
    assert cells == Columns(cells.q, [set(rows) for rows in cells.cols])
    assert cells != Columns(cells.q + 1, cells.cols)
    assert cells != Columns(cells.q, cells.cols[:-1])
    assert cells != Columns(cells.q, [set(), *cells.cols[1:]])
    assert cells != cells.point_set()


def test_the_interval_pass_completes_exactly_on_separable_words():
    absent = [parse_permutation("2 4 1 3"), parse_permutation("3 1 4 2")]
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            perm = Permutation(word)
            separable = all(brute_force_match(s, perm) is None for s in absent)
            assert (_interval_merges(word) is not None) == separable, word


@pytest.mark.parametrize("n", [2, 17, 300, 2000])
def test_the_interval_pass_on_a_separable_word_has_width_1(n):
    for s in range(3):
        perm = random_separable(n, s)
        seq = MergeSequence._of_steps(_interval_merges(perm.word))
        validate_merge_sequence(seq, n, require_complete=True)
        assert width_of_decomposition(perm, seq) == 1


def test_stall_free_budget_is_the_least_budget_past_the_stall_bound():
    for n in range(1, 5001):
        d = 1
        while d < 2 * -(-n // d):
            d += 1
        assert _stall_free_budget(n) == d, n


STALL_FREE_CASES = {
    **{"uniform %d" % n: random_permutation(n, n) for n in (1, 2, 17, 300, 2000)},
    **{"separable %d" % n: random_separable(n, n) for n in (2, 17, 300, 2000)},
    **{"grid %dx%d" % rs: canonical_grid(*rs) for rs in
       ((1, 7), (7, 1), (4, 4), (8, 8), (3, 6), (8, 250), (250, 8), (45, 45))},
}


@pytest.mark.parametrize("perm", STALL_FREE_CASES.values(), ids=STALL_FREE_CASES.keys())
def test_builds_at_the_stall_free_budget_complete(perm):
    d = _stall_free_budget(len(perm))
    res = build_checked(perm, d=d)
    assert res.seq is not None
    assert verify_wide(perm, res.seq, d)


def test_stall_free_budget_is_tight_on_square_grids():
    # one budget below it, the square canonical grids stall
    for r in (4, 8, 45):
        perm = canonical_grid(r, r)
        assert build_decomposition(perm, d=_stall_free_budget(r * r) - 1).cells is not None


def test_builder_output_never_beats_the_exhaustive_width():
    # the builder can't do better than the true width
    rng = random.Random(37)
    for _ in range(10):
        n = rng.randint(2, 7)
        perm = random_permutation(n, rng.randrange(1 << 30))
        res = build_decomposition(perm, 2)
        assert width_of_decomposition(perm, res.seq) >= exact_width(perm)


def test_width_replay_rejects_foreign_sequence():
    perm = parse_permutation("2 1 3")
    with pytest.raises(ValidationError):
        width_of_decomposition(perm, parse_merge_sequence("1 5 6"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(1, n + 1))),
       st.sampled_from(["complete", "partial", "spread"]),
       st.randoms(use_true_random=False))
def test_width_replay_agrees_with_a_naive_count(word, kind, rng):
    n = len(word)
    if kind == "spread":
        # the points in a random order, on gapped coordinates; label l of
        # the reduced permutation is the point with the l-th smallest x
        xs = sorted(rng.sample(range(1, 10 * n + 1), n))
        ys = sorted(rng.sample(range(1, 10 * n + 1), n))
        pts = [Point(x, ys[v - 1]) for x, v in zip(xs, word)]
        perm = reduce(rng.sample(pts, n))
    else:
        perm = Permutation(word)
        pts = perm.points
    seq = random_merge_sequence(n, rng)
    if kind == "partial":
        seq = MergeSequence(list(seq)[:rng.randint(0, len(seq))])
    # every step's new box against every other live box, in plane coordinates
    box = {l: (p.x, p.x, p.y, p.y) for l, p in enumerate(pts, 1)}
    want = []
    for i, j, k in seq:
        a, b = box.pop(i), box.pop(j)
        new = (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))
        want.append((sum(o[0] <= new[1] and new[0] <= o[1] for o in box.values()),
                     sum(o[2] <= new[3] and new[2] <= o[3] for o in box.values())))
        box[k] = new
    for shift in SHIFTS:
        with mock.patch.object(permpat.decompose, "_BLOCK_SHIFT", shift):
            _check_records(perm, seq, want)
    width = max([max(v) for v in want], default=0) + 1
    assert width_of_decomposition(perm, seq) == width
    for d in range(1, width + 2):
        first = next(((p, max(v)) for p, v in enumerate(want, 1) if max(v) >= d), None)
        assert first_violation(perm, seq, d) == first


# every block size the replay tests run at: blocks of 1, 2, 8 and 64 ranks,
# so that rectangles span many blocks and the retired endpoints of a step
# often lie in different blocks, and the real 512
SHIFTS = (0, 1, 3, 6, 9)


def _records(views, floor):
    """(step number, count) of each step whose count exceeds ``floor`` and
    every count before it."""
    out = []
    for p, v in enumerate(views, 1):
        if v > floor:
            floor = v
            out.append((p, v))
    return out


def _check_records(perm, seq, want, every_floor=True):
    """Per axis, _axis_views' records against those of the naive per-step
    counts ``want``: at every floor from -1 to one past the axis's largest
    count, or else at -1, at one past the largest count and one below each
    of 16 records at -1 spread over them, where that record passes the
    floor by the least."""
    for rank, views in zip(_ranks(perm, seq), [[v[0] for v in want], [v[1] for v in want]]):
        top = max(views, default=0) + 1
        floors = range(-1, top + 1)
        if not every_floor:
            records = _records(views, -1)
            floors = {-1, top, *(v - 1 for _, v in records[::len(records) // 16 + 1])}
        for floor in floors:
            assert list(_axis_views(rank, seq, floor)) == _records(views, floor), floor


def _naive_views(perm, seq):
    """(x-views, y-views) of every step: the new box against every other
    live box, in plane coordinates."""
    box = {l: (p.x, p.x, p.y, p.y) for l, p in enumerate(perm.points, 1)}
    out = []
    for i, j, k in seq:
        a, b = box.pop(i), box.pop(j)
        x1, x2, y1, y2 = new = (min(a[0], b[0]), max(a[1], b[1]),
                                min(a[2], b[2]), max(a[3], b[3]))
        out.append((sum(o[0] <= x2 and x1 <= o[1] for o in box.values()),
                    sum(o[2] <= y2 and y1 <= o[3] for o in box.values())))
        box[k] = new
    return out


def _chains(n):
    """Complete sequences whose rectangles span many blocks: a
    left-to-right chain; a chain grown from the middle outward, alternately
    to the left and the right; one from 1 + n absorbing labels alternately
    from both ends; the pairs (i, i + n/2), then chained left to right; and
    the pairs (i, 2i) of odd i, then the rest chained left to right."""
    def chain(first, rest):
        steps = [(*first, n + 1)]
        for k, label in enumerate(rest, n + 1):
            steps.append((k, label, k + 1))
        return MergeSequence(steps)

    m = n // 2
    outward, inward = [], []
    for t in range(1, n):
        if m - t >= 1:
            outward.append(m - t)
        if m + 1 + t <= n:
            outward.append(m + 1 + t)
        if 1 + t < n - t:
            inward += [1 + t, n - t]
        elif 1 + t == n - t:
            inward.append(1 + t)
    pairs = [(i, i + m, n + i) for i in range(1, m + 1)]
    rest = list(range(n + 2, n + m + 1)) + ([n] if n % 2 else [])
    acc = n + 1
    for k, index in enumerate(rest, n + m + 1):
        pairs.append((acc, index, k))
        acc = k
    # each pair (i, 2i) of an odd i views more rectangles than the one
    # before, and the earlier pairs straddle the blocks left of it
    doubled = [(i, 2 * i, k) for k, i in enumerate(range(1, m + 1, 2), n + 1)]
    paired = {label for i, j, _ in doubled for label in (i, j)}
    acc, *rest = [l for l in range(1, n + 1) if l not in paired] + [k for *_, k in doubled]
    for k, index in enumerate(rest, n + len(doubled) + 1):
        doubled.append((acc, index, k))
        acc = k
    return [chain((1, 2), range(3, n + 1)), chain((m, m + 1), outward),
            chain((1, n), inward), MergeSequence(pairs), MergeSequence(doubled)]


@pytest.mark.parametrize("shift", SHIFTS)
def test_width_replay_across_blocks_agrees_with_a_naive_count(monkeypatch, shift):
    monkeypatch.setattr(permpat.decompose, "_BLOCK_SHIFT", shift)
    rng = random.Random(shift)
    for n in (2, 3, 17, 64, 65, 130, 300):
        perm = random_permutation(n, rng.randrange(1 << 30))
        seqs = _chains(n) + [random_merge_sequence(n, rng) for _ in range(3)]
        for seq in seqs:
            validate_merge_sequence(seq, n, require_complete=True)
            want = _naive_views(perm, seq)
            _check_records(perm, seq, want)
            assert width_of_decomposition(perm, seq) == max(map(max, want)) + 1


def test_width_replay_at_the_real_block_size_agrees_with_a_naive_count(monkeypatch):
    # n > 3 * 512: the rectangles span several of the real counter's
    # blocks.  Every floor would take minutes here
    rng = random.Random(5)
    n = 1700
    perm = random_permutation(n, 5)
    for seq in _chains(n) + [random_merge_sequence(n, rng)]:
        want = _naive_views(perm, seq)
        for shift in SHIFTS:
            monkeypatch.setattr(permpat.decompose, "_BLOCK_SHIFT", shift)
            _check_records(perm, seq, want, every_floor=False)


def _record_draws(monkeypatch):
    """Patch the view counter to record the steps each of its calls (x
    first, then y) reads; returns the list of their lists."""
    drawn = []
    axis_views = permpat.decompose._axis_views

    def recording(rank, steps, floor):
        read = []
        drawn.append(read)

        def steps_read():
            for step in steps:
                read.append(step)
                yield step
        return axis_views(rank, steps_read(), floor)

    monkeypatch.setattr(permpat.decompose, "_axis_views", recording)
    return drawn


def test_first_violation_stops_at_the_first_violating_step(monkeypatch):
    perm = canonical_grid(2, 2)
    seq = canonical_grid_decomposition(2, 2)
    assert _naive_views(perm, seq) == [(0, 1), (0, 1), (0, 0)]
    drawn = _record_draws(monkeypatch)
    assert first_violation(perm, seq, 1) == (1, 1)
    # x reads every step and finds no violation; y stops at its own
    assert drawn == [list(seq), [seq[0]]]
    assert not verify_wide(perm, seq, 1)
    # over budget at step 1, invalid at step 3: the whole sequence is
    # still validated before any step is counted
    bad = MergeSequence([(2, 1, 5), (4, 3, 6), (5, 5, 7)])
    for check in (first_violation, verify_wide):
        with pytest.raises(ValidationError, match="step 3"):
            check(perm, bad, 1)


@pytest.mark.parametrize("steps, views, first, x_reads, y_reads", [
    # y violates at step 1, x at step 2: each axis stops at its own
    ("2 3 5\n1 4 6\n5 6 7", [(0, 1), (1, 1), (0, 0)], (1, 1), 2, 1),
    # x violates at step 1, y at step 2: y reads no step past x's
    ("2 4 5\n1 3 6\n5 6 7", [(1, 0), (1, 1), (0, 0)], (1, 1), 1, 1),
    # both at step 1 with different counts: the larger one, either axis's
    ("1 4 5\n2 3 6\n5 6 7", [(2, 1), (1, 1), (0, 0)], (1, 2), 1, 1),
    ("1 3 5\n2 4 6\n5 6 7", [(1, 2), (1, 1), (0, 0)], (1, 2), 1, 1),
])
def test_first_violation_takes_the_earlier_axis_and_the_larger_count(
        monkeypatch, steps, views, first, x_reads, y_reads):
    perm = parse_permutation("1 2 4 3")
    seq = parse_merge_sequence(steps)
    assert _naive_views(perm, seq) == views
    drawn = _record_draws(monkeypatch)
    assert first_violation(perm, seq, 1) == first
    assert drawn == [list(seq[:x_reads]), list(seq[:y_reads])]
