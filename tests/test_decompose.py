"""Width replay and the budgeted decomposition builder."""

import gc
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_merge_sequence
from permpat import (
    MergeSequence,
    Permutation,
    Point,
    PointSet,
    ValidationError,
    build_decomposition,
    canonical_grid,
    canonical_grid_decomposition,
    exact_width,
    first_violation,
    format_grid_witness,
    format_merge_sequence,
    format_point_set,
    parse_merge_sequence,
    parse_permutation,
    random_permutation,
    random_separable,
    reduce,
    validate_merge_sequence,
    verify_wide,
    width_of_decomposition,
)
from permpat.decompose import _replay_views, _stall_free_budget


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


def test_width_convention_for_tiny_inputs():
    assert width_of_decomposition(parse_permutation("1"), MergeSequence([])) == 1


def test_builder_on_worked_example():
    perm = parse_permutation("3 2 7 8 4 6 1 5")
    res = build_decomposition(perm, 2)
    assert not res.is_grid
    assert res.width_bound == 384
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
    assert isinstance(cells, PointSet)
    assert (cells.p, cells.q, len(cells)) == (600, 600, 2996)
    assert hashlib.sha1(format_point_set(cells).encode()).hexdigest() == \
        "d3b450c307f407e5cc985e3bf8a251983aab88ea"


def test_grid_exit_witness_is_pinned():
    # the witness the grid finder picks among the stalled cells, lifted
    # back to the permutation
    res = build_decomposition(random_permutation(100000, 1), 2)
    assert res.is_grid
    assert hashlib.sha1(format_grid_witness(res.grid).encode()).hexdigest() == \
        "1486609199ee88a91413cb2cb98660d8eed03934"


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


def test_builder_validate_flag():
    perm = random_separable(300, 5)
    res = build_decomposition(perm, 2, validate=True)
    assert verify_wide(perm, res.seq, 384)


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
    assert res.width_bound == 100 and res.grid is None and res.cells is None
    assert verify_wide(perm, res.seq, 100)


def test_budget_variant_dense_branch_returns_heavy_cells():
    perm = canonical_grid(5, 5)
    res = build_decomposition(perm, d=2)
    assert res.seq is None and res.grid is None and not res.is_grid
    out = res.cells
    assert isinstance(out, PointSet)
    assert out.p + out.q > 2
    assert 4 * len(out) > 2 * (out.p + out.q - 2)
    again = build_decomposition(perm, d=2).cells
    assert out == again


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
    res = build_decomposition(perm, d=d, validate=True)
    assert res.seq is not None and res.width_bound == d
    assert verify_wide(perm, res.seq, d)


def test_stall_free_budget_is_tight_on_square_grids():
    # one budget below it, the square canonical grids stall
    for r in (4, 8, 45):
        perm = canonical_grid(r, r)
        assert build_decomposition(perm, d=_stall_free_budget(r * r) - 1).cells is not None


def test_builder_output_beats_exhaustive_width_bound_never():
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
    assert [(v1, v2) for _, v1, v2 in _replay_views(perm, seq)] == want
    width = max([max(v) for v in want], default=0) + 1
    assert width_of_decomposition(perm, seq) == width
    for d in range(1, width + 2):
        first = next(((p, max(v)) for p, v in enumerate(want, 1) if max(v) >= d), None)
        assert first_violation(perm, seq, d) == first
