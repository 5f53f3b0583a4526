"""Dense-grid extraction: counting bound, block contraction, verification."""

import hashlib
import random

import pytest

from permpat import (
    Columns,
    GridWitness,
    ParseError,
    Point,
    ValidationError,
    f_bound,
    find_grid,
    format_grid_witness,
    grid_search,
    verify_grid,
)
import permpat.griddetect
from permpat.griddetect import PointSet, find_grid_or_reduce, format_point_set, parse_point_set

from helpers import whole_set_block_round


def test_f_bound_frozen_values():
    assert f_bound(1) == 1
    assert f_bound(2) == 96
    assert f_bound(3) == 6804


def test_f_bound_overflow_ceiling():
    f_bound(10)  # largest value below the 64-bit line
    with pytest.raises(OverflowError):
        f_bound(11)
    with pytest.raises(ValidationError):
        f_bound(0)


def test_point_set_validation():
    PointSet(3, 2, [Point(1, 1), Point(3, 2), Point(3, 1)])
    with pytest.raises(ValidationError):
        PointSet(3, 2, [Point(4, 1)])
    with pytest.raises(ValidationError):
        PointSet(3, 2, [Point(1, 1), Point(1, 1)])
    # the first bad point in input order is named
    with pytest.raises(ValidationError,
                       match=r"point Point\(x=2, y=0\) outside box \[1..3\] x \[1..2\]"):
        PointSet(3, 2, [(1, 1), (2, 0), (4, 1)])
    with pytest.raises(ValidationError, match=r"point Point\(x=4, y=1\) outside box"):
        PointSet(3, 2, [(4, 1), (1, 1), (3, 2), (1, 1)])
    with pytest.raises(ValidationError, match=r"duplicate point Point\(x=3, y=2\)"):
        PointSet(3, 2, [[3, 2], (1, 1), (3, 2), (1, 1)])
    with pytest.raises(ValidationError, match="box dimensions must be nonnegative"):
        PointSet(-1, 2, [])


def test_point_set_rejects_non_int_fields():
    # int fields in any pair type become Points; anything that is not
    # exactly an int (a float, a bool) is rejected, not truncated
    ps = PointSet(3, 2, [(1, 1), [3, 2], Point(2, 1)])
    assert ps.points == ((1, 1), (3, 2), (2, 1))
    assert all(type(pt) is Point for pt in ps.points)
    assert len(PointSet(0, 0, [])) == 0
    for make in (lambda: PointSet(3.0, 2, [(1, 1)]),
                 lambda: PointSet(True, 3, [(1, 2)]),
                 lambda: PointSet(3, 3, [(1.7, 2)]),
                 lambda: PointSet(3, 3, [(True, 2)]),
                 lambda: PointSet(3, 3, [[3.0, 2]])):
        with pytest.raises(ValidationError, match="must be 2 ints"):
            make()
    with pytest.raises(ValidationError, match="must be 2 ints"):
        grid_search([(1.5, 1)], 1)
    with pytest.raises(ValidationError, match="must be 2 ints"):
        grid_search([(1, 1), (2, False)], 1)


def test_point_set_text_round_trip():
    text = "3 2\n1 1\n3 2\n3 1"
    ps = parse_point_set(text)
    assert (ps.p, ps.q, len(ps)) == (3, 2, 3)
    assert format_point_set(ps) == text
    with pytest.raises(ParseError):
        parse_point_set("")
    with pytest.raises(ParseError):
        parse_point_set("3\n1 1")
    # a point line with the wrong number of fields is named as such, not
    # as a non-integer value
    for bad in ("2 2\n1 1 1", "2 2\n1"):
        with pytest.raises(ParseError, match="bad point line"):
            parse_point_set(bad)
    with pytest.raises(ParseError, match="non-integer"):
        parse_point_set("2 2\n1 x")


def test_find_blocks_on_packed_square():
    # 4x4 box is a single block of side r^2 = 4 when r = 2: one wide block
    # is no hit, so the round contracts it to one point
    pts = [Point(x, y) for x in range(1, 5) for y in range(1, 5)]
    res = find_grid_or_reduce(Columns.of(PointSet(4, 4, pts)), 2)
    assert res.point_set() == PointSet(1, 1, [(1, 1)])


def test_block_round_agrees_with_the_whole_set_round():
    # the round that stops at the first block column completing a hit
    # returns what blocking the whole set first returns: the same witness,
    # or the same contraction in the same point order
    rng = random.Random(5)
    seen = {GridWitness: 0, PointSet: 0}
    for case in range(600):
        p, q, r = rng.randint(1, 40), rng.randint(1, 40), rng.randint(1, 3)
        density = rng.choice((0.1, 0.4, 0.7, 0.95))
        pts = [(x, y) for x in range(1, p + 1) for y in range(1, q + 1)
               if rng.random() < density]
        if case % 2:
            rng.shuffle(pts)
        M = PointSet(p, q, pts)
        got, want = find_grid_or_reduce(Columns.of(M), r), whole_set_block_round(M, r)
        if isinstance(got, Columns):
            got = got.point_set()
        assert type(got) is type(want) and got == want, (p, q, r, pts)
        seen[type(got)] += 1
    assert min(seen.values()) > 100, seen


def _transposed(w: GridWitness) -> GridWitness:
    return GridWitness(w.row_cuts, w.col_cuts,
                       [[Point(w.witnesses[i][j].y, w.witnesses[i][j].x) for i in range(w.r)]
                        for j in range(w.r)])


def test_column_view_rounds_agree_with_the_whole_set_round():
    # both rounds on the column view, and again on its contraction one level
    # down, return what blocking the whole set (or its transpose) returns:
    # the same witness, in M's coordinates, or the same contraction
    rng = random.Random(8)
    seen = {"hit": 0, "later hit": 0, "transposed hit": 0, "miss": 0, "level 1": 0}
    for case in range(400):
        r = 2 + case % 2
        p, q = rng.randint(1, 70), rng.randint(1, 70)
        # sparse columns up to a random split, then denser ones, so that
        # some hits come in later block columns
        split = rng.randint(0, p)
        low, high = rng.choice((0.02, 0.1)), rng.choice((0.05, 0.3, 0.7, 0.95))
        pts = [(x, y) for x in range(1, p + 1) for y in range(1, q + 1)
               if rng.random() < (low if x <= split else high)]
        M = PointSet(p, q, pts)
        V = Columns.of(M)
        for level in range(2):
            T = PointSet(M.q, M.p, [(y, x) for x, y in M.points])
            want_t, got_t = whole_set_block_round(T, r), find_grid_or_reduce(V, r, True)
            if isinstance(want_t, GridWitness):
                assert got_t == _transposed(want_t), (case, level)
                seen["transposed hit"] += 1
            else:
                assert isinstance(got_t, Columns) and got_t.point_set() == want_t, (case, level)
            want, got = whole_set_block_round(M, r), find_grid_or_reduce(V, r)
            if isinstance(want, GridWitness):
                assert got == want, (case, level)
                seen["later hit" if want.witnesses[0][0].x > r * r else "hit"] += 1
                break
            assert isinstance(got, Columns) and got.point_set() == want, (case, level)
            seen["miss"] += isinstance(want_t, PointSet)
            if not len(want):
                break
            M, V = want, got
            seen["level 1"] += level == 0
    assert min(seen.values()) >= 20, seen


def test_a_transposed_round_miss_makes_at_most_one_membership_test_per_point():
    # every fourth row is full, so no block of the transpose holds two
    # occupied rows and the transposed round misses: it tests p columns per
    # row while the tests total at most |M|, and buckets the other rows in
    # one pass over the columns
    class CountingSet(set):
        tests = 0

        def __contains__(self, v):
            CountingSet.tests += 1
            return super().__contains__(v)

    V = Columns(400, [CountingSet(range(0, 400, 4)) for _ in range(50)])
    res = find_grid_or_reduce(V, 2, True)
    # 100 block columns of the transpose, each with 13 nonempty blocks
    assert isinstance(res, Columns) and len(res) == 100 * 13
    assert CountingSet.tests == len(V) == 5000


def test_find_grid_requires_density():
    with pytest.raises(ValidationError):
        find_grid(Columns.of(PointSet(10, 10, [Point(1, 1)])), 2)


def test_find_grid_on_dense_random_sets():
    rng = random.Random(17)
    for _ in range(3):
        cells = rng.sample(range(200 * 200), 38300)
        M = Columns.of(PointSet(200, 200, [Point(c // 200 + 1, c % 200 + 1) for c in cells]))
        w = find_grid(M, 2)
        assert verify_grid(M, w, 2)


def test_find_grid_or_reduce_contracts_sparse_blocks():
    # two far-apart dense 4x4 clumps: no cut can separate column pairs with
    # interleaved rows inside one clump per side, so reduction may trigger;
    # whatever comes back must be a witness or a strictly smaller set
    pts = [Point(x, y) for x in range(1, 5) for y in range(1, 5)]
    pts += [Point(x + 100, y + 100) for x in range(1, 5) for y in range(1, 5)]
    M = Columns.of(PointSet(104, 104, pts))
    res = find_grid_or_reduce(M, 2)
    if isinstance(res, GridWitness):
        assert verify_grid(M, res, 2)
    else:
        assert isinstance(res, Columns)
        assert res.p <= -(-M.p // 4) and res.q <= -(-M.q // 4)


def test_lifted_witness_points_are_original():
    rng = random.Random(23)
    cells = rng.sample(range(200 * 200), 39000)
    pts = [Point(c // 200 + 1, c % 200 + 1) for c in cells]
    M = Columns.of(PointSet(200, 200, pts))
    w = find_grid(M, 2)
    pset = set(pts)
    for row in w.witnesses:
        for pt in row:
            assert pt in pset


def test_find_grid_contracts_a_sparse_lattice_and_lifts_the_least_point(monkeypatch):
    # every fourth row and column of a 3,200 x 3,200 box: 640,000 cells,
    # above f(2) (p + q - 2) = 614,208, and one cell per 4 x 4 block, so both
    # top-level rounds contract and the 800 x 800 round finds the witness.
    # One extra point, (18, 6), in the 4 x 4 block of the witness point
    # (17, 5) makes that block's least and greatest points differ; the lift
    # must take the least
    base = set(range(0, 3200, 4))
    M = Columns(3200, [base.copy() if x % 4 == 0 else set() for x in range(3200)])
    M.cols[17].add(5)
    assert len(M) == 640001 > f_bound(2) * (3200 + 3200 - 2)
    rounds = []
    real = permpat.griddetect.find_grid_or_reduce

    def spy(M, r, transposed=False):
        res = real(M, r, transposed)
        rounds.append((M.p, M.q, transposed, type(res)))
        return res

    monkeypatch.setattr(permpat.griddetect, "find_grid_or_reduce", spy)
    w = find_grid(M, 2)
    assert rounds == [(3200, 3200, True, Columns), (3200, 3200, False, Columns),
                      (800, 800, True, GridWitness)]
    assert verify_grid(M, w, 2)
    assert (w.col_cuts, w.row_cuts) == ((16,), (4,))
    assert w.witnesses[1][1] == Point(17, 5)
    assert hashlib.sha1(format_grid_witness(w).encode()).hexdigest() == \
        "2e7281fae259ede427e2b13ee97f5b9f59ebb88c"


def test_grid_search_r1_needs_one_point():
    assert grid_search([], 1) is None
    w = grid_search([Point(1, 1)], 1)
    assert w is not None and w.witnesses[0][0] == Point(1, 1)
