"""Dense-grid extraction: counting bound, block contraction, verification."""

import random

import pytest

from permpat import (
    GridWitness,
    ParseError,
    Point,
    PointSet,
    ValidationError,
    f_bound,
    find_blocks,
    find_grid,
    find_grid_or_reduce,
    format_point_set,
    grid_search,
    parse_point_set,
    verify_grid,
)


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


def test_point_set_coerces_to_int_points():
    ps = PointSet(3.0, 2, [(1, 1), [3.0, 2], Point(2, 1)])
    assert ps.points == ((1, 1), (3, 2), (2, 1))
    assert all(type(pt) is Point and type(pt.x) is int and type(pt.y) is int
               for pt in ps.points)
    assert (ps.p, ps.q) == (3, 2) and type(ps.p) is int
    assert len(PointSet(0, 0, [])) == 0


def test_point_set_text_round_trip():
    text = "3 2\n1 1\n3 2\n3 1"
    ps = parse_point_set(text)
    assert (ps.p, ps.q, len(ps)) == (3, 2, 3)
    assert format_point_set(ps) == text
    with pytest.raises(ParseError):
        parse_point_set("")
    with pytest.raises(ParseError):
        parse_point_set("3\n1 1")


def test_transpose_involution():
    ps = parse_point_set("4 2\n1 1\n4 2\n2 2")
    assert ps.transpose().transpose() == ps
    t = ps.transpose()
    assert (t.p, t.q) == (2, 4) and t.points == ((1, 1), (2, 4), (2, 2))


def test_find_blocks_on_packed_square():
    # 4x4 box is a single block of side r^2 = 4 when r = 2
    pts = [Point(x, y) for x in range(1, 5) for y in range(1, 5)]
    blocks = find_blocks(PointSet(4, 4, pts), 2)
    assert len(blocks) == 1
    assert blocks[0].cell == Point(1, 1)
    assert blocks[0].cols == (1, 2, 3, 4)


def test_find_grid_requires_density():
    with pytest.raises(ValidationError):
        find_grid(PointSet(10, 10, [Point(1, 1)]), 2)


def test_find_grid_on_dense_random_sets():
    rng = random.Random(17)
    for _ in range(3):
        cells = rng.sample(range(200 * 200), 38300)
        M = PointSet(200, 200, [Point(c // 200 + 1, c % 200 + 1) for c in cells])
        w = find_grid(M, 2)
        assert verify_grid(M, w, 2)


def test_find_grid_or_reduce_contracts_sparse_blocks():
    # two far-apart dense 4x4 clumps: no cut can separate column pairs with
    # interleaved rows inside one clump per side, so reduction may trigger;
    # whatever comes back must be a witness or a strictly smaller set
    pts = [Point(x, y) for x in range(1, 5) for y in range(1, 5)]
    pts += [Point(x + 100, y + 100) for x in range(1, 5) for y in range(1, 5)]
    M = PointSet(104, 104, pts)
    res = find_grid_or_reduce(M, 2)
    if isinstance(res, GridWitness):
        assert verify_grid(M, res, 2)
    else:
        assert isinstance(res, PointSet)
        assert res.p <= -(-M.p // 4) and res.q <= -(-M.q // 4)


def test_lifted_witness_points_are_original():
    rng = random.Random(23)
    cells = rng.sample(range(200 * 200), 39000)
    pts = [Point(c // 200 + 1, c % 200 + 1) for c in cells]
    M = PointSet(200, 200, pts)
    w = find_grid(M, 2)
    pset = set(pts)
    for row in w.witnesses:
        for pt in row:
            assert pt in pset


def test_grid_search_r1_needs_one_point():
    assert grid_search([], 1) is None
    w = grid_search([Point(1, 1)], 1)
    assert w is not None and w.witnesses[0][0] == Point(1, 1)
