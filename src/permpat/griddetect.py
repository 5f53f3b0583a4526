"""Dense point sets contain grids: detection in linear time.

A point set M inside the box [p] x [q] that has more than
``f(r) * (p + q - 2)`` points (``f(r) = r^4 * C(r^2, r)``) always admits an
r x r gridding with every cell nonempty.  The finder works block-wise:
carve the box into blocks of side r^2, look for r blocks in one block
column sharing r occupied original columns (which yields a gridding
directly; a round stops at the first block column that completes one),
and otherwise contract every block to a single point and recurse on the
much smaller set.  Each level costs O(|M|), and the recursion shrinks
geometrically once the set is trimmed to within a constant factor of
the density threshold.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import comb
from operator import itemgetter
from typing import Dict, List, Set, Tuple, Union

from .core import GridWitness, ParseError, Point, ValidationError, _int_fields, verify_grid

_INT64_MAX = 2 ** 63 - 1


@dataclass(frozen=True)
class PointSet:
    """Points inside the integer box [1..p] x [1..q], as (x, y) pairs.

    Unlike a permutation, rows and columns may hold several points;
    exact duplicates are rejected.  The constructor checks its input:
    the box dimensions and both fields of every point must be exactly
    ints, and every point becomes a ``Point``.  The sets the builder and
    the grid finder make for themselves hold plain int pairs.
    """

    p: int
    q: int
    points: Tuple[Tuple[int, int], ...]

    def __init__(self, p: int, q: int, points):
        p, q = _int_fields((p, q), 2, "box dimensions")
        if p < 0 or q < 0:
            raise ValidationError("box dimensions must be nonnegative, got %d x %d" % (p, q))
        pts = tuple(Point(*_int_fields(a, 2, "point")) for a in points)
        if pts:
            xs = [pt[0] for pt in pts]
            ys = [pt[1] for pt in pts]
            if (min(xs) < 1 or max(xs) > p or min(ys) < 1 or max(ys) > q
                    or len(set(pts)) != len(pts)):
                _raise_first_bad_point(p, q, pts)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "points", pts)

    @classmethod
    def _of_pairs(cls, p: int, q: int, pairs: List[Tuple[int, int]]) -> "PointSet":
        """Wrap distinct int pairs already inside the box without checking
        them."""
        ps = object.__new__(cls)
        object.__setattr__(ps, "p", p)
        object.__setattr__(ps, "q", q)
        object.__setattr__(ps, "points", tuple(pairs))
        return ps

    def __len__(self) -> int:
        return len(self.points)


def _raise_first_bad_point(p: int, q: int, pts: Tuple[Point, ...]) -> None:
    seen: Set[Point] = set()
    for pt in pts:
        if not (1 <= pt.x <= p and 1 <= pt.y <= q):
            raise ValidationError("point %r outside box [1..%d] x [1..%d]" % (pt, p, q))
        if pt in seen:
            raise ValidationError("duplicate point %r" % (pt,))
        seen.add(pt)


def parse_point_set(text: str) -> PointSet:
    """Parse ``p q`` on the first line, then one ``x y`` point per line."""
    lines = [l.strip() for l in text.splitlines() if l.strip() and not l.strip().startswith("#")]
    if not lines:
        raise ParseError("empty point set text")
    head, *rows = [line.split() for line in lines]
    if len(head) != 2:
        raise ParseError("first line must be 'p q', got %r" % (lines[0],))
    for line, parts in zip(lines[1:], rows):
        if len(parts) != 2:
            raise ParseError("bad point line %r" % (line,))
    try:
        p, q = int(head[0]), int(head[1])
        pts = [Point(int(x), int(y)) for x, y in rows]
    except ValueError:
        raise ParseError("non-integer value in point set text") from None
    return PointSet(p, q, pts)


def format_point_set(ps: PointSet) -> str:
    lines = ["%d %d" % (ps.p, ps.q)]
    lines.extend("%d %d" % pt for pt in ps.points)
    return "\n".join(lines)


def f_bound(r: int) -> int:
    """Density threshold factor f(r) = r^4 * C(r^2, r), in checked 64-bit
    range; raises OverflowError naming r once it leaves that range (first
    at r = 11)."""
    if r < 1:
        raise ValidationError("grid order must be >= 1, got %d" % r)
    value = r ** 4 * comb(r * r, r)
    if value > _INT64_MAX:
        raise OverflowError("f_bound(%d) = %d exceeds 64-bit range" % (r, value))
    return value


def find_grid_or_reduce(M: PointSet, r: int) -> Union[GridWitness, PointSet]:
    """One round of the block argument, one block column at a time.

    Blocks have side r^2, and a block is *wide* when it occupies at least
    r original columns.  If some block column holds r wide blocks whose
    first r occupied columns coincide, these give an r x r gridding of M
    directly: cut between the shared columns and between the block rows.
    Such a hit lies inside one block column, so the round walks the sorted
    points block column by block column and stops at the first one that
    completes a hit; the witness is the first completed in block (x, y)
    scan order.  Otherwise return the contraction of M to one point per
    nonempty block (box shrinks by r^2 per axis).
    """
    if r < 1:
        raise ValidationError("grid order must be >= 1, got %d" % r)
    side = r * r
    limit = r * comb(side, r)
    # sorting input that is already sorted is linear
    pts = sorted(M.points)
    contracted: List[Tuple[int, int]] = []
    i = 0
    while i < len(pts):
        bx = (pts[i][0] - 1) // side + 1
        end = bisect_left(pts, (bx * side + 1,), i)  # first point right of the block column
        column = pts[i:end]
        cols_of: Dict[int, List[int]] = {}  # block row -> its occupied columns, ascending
        for x, y in column:
            by = (y - 1) // side + 1
            cols = cols_of.get(by)
            if cols is None:
                cols_of[by] = [x]
            elif cols[-1] != x:
                cols.append(x)
        rows = sorted(cols_of)
        hits: Dict[Tuple[int, ...], List[int]] = {}
        wide = 0
        for by in rows:
            cols = cols_of[by]
            if len(cols) < r:
                continue
            wide += 1
            ys = hits.setdefault(tuple(cols[:r]), [])
            ys.append(by)
            if len(ys) == r:
                return _block_witness(M, column, cols[:r], ys, side)
        # no hit: fewer than r blocks per shared column subset, hence fewer
        # than r * C(r^2, r) wide blocks in the block column
        if wide >= limit:
            raise AssertionError("wide-block bound violated")
        contracted += [(bx, by) for by in rows]
        i = end
    return PointSet._of_pairs((M.p + side - 1) // side, (M.q + side - 1) // side, contracted)


def _block_witness(M: PointSet, column: List[Tuple[int, int]], S: List[int],
                   ys: List[int], side: int) -> GridWitness:
    """The gridding of a hit: cuts between the shared columns S and the
    block rows ys, and per (block row, shared column) its least point,
    read from the hit's sorted block column alone; verified against M."""
    r = len(S)
    rep: Dict[Tuple[int, int], int] = {}
    for x, y in column:  # (x, y) order: a key's first point has its least y
        rep.setdefault(((y - 1) // side + 1, x), y)
    w = GridWitness([S[i] - 1 for i in range(1, r)],
                    [(ys[j] - 1) * side for j in range(1, r)],
                    [[Point(S[i], rep[(ys[j], S[i])]) for i in range(r)] for j in range(r)])
    if not verify_grid(M, w, r):
        raise AssertionError("internal: wide-block witness failed verification")
    return w


def find_grid(M: PointSet, r: int) -> GridWitness:
    """Find an r x r gridding of M; requires the density precondition
    |M| > f(r) * (p + q - 2) with p + q > 2, which guarantees existence.

    Tries the block argument on the transpose first, then on M itself; if
    both rounds reduce, recurses on the contracted set trimmed in row-major
    point order to at most 1.1x the density threshold, and lifts the
    returned cuts/witnesses from block units back to original coordinates
    (witness = smallest original point of its block).  The result is
    verified before every return.
    """
    f = f_bound(r)
    if M.p + M.q <= 2:
        raise ValidationError("density precondition needs p + q > 2, got p = %d, q = %d"
                              % (M.p, M.q))
    threshold = f * (M.p + M.q - 2)
    if len(M) <= threshold:
        raise ValidationError("density precondition violated: |M| = %d but need > %d "
                              "(= f(%d) * (p + q - 2) with p = %d, q = %d)"
                              % (len(M), threshold, r, M.p, M.q))

    # the transposed pairs sorted by their first field: a stable sort keeps
    # them fully sorted when M is sorted by column, so the round's sort is
    # linear
    pairs = [(y, x) for x, y in M.points]
    pairs.sort(key=itemgetter(0))
    res = find_grid_or_reduce(PointSet._of_pairs(M.q, M.p, pairs), r)
    del pairs
    if isinstance(res, GridWitness):
        w = GridWitness(res.row_cuts, res.col_cuts,
                        [[Point(res.witnesses[i][j].y, res.witnesses[i][j].x)
                          for i in range(res.r)] for j in range(res.r)])
        if not verify_grid(M, w, r):
            raise AssertionError("internal: transposed witness failed verification")
        return w
    res = find_grid_or_reduce(M, r)
    if isinstance(res, GridWitness):
        return res  # already verified against M

    side = r * r
    inner_threshold = f * (res.p + res.q - 2)
    if not (res.p + res.q > 2 and len(res) > inner_threshold):
        raise AssertionError("contraction lost too many points")
    by_rows = sorted(res.points, key=lambda t: (t[1], t[0]))
    trimmed = PointSet._of_pairs(res.p, res.q, by_rows[:(11 * inner_threshold) // 10])
    del res, by_rows  # only the trimmed set lives through the recursion
    sub = find_grid(trimmed, r)

    # lift block-unit cuts and witnesses back to original coordinates: a
    # witness block's least point, in one pass over M
    blk_min: Dict[Tuple[int, int], Tuple[int, int]] = {
        pt: (M.p + 1, M.q + 1) for row in sub.witnesses for pt in row}
    for pt in M.points:
        cell = ((pt[0] - 1) // side + 1, (pt[1] - 1) // side + 1)
        if pt < blk_min.get(cell, pt):
            blk_min[cell] = pt
    w = GridWitness([c * side for c in sub.col_cuts],
                    [c * side for c in sub.row_cuts],
                    [[blk_min[sub.witnesses[j][i]] for i in range(r)] for j in range(r)])
    if not verify_grid(M, w, r):
        raise AssertionError("internal: lifted witness failed verification")
    return w
