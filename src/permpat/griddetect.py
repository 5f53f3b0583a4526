"""Dense point sets contain grids: detection in linear time.

A point set M inside the box [p] x [q] that has more than
``f(r) * (p + q - 2)`` points (``f(r) = r^4 * C(r^2, r)``) always admits an
r x r gridding with every cell nonempty.  The finder works block-wise:
carve the box into blocks of side r^2, look for r blocks in one block
column sharing r occupied original columns (which yields a gridding
directly), and otherwise contract every block to a single point and
recurse on the much smaller set.  Each level costs O(|M|), and the
recursion shrinks geometrically once the set is trimmed to within a
constant factor of the density threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, List, NamedTuple, Optional, Set, Tuple, Union

from .core import GridWitness, ParseError, Point, ValidationError, verify_grid

_INT64_MAX = 2 ** 63 - 1


@dataclass(frozen=True)
class PointSet:
    """Points inside the integer box [1..p] x [1..q], as (x, y) pairs.

    Unlike a permutation, rows and columns may hold several points;
    exact duplicates are rejected.  The constructor checks its input and
    makes every point a ``Point`` of ints; the sets the builder and the
    grid finder make for themselves hold plain int pairs.
    """

    p: int
    q: int
    points: Tuple[Tuple[int, int], ...]

    def __init__(self, p: int, q: int, points):
        p, q = int(p), int(q)
        if p < 0 or q < 0:
            raise ValidationError("box dimensions must be nonnegative, got %d x %d" % (p, q))
        pts = tuple([Point(int(a[0]), int(a[1])) for a in points])
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

    def transpose(self) -> "PointSet":
        return PointSet._of_pairs(self.q, self.p, [(y, x) for x, y in self.points])


def _raise_first_bad_point(p: int, q: int, pts: Tuple[Point, ...]) -> None:
    seen: Set[Point] = set()
    for pt in pts:
        if not (1 <= pt.x <= p and 1 <= pt.y <= q):
            raise ValidationError("point %r outside box [1..%d] x [1..%d]" % (pt, p, q))
        if pt in seen:
            raise ValidationError("duplicate point %r" % (pt,))
        seen.add(pt)


class Block(NamedTuple):
    """A nonempty r^2-side block: its cell position in block units and the
    sorted occupied original column coordinates."""

    cell: Point
    cols: Tuple[int, ...]


def parse_point_set(text: str) -> PointSet:
    """Parse ``p q`` on the first line, then one ``x y`` point per line."""
    lines = [l.strip() for l in text.splitlines() if l.strip() and not l.strip().startswith("#")]
    if not lines:
        raise ParseError("empty point set text")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("first line must be 'p q', got %r" % (lines[0],))
    try:
        p, q = int(head[0]), int(head[1])
        pts = []
        for line in lines[1:]:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("bad point line %r" % (line,))
            pts.append(Point(int(parts[0]), int(parts[1])))
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


def find_blocks(M: PointSet, r: int) -> List[Block]:
    """Group M into blocks of side r^2; one Block per nonempty block, in
    block (x, y) order, with occupied original columns sorted ascending."""
    if r < 1:
        raise ValidationError("grid order must be >= 1, got %d" % r)
    side = r * r
    table: Dict[Tuple[int, int], List[int]] = {}
    for x, y in sorted(M.points):
        key = ((x - 1) // side + 1, (y - 1) // side + 1)
        cols = table.get(key)
        if cols is None:
            table[key] = [x]
        elif cols[-1] != x:
            cols.append(x)
    return [Block(Point(*key), tuple(cols)) for key, cols in sorted(table.items())]


def find_grid_or_reduce(M: PointSet, r: int) -> Union[GridWitness, PointSet]:
    """One round of the block argument.

    A block is *wide* when it occupies at least r original columns.  If
    some block column holds r wide blocks whose first r occupied columns
    coincide, these give an r x r gridding of M directly: cut between the
    shared columns and between the block rows.  Otherwise return the
    contraction of M to one point per nonempty block (box shrinks by r^2
    per axis).  The witness, when found, is the first completed in block
    (x, y) scan order.
    """
    side = r * r
    blocks = find_blocks(M, r)
    hits: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
    found: Optional[Tuple[int, Tuple[int, ...], List[int]]] = None
    wide_per_col: Dict[int, int] = {}
    for b in blocks:
        if len(b.cols) < r:
            continue
        bx = b.cell.x
        wide_per_col[bx] = wide_per_col.get(bx, 0) + 1
        key = (bx, b.cols[:r])
        rows = hits.setdefault(key, [])
        rows.append(b.cell.y)
        if len(rows) == r and found is None:
            found = (bx, b.cols[:r], list(rows))
            break

    if found is not None:
        _, S, ys = found
        # representative point per (block row, shared column): smallest y
        want_rows = set(ys)
        want_cols = set(S)
        rep: Dict[Tuple[int, int], int] = {}
        for x, y in M.points:
            if x in want_cols:
                by = (y - 1) // side + 1
                if by in want_rows and rep.get((by, x), y) >= y:
                    rep[(by, x)] = y
        col_cuts = [S[i] - 1 for i in range(1, r)]
        row_cuts = [(ys[j] - 1) * side for j in range(1, r)]
        witnesses = [[Point(S[i], rep[(ys[j], S[i])]) for i in range(r)] for j in range(r)]
        w = GridWitness(col_cuts, row_cuts, witnesses)
        if not verify_grid(M, w, r):
            raise AssertionError("internal: wide-block witness failed verification")
        return w

    # no detection: every block column holds fewer than r blocks per shared
    # column subset, hence fewer than r * C(r^2, r) wide blocks in total
    limit = r * comb(side, r)
    if not all(c < limit for c in wide_per_col.values()):
        raise AssertionError("wide-block bound violated")
    p2 = (M.p + side - 1) // side
    q2 = (M.q + side - 1) // side
    return PointSet._of_pairs(p2, q2, [b.cell for b in blocks])


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

    res_t = find_grid_or_reduce(M.transpose(), r)
    if isinstance(res_t, GridWitness):
        w = GridWitness(res_t.row_cuts, res_t.col_cuts,
                        [[Point(res_t.witnesses[i][j].y, res_t.witnesses[i][j].x)
                          for i in range(res_t.r)] for j in range(res_t.r)])
        if not verify_grid(M, w, r):
            raise AssertionError("internal: transposed witness failed verification")
        return w
    res = find_grid_or_reduce(M, r)
    if isinstance(res, GridWitness):
        return res  # already verified against M

    reduced = res
    side = r * r
    inner_threshold = f * (reduced.p + reduced.q - 2)
    if not (reduced.p + reduced.q > 2 and len(reduced) > inner_threshold):
        raise AssertionError("contraction lost too many points")
    limit = (11 * inner_threshold) // 10
    by_rows = sorted(reduced.points, key=lambda t: (t[1], t[0]))
    trimmed = PointSet._of_pairs(reduced.p, reduced.q, by_rows[:limit])

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
