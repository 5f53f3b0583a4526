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

The finder, the builder's stalled cells and the grid checker hold M in
one form, ``Columns``: each column's set of occupied rows.  The round on
M reads these sets a block column at a time; the round on the transpose
reads a block row at a time, by membership tests over the columns.
Neither copies nor sorts the points, so a hit in an early block column
costs little more than reading that block column.  ``PointSet`` is the
checked form of the CLI's point-set file, which ``parse_point_set`` reads
and ``format_point_set`` writes; ``Columns.of`` and ``Columns.point_set``
convert between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Dict, Iterator, List, Set, Tuple, Union

from .core import GridWitness, ParseError, Point, ValidationError, _int_fields, verify_grid

_INT64_MAX = 2 ** 63 - 1


@dataclass(frozen=True)
class PointSet:
    """Points inside the integer box [1..p] x [1..q], as (x, y) pairs.

    Unlike a permutation, rows and columns may hold several points;
    exact duplicates are rejected.  The constructor checks its input:
    the box dimensions and both fields of every point must be exactly
    ints, and every point becomes a ``Point``.  The sets made from a
    ``Columns`` hold plain int pairs.
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


class Columns:
    """Points inside [1..p] x [1..q] held column by column, as the grid
    finder and ``verify_grid`` read them and the builder holds its cells:
    ``cols[x]`` is the set of 0-based rows occupied in column x + 1, and
    p = len(cols)."""

    __slots__ = ("p", "q", "cols")

    def __init__(self, q: int, cols: List[Set[int]]):
        self.p = len(cols)
        self.q = q
        self.cols = cols

    @classmethod
    def of(cls, M: PointSet) -> "Columns":
        cols: List[Set[int]] = [set() for _ in range(M.p)]
        for x, y in M.points:
            cols[x - 1].add(y - 1)
        return cls(M.q, cols)

    def point_set(self) -> PointSet:
        """The points as a PointSet of int pairs, in (x, y) order."""
        pairs = [(x, y + 1) for x, rows in enumerate(self.cols, 1) for y in sorted(rows)]
        return PointSet._of_pairs(self.p, self.q, pairs)

    def __len__(self) -> int:
        return sum(map(len, self.cols))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Columns):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.cols == other.cols

    def __contains__(self, pt) -> bool:
        x, y = pt
        return 0 < x <= self.p and y - 1 in self.cols[x - 1]


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


def find_grid_or_reduce(M: Columns, r: int,
                        transposed: bool = False) -> Union[GridWitness, Columns]:
    """One round of the block argument on M, or on its transpose.

    Blocks have side r^2, and a block is *wide* when it occupies at least
    r original columns.  If some block column holds r wide blocks whose
    first r occupied columns coincide, these give an r x r gridding of M
    directly: cut between the shared columns and between the block rows.
    The round reads M column by column (row by row from ``_rows`` when
    transposed) and returns the first such hit in block (x, y) scan order,
    in M's coordinates and verified, at the block column that completes
    it.  Otherwise it returns the contraction of the round's set to one
    point per nonempty block (box shrinks by r^2 per axis).

    Work: a hit in block column b reads b block columns.  A miss reads
    each point once, makes at most |M| membership tests and sorts each
    block column's occupied block rows: O(|M| log q + p + q), within the
    O(|M| log |M|) of sorting the points.
    """
    if r < 1:
        raise ValidationError("grid order must be >= 1, got %d" % r)
    side = r * r
    limit = r * comb(side, r)
    lines, depth, read = (M.q, M.p, _rows(M)) if transposed else (M.p, M.q, iter(M.cols))
    contracted: List[Set[int]] = []
    for lo in range(0, lines, side):
        block_col = list(islice(read, side))  # lines lo .. lo + side - 1
        lines_of: Dict[int, List[int]] = {}  # block row -> its occupied lines, ascending
        for t, line in enumerate(block_col, lo):
            for v in line:
                by = v // side
                ts = lines_of.get(by)
                if ts is None:
                    lines_of[by] = [t]
                elif ts[-1] != t:
                    ts.append(t)
        hits: Dict[Tuple[int, ...], List[int]] = {}
        wide = 0
        for by in sorted(lines_of):
            ts = lines_of[by]
            if len(ts) < r:
                continue
            wide += 1
            ys = hits.setdefault(tuple(ts[:r]), [])
            ys.append(by)
            if len(ys) == r:
                return _block_witness(M, block_col, lo, ts[:r], ys, side, transposed)
        # no hit: fewer than r blocks per shared line subset, hence fewer
        # than r * C(r^2, r) wide blocks in the block column
        if wide >= limit:
            raise AssertionError("wide-block bound violated")
        contracted.append(set(lines_of))
    return Columns((depth + side - 1) // side, contracted)


def _rows(M: Columns) -> Iterator[List[int]]:
    """M's rows bottom to top, each as its occupied 0-based columns,
    ascending: the first |M| // p rows by p membership tests each, the
    rest from one pass over the columns."""
    cols = M.cols
    tested = min(M.q, len(M) // max(M.p, 1))
    for y in range(tested):
        yield [x for x, rows in enumerate(cols) if y in rows]
    rest: List[List[int]] = [[] for _ in range(tested, M.q)]
    for x, rows in enumerate(cols):
        for y in rows:
            if y >= tested:
                rest[y - tested].append(x)
    yield from rest


def _block_witness(M: Columns, block_col: List, lo: int, S: List[int], ys: List[int],
                   side: int, transposed: bool) -> GridWitness:
    """The gridding of a hit in the block column of lines lo, lo + 1, ...
    (each given by its occupied cross coordinates), with shared lines S
    and block rows ys, 0-based: cuts after the lines S[1:] and below the
    block rows ys[1:], and per cell the least point of its line and block."""
    cuts = (S[1:], [b * side for b in ys[1:]])
    cells = [[(s + 1, min(v for v in block_col[s - lo] if v // side == b) + 1) for s in S]
             for b in ys]
    if transposed:  # cell (i, j) of the transpose is cell (j, i) of M
        cuts, cells = cuts[::-1], [[(y, x) for x, y in row] for row in zip(*cells)]
    w = GridWitness(*cuts, cells)
    if not verify_grid(M, w, len(S)):
        raise AssertionError("internal: wide-block witness failed verification")
    return w


def find_grid(M: Columns, r: int) -> GridWitness:
    """Find an r x r gridding of M; requires the density precondition
    |M| > f(r) * (p + q - 2) with p + q > 2, which guarantees existence.

    Tries the block round on the transpose first, then on M itself; if
    both rounds reduce, recurses on the contracted set trimmed in row-major
    point order to at most 1.1x the density threshold, and lifts the
    returned cuts/witnesses from block units back to original coordinates
    with ``_lift`` (witness = smallest original point of its block).  The
    result is verified before every return.
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
    for transposed in (True, False):
        res = find_grid_or_reduce(M, r, transposed)
        if isinstance(res, GridWitness):
            return res  # already verified against M

    inner_threshold = f * (res.p + res.q - 2)
    if not (res.p + res.q > 2 and len(res) > inner_threshold):
        raise AssertionError("contraction lost too many points")
    trimmed = Columns(res.q, [set() for _ in range(res.p)])
    row_major = ((x, y) for y, row in enumerate(_rows(res)) for x in row)
    for x, y in islice(row_major, (11 * inner_threshold) // 10):
        trimmed.cols[x].add(y)
    del res, row_major  # only the trimmed set lives through the recursion
    return _lift(M, find_grid(trimmed, r), [*range(0, M.p, r * r), M.p],
                 [*range(0, M.q, r * r), M.q], M.cols)


def _lift(target, sub: GridWitness, xs, ys, rows) -> GridWitness:
    """The grid ``sub`` of a coarsening of target, verified against target
    (else AssertionError).  Coarse column c spans target columns xs[c - 1]
    + 1 .. xs[c], ys likewise for rows.  A cut after line c lifts to xs[c]
    (ys[c]), a cell to target's least point in it, in (x, y) order, read from
    rows[x - 1]: a word's y, or a ``Columns.cols`` set of 0-based rows."""

    def least(c: int, v: int) -> Point:
        lo, hi = ys[v - 1], ys[v]
        for x in range(xs[c - 1], xs[c]):
            col = rows[x]
            if col.__class__ is int:
                if lo < col <= hi:
                    return Point(x + 1, col)
            elif hit := col.intersection(range(lo, hi)):
                return Point(x + 1, min(hit) + 1)
        raise AssertionError("internal: empty witness cell")

    w = GridWitness([xs[c] for c in sub.col_cuts], [ys[c] for c in sub.row_cuts],
                    [[least(c, v) for c, v in row] for row in sub.witnesses])
    if not verify_grid(target, w, sub.r):
        raise AssertionError("internal: lifted witness failed verification")
    return w
