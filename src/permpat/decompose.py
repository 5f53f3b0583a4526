"""Building and checking bounded-width merge decompositions.

The builder keeps a coarse gridding of the plane (columns and rows of at
most d point-ranks each) and repeatedly merges two rectangles sharing a
cell, re-coarsening adjacent under-full lines so the gridding cannot
fragment.  Either everything collapses into one rectangle — giving a full
merge sequence in which every new rectangle sees fewer than d others per
axis — or every cell holds exactly one rectangle while at least two
remain, in which case the cell occupancy pattern is dense enough for the
grid finder and the permutation contains the canonical r x r grid pattern.
``build_decomposition`` is the one entry point.  Given the grid order r
it builds at d = 4 f(r) and answers a stall with the grid witness; given
an explicit budget d it answers a stall with the occupied cells.

``verify_wide`` / ``width_of_decomposition`` replay a sequence with two
Fenwick trees per axis, counting the live rectangles' low and high
endpoints.  A merged rectangle keeps one child's endpoint on each side, so
a merge removes one endpoint from each tree and adds none, and its view
count is two prefix sums.  Checking a claimed width costs O(n log n)
regardless of how wide the rectangles get.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from .core import (
    GridWitness,
    MergeSequence,
    MergeStep,
    Permutation,
    Point,
    ValidationError,
    validate_merge_sequence,
    verify_grid,
)
from .griddetect import PointSet, f_bound, find_grid


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of build_decomposition: exactly one of ``seq`` (a complete
    merge sequence, d-wide for ``width_bound`` = d), ``grid`` (an r x r
    grid witness in the permutation's coordinates, for a build
    from r) or ``cells`` (the stalled gridding's occupied cells, for a
    build from an explicit budget d)."""

    seq: Optional[MergeSequence]
    grid: Optional[GridWitness]
    width_bound: Optional[int]
    cells: Optional[PointSet] = None

    def __post_init__(self):
        if (self.seq is not None) + (self.grid is not None) + (self.cells is not None) != 1:
            raise ValidationError("result must carry exactly one of seq/grid/cells")

    @property
    def is_grid(self) -> bool:
        return self.grid is not None


# ---------------------------------------------------------------------------
# replay verification
# ---------------------------------------------------------------------------

def _axis_views(rank: List[int], seq: MergeSequence) -> List[int]:
    """Per step, how many other live rectangles the new one overlaps on one
    axis; ``rank[l]`` is label l's rank (1..n) on that axis."""
    n = len(rank) - 1
    lo = rank + [0] * len(seq)  # rectangle index -> low and high endpoint
    hi = lo[:]
    # Fenwick trees over rank space counting the live rectangles' low and
    # high endpoints.  t[i] covers a block of i & -i positions; every rank
    # starts occupied once, so t[i] = i & -i.
    lot = [0] + [i & -i for i in range(1, n + 1)]
    hit = lot[:]
    out = []
    for i, j, k in seq:
        # k keeps the lower low and the higher high endpoint of its
        # children, so only the other child's endpoint leaves each tree
        a, b = lo[i], lo[j]
        if a > b:
            a, b = b, a
        lo[k] = left = a
        while b <= n:
            lot[b] -= 1
            b += b & -b
        a, b = hi[i], hi[j]
        if a < b:
            a, b = b, a
        hi[k] = right = a
        while b <= n:
            hit[b] -= 1
            b += b & -b
        # viewers: low end <= k's high end, minus those ending before k's
        # low end, minus k itself
        v = -1
        while right:
            v += lot[right]
            right &= right - 1
        left -= 1
        while left:
            v -= hit[left]
            left &= left - 1
        out.append(v)
    return out


def _replay_views(perm: Permutation, seq: MergeSequence) -> Iterator[Tuple[int, int, int]]:
    """Yield (step number, x-views, y-views) of each newly created
    rectangle, counted against the rectangles alive alongside it."""
    n = len(perm)
    validate_merge_sequence(seq, n)
    # label l sits at x-rank l and y-rank word[l-1]
    xr = list(range(n + 1))
    yr = [0, *perm.word]
    yield from zip(range(1, len(seq) + 1), _axis_views(xr, seq), _axis_views(yr, seq))


def width_of_decomposition(perm: Permutation, seq: MergeSequence) -> int:
    """Exact width of a merge sequence: one more than the largest view
    count over all created rectangles (1 for empty/singleton input)."""
    best = 0
    for _, v1, v2 in _replay_views(perm, seq):
        v = v1 if v1 >= v2 else v2
        if v > best:
            best = v
    return best + 1


def verify_wide(perm: Permutation, seq: MergeSequence, d: int) -> bool:
    """True iff every rectangle the sequence creates has fewer than d
    same-axis viewers among the rectangles alive with it (the starting
    point-rectangles always qualify for d >= 1)."""
    return d >= 1 and first_violation(perm, seq, d) is None


def first_violation(perm: Permutation, seq: MergeSequence, d: int) -> Optional[Tuple[int, int]]:
    """(step number, offending view count) of the first step whose new
    rectangle reaches d viewers on some axis; None when d-wide."""
    for p, v1, v2 in _replay_views(perm, seq):
        v = v1 if v1 >= v2 else v2
        if v >= d:
            return (p, v)
    return None


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------

class _Cell:
    __slots__ = ("col", "row", "rects", "stamp")

    def __init__(self, col: "_Line", row: "_Line"):
        self.col = col
        self.row = row
        self.rects: List[int] = []
        self.stamp = 0  # of the cell's live entry in _State.large; 0: none


class _Line:
    """A gridding column or row: its size (rectangle count), span of
    coordinates, cells keyed by the crossing line, and neighbor links."""

    __slots__ = ("size", "lo", "hi", "cells", "prv", "nxt")

    def __init__(self) -> None:
        self.size = 0
        self.lo = 0
        self.hi = 0
        self.cells: Dict["_Line", _Cell] = {}
        self.prv: Optional["_Line"] = None
        self.nxt: Optional["_Line"] = None


class _State:
    __slots__ = ("n", "d", "total", "cols_head", "rows_head", "large",
                 "stamps", "rep", "steps", "validate", "boxes")

    def __init__(self, n: int, d: int, validate: bool):
        self.n = n
        self.d = d
        self.total = n
        self.cols_head: Optional[_Line] = None
        self.rows_head: Optional[_Line] = None
        # cells holding two or more rectangles, as (stamp, cell) in the
        # order they became large; an entry whose stamp is not its cell's
        # current one is stale and skipped when it reaches the front
        self.large: Deque[Tuple[int, _Cell]] = deque()
        self.stamps = 0
        self.rep: List[int] = list(range(n + 1))  # min original label per index
        self.steps: List[MergeStep] = []
        self.validate = validate
        self.boxes: Dict[int, Tuple[int, int, int, int]] = {}


def _lines(head: Optional[_Line]) -> List[_Line]:
    out = []
    while head is not None:
        out.append(head)
        head = head.nxt
    return out


def _build_state(perm: Permutation, d: int, validate: bool = False) -> _State:
    n = len(perm)
    state = _State(n, d, validate)
    if n == 0:
        return state
    p = (n + d - 1) // d
    q = p
    cols = [_Line() for _ in range(p)]
    rows = [_Line() for _ in range(q)]
    for lines in (cols, rows):
        for a, b in zip(lines, lines[1:]):
            a.nxt = b
            b.prv = a
    state.cols_head = cols[0]
    state.rows_head = rows[0]

    # line c holds the points of coordinates c*d+1 .. (c+1)*d on its axis
    for lines in (cols, rows):
        for c, line in enumerate(lines):
            line.lo = c * d + 1
            line.hi = min(c * d + d, n)
            line.size = line.hi - c * d
    word = perm.word
    for label, y in enumerate(word, 1):
        col = cols[(label - 1) // d]
        row = rows[(y - 1) // d]
        cell = col.cells.get(row)
        if cell is None:
            cell = _Cell(col, row)
            col.cells[row] = cell
            row.cells[col] = cell
        cell.rects.append(label)
        if len(cell.rects) == 2:
            _mark_large(state, cell)
    if validate:
        state.boxes = {l: (l, l, y, y) for l, y in enumerate(word, 1)}
    return state


def _mark_large(state: _State, cell: _Cell) -> None:
    state.stamps += 1
    cell.stamp = state.stamps
    state.large.append((state.stamps, cell))


def _absorb_line(state: _State, a: _Line, b: _Line, axis: int) -> None:
    """Merge line b into a (cells at shared crossings concatenate with a's
    rectangles first); unlink b."""
    for other, cb in list(b.cells.items()):
        ca = a.cells.get(other)
        if ca is None:
            if axis == 1:
                cb.col = a
            else:
                cb.row = a
            a.cells[other] = cb
            other.cells[a] = cb
        else:
            ca.rects.extend(cb.rects)
            cb.stamp = 0
            if len(ca.rects) >= 2 and not ca.stamp:
                _mark_large(state, ca)
        del other.cells[b]
    a.size += b.size
    if b.lo < a.lo:
        a.lo = b.lo
    if b.hi > a.hi:
        a.hi = b.hi
    if b.prv is not None:
        b.prv.nxt = b.nxt
    else:
        if axis == 1:
            state.cols_head = b.nxt
        else:
            state.rows_head = b.nxt
    if b.nxt is not None:
        b.nxt.prv = b.prv


def _maybe_coarsen(state: _State, line: _Line, axis: int, stats: Optional[dict]) -> None:
    # check the smaller-coordinate neighbor first; at most one merge per
    # axis per step (merging one side pushes the other back over budget)
    for nb in (line.prv, line.nxt):
        if nb is not None and line.size + nb.size <= state.d:
            _absorb_line(state, line, nb, axis)
            if stats is not None:
                stats["coarsen_cols" if axis == 1 else "coarsen_rows"] += 1
            return


def _check_invariants(state: _State) -> None:
    """Debug replay of the gridding invariants: rectangles inside their
    cell's span, line sizes within budget, consecutive lines over budget,
    large-cell bookkeeping exact.  Raises AssertionError, also under -O."""
    d = state.d
    cols = _lines(state.cols_head)
    rows = _lines(state.rows_head)
    seen: Dict[int, bool] = {}
    large = {cell for stamp, cell in state.large if stamp == cell.stamp}
    for lines in (cols, rows):
        for ln in lines:
            if not 1 <= ln.size <= d:
                raise AssertionError("line size %d outside 1..%d" % (ln.size, d))
            if sum(len(c.rects) for c in ln.cells.values()) != ln.size:
                raise AssertionError("line size differs from its cells' rectangle count")
        for a, b in zip(lines, lines[1:]):
            if a.size + b.size <= d:
                raise AssertionError("consecutive lines fit the budget but were not merged")
            if a.hi >= b.lo:
                raise AssertionError("line spans out of order")
    for col in cols:
        for row, cell in col.cells.items():
            if cell.col is not col or cell.row is not row:
                raise AssertionError("cell linked to the wrong lines")
            if not cell.rects:
                raise AssertionError("empty cell kept alive")
            if (cell in large) != (len(cell.rects) >= 2):
                raise AssertionError("large-cell set stale")
            large.discard(cell)
            for idx in cell.rects:
                if idx in seen:
                    raise AssertionError("rectangle in two cells")
                seen[idx] = True
                x1, x2, y1, y2 = state.boxes[idx]
                if not (col.lo <= x1 and x2 <= col.hi and row.lo <= y1 and y2 <= row.hi):
                    raise AssertionError("rectangle escapes its cell")
    if large:
        raise AssertionError("large-cell set holds a cell off the grid")
    if len(seen) != state.total:
        raise AssertionError("%d rectangles in cells, %d alive" % (len(seen), state.total))


def _merge_loop(state: _State, stats: Optional[dict] = None) -> bool:
    """Run merges until one rectangle remains (True) or no cell holds two
    rectangles while several remain (False: dense)."""
    large = state.large
    n = state.n
    steps = state.steps
    rep = state.rep
    validate = state.validate
    while state.total > 1:
        while large and large[0][0] != large[0][1].stamp:
            large.popleft()
        if not large:
            return False
        cell = large[0][1]
        rects = cell.rects
        i = rects[0]
        j = rects[1]
        k = n + len(steps) + 1
        steps.append(MergeStep(i, j, k))
        rects[0:2] = [k]
        rep.append(rep[i] if rep[i] < rep[j] else rep[j])
        state.total -= 1
        if len(rects) < 2:
            cell.stamp = 0
            large.popleft()
        col = cell.col
        row = cell.row
        col.size -= 1
        row.size -= 1
        if validate:
            a = state.boxes[i]
            b = state.boxes[j]
            state.boxes[k] = (min(a[0], b[0]), max(a[1], b[1]),
                              min(a[2], b[2]), max(a[3], b[3]))
        _maybe_coarsen(state, col, 1, stats)
        _maybe_coarsen(state, row, 2, stats)
        if validate:
            _check_invariants(state)
    return True


def _dense_cells(state: _State, perm: Permutation):
    """PointSet of occupied cells plus the maps needed to pull a grid
    witness on the cells back to the permutation: per-column/row
    coordinate cuts and a representative point of the permutation per
    cell."""
    cols = _lines(state.cols_head)
    rows = _lines(state.rows_head)
    row_index = {ln: i + 1 for i, ln in enumerate(rows)}
    word = perm.word
    pts: List[Point] = []
    reps: Dict[Point, Point] = {}
    for ci, col in enumerate(cols, 1):
        for rline, cell in col.cells.items():
            cellpt = Point(ci, row_index[rline])
            pts.append(cellpt)
            label = state.rep[cell.rects[0]]
            reps[cellpt] = Point(label, word[label - 1])
    M = PointSet(len(cols), len(rows), sorted(pts))
    col_cuts = [c.hi for c in cols]
    row_cuts = [r.hi for r in rows]
    return M, col_cuts, row_cuts, reps


def build_decomposition(perm: Permutation, r: Optional[int] = None, *,
                        d: Optional[int] = None,
                        stats: Optional[dict] = None,
                        validate: bool = False) -> DecompositionResult:
    """Merge-decompose perm under a view budget: d = 4 f(r) when given the
    grid order r, or the explicit budget d.  Returns a complete d-wide
    merge sequence; when the merging stalls, an r x r grid witness
    extracted from the dense cell pattern (from r), or that occupied-cell
    PointSet itself (from d), which has more than (p + q - 2) d / 4 points.
    Pass exactly one of r and d.  Runs in O(n) merges plus, from r, one
    grid-finder call; deterministic."""
    if (r is None) == (d is None):
        raise ValidationError("pass exactly one of r and d")
    if r is not None:
        d = 4 * f_bound(r)
    elif d < 1:
        raise ValidationError("view budget must be >= 1, got %d" % d)
    if stats is not None:
        stats.update(coarsen_cols=0, coarsen_rows=0, dense=False)
    state = _build_state(perm, d, validate)
    if _merge_loop(state, stats):
        seq = MergeSequence._of_steps(state.steps)
        return DecompositionResult(seq=seq, grid=None, width_bound=d)
    if stats is not None:
        stats["dense"] = True
    M, col_cuts, row_cuts, reps = _dense_cells(state, perm)
    # every cell holds one rectangle and consecutive lines are over budget,
    # which forces the density the grid finder needs
    if not (M.p + M.q > 2 and 4 * len(M) > d * (M.p + M.q - 2)):
        raise AssertionError("dense branch below threshold")
    if r is None:
        return DecompositionResult(seq=None, grid=None, width_bound=None, cells=M)
    sub = find_grid(M, r)
    w = GridWitness([col_cuts[c - 1] for c in sub.col_cuts],
                    [row_cuts[c - 1] for c in sub.row_cuts],
                    [[reps[sub.witnesses[j][i]] for i in range(r)] for j in range(r)])
    if not verify_grid(perm, w, r):
        raise AssertionError("internal: lifted dense-branch witness failed verification")
    return DecompositionResult(seq=None, grid=w, width_bound=None)


def canonical_grid_decomposition(r: int, s: int) -> MergeSequence:
    """Row-sweep merge sequence for canonical_grid(r, s): sweep the rows
    bottom to top, absorbing each row's point into its column's rectangle
    (columns left to right within a level), then join the r column
    rectangles left to right.  At every step the new rectangle stays inside
    its column's x-band and sees exactly the other r - 1 column rectangles
    on the y-axis, so the width is exactly r whenever s >= 2."""
    if r < 1 or s < 1:
        raise ValidationError("grid dimensions must be >= 1, got %d x %d" % (r, s))
    n = r * s
    steps: List[Tuple[int, int, int]] = []
    nxt = n + 1
    # label of the row-i point of column j is (j-1)s + (s-i+1); start each
    # column's rectangle at its row-1 point
    col_rect = [j * s for j in range(1, r + 1)]
    for t in range(2, s + 1):
        for j in range(1, r + 1):
            label = (j - 1) * s + (s - t + 1)
            steps.append((col_rect[j - 1], label, nxt))
            col_rect[j - 1] = nxt
            nxt += 1
    cur = col_rect[0]
    for other in col_rect[1:]:
        steps.append((cur, other, nxt))
        cur = nxt
        nxt += 1
    return MergeSequence(steps)
