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

The DP's cost grows steeply with the width the builder realizes, and
4 f(r) is often n or more, where the builder sweeps the points left to
right at a width near n.  ``_stall_free_budget(n)`` is the least budget
d0 ≈ √(2n) at which no build can stall.  When d0 ≤ 4 f(r), the paper
build cannot stall either, so ``match_auto`` builds at d0 instead and
gets a complete sequence of width at most d0.  It loses no grid exit,
because only a stall leads to one.

``verify_wide`` / ``width_of_decomposition`` replay a sequence with two
Fenwick trees per axis, counting the live rectangles' low and high
endpoints.  A merged rectangle keeps one child's endpoint on each side, so
a merge removes one endpoint from each tree and adds none, and its view
count is two prefix sums.  Checking a claimed width costs O(n log n)
regardless of how wide the rectangles get.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from .core import (
    GridWitness,
    MergeSequence,
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
    from r) or ``cells`` (the stalled gridding's occupied cells as sorted
    (column, row) int pairs, for a build from an explicit budget d)."""

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

class _Axis:
    """The columns or the rows of the gridding.  Lines are int indices
    into flat lists: size (rectangle count), span lo..hi of coordinates,
    neighbor links prv/nxt (-1: none) and cells, a dict per line keyed by
    the crossing line's index.  A cell holding one rectangle is that
    rectangle's index; a larger cell is the list [col, row, rect, rect,
    ...], the same object in both lines' dicts.  Nothing here refers
    back to anything, so a build's state is freed by reference counting
    as soon as the build returns."""

    __slots__ = ("size", "lo", "hi", "prv", "nxt", "cells", "head")

    def __init__(self, n: int, d: int):
        # line c holds the points of coordinates c*d+1 .. (c+1)*d
        m = (n + d - 1) // d
        self.lo = list(range(1, n + 1, d))
        self.hi = [min(lo + d - 1, n) for lo in self.lo]
        self.size = [hi - lo + 1 for lo, hi in zip(self.lo, self.hi)]
        self.prv = list(range(-1, m - 1))
        self.nxt = list(range(1, m + 1))
        if m:
            self.nxt[-1] = -1
        self.cells: List[Optional[Dict[int, object]]] = [{} for _ in range(m)]
        self.head = 0 if m else -1


class _State:
    __slots__ = ("n", "d", "total", "cols", "rows", "large", "rep", "steps",
                 "validate", "boxes")

    def __init__(self, n: int, d: int, validate: bool):
        self.n = n
        self.d = d
        self.total = n
        self.cols = _Axis(n, d)
        self.rows = _Axis(n, d)
        # cells holding two or more rectangles, in the order they became
        # large.  Merges take the front cell, which leaves when one
        # rectangle is left; a cell absorbed into another is cleared, and
        # its entry skipped when it reaches the front
        self.large: Deque[List[int]] = deque()
        self.rep: List[int] = list(range(n + 1))  # min original label per index
        self.steps: List[Tuple[int, int, int]] = []
        self.validate = validate
        self.boxes: Dict[int, Tuple[int, int, int, int]] = {}


def _lines(axis: _Axis) -> List[int]:
    out = []
    line = axis.head
    nxt = axis.nxt
    while line >= 0:
        out.append(line)
        line = nxt[line]
    return out


def _build_state(perm: Permutation, d: int, validate: bool = False) -> _State:
    n = len(perm)
    state = _State(n, d, validate)
    ccells = state.cols.cells
    rcells = state.rows.cells
    large = state.large
    word = perm.word
    for c, cc in enumerate(ccells):
        label = c * d
        for y in word[label:label + d]:
            label += 1
            w = (y - 1) // d
            cell = cc.get(w)
            if cell is None:
                cc[w] = label
                rcells[w][c] = label
            elif cell.__class__ is int:
                cell = [c, w, cell, label]
                cc[w] = cell
                rcells[w][c] = cell
                large.append(cell)
            else:
                cell.append(label)
    if validate:
        state.boxes = {l: (l, l, y, y) for l, y in enumerate(word, 1)}
    return state


def _absorb_line(state: _State, axis: _Axis, other: _Axis, a: int, b: int, pos: int) -> None:
    """Merge line b of axis into line a (cells at shared crossings
    concatenate with a's rectangles first); unlink b.  ``pos`` is the
    axis's slot in a large cell's [col, row] head: 0 for columns."""
    acells = axis.cells[a]
    ocells = other.cells
    for o, cb in axis.cells[b].items():
        oc = ocells[o]
        ca = acells.get(o)
        if ca is None:
            if cb.__class__ is list:
                cb[pos] = a
            acells[o] = cb
            oc[a] = cb
        elif ca.__class__ is list:
            if cb.__class__ is list:
                ca += cb[2:]
                cb.clear()
            else:
                ca.append(cb)
        else:
            cell = [a, o, ca] if pos == 0 else [o, a, ca]
            if cb.__class__ is list:
                cell += cb[2:]
                cb.clear()
            else:
                cell.append(cb)
            acells[o] = cell
            oc[a] = cell
            state.large.append(cell)
        del oc[b]
    axis.cells[b] = None
    size, lo, hi, prv, nxt = axis.size, axis.lo, axis.hi, axis.prv, axis.nxt
    size[a] += size[b]
    if lo[b] < lo[a]:
        lo[a] = lo[b]
    if hi[b] > hi[a]:
        hi[a] = hi[b]
    p, q = prv[b], nxt[b]
    if p >= 0:
        nxt[p] = q
    else:
        axis.head = q
    if q >= 0:
        prv[q] = p


def _maybe_coarsen(state: _State, axis: _Axis, other: _Axis, line: int, pos: int,
                   stats: Optional[dict]) -> None:
    # check the smaller-coordinate neighbor first; at most one merge per
    # axis per step (merging one side pushes the other back over budget)
    size = axis.size
    for nb in (axis.prv[line], axis.nxt[line]):
        if nb >= 0 and size[line] + size[nb] <= state.d:
            _absorb_line(state, axis, other, line, nb, pos)
            if stats is not None:
                stats["coarsen_rows" if pos else "coarsen_cols"] += 1
            return


def _check_invariants(state: _State) -> None:
    """Debug replay of the gridding invariants: rectangles inside their
    cell's span, line sizes within budget, consecutive lines over budget,
    large-cell bookkeeping exact.  Raises AssertionError, also under -O."""
    d = state.d
    cols, rows = state.cols, state.rows
    seen: Dict[int, bool] = {}
    large = {id(cell) for cell in state.large if cell}
    for axis in (cols, rows):
        lines = _lines(axis)
        for ln in lines:
            if not 1 <= axis.size[ln] <= d:
                raise AssertionError("line size %d outside 1..%d" % (axis.size[ln], d))
            count = sum(len(c) - 2 if c.__class__ is list else 1
                        for c in axis.cells[ln].values())
            if count != axis.size[ln]:
                raise AssertionError("line size differs from its cells' rectangle count")
        for a, b in zip(lines, lines[1:]):
            if axis.size[a] + axis.size[b] <= d:
                raise AssertionError("consecutive lines fit the budget but were not merged")
            if axis.hi[a] >= axis.lo[b]:
                raise AssertionError("line spans out of order")
    cells = 0
    for col in _lines(cols):
        for row, cell in cols.cells[col].items():
            cells += 1
            if rows.cells[row].get(col) is not cell:
                raise AssertionError("cell linked to the wrong lines")
            if cell.__class__ is list:
                if cell[:2] != [col, row]:
                    raise AssertionError("cell linked to the wrong lines")
                if len(cell) < 4:
                    raise AssertionError("large cell holds fewer than two rectangles")
                if id(cell) not in large:
                    raise AssertionError("large-cell queue stale")
                large.discard(id(cell))
                rects = cell[2:]
            else:
                rects = [cell]
            for idx in rects:
                if idx in seen:
                    raise AssertionError("rectangle in two cells")
                seen[idx] = True
                x1, x2, y1, y2 = state.boxes[idx]
                if not (cols.lo[col] <= x1 and x2 <= cols.hi[col]
                        and rows.lo[row] <= y1 and y2 <= rows.hi[row]):
                    raise AssertionError("rectangle escapes its cell")
    if sum(len(rows.cells[row]) for row in _lines(rows)) != cells:
        raise AssertionError("row and column cells differ")
    if large:
        raise AssertionError("large-cell queue holds a cell off the grid")
    if len(seen) != state.total:
        raise AssertionError("%d rectangles in cells, %d alive" % (len(seen), state.total))


def _merge_loop(state: _State, stats: Optional[dict] = None) -> bool:
    """Run merges until one rectangle remains (True) or no cell holds two
    rectangles while several remain (False: dense)."""
    large = state.large
    k = state.n
    steps = state.steps
    rep = state.rep
    validate = state.validate
    cols, rows = state.cols, state.rows
    csize, rsize = cols.size, rows.size
    ccells, rcells = cols.cells, rows.cells
    while state.total > 1:
        while large and not large[0]:
            large.popleft()
        if not large:
            return False
        cell = large[0]
        c = cell[0]
        w = cell[1]
        i = cell[2]
        j = cell[3]
        k += 1
        steps.append((i, j, k))
        rep.append(rep[i] if rep[i] < rep[j] else rep[j])
        state.total -= 1
        if len(cell) == 4:
            large.popleft()
            ccells[c][w] = k
            rcells[w][c] = k
        else:
            del cell[3]
            cell[2] = k
        csize[c] -= 1
        rsize[w] -= 1
        if validate:
            a = state.boxes[i]
            b = state.boxes[j]
            state.boxes[k] = (min(a[0], b[0]), max(a[1], b[1]),
                              min(a[2], b[2]), max(a[3], b[3]))
        _maybe_coarsen(state, cols, rows, c, 0, stats)
        _maybe_coarsen(state, rows, cols, w, 1, stats)
        if validate:
            _check_invariants(state)
    return True


def _stall_free_budget(n: int) -> int:
    """Least budget d >= 1 with d >= 2 ceil(n / d); no build of an
    n-point permutation at such a d stalls.

    Proof.  At a stall at least two rectangles remain and every occupied
    cell holds exactly one, so some axis has two or more lines.  A line's
    size is then the number of its occupied cells, at most the number of
    lines on the other axis, and that is at most the initial ceil(n / d)
    because lines only ever merge.  Two consecutive lines together hold
    more than d rectangles (checked by ``_check_invariants``), so a stall
    needs d < 2 ceil(n / d).

    d - 2 ceil(n / d) strictly increases with d, so every budget from the
    returned one up cannot stall, and the returned one is at most the
    budget D exactly when D >= 2 ceil(n / D).  It is at least sqrt(2n),
    since ceil(n / d) >= n / d, and below 2 + sqrt(2n + 1), since
    ceil(n / d) < n / d + 1: the loop runs at most three times."""
    d = max(1, math.isqrt(2 * n))
    while d < 2 * -(-n // d):
        d += 1
    return d


def _dense_cells(state: _State) -> Tuple[PointSet, List[int], List[int]]:
    """PointSet of the occupied cells, as (column, row) positions among the
    live lines, and the live column and row line indices in order."""
    cols = _lines(state.cols)
    rows = _lines(state.rows)
    row_pos = [0] * len(state.rows.size)
    for pos, line in enumerate(rows, 1):
        row_pos[line] = pos
    ccells = state.cols.cells
    pts: List[Tuple[int, int]] = []
    for ci, col in enumerate(cols, 1):
        pts += [(ci, y) for y in sorted([row_pos[row] for row in ccells[col]])]
    return PointSet._of_pairs(len(cols), len(rows), pts), cols, rows


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
    M, cols, rows = _dense_cells(state)
    # every cell holds one rectangle and consecutive lines are over budget,
    # which forces the density the grid finder needs
    if not (M.p + M.q > 2 and 4 * len(M) > d * (M.p + M.q - 2)):
        raise AssertionError("dense branch below threshold")
    if r is None:
        return DecompositionResult(seq=None, grid=None, width_bound=None, cells=M)
    sub = find_grid(M, r)
    # a cell's representative is the least label of its one rectangle
    ccells = state.cols.cells
    word = perm.word
    reps = []
    for row in sub.witnesses:
        labels = [state.rep[ccells[cols[x - 1]][rows[y - 1]]] for x, y in row]
        reps.append([Point(label, word[label - 1]) for label in labels])
    w = GridWitness([state.cols.hi[cols[c - 1]] for c in sub.col_cuts],
                    [state.rows.hi[rows[c - 1]] for c in sub.row_cuts],
                    reps)
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
