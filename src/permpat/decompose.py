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
it builds at d = 4 f(r), and the grid finder answers from a dense
gridding: the starting one, read from one pass over the word with no
builder state, when its occupied cells already pass the finder's bound
(merges inside a cell change neither the cells nor the lines), else the
one where the merging stalls.  Given an explicit budget d it merges and
answers a stall with the occupied cells.

The DP's cost grows steeply with the width the builder realizes, and
4 f(r) is often n or more, where the builder sweeps the points left to
right at a width near n.  ``_stall_free_budget(n)`` is the least budget
d0 ≈ √(2n) at which no build can stall.  When d0 ≤ 4 f(r), the paper
build cannot stall either, so ``match_auto`` builds at d0 instead and
gets a complete sequence of width at most d0.  The only grid exit it
gives up is a dense start of the paper build, which at such a budget
needs all but fewer than m of the m x m starting cells occupied.
Before that build it runs ``_interval_merges``, a stack pass that merges
value-adjacent neighbours and completes, at width 1, on a separable word.

``verify_wide`` / ``width_of_decomposition`` replay a sequence and count,
per axis, the live rectangles' low and high endpoints by rank.  A merged
rectangle keeps one child's endpoint on each side, so a merge retires one
low and one high endpoint and adds none.  The new rectangle [L, R] sees
the live lows up to R minus the live highs below L.  The counter keeps
bytearrays of the live lows and highs, their counts per block of B = 512
ranks, and the blocks' prefix sums of lows minus highs.  Those change
only at a step whose two retired endpoints lie in different blocks: it
updates a Fenwick tree over the blocks and reads the prefix there, and
the next step that moves none rebuilds a plain prefix list with
``itertools.accumulate``.  A replay yields its records only, the steps
whose count beats a floor and every earlier count.  A step bounds its
count by the prefix up to L - 1's block plus the lows of the blocks
through R's (if it spans over half the blocks: all other live rectangles
minus the highs of the blocks left of L - 1's and the lows of those right
of R's), and makes its two partial-block ``bytearray.count`` calls only
while the bound beats the floor.  A replay is O(n log n + n B + n^2 / B)
in the worst case, whatever the width.  ``width_of_decomposition``
replays y from x's maximum, and ``first_violation`` stops each axis at
its first record over d - 1, y at x's step at the latest.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import (
    GridWitness,
    MergeSequence,
    Permutation,
    ValidationError,
    validate_merge_sequence,
    verify_grid,  # unused here; bench/tracing.py wraps permpat.decompose.verify_grid by name
)
from .griddetect import Columns, _lift, f_bound, find_grid


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of build_decomposition: exactly one of ``seq`` (a complete
    d-wide merge sequence), ``grid`` (an r x r grid witness that
    ``griddetect._lift`` lifts from a dense gridding of a build from r) or
    ``cells`` (a stall's occupied cells as ``Columns``, indexed by line
    position, from a budget d), with the line bounds ``_lift`` reads:
    column c spans coordinates xs[c - 1] + 1 .. xs[c], and row c
    ys[c - 1] + 1 .. ys[c]."""

    seq: Optional[MergeSequence] = None
    grid: Optional[GridWitness] = None
    cells: Optional[Columns] = None
    xs: Optional[Tuple[int, ...]] = None
    ys: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if (self.seq is not None) + (self.grid is not None) + (self.cells is not None) != 1:
            raise ValidationError("result must carry exactly one of seq/grid/cells")

    @property
    def is_grid(self) -> bool:
        return self.grid is not None


# ---------------------------------------------------------------------------
# replay verification
# ---------------------------------------------------------------------------

_BLOCK_SHIFT = 9  # a block of the replay's view counter spans 1 << 9 = 512 ranks


def _axis_views(rank: List[int], seq: Iterable[Tuple[int, int, int]],
                floor: int) -> Iterator[Tuple[int, int]]:
    """(step number, views) of each step whose new rectangle overlaps more
    other live rectangles on one axis than ``floor`` and than each step
    yielded before it; ``rank[l]`` is label l's rank (1..n) on that axis,
    and ``seq`` a validated sequence or a prefix of one."""
    n = len(rank) - 1
    lo = rank + [0] * n  # index -> low and high endpoint (at most n - 1 steps)
    hi = lo[:]
    s = _BLOCK_SHIFT
    # live low and high endpoints by rank (every rank starts as both),
    # their counts per block of 1 << s ranks, and a Fenwick tree over the
    # blocks of live lows minus live highs, all zero at the start
    lob = bytearray([0]) + bytearray([1]) * n
    hib = lob[:]
    nb = (n >> s) + 1
    half = nb >> 1
    locnt = [lob.count(1, b << s, (b + 1) << s) for b in range(nb)]
    hicnt = locnt[:]
    fen = [0] * (nb + 1)
    stale = True  # no list ``pre`` of the tree's prefix sums yet
    for i, j, k in seq:
        # k keeps the lower low and the higher high endpoint of its
        # children, so only the other child's endpoints stop being live
        a, b = lo[i], lo[j]
        if a > b:
            a, b = b, a
        lo[k] = left = a
        lob[b] = 0
        b >>= s
        locnt[b] -= 1
        a, c = hi[i], hi[j]
        if a < c:
            a, c = c, a
        hi[k] = right = a
        hib[c] = 0
        c >>= s
        hicnt[c] -= 1
        bl = (left - 1) >> s
        br = right >> s
        # v: the lows <= right minus the highs < left, minus k itself.  The
        # blocks before left - 1's give their lows minus highs at once
        if b != c:
            # one block lost a low and another a high (in one block the two
            # cancel): update the tree and read it; the list is now stale
            stale = True
            b += 1
            while b <= nb:
                fen[b] -= 1
                b += b & -b
            c += 1
            while c <= nb:
                fen[c] += 1
                c += c & -c
            v = 0
            b = bl if br - bl <= half else 0  # a wide k below needs none
            while b:
                v += fen[b]
                b &= b - 1
        else:
            if stale:
                pre = list(itertools.accumulate(map(operator.sub, locnt, hicnt), initial=0))
                stale = False
            v = pre[bl]
        # bound v by every low through R's block; the partial blocks are
        # counted only while the bound beats the floor
        if bl == br:
            v += locnt[bl] - 1
        elif br - bl <= half:
            v += sum(locnt[bl:br + 1]) - 1
        else:
            # k spans most blocks: of the 2n - 1 - k other live
            # rectangles, count those wholly left or right of it instead
            v = 2 * n - 1 - k - sum(hicnt[:bl]) - sum(locnt[br + 1:])
        if v > floor:
            v -= lob.count(1, right + 1, (br + 1) << s)
            if v > floor:
                v -= hib.count(1, bl << s, left)
                if v > floor:
                    floor = v
                    yield k - n, v


def _ranks(perm: Permutation, seq: MergeSequence) -> Tuple[List[int], List[int]]:
    """Validate the whole sequence; label l's x-rank is l, its y-rank word[l - 1]."""
    validate_merge_sequence(seq, len(perm))
    return list(range(len(perm) + 1)), [0, *perm.word]


def width_of_decomposition(perm: Permutation, seq: MergeSequence) -> int:
    """Exact width of a merge sequence: one more than the largest view
    count over all created rectangles (1 for empty/singleton input)."""
    most = 0
    for rank in _ranks(perm, seq):
        for _, most in _axis_views(rank, seq, most):
            pass
    return most + 1


def verify_wide(perm: Permutation, seq: MergeSequence, d: int) -> bool:
    """True iff every rectangle the sequence creates has fewer than d
    same-axis viewers among the rectangles alive with it (the starting
    point-rectangles always qualify for d >= 1)."""
    return d >= 1 and first_violation(perm, seq, d) is None


def first_violation(perm: Permutation, seq: MergeSequence, d: int) -> Optional[Tuple[int, int]]:
    """(step number, offending view count) of the first step whose new
    rectangle reaches d viewers on some axis; None when d-wide.  Raises
    ValidationError when d < 1 or the sequence is invalid anywhere.  Each
    axis counts no step past its own first violation, y none past x's."""
    if d < 1:
        raise ValidationError("view budget must be >= 1, got %d" % d)
    xrank, yrank = _ranks(perm, seq)
    first = next(_axis_views(xrank, seq, d - 1), None)
    # y only up to x's violation step, where it reports the larger count
    steps = seq if first is None else itertools.islice(seq, first[0])
    other = next(_axis_views(yrank, steps, d - 1), None)
    if first is None or other is None:
        return first or other
    return other if other[0] < first[0] else (first[0], max(first[1], other[1]))


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------

class _Axis:
    """The columns or the rows of the gridding.  Lines are int indices
    into flat lists: size (rectangle count), hi (the line's last
    coordinate; it starts one past the previous live line's), neighbor
    links prv/nxt (-1: none) and cells, a dict per line keyed by the
    crossing line's index.  A cell holding one rectangle is that
    rectangle's index; a larger cell is the list [col, row, rect, rect,
    ...], the same object in both lines' dicts.  Nothing here refers
    back to anything, so a build's state is freed by reference counting
    as soon as the build returns."""

    __slots__ = ("size", "hi", "prv", "nxt", "cells", "head")

    def __init__(self, n: int, d: int):
        # line c holds the points of coordinates c*d+1 .. (c+1)*d
        m = (n + d - 1) // d
        self.hi = [min(hi, n) for hi in range(d, n + d, d)]
        self.size = [hi - c * d for c, hi in enumerate(self.hi)]
        self.prv = list(range(-1, m - 1))
        self.nxt = list(range(1, m + 1))
        if m:
            self.nxt[-1] = -1
        self.cells: List[Optional[Dict[int, object]]] = [{} for _ in range(m)]
        self.head = 0 if m else -1


class _State:
    """A build's gridding and its merge steps so far.  Rectangles 1..n are
    the points, step p makes rectangle n + p, and ``total`` counts the
    live ones."""

    __slots__ = ("n", "d", "total", "cols", "rows", "large", "steps")

    def __init__(self, n: int, d: int):
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
        self.steps: List[Tuple[int, int, int]] = []


def _lines(axis: _Axis) -> List[int]:
    out = []
    line = axis.head
    nxt = axis.nxt
    while line >= 0:
        out.append(line)
        line = nxt[line]
    return out


def _build_state(n: int, d: int, row_of: Sequence[int]) -> _State:
    """The starting state; ``row_of[l - 1]`` is label l's row, (y - 1) // d."""
    state = _State(n, d)
    ccells = state.cols.cells
    rcells = state.rows.cells
    large = state.large
    for c, cc in enumerate(ccells):
        label = c * d
        for w in row_of[label:label + d]:
            label += 1
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
    size, hi, prv, nxt = axis.size, axis.hi, axis.prv, axis.nxt
    size[a] += size[b]
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


def _merge_loop(state: _State, stats: Optional[dict] = None) -> bool:
    """Run merges until one rectangle remains (True) or no cell holds two
    rectangles while several remain (False: dense)."""
    large = state.large
    k = state.n
    steps = state.steps
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
        _maybe_coarsen(state, cols, rows, c, 0, stats)
        _maybe_coarsen(state, rows, cols, w, 1, stats)
    return True


def _stall_free_budget(n: int) -> int:
    """Least budget d >= 1 with d >= 2 ceil(n / d); no build of an
    n-point permutation at such a d stalls.

    Proof.  At a stall at least two rectangles remain and every occupied
    cell holds exactly one, so some axis has two or more lines.  A line's
    size is then the number of its occupied cells, at most the number of
    lines on the other axis, and that is at most the initial ceil(n / d)
    because lines only ever merge.  Two consecutive lines together hold
    more than d rectangles (``check_builder_state`` in tests/helpers.py
    checks this after every merge), so a stall needs d < 2 ceil(n / d).

    d - 2 ceil(n / d) strictly increases with d, so every budget from the
    returned one up cannot stall, and the returned one is at most the
    budget D exactly when D >= 2 ceil(n / D).  It is at least sqrt(2n),
    since ceil(n / d) >= n / d, and below 2 + sqrt(2n + 1), since
    ceil(n / d) < n / d + 1: the loop runs at most three times."""
    d = max(1, math.isqrt(2 * n))
    while d < 2 * -(-n // d):
        d += 1
    return d


def _interval_merges(word: Sequence[int]) -> Optional[List[Tuple[int, int, int]]]:
    """The steps of one shift-reduce pass over the word, or None when it
    ends with more than one block.  Blocks (rect, lowest, highest value)
    are pushed label by label, and the top two merge, the earlier as i,
    while their values are adjacent.

    It completes exactly on a separable word (no 2 4 1 3, no 3 1 4 2).
    Completed, it is a separating tree: each merge is a direct or skew sum
    of two adjacent intervals, and live intervals share no projection, so
    the width is 1.  Stopped with k >= 2 blocks, no neighbouring pair is
    value-adjacent (a merge widens only the top block, which is then
    tested again), so one point per block is a size-k pattern with no
    interval of size 2.  Every separable permutation of size >= 2 has one,
    and every pattern of a separable permutation is separable."""
    stack: List[Tuple[int, int, int]] = []
    steps: List[Tuple[int, int, int]] = []
    k = len(word)
    for rect, y in enumerate(word, 1):
        lo = hi = y
        while stack:
            below, blo, bhi = stack[-1]
            if bhi + 1 == lo:
                lo = blo
            elif hi + 1 == blo:
                hi = bhi
            else:
                break
            stack.pop()
            k += 1
            steps.append((below, rect, k))
            rect = k
        stack.append((rect, lo, hi))
    return steps if len(stack) == 1 else None


def _dense(p: int, q: int, cells: int, d: int) -> bool:
    """Whether ``cells`` occupied cells of a p x q gridding pass the grid
    finder's bound at d = 4 f(r): cells > f(r) (p + q - 2), p + q > 2."""
    return p + q > 2 and 4 * cells > d * (p + q - 2)


def _dense_cells(state: _State) -> Tuple[Columns, Tuple[int, ...], Tuple[int, ...]]:
    """A stalled gridding's occupied cells, indexed by the live lines'
    positions, and the live columns' and rows' bounds: 0, then each line's
    end coordinate."""
    cols = _lines(state.cols)
    rows = _lines(state.rows)
    row_pos = {line: pos for pos, line in enumerate(rows)}
    ccells = state.cols.cells
    occupied = Columns(len(rows), [{row_pos[row] for row in ccells[col]} for col in cols])
    return (occupied, (0, *(state.cols.hi[c] for c in cols)),
            (0, *(state.rows.hi[w] for w in rows)))


def build_decomposition(perm: Permutation, r: Optional[int] = None, *,
                        d: Optional[int] = None,
                        stats: Optional[dict] = None) -> DecompositionResult:
    """Merge-decompose perm under a view budget: d = 4 f(r) when given the
    grid order r, or the explicit budget d.  Pass exactly one of r and d.

    Returns a complete d-wide merge sequence, or a dense gridding's answer:
    an r x r grid witness that ``_lift`` lifts from its occupied-cell
    pattern (from r), or those cells themselves as the ``Columns`` the
    finder reads, with their line bounds (from d): more than
    (p + q - 2) d / 4 of them.  From r, one pass over the word finds the
    starting cells; a starting gridding that already passes the grid
    finder's density bound goes straight to the finder with no builder
    state, else the gridding is dense only where the merging stalls.
    From d, only a stall returns the cells.

    ``stats``, when given, receives ``coarsen_cols`` and ``coarsen_rows``
    (line merges per axis), ``merges`` (merge steps made: 0 when the
    starting gridding is dense, n - 1 for a complete sequence) and
    ``dense`` (whether a dense gridding answered).  Runs in O(n) merges
    plus, from r, at most one grid-finder call; deterministic."""
    if (r is None) == (d is None):
        raise ValidationError("pass exactly one of r and d")
    name, value = ("d", d) if r is None else ("r", r)
    if type(value) is not int:  # _int_fields' test: no bools, no floats
        raise ValidationError("%s must be an int, got %r" % (name, value))
    if r is not None:
        d = 4 * f_bound(r)
    elif d < 1:
        raise ValidationError("view budget must be >= 1, got %d" % d)
    if stats is not None:
        stats.update(coarsen_cols=0, coarsen_rows=0, merges=0, dense=False)
    n = len(perm)
    # label l's starting row is row_of[l - 1] = (word[l - 1] - 1) // d, read
    # in one itemgetter call (a tuple only from two indices up) from a table
    # of each value's row.  Each row is cut at n, so the table has n + 1
    # entries however large d is (4 f(10) is about 6.9e17)
    rows = [0]
    for lo in range(0, n, d):
        rows.extend(itertools.repeat(lo // d, min(d, n - lo)))
    row_of = operator.itemgetter(*perm.word)(rows) if n > 1 else [rows[y] for y in perm.word]
    M = None
    if r is not None:
        # the rows each starting column occupies; merging inside a cell
        # changes neither the occupied cells nor the lines, so a dense start
        # skips it, and a sparse one may still stall
        xs = ys = (*range(0, n, d), n)
        M = Columns(len(ys) - 1, [set(row_of[lo:lo + d]) for lo in range(0, n, d)])
        if not _dense(M.p, M.q, len(M), d):
            M = None
    if M is None:
        state = _build_state(n, d, row_of)
        complete = _merge_loop(state, stats)
        if stats is not None:
            stats["merges"] = len(state.steps)
        if complete:
            return DecompositionResult(seq=MergeSequence._of_steps(state.steps))
        M, xs, ys = _dense_cells(state)
    if stats is not None:
        stats["dense"] = True
    # at a stall every cell holds one rectangle and consecutive lines are
    # over budget, which forces the density the grid finder needs
    if not _dense(M.p, M.q, len(M), d):
        raise AssertionError("dense branch below threshold")
    if r is None:
        return DecompositionResult(cells=M, xs=xs, ys=ys)
    return DecompositionResult(grid=_lift(perm, find_grid(M, r), xs, ys, perm.word))
