"""Exhaustive reference oracles for small inputs.

Three searches, each deliberately simple and slow: ``brute_force_match``
backtracks over all embeddings, ``exact_width`` explores every merge
order, and ``grid_search`` (``brute_force_grid`` on a permutation) tries
every cut combination.  The CLI runs them on small inputs, and the fast
algorithms elsewhere in the package are tested against them.  Size caps
(named constants below) keep the exponential searches honest.
"""

from __future__ import annotations

import bisect
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import (
    Embedding,
    GridWitness,
    Permutation,
    Point,
    SizeCapError,
    ValidationError,
    _int_fields,
)

EXACT_WIDTH_CAP = 9     # states ~ Bell(n); n = 9 is ~21k states, still < 2 s
BRUTE_GRID_CAP = 16     # C(n-1, r-1)^2 cut choices


# ---------------------------------------------------------------------------
# pattern containment
# ---------------------------------------------------------------------------

def brute_force_match(pattern: Permutation, target: Permutation) -> Optional[Embedding]:
    """Backtracking search over all embeddings of pattern into target.

    Pattern labels are assigned in ascending label order, candidates tried
    in ascending target-label order, so the first hit is the
    lexicographically least embedding vector.  Returns None if absent.
    """
    sw = pattern.word
    tw = target.word
    m = len(sw)
    if m > len(tw):
        return None
    if not m:
        return {}
    chosen: List[int] = []

    def compatible(idx: int, cand: int) -> bool:
        # label idx + 1 lies right of every label chosen so far
        for prev_idx, prev in enumerate(chosen):
            if prev > cand or (sw[prev_idx] < sw[idx]) != (tw[prev - 1] < tw[cand - 1]):
                return False
        return True

    used: Set[int] = set()

    def descend(idx: int) -> bool:
        if idx == m:
            return True
        for cand in range(1, len(tw) + 1):
            if cand in used:
                continue
            if compatible(idx, cand):
                used.add(cand)
                chosen.append(cand)
                if descend(idx + 1):
                    return True
                chosen.pop()
                used.discard(cand)
        return False

    if descend(0):
        return dict(enumerate(chosen, 1))
    return None


# ---------------------------------------------------------------------------
# exact width
# ---------------------------------------------------------------------------

def _view_counts(box: int, others: Sequence[int]) -> Tuple[int, int]:
    bx1 = box >> 12
    bx2 = (box >> 8) & 15
    by1 = (box >> 4) & 15
    by2 = box & 15
    v1 = v2 = 0
    for o in others:
        if not ((o >> 8) & 15) < bx1 and not (o >> 12) > bx2:
            v1 += 1
        if not (o & 15) < by1 and not ((o >> 4) & 15) > by2:
            v2 += 1
    return v1, v2


def exact_width(perm: Permutation) -> int:
    """Minimum d such that some full merge sequence keeps every rectangle
    seen by fewer than d others on both axes.  By convention the width of
    an empty or singleton permutation is 1.

    Explores every reachable rectangle family (equivalently, every
    partition of the points into bounding boxes), memoizing the best
    achievable width from each family.  Capped at EXACT_WIDTH_CAP points.
    """
    n = len(perm)
    if n > EXACT_WIDTH_CAP:
        raise SizeCapError("exact_width is exhaustive; %d points exceeds cap %d"
                           % (n, EXACT_WIDTH_CAP))
    if n <= 1:
        return 1
    word = perm.word

    # Pack each box into 16 bits: x1 x2 y1 y2, one nibble each (coords <= 9).
    start = tuple(sorted((x << 12) | (x << 8) | (y << 4) | y
                         for x, y in enumerate(word, start=1)))
    memo: Dict[Tuple[int, ...], int] = {}

    def best(state: Tuple[int, ...]) -> int:
        if len(state) == 1:
            return 1
        res = memo.get(state)
        if res is not None:
            return res
        res = n + 1  # more than any achievable width
        m = len(state)
        for a in range(m):
            ba = state[a]
            for b in range(a + 1, m):
                bb = state[b]
                merged = ((min(ba >> 12, bb >> 12) << 12)
                          | (max((ba >> 8) & 15, (bb >> 8) & 15) << 8)
                          | (min((ba >> 4) & 15, (bb >> 4) & 15) << 4)
                          | max(ba & 15, bb & 15))
                rest = state[:a] + state[a + 1:b] + state[b + 1:]
                v1, v2 = _view_counts(merged, rest)
                w = 1 + (v1 if v1 >= v2 else v2)
                if w >= res:
                    continue  # cannot beat the incumbent no matter the tail
                cand = best(tuple(sorted(rest + (merged,))))
                if cand < w:
                    cand = w
                if cand < res:
                    res = cand
        memo[state] = res
        return res

    return best(start)


# ---------------------------------------------------------------------------
# grid detection
# ---------------------------------------------------------------------------

def grid_search(points: Sequence[Point], r: int) -> Optional[GridWitness]:
    """Exhaustive r x r gridding search over a point collection.

    Tries every choice of r-1 column cuts and r-1 row cuts at occupied
    coordinates (in lexicographic cut order, columns outermost) and
    returns the first gridding with all r^2 cells nonempty; the witness
    in each cell is its lexicographically smallest point.  Exponential in
    r — callers cap the input size.
    """
    pts = sorted(Point(*_int_fields(p, 2, "point")) for p in points)
    if r < 1:
        raise ValidationError("grid order must be >= 1, got %d" % r)
    if not pts:
        return None
    if r == 1:
        return GridWitness((), (), ((pts[0],),))
    if len(pts) < r * r:  # r^2 nonempty cells need r^2 points
        return None
    xs = sorted({p.x for p in pts})
    ys = sorted({p.y for p in pts})
    if len(xs) < r or len(ys) < r:
        return None
    x_choices = list(combinations(xs[:-1], r - 1))
    y_choices = list(combinations(ys[:-1], r - 1))
    for cc in x_choices:
        for rc in y_choices:
            cells: Dict[Tuple[int, int], Point] = {}
            for p in pts:
                ci = bisect.bisect_left(cc, p.x)
                rj = bisect.bisect_left(rc, p.y)
                key = (rj, ci)
                if key not in cells:
                    cells[key] = p  # pts sorted, first hit is lex smallest
            if len(cells) == r * r:
                rows = tuple(tuple(cells[(j, i)] for i in range(r)) for j in range(r))
                return GridWitness(cc, rc, rows)
    return None


def brute_force_grid(perm: Permutation, r: int) -> Optional[GridWitness]:
    """Exhaustive grid detection on a permutation; capped at
    BRUTE_GRID_CAP points."""
    if len(perm) > BRUTE_GRID_CAP:
        raise SizeCapError("brute_force_grid tries all cut choices; %d points exceeds cap %d"
                           % (len(perm), BRUTE_GRID_CAP))
    return grid_search(perm.points, r)
