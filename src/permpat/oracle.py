"""Exhaustive reference oracles for small inputs.

Everything in this module is deliberately simple and slow: exact width by
exploring every merge order, pattern matching by backtracking over all
embeddings, grid detection by trying every cut combination.  The fast
algorithms elsewhere in the package are tested against these.  Size caps
(named constants below) keep the exponential searches honest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import (
    Embedding,
    GridWitness,
    MergeSequence,
    Permutation,
    Point,
    SizeCapError,
    ValidationError,
    validate_merge_sequence,
)

EXACT_WIDTH_CAP = 9     # states ~ Bell(n); n = 9 is ~21k states, still < 2 s
TREE_CHECK_CAP = 12     # 2^n subsets with a bitmask scan each
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
# close pairs and the tree characterization
# ---------------------------------------------------------------------------

def find_close_pair(perm: Permutation, d: int) -> Optional[Tuple[int, int]]:
    """First (by label pair, lexicographically) pair p < q with fewer than
    d points strictly between them in both the x- and the y-order."""
    word = perm.word
    n = len(word)
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            if q - p - 1 < d and abs(word[p - 1] - word[q - 1]) - 1 < d:
                return (p, q)
    return None


def check_tree_characterization(perm: Permutation, seq: MergeSequence, d: int) -> bool:
    """Width test driven by the merge forest alone.

    For every subset X of at least two points, restrict the merge tree to
    X and look at its lowest-numbered internal node; that node joins
    exactly two X-points, and the sequence is d-wide on the whole
    permutation iff for every X this pair is d-close within the
    restriction to X.  Exhaustive over 2^n subsets; capped at
    TREE_CHECK_CAP points.
    """
    n = len(perm)
    if n > TREE_CHECK_CAP:
        raise SizeCapError("check_tree_characterization enumerates 2^n subsets; "
                           "%d points exceeds cap %d" % (n, TREE_CHECK_CAP))
    validate_merge_sequence(seq, n, require_complete=True)
    if n <= 1:
        return True

    # bit b-1 of a mask stands for label b
    leafmask = {l: 1 << (l - 1) for l in range(1, n + 1)}
    internal: List[Tuple[int, int]] = []  # (child mask i, child mask j) in index order
    for i, j, k in seq:
        internal.append((leafmask[i], leafmask[j]))
        leafmask[k] = leafmask[i] | leafmask[j]

    xr = list(range(n + 1))
    yr = [0, *perm.word]

    for X in range(1, 1 << n):
        if X & (X - 1) == 0:
            continue  # fewer than two points
        pair = 0
        for mi, mj in internal:
            if (mi & X) and (mj & X):
                pair = ((mi | mj) & X)
                break
        # the lowest internal node of the restricted tree joins exactly
        # two X-points; anything else is a bug in this oracle
        if not pair or bin(pair).count("1") != 2:
            raise AssertionError("restricted tree scan broke")
        lo = (pair & -pair).bit_length()
        hi = pair.bit_length()
        # count members of X strictly between the pair in each order
        x_lo, x_hi = sorted((xr[lo], xr[hi]))
        y_lo, y_hi = sorted((yr[lo], yr[hi]))
        g1 = g2 = 0
        rest = X & ~pair
        while rest:
            b = (rest & -rest).bit_length()
            rest &= rest - 1
            if x_lo < xr[b] < x_hi:
                g1 += 1
            if y_lo < yr[b] < y_hi:
                g2 += 1
        if g1 >= d or g2 >= d:
            return False
    return True


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
    pts = sorted(Point(int(p[0]), int(p[1])) for p in points)
    if r < 1:
        raise ValidationError("grid order must be >= 1, got %d" % r)
    if not pts:
        return None
    if r == 1:
        return GridWitness((), (), ((pts[0],),))
    xs = sorted({p.x for p in pts})
    ys = sorted({p.y for p in pts})
    if len(xs) < r or len(ys) < r:
        return None
    from itertools import combinations

    x_choices = list(combinations(xs[:-1], r - 1))
    y_choices = list(combinations(ys[:-1], r - 1))
    import bisect

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


# ---------------------------------------------------------------------------
# separability
# ---------------------------------------------------------------------------

def is_separable(perm: Permutation) -> bool:
    """Decide separability by greedy contraction.

    A permutation is separable iff, as long as two or more points remain,
    some pair is adjacent in both the x-order and the y-order, and
    contracting such a pair (dropping one of the two) keeps it separable.
    Maintaining both adjacency lists makes this linear-ish: each
    contraction only creates candidate pairs next to the removed point.
    """
    n = len(perm)
    if n <= 1:
        return True
    by_x = list(range(1, n + 1))
    by_y = [0] * n
    for l, y in enumerate(perm.word, 1):
        by_y[y - 1] = l
    # doubly linked neighbor maps in each order
    nxt_x: Dict[int, Optional[int]] = {}
    prv_x: Dict[int, Optional[int]] = {}
    nxt_y: Dict[int, Optional[int]] = {}
    prv_y: Dict[int, Optional[int]] = {}
    for order, nxt, prv in ((by_x, nxt_x, prv_x), (by_y, nxt_y, prv_y)):
        for a, b in zip(order, order[1:]):
            nxt[a] = b
            prv[b] = a
        nxt[order[-1]] = None
        prv[order[0]] = None

    alive: Set[int] = set(by_x)
    work: List[int] = list(by_x)
    remaining = n
    while work:
        a = work.pop()
        if a not in alive:
            continue
        b = nxt_x.get(a)
        if b is None or b not in alive:
            continue
        if nxt_y.get(a) != b and prv_y.get(a) != b:
            continue
        # contract: drop b, a absorbs it
        alive.discard(b)
        remaining -= 1
        for nxt, prv in ((nxt_x, prv_x), (nxt_y, prv_y)):
            after = nxt.get(b)
            before = prv.get(b)
            if before == a or after == a:
                # a and b adjacent here; splice b out around a
                if before == a:
                    nxt[a] = after
                    if after is not None:
                        prv[after] = a
                else:
                    prv[a] = before
                    if before is not None:
                        nxt[before] = a
            else:  # pragma: no cover - b is adjacent to a in both orders
                raise AssertionError("contraction invariant broken")
        # new adjacencies can only appear next to a
        for c in (a, prv_x.get(a), prv_y.get(a)):
            if c is not None and c in alive:
                work.append(c)
    return remaining == 1
