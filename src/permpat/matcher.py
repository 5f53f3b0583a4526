"""Deciding pattern containment along a merge decomposition.

``find_pattern`` runs a dynamic program over the steps of a complete
merge sequence.  A subproblem asks whether a chosen subset of the
pattern embeds into the points accumulated by a connected set K of live
rectangles, with the subset distributed among the rectangles of K in a
fixed way.  When a step merges j1 and j2 into j, a subproblem whose set
contains j is answered by splitting the labels assigned to j between j1
and j2 and consulting the already-computed subproblems induced on the
connected components one step earlier; component answers combine exactly
when the pattern orders agree with the pairwise rectangle orders, which
reduces to per-axis min/max comparisons because rectangles in distinct
components never share a projection.

Rectangle geometry never changes after creation, and a set of rectangles
keeps the same induced visibility edges for as long as all its members
are alive.  Each table entry is therefore computed exactly once — at the
step creating the newest rectangle of its key — and one table serves
every later lookup.

Label sets are ℓ-bit masks (bit t = the t-th smallest pattern label), and
per-mask min/max x- and y-ranks are tabulated once per call.  A table key
is the sorted key tuple K with the tuple of its members' masks, and only
satisfiable subproblems are stored.  The value is the entry's witness, a
partial embedding packed into one int: the point that label t + 1 maps
to sits in bits t·B to t·B + B − 1, B = n.bit_length().  The components of
a split and the cross-component order pairs depend only on which children
receive labels (j2 only, both, or j1 only), so they are computed once per
key and shape.  A split is then tested by comparing tabulated extents and
looking its components up; the same pass ORs their witnesses with each
original point of the split, shifted to its label's bits, into the new
entry's witness.  Splits are tried in ascending submask order, so the stored
winner is the least mask that works.

An entry whose parts together hold every label already certifies an
embedding into the points of its rectangles, so the sweep stops at the
first such entry it stores and unpacks its witness; the root entry, at
the last step, is the latest such entry.  An absent pattern stores none,
so it runs every step.

On a separable target ``match_auto`` sweeps the width-1 sequence of
``decompose._interval_merges``, whose table keys are single rectangles.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .core import (
    Embedding,
    MergeSequence,
    Permutation,
    ValidationError,
    reduce,  # unused here; bench/tracing.py wraps permpat.matcher.reduce by name
    validate_merge_sequence,
    verify_embedding,
)
from .decompose import _interval_merges, _stall_free_budget, build_decomposition
from .griddetect import f_bound

Box = Tuple[int, int, int, int]  # x1, x2, y1, y2


# ---------------------------------------------------------------------------
# visibility graph
# ---------------------------------------------------------------------------

class VisibilityGraph:
    """Live rectangles, with an edge whenever two of them view each other
    along some axis (their x- or y-projections intersect).

    ``boxes`` maps every rectangle the graph has seen, merged ones
    included, to its (x1, x2, y1, y2) box; a rectangle is live while it
    has an adjacency entry.

    Live rectangles hold disjoint point sets, so each coordinate is an
    endpoint of at most one of them; per axis, ``_owner`` maps a
    coordinate to that rectangle (0 for none) and ``_live`` marks it.
    Viewing only grows with the box, so a merged rectangle views everything
    either child viewed.  The rest of its neighbours lie in the gap between
    the children on some axis (the gap rule): a rectangle that views the
    merged box but neither child has, on some axis, an interval that meets
    the hull of the children's intervals and misses both, so it lies wholly
    between them and both its endpoints are live endpoints in that gap.
    A merge therefore scans only the gaps.
    """

    __slots__ = ("boxes", "_adj", "_owner", "_live")

    def __init__(self, perm: Permutation):
        n = len(perm)
        word = perm.word
        self.boxes: Dict[int, Box] = {l: (l, l, y, y) for l, y in enumerate(word, 1)}
        self._adj: Dict[int, Set[int]] = {l: set() for l in range(1, n + 1)}
        by_y = [0] * (n + 1)
        for l, y in enumerate(word, 1):
            by_y[y] = l
        self._owner = (list(range(n + 1)), by_y)
        live = b"\0" + b"\1" * n
        self._live = (bytearray(live), bytearray(live))

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbor_set(self, v: int) -> Set[int]:
        return self._adj[v]

    # -- update -------------------------------------------------------------

    def merge(self, step: Tuple[int, int, int]) -> None:
        i, j, k = step
        if i not in self or j not in self:
            raise ValidationError("merge step (%d,%d,%d) uses a dead or unknown rectangle" % (i, j, k))
        if i == j or k in self.boxes:
            raise ValidationError("merge step (%d,%d,%d) is not applicable" % (i, j, k))
        bi, bj = self.boxes[i], self.boxes[j]
        box = (min(bi[0], bj[0]), max(bi[1], bj[1]), min(bi[2], bj[2]), max(bi[3], bj[3]))
        self.boxes[k] = box
        adj = self._adj
        seen = (adj[i] | adj[j]) - {i, j}
        for owner, live, lo in zip(self._owner, self._live, (0, 2)):
            hi = lo + 1
            for c in (bi[lo], bi[hi], bj[lo], bj[hi]):
                owner[c] = live[c] = 0
            owner[box[lo]] = owner[box[hi]] = k
            live[box[lo]] = live[box[hi]] = 1
            # the gap is empty (start past end) when the children overlap
            pos, end = min(bi[hi], bj[hi]) + 1, max(bi[lo], bj[lo])
            while True:
                pos = live.find(1, pos, end)
                if pos < 0:
                    break
                seen.add(owner[pos])
                pos += 1
        for v in adj[i]:
            adj[v].discard(i)
        for v in adj[j]:
            adj[v].discard(j)
        del adj[i], adj[j]
        adj[k] = seen
        for v in seen:
            adj[v].add(k)


def connected_sets(graph: VisibilityGraph, v: int, l: int) -> List[Tuple[int, ...]]:
    """Every set K with v ∈ K, |K| ≤ l and G[K] connected, as sorted
    tuples ordered by size then lexicographically.  Each level grows the
    one below by a neighbour: a spanning tree of K has a leaf other than
    v, and dropping it leaves a connected set one smaller."""
    if v not in graph:
        raise ValidationError("vertex %d is not live" % v)
    if l < 1:
        return []
    level = [(v,)]
    out = list(level)
    for _ in range(l - 1):
        grown: Set[Tuple[int, ...]] = set()
        for cur in level:
            ext = set().union(*map(graph.neighbor_set, cur)).difference(cur)
            for u in ext:
                grown.add(tuple(sorted(cur + (u,))))
        level = sorted(grown)
        out += level
    return out


# ---------------------------------------------------------------------------
# the dynamic program
# ---------------------------------------------------------------------------

def _extents(ranks: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Per label mask (bit t = the t-th smallest label): the least and the
    greatest of the ranks of its labels; entry 0 is unused."""
    lo = [0] * (1 << len(ranks))
    hi = [0] * (1 << len(ranks))
    for mask in range(1, len(lo)):
        low = mask & -mask
        r = ranks[low.bit_length() - 1]
        rest = mask ^ low
        lo[mask] = min(r, lo[rest]) if rest else r
        hi[mask] = max(r, hi[rest]) if rest else r
    return lo, hi


def _mask_tuples(ell: int) -> List[List[Tuple[int, ...]]]:
    """Entry m: every ordered m-tuple of disjoint nonempty label masks."""
    full = (1 << ell) - 1
    out: List[List[Tuple[int, ...]]] = [[] for _ in range(ell + 1)]

    def grow(prefix: Tuple[int, ...], free: int) -> None:
        out[len(prefix)].append(prefix)
        sub = free
        while sub:
            grow(prefix + (sub,), free ^ sub)
            sub = (sub - 1) & free

    grow((), full)
    return out


def _components(members: Sequence[int], boxes: Mapping[int, Box]) -> List[Tuple[int, ...]]:
    """Connected components of the visibility relation restricted to
    ``members``, from the static boxes (edge iff the boxes' projections
    intersect on some axis).  Each member merges every group it touches
    into one group with itself."""
    groups: List[List[int]] = []
    for v in members:
        x1, x2, y1, y2 = boxes[v]
        joined = [v]
        apart = []
        for g in groups:
            for u in g:
                b = boxes[u]
                if (x1 <= b[1] and b[0] <= x2) or (y1 <= b[3] and b[2] <= y2):
                    joined += g
                    break
            else:
                apart.append(g)
        apart.append(joined)
        groups = apart
    return sorted(tuple(sorted(g)) for g in groups)


def _split_shape(slot: Dict[int, int], boxes: Mapping[int, Box]):
    """Components of the rectangles in ``slot`` (rectangle -> index into a
    split's mask tuple) and, for every pair of rectangles in distinct
    components, which one lies before the other on each axis.  Returns the
    component count, the (slot, point) pairs of original points (a part
    there must be a single label), the (component, slots) table lookups of
    the other components, and the x- and y-pairs (a, b) meaning the part in
    slot a must precede the part in slot b."""
    comps = _components(sorted(slot), boxes)
    xpairs: List[Tuple[int, int]] = []
    ypairs: List[Tuple[int, int]] = []
    for ca, cb in itertools.combinations(comps, 2):
        for u in ca:
            for v in cb:
                bu, bv = boxes[u], boxes[v]
                if bu[1] < bv[0]:
                    xpairs.append((slot[u], slot[v]))
                elif bv[1] < bu[0]:
                    xpairs.append((slot[v], slot[u]))
                else:  # independent components cannot share an x-span
                    raise AssertionError("components overlap on x")
                if bu[3] < bv[2]:
                    ypairs.append((slot[u], slot[v]))
                elif bv[3] < bu[2]:
                    ypairs.append((slot[v], slot[u]))
                else:
                    raise AssertionError("components overlap on y")
    points: List[Tuple[int, int]] = []
    lookups = []
    for c in comps:
        if len(c) == 1 and boxes[c[0]][0] == boxes[c[0]][1]:  # an original point
            points.append((slot[c[0]], c[0]))
        else:
            lookups.append((c, tuple(slot[r] for r in c)))
    return len(comps), points, lookups, xpairs, ypairs


class _Placed(Exception):
    """Ends find_pattern's sweep at the first stored entry whose parts
    place every pattern label; its one arg is that entry's witness."""


def find_pattern(sigma: Permutation, pi: Permutation, seq: MergeSequence,
                 stats: Optional[dict] = None) -> Optional[Embedding]:
    """Decide whether sigma occurs in pi along a complete merge sequence;
    returns an embedding (sigma label -> pi label) or None.

    The sweep over the steps ends at the first stored entry whose parts
    place every label of sigma, and the embedding is that entry's witness.
    ``stats`` receives the sweep's counts up to that exit: ``entries``
    (table entries stored), ``max_components`` (the most components of
    any split shape) and ``steps`` (merge steps processed; len(seq) when
    sigma is absent).  All three are 0 when no sweep runs (len(sigma) >
    len(pi) or len(pi) == 1)."""
    ell = len(sigma)
    n = len(pi)
    if ell < 1:
        raise ValidationError("pattern must be nonempty")
    validate_merge_sequence(seq, n, require_complete=True)
    if stats is not None:
        stats.update(entries=0, max_components=0, steps=0)
    if ell > n:
        return None
    if n == 1:
        emb = {1: 1}
        if not verify_embedding(sigma, pi, emb):
            raise AssertionError("internal: single-point embedding failed")
        return emb

    xlo, xhi = _extents(range(1, ell + 1))
    ylo, yhi = _extents(sigma.word)
    tuples = _mask_tuples(ell)
    graph = VisibilityGraph(pi)
    boxes = graph.boxes
    bits = n.bit_length()
    # (key, masks) -> witness; masks[t] is the part of the t-th rectangle
    # of the key
    table: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    max_components = 0

    def place(shape, parts: Tuple[int, ...]) -> Optional[int]:
        _, points, lookups, xpairs, ypairs = shape
        for a, b in xpairs:
            if xhi[parts[a]] >= xlo[parts[b]]:
                return None
        for a, b in ypairs:
            if yhi[parts[a]] >= ylo[parts[b]]:
                return None
        witness = 0
        for t, point in points:
            bit = parts[t]
            if bit & (bit - 1):
                return None
            witness |= point << ((bit.bit_length() - 1) * bits)
        for comp, slots in lookups:
            # tuple() of a list, not of a generator: a generator's tuple is
            # over-allocated and shrunk, which fills CPython's tuple free lists
            w = table.get((comp, tuple([parts[t] for t in slots])))
            if w is None:
                return None
            witness |= w
        return witness

    full = (1 << ell) - 1
    placed = None
    try:
        for steps, step in enumerate(seq, 1):
            j1, j2, j = step
            graph.merge(step)
            for key in connected_sets(graph, j, ell):
                m = len(key)  # key[-1] == j, the newest rectangle
                slot = {r: t for t, r in enumerate(key[:-1])}
                # splits send labels to j2 only, to both children, or to j1
                # only; slot m - 1 holds j1's part and slot m holds j2's
                shapes = [None, None, None]
                for masks in tuples[m]:
                    x = masks[-1]
                    head = masks[:-1]
                    x1 = 0
                    while True:  # submasks of x in ascending order
                        kind = 0 if x1 == 0 else 2 if x1 == x else 1
                        shape = shapes[kind]
                        if shape is None:
                            members = dict(slot)
                            if kind:
                                members[j1] = m - 1
                            if kind < 2:
                                members[j2] = m
                            shape = shapes[kind] = _split_shape(members, boxes)
                            max_components = max(max_components, shape[0])
                        witness = place(shape, head + (x1, x ^ x1))
                        if witness is not None:
                            table[key, masks] = witness
                            if sum(masks) == full:  # disjoint parts: their union
                                raise _Placed(witness)
                            break
                        if x1 == x:
                            break
                        x1 = (x1 - x) & x
    except _Placed as hit:
        placed = hit.args[0]

    if stats is not None:
        stats.update(entries=len(table), max_components=max_components, steps=steps)
    if placed is None:
        return None
    field = (1 << bits) - 1
    emb: Embedding = {t + 1: (placed >> t * bits) & field for t in range(ell)}
    if not verify_embedding(sigma, pi, emb):
        raise AssertionError("internal: witnessed embedding failed")
    return emb


# ---------------------------------------------------------------------------
# one-call matching
# ---------------------------------------------------------------------------

def match_auto(sigma: Permutation, pi: Permutation) -> Optional[Embedding]:
    """Decide sigma ≼ pi outright.  When the paper budget 4 f(l), l =
    |sigma|, cannot stall on pi, neither can the smaller budget
    d0 ≈ √(2n) of ``_stall_free_budget``.  There a separable pi (its
    ``_interval_merges`` pass completes) holds no non-separable sigma, and
    any other sigma runs find_pattern on the pass's width-1 sequence; any
    other pi is built at d0.  Otherwise build with r = l.  A grid
    outcome is immediately affirmative — an l x l grid contains every
    pattern of length l, witnessed by picking, for the pattern's i-th
    position, the point in grid cell (i, value).  A merge-sequence
    outcome delegates to find_pattern."""
    ell = len(sigma)
    n = len(pi)
    if ell < 1:
        raise ValidationError("pattern must be nonempty")
    if ell > n:
        return None
    if ell == 1:
        emb = {1: 1}
        if not verify_embedding(sigma, pi, emb):
            raise AssertionError("internal: single-label embedding failed")
        return emb
    d0 = _stall_free_budget(n)
    if d0 <= 4 * f_bound(ell):
        steps = _interval_merges(pi.word)
        if steps is not None:
            if _interval_merges(sigma.word) is None:
                return None
            return find_pattern(sigma, pi, MergeSequence._of_steps(steps))
        res = build_decomposition(pi, d=d0)
        if res.cells is not None:
            raise AssertionError("internal: build at the stall-free budget %d stalled" % d0)
        return find_pattern(sigma, pi, res.seq)
    res = build_decomposition(pi, ell)
    if res.grid is None:
        return find_pattern(sigma, pi, res.seq)
    # a witness's x-coordinate is its label in pi
    emb = {s: res.grid.witnesses[y - 1][s - 1].x for s, y in enumerate(sigma.word, 1)}
    if not verify_embedding(sigma, pi, emb):
        raise AssertionError("internal: grid embedding failed")
    return emb
