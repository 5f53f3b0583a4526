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
is the sorted key tuple K with the tuple of its members' masks; the value
is the mask sent to the first merged child in the winning split, and only
satisfiable subproblems are stored.  The components of a split and the
cross-component order pairs depend only on which children receive labels
(j2 only, both, or j1 only), so they are computed once per key and shape;
a split is then tested by comparing tabulated extents and looking its
components up.  Splits are tried in ascending submask order, so the
recorded winner is the least mask that works.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .core import (
    Embedding,
    MergeSequence,
    MergeStep,
    Permutation,
    ValidationError,
    reduce,  # unused here; bench/tracing.py wraps permpat.matcher.reduce by name
    validate_merge_sequence,
    verify_embedding,
)
from .decompose import build_decomposition

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

    Per axis, the coordinates 1..n still holding an endpoint are kept in a
    doubly linked list (0 ends it) recording which rectangle owns a
    left/right endpoint there.  Viewing only grows with the box, so a
    merged rectangle views everything either child viewed, and the rest
    of its neighbours are found by scanning only the coordinates under
    its own projections: anything else overlapping a new interval has an
    endpoint inside it.
    """

    __slots__ = ("boxes", "_adj", "_owner", "_nxt", "_prv")

    def __init__(self, perm: Permutation):
        n = len(perm)
        word = perm.word
        self.boxes: Dict[int, Box] = {l: (l, l, y, y) for l, y in enumerate(word, 1)}
        self._adj: Dict[int, Set[int]] = {l: set() for l in range(1, n + 1)}
        by_y = [0] * (n + 1)
        for l, y in enumerate(word, 1):
            by_y[y] = l
        # coordinate -> [owner of a left endpoint, of a right endpoint]
        self._owner = ([[c, c] for c in range(n + 1)], [[l, l] for l in by_y])
        self._nxt = (list(range(1, n + 1)) + [0], list(range(1, n + 1)) + [0])
        self._prv = (list(range(-1, n)), list(range(-1, n)))

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbor_set(self, v: int) -> Set[int]:
        return self._adj[v]

    def neighbors(self, v: int) -> List[int]:
        """Sorted list of rectangles viewing v along some axis."""
        if v not in self:
            raise ValidationError("vertex %d is not live" % v)
        return sorted(self.neighbor_set(v))

    def degree(self, v: int) -> int:
        return len(self.neighbor_set(v))

    # -- update -------------------------------------------------------------

    def _unlink(self, axis: int, pos: int) -> None:
        p, nx = self._prv[axis][pos], self._nxt[axis][pos]
        if p:
            self._nxt[axis][p] = nx
        if nx:
            self._prv[axis][nx] = p

    def merge(self, step: MergeStep) -> None:
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
        for axis in (0, 1):
            lo, hi = box[2 * axis], box[2 * axis + 1]
            owner = self._owner[axis]
            dead = {bi[2 * axis], bi[2 * axis + 1], bj[2 * axis], bj[2 * axis + 1]}
            owner[bi[2 * axis]][0] = 0
            owner[bi[2 * axis + 1]][1] = 0
            owner[bj[2 * axis]][0] = 0
            owner[bj[2 * axis + 1]][1] = 0
            owner[lo][0] = k
            owner[hi][1] = k
            for pos in dead:
                if owner[pos][0] == 0 and owner[pos][1] == 0:
                    self._unlink(axis, pos)
            nxt = self._nxt[axis]
            pos = lo
            while pos and pos <= hi:
                l, r = owner[pos]
                if l and l != k:
                    seen.add(l)
                if r and r != k:
                    seen.add(r)
                pos = nxt[pos]
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
    tuples ordered by size then lexicographically."""
    if v not in graph:
        raise ValidationError("vertex %d is not live" % v)
    if l < 1:
        return []
    out: List[Tuple[int, ...]] = []

    def grow(cur: Tuple[int, ...], cur_set: Set[int], banned: Set[int]) -> None:
        out.append(tuple(sorted(cur)))
        if len(cur) == l:
            return
        ext: Set[int] = set()
        for u in cur:
            ext |= graph.neighbor_set(u)
        ext -= cur_set
        ext -= banned
        shadow: Set[int] = set()
        for u in sorted(ext):
            grow(cur + (u,), cur_set | {u}, banned | shadow)
            shadow.add(u)

    grow((v,), {v}, set())
    return sorted(out, key=lambda t: (len(t), t))


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
    intersect on some axis)."""
    parent = {v: v for v in members}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in itertools.combinations(members, 2):
        ba, bb = boxes[a], boxes[b]
        if (ba[0] <= bb[1] and bb[0] <= ba[1]) or (ba[2] <= bb[3] and bb[2] <= ba[3]):
            parent[find(a)] = find(b)
    groups: Dict[int, List[int]] = {}
    for v in members:
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


def _split_shape(slot: Dict[int, int], boxes: Mapping[int, Box]):
    """Components of the rectangles in ``slot`` (rectangle -> index into a
    split's mask tuple) and, for every pair of rectangles in distinct
    components, which one lies before the other on each axis.  Returns the
    component count, the slots of original points (a part there must be a
    single label), the (component, slots) table lookups of the other
    components, and the x- and y-pairs (a, b) meaning the part in slot a
    must precede the part in slot b."""
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
    points: List[int] = []
    lookups = []
    for c in comps:
        if len(c) == 1 and boxes[c[0]][0] == boxes[c[0]][1]:  # an original point
            points.append(slot[c[0]])
        else:
            lookups.append((c, tuple(slot[r] for r in c)))
    return len(comps), points, lookups, xpairs, ypairs


def find_pattern(sigma: Permutation, pi: Permutation, seq: MergeSequence,
                 stats: Optional[dict] = None) -> Optional[Embedding]:
    """Decide whether sigma occurs in pi along a complete merge sequence;
    returns an embedding (sigma label -> pi label) or None."""
    ell = len(sigma)
    n = len(pi)
    if ell < 1:
        raise ValidationError("pattern must be nonempty")
    validate_merge_sequence(seq, n, require_complete=True)
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
    # (key, masks) -> label mask sent to the first merged child in the
    # winning split; masks[t] is the part of the t-th rectangle of the key
    table: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    max_components = 0

    def satisfied(shape, parts: Tuple[int, ...]) -> bool:
        _, points, lookups, xpairs, ypairs = shape
        for a, b in xpairs:
            if xhi[parts[a]] >= xlo[parts[b]]:
                return False
        for a, b in ypairs:
            if yhi[parts[a]] >= ylo[parts[b]]:
                return False
        for t in points:
            if parts[t] & (parts[t] - 1):
                return False
        for comp, slots in lookups:
            # tuple() of a list, not of a generator: a generator's tuple is
            # over-allocated and shrunk, which fills CPython's tuple free lists
            if (comp, tuple([parts[t] for t in slots])) not in table:
                return False
        return True

    for step in seq:
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
                    if satisfied(shape, head + (x1, x ^ x1)):
                        table[key, masks] = x1
                        break
                    if x1 == x:
                        break
                    x1 = (x1 - x) & x

    if stats is not None:
        stats["entries"] = len(table)
        stats["max_components"] = max_components

    full = (1 << ell) - 1
    root = n + len(seq)
    if ((root,), (full,)) not in table:
        return None

    # re-descend the recorded winning splits to a concrete embedding
    emb: Embedding = {}
    stack: List[Tuple[Tuple[int, ...], Dict[int, int]]] = [((root,), {root: full})]
    while stack:
        key, parts = stack.pop()
        if len(key) == 1 and key[0] <= n:
            emb[parts[key[0]].bit_length()] = key[0]  # bit t is label t + 1
            continue
        k = key[-1]
        j1, j2, _ = seq[k - n - 1]
        x1 = table.get((key, tuple(parts[r] for r in key)))
        if x1 is None:
            raise AssertionError("internal: missing table entry during reconstruction")
        x2 = parts[k] ^ x1
        split = {r: p for r, p in parts.items() if r != k}
        if x1:
            split[j1] = x1
        if x2:
            split[j2] = x2
        for comp in _components(sorted(split), boxes):
            stack.append((comp, {r: split[r] for r in comp}))
    if not verify_embedding(sigma, pi, emb):
        raise AssertionError("internal: reconstructed embedding failed")
    return emb


# ---------------------------------------------------------------------------
# one-call matching
# ---------------------------------------------------------------------------

def match_auto(sigma: Permutation, pi: Permutation) -> Optional[Embedding]:
    """Decide sigma ≼ pi outright: build a decomposition of pi with
    r = |sigma|.  A grid outcome is immediately affirmative — an l x l
    grid contains every pattern of length l, witnessed by picking, for
    the pattern's i-th position, the point in grid cell (i, value).  A
    merge-sequence outcome delegates to find_pattern."""
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
    res = build_decomposition(pi, ell)
    if res.grid is None:
        return find_pattern(sigma, pi, res.seq)
    # a witness's x-coordinate is its label in pi
    emb = {s: res.grid.witnesses[y - 1][s - 1].x for s, y in enumerate(sigma.word, 1)}
    if not verify_embedding(sigma, pi, emb):
        raise AssertionError("internal: grid embedding failed")
    return emb
