"""Fast matching when the target splits into few monotone subsequences.

Three layers build on a t-monotone partition of the target:

* ``monotone_decomposition`` turns the partition into a (6t-5)-wide merge
  sequence by repeatedly merging a pair of class-consecutive rectangles
  chosen to minimise, per axis, the number of foreign rectangles pinned
  under the pair's bounding box.
* ``sigma_pi_embedding`` solves the class-respecting embedding problem:
  once every pattern label is committed to a class, the image of a label
  is just a position along its class, and every pairwise order constraint
  becomes a staircase over two class orders — expressible with threshold
  booleans ("position of x is at least v") and 2SAT implications.
* ``t_monotone_match`` enumerates the class commitments (base-t counter
  over pattern labels) around the 2SAT solver, and ``poly_space_match``
  feeds it the greedy partition, whose class count never exceeds
  2*ceil(sqrt(n)) because a longest monotone subsequence of m points has
  at least ceil(sqrt(m)) of them.

No dynamic-programming tables are kept, so memory stays polynomial.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import (
    Embedding,
    MergeSequence,
    ParseError,
    Permutation,
    ValidationError,
    verify_embedding,
)

INCREASING = "inc"
DECREASING = "dec"

#: pattern label -> class index in 1..t
PatternAssignment = Dict[int, int]


@dataclass(frozen=True)
class MonotonePartition:
    """Partition of a permutation's labels into classes, each monotone in
    its stated direction ("inc" or "dec")."""

    classes: Tuple[Tuple[Tuple[int, ...], str], ...]

    def __post_init__(self):
        for labels, direction in self.classes:
            if direction not in (INCREASING, DECREASING):
                raise ValidationError("class direction must be 'inc' or 'dec', got %r" % (direction,))
            if not labels:
                raise ValidationError("partition classes must be nonempty")

    @property
    def t(self) -> int:
        return len(self.classes)

    def class_of(self) -> Dict[int, int]:
        """Label -> 1-based class index."""
        out: Dict[int, int] = {}
        for idx, (labels, _) in enumerate(self.classes, start=1):
            for s in labels:
                out[s] = idx
        return out


def parse_monotone_partition(text: str) -> MonotonePartition:
    """One class per line: ``inc|dec: label label ...``; blank lines and
    ``#`` comments are skipped."""
    classes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(":")
        if not sep or head.strip() not in (INCREASING, DECREASING):
            raise ParseError("line %d: expected 'inc:' or 'dec:' prefix" % lineno)
        try:
            labels = tuple(sorted(int(tok) for tok in rest.split()))
        except ValueError:
            raise ParseError("line %d: labels must be integers" % lineno)
        if not labels:
            raise ParseError("line %d: empty class" % lineno)
        classes.append((labels, head.strip()))
    if not classes:
        raise ParseError("no classes found")
    return MonotonePartition(tuple(classes))


def format_monotone_partition(part: MonotonePartition) -> str:
    lines = []
    for labels, direction in part.classes:
        lines.append("%s: %s" % (direction, " ".join(str(s) for s in labels)))
    return "\n".join(lines) + "\n"


def _is_monotone(perm: Permutation, labels: Sequence[int], direction: str) -> bool:
    mem = sorted(labels, key=lambda s: perm.point(s).x)
    ys = [perm.point(s).y for s in mem]
    if direction == INCREASING:
        return all(a < b for a, b in zip(ys, ys[1:]))
    return all(a > b for a, b in zip(ys, ys[1:]))


def validate_monotone_partition(perm: Permutation, part: MonotonePartition) -> None:
    """Raise unless the classes partition the labels and each restriction
    is monotone in its stated direction."""
    seen: Set[int] = set()
    total = 0
    for idx, (labels, direction) in enumerate(part.classes, start=1):
        for s in labels:
            if s not in perm:
                raise ValidationError("class %d: label %d is not in the permutation" % (idx, s))
        seen.update(labels)
        total += len(labels)
        if not _is_monotone(perm, labels, direction):
            raise ValidationError("class %d is not %s" % (idx, "increasing" if direction == INCREASING else "decreasing"))
    if total != len(seen) or len(seen) != len(perm):
        raise ValidationError("classes do not partition the labels")


# ---------------------------------------------------------------------------
# greedy partitioning
# ---------------------------------------------------------------------------

def _longest_monotone(points: List[Tuple[int, int, int]], decreasing: bool) -> List[int]:
    """Indices (into ``points``, which is sorted by x) of a longest
    increasing — or decreasing — subsequence in y, preferring the
    lexicographically least position set."""
    m = len(points)
    ys = [-p[1] if decreasing else p[1] for p in points]
    # best[i] = length of the longest run starting at i.  A run starting
    # at i is, read right to left with y negated, a strictly increasing
    # run ending there — so one patience pass over the reversed sequence
    # gives every value.
    best = [0] * m
    tails: List[int] = []
    for r in range(m - 1, -1, -1):
        v = -ys[r]
        idx = bisect_left(tails, v)
        if idx == len(tails):
            tails.append(v)
        else:
            tails[idx] = v
        best[r] = idx + 1
    total = max(best)
    out: List[int] = []
    cur = -1
    for need in range(total, 0, -1):
        j = cur + 1
        while best[j] != need or (cur >= 0 and ys[j] <= ys[cur]):
            j += 1
        out.append(j)
        cur = j
    return out


def greedy_monotone_partition(perm: Permutation) -> MonotonePartition:
    """Repeatedly strip a longest monotone subsequence (ties to
    increasing); never more than 2*ceil(sqrt(n)) classes."""
    remaining = [(pt.x, pt.y, lab) for lab, pt in perm.pairs()]
    remaining.sort()
    classes = []
    while remaining:
        inc = _longest_monotone(remaining, decreasing=False)
        dec = _longest_monotone(remaining, decreasing=True)
        take, direction = (inc, INCREASING) if len(inc) >= len(dec) else (dec, DECREASING)
        chosen = set(take)
        classes.append((tuple(sorted(remaining[i][2] for i in take)), direction))
        remaining = [p for i, p in enumerate(remaining) if i not in chosen]
    return MonotonePartition(tuple(classes))


# ---------------------------------------------------------------------------
# constructive bounded-width decomposition
# ---------------------------------------------------------------------------

Box = Tuple[int, int, int, int]


def _inside(inner: Box, outer: Box, axis: int) -> bool:
    a = 2 * axis
    return outer[a] <= inner[a] and inner[a + 1] <= outer[a + 1]


def monotone_decomposition(perm: Permutation, part: MonotonePartition,
                           validate: bool = False) -> MergeSequence:
    """Merge sequence of width at most 6t-5 built from a t-monotone
    partition: while some class has two or more rectangles, merge the
    class-consecutive pair minimising max over axes of the number of
    foreign rectangles pinned inside the pair's bounding box (guaranteed
    at most 4(t-1) by averaging), then join the class survivors in class
    order.  ``validate`` recomputes all pin counters from scratch each
    step and checks them against the incremental ones."""
    validate_monotone_partition(perm, part)
    n = len(perm)
    t = part.t
    if n <= 1:
        return MergeSequence([])
    box: Dict[int, Box] = {lab: (pt.x, pt.x, pt.y, pt.y) for lab, pt in perm.pairs()}
    cls_of: Dict[int, int] = {}
    nxt: Dict[int, Optional[int]] = {}
    prv: Dict[int, Optional[int]] = {}
    heads: List[int] = []
    for ci, (labels, _) in enumerate(part.classes):
        order = sorted(labels, key=lambda s: perm.point(s).x)
        heads.append(order[0])
        for idx, s in enumerate(order):
            cls_of[s] = ci
            prv[s] = order[idx - 1] if idx else None
            nxt[s] = order[idx + 1] if idx + 1 < len(order) else None
    live: Set[int] = set(box)

    def pair_box(left: int) -> Box:
        b1, b2 = box[left], box[nxt[left]]
        return (min(b1[0], b2[0]), max(b1[1], b2[1]),
                min(b1[2], b2[2]), max(b1[3], b2[3]))

    def recount(left: int) -> List[int]:
        bx = pair_box(left)
        right = nxt[left]
        p = [0, 0]
        for v in live:
            if v == left or v == right:
                continue
            for axis in (0, 1):
                if _inside(box[v], bx, axis):
                    p[axis] += 1
        return [p[0], p[1], bx]

    pairs: Dict[int, List] = {}  # left member -> [pin1, pin2, bounding box]
    for s in live:
        if nxt[s] is not None:
            pairs[s] = recount(s)

    steps: List[Tuple[int, int, int]] = []
    k = n
    while pairs:
        if validate:
            for left, (p1, p2, bx) in pairs.items():
                if [p1, p2] != recount(left)[:2]:
                    raise AssertionError("pin counters drifted")
            total = sum(max(p1, p2) for p1, p2, _ in pairs.values())
            if total > 4 * (t - 1) * len(pairs):
                raise AssertionError("averaging bound violated")
        left = min(pairs, key=lambda m: (max(pairs[m][0], pairs[m][1]), cls_of[m], m))
        p1, p2, bx = pairs[left]
        if p1 > 4 * (t - 1) or p2 > 4 * (t - 1):
            raise AssertionError("selected pair exceeds pin bound")
        i, j = left, nxt[left]
        k += 1
        steps.append((i, j, k))
        # splice k into the class chain
        a, b = prv[i], nxt[j]
        for gone in (i, j):
            pairs.pop(gone, None)
        if a is not None:
            pairs.pop(a, None)
        cls_of[k] = cls_of[i]
        box[k] = bx
        prv[k], nxt[k] = a, b
        if a is not None:
            nxt[a] = k
        else:
            heads[cls_of[k]] = k
        if b is not None:
            prv[b] = k
        live.discard(i)
        live.discard(j)
        # membership deltas for untouched pairs, then fresh counts for the
        # at most two new pairs around k
        for p in pairs.values():
            pbx = p[2]
            for axis in (0, 1):
                p[axis] += (_inside(bx, pbx, axis)
                            - _inside(box[i], pbx, axis)
                            - _inside(box[j], pbx, axis))
        live.add(k)
        if a is not None:
            pairs[a] = recount(a)
        if b is not None:
            pairs[k] = recount(k)
    survivors = [heads[ci] for ci in range(t)]
    acc = survivors[0]
    for s in survivors[1:]:
        k += 1
        steps.append((acc, s, k))
        acc = k
    return MergeSequence(steps)


# ---------------------------------------------------------------------------
# class-respecting embedding via threshold 2SAT
# ---------------------------------------------------------------------------

class _TwoSat:
    """Implication-graph 2SAT; literal 2v asserts variable v, literal
    2v+1 denies it.  Solved by one iterative Tarjan pass; a variable is
    true when its asserting literal lands in a later (more sink-ward,
    hence lower-numbered) strongly connected component."""

    def __init__(self, nvars: int):
        self.n = nvars
        self.adj: List[List[int]] = [[] for _ in range(2 * nvars)]

    def imply(self, a: int, b: int) -> None:
        self.adj[a].append(b)
        self.adj[b ^ 1].append(a ^ 1)

    def unit(self, a: int) -> None:
        self.adj[a ^ 1].append(a)

    def solve(self) -> Optional[List[bool]]:
        n2 = 2 * self.n
        num = [0] * n2
        low = [0] * n2
        comp = [-1] * n2
        on = [False] * n2
        stack: List[int] = []
        counter = itertools.count(1)
        ncomp = 0
        for root in range(n2):
            if num[root]:
                continue
            num[root] = low[root] = next(counter)
            stack.append(root)
            on[root] = True
            call: List[Tuple[int, Iterator[int]]] = [(root, iter(self.adj[root]))]
            while call:
                v, it = call[-1]
                advanced = False
                for w in it:
                    if not num[w]:
                        num[w] = low[w] = next(counter)
                        stack.append(w)
                        on[w] = True
                        call.append((w, iter(self.adj[w])))
                        advanced = True
                        break
                    if on[w] and num[w] < low[v]:
                        low[v] = num[w]
                if advanced:
                    continue
                call.pop()
                if call:
                    pv = call[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                if low[v] == num[v]:
                    while True:
                        w = stack.pop()
                        on[w] = False
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
        out = []
        for v in range(self.n):
            if comp[2 * v] == comp[2 * v + 1]:
                return None
            out.append(comp[2 * v] < comp[2 * v + 1])
        return out


_TRUE = -1
_FALSE = -2


def _staircase(ts: _TwoSat, guards: List[int], A: Sequence[int], B: Sequence[int],
               dir_a: int, dir_b: int, lits_b: List[int]) -> bool:
    """Compile the constraint "coordinate of x < coordinate of y" over two
    class orders into implications between threshold literals.

    ``A``/``B`` list the coordinate per class position; ``dir_a``/``dir_b``
    say whether that coordinate grows (+1) or shrinks (-1) with position.
    ``guards[p-1]`` is the literal triggered exactly when x's position
    makes row p the binding one; ``lits_b[v-2]`` asserts "position of
    y >= v".  Returns False when the constraint is unsatisfiable outright.
    """
    a, b = len(A), len(B)
    positions = range(1, a + 1) if dir_a > 0 else range(a, 0, -1)
    if dir_b > 0:
        q0 = 1
    else:
        q1 = b
    for p in positions:
        val = A[p - 1]
        if dir_b > 0:
            while q0 <= b and B[q0 - 1] <= val:
                q0 += 1
            lit = _FALSE if q0 > b else (_TRUE if q0 == 1 else lits_b[q0 - 2])
        else:
            while q1 >= 1 and B[q1 - 1] <= val:
                q1 -= 1
            lit = _FALSE if q1 == 0 else (_TRUE if q1 == b else lits_b[q1 + 1 - 2] ^ 1)
        guard = guards[p - 1]
        if lit == _TRUE:
            continue
        if guard == _TRUE:
            if lit == _FALSE:
                return False
            ts.unit(lit)
        elif lit == _FALSE:
            ts.unit(guard ^ 1)
        else:
            ts.imply(guard, lit)
    return True


def sigma_pi_embedding(sigma: Permutation, assign: PatternAssignment,
                       pi: Permutation, part: MonotonePartition) -> Optional[Embedding]:
    """Embedding of sigma into pi sending each pattern label into its
    assigned class, or None.  Filters class direction mismatches first,
    then solves the per-pair staircase constraints by 2SAT."""
    t = part.t
    labels = sorted(sigma.labels)
    if set(assign) != set(labels):
        raise ValidationError("assignment must cover exactly the pattern labels")
    for s, c in assign.items():
        if not 1 <= c <= t:
            raise ValidationError("assignment sends label %d to class %d, outside 1..%d" % (s, c, t))

    order: List[List[int]] = []
    coords: List[Tuple[List[int], List[int]]] = []
    for members, _ in part.classes:
        srt = sorted(members, key=lambda s: pi.point(s).x)
        order.append(srt)
        coords.append(([pi.point(s).x for s in srt], [pi.point(s).y for s in srt]))
    dirs = [d for _, d in part.classes]

    sig_cls: Dict[int, List[int]] = {c: [] for c in range(1, t + 1)}
    for s in sorted(labels, key=lambda s: sigma.xrank(s)):
        sig_cls[assign[s]].append(s)
    for c in range(1, t + 1):
        mem = sig_cls[c]
        if len(mem) > len(order[c - 1]):
            return None  # more pattern labels than class members
        ys = [sigma.yrank(s) for s in mem]
        inc = all(p < q for p, q in zip(ys, ys[1:]))
        dec = all(p > q for p, q in zip(ys, ys[1:]))
        if len(mem) >= 2 and not (inc if dirs[c - 1] == INCREASING else dec):
            return None  # direction mismatch

    # threshold booleans: b[(s, v)]  <=>  "s lands at class position >= v"
    vid: Dict[Tuple[int, int], int] = {}
    for s in labels:
        for v in range(2, len(order[assign[s] - 1]) + 1):
            vid[(s, v)] = len(vid)
    ts = _TwoSat(len(vid))
    lits: Dict[int, List[int]] = {}
    for s in labels:
        ls = [2 * vid[(s, v)] for v in range(2, len(order[assign[s] - 1]) + 1)]
        lits[s] = ls
        for u, w in zip(ls, ls[1:]):
            ts.imply(w, u)  # position >= v+1 entails position >= v

    for x, y in itertools.combinations(labels, 2):
        for alpha in (1, 2):
            rx = sigma.xrank(x) if alpha == 1 else sigma.yrank(x)
            ry = sigma.xrank(y) if alpha == 1 else sigma.yrank(y)
            u, w = (x, y) if rx < ry else (y, x)
            ci, cj = assign[u] - 1, assign[w] - 1
            A = coords[ci][alpha - 1]
            B = coords[cj][alpha - 1]
            dir_a = 1 if (alpha == 1 or dirs[ci] == INCREASING) else -1
            dir_b = 1 if (alpha == 1 or dirs[cj] == INCREASING) else -1
            a = len(A)
            if dir_a > 0:
                guards = [_TRUE] + [lits[u][p - 2] for p in range(2, a + 1)]
            else:
                guards = [(lits[u][p + 1 - 2] ^ 1) for p in range(1, a)] + [_TRUE]
            if not _staircase(ts, guards, A, B, dir_a, dir_b, lits[w]):
                return None

    values = ts.solve()
    if values is None:
        return None
    emb: Embedding = {}
    for s in labels:
        members = order[assign[s] - 1]
        p = 1
        for v in range(2, len(members) + 1):
            if values[vid[(s, v)]]:
                p = v
            else:
                break
        emb[s] = members[p - 1]
    if not verify_embedding(sigma, pi, emb):
        raise AssertionError("internal: 2SAT solution failed verification")
    return emb


def constraint_relations(sigma: Permutation, assign: PatternAssignment,
                         pi: Permutation, part: MonotonePartition
                         ) -> Iterator[Tuple[int, int, int, Tuple[Tuple[int, int], ...]]]:
    """The raw binary constraints of the class-respecting embedding
    problem: (x, y, alpha, allowed image pairs), one per ordered pattern
    pair per axis.  Used to check median closure."""
    labels = sorted(sigma.labels)
    members = [list(c) for c, _ in part.classes]
    for x, y in itertools.combinations(labels, 2):
        for alpha in (1, 2):
            rx = sigma.xrank(x) if alpha == 1 else sigma.yrank(x)
            ry = sigma.xrank(y) if alpha == 1 else sigma.yrank(y)
            u, w = (x, y) if rx < ry else (y, x)
            rank = pi.xrank if alpha == 1 else pi.yrank
            rel = tuple((uu, ww)
                        for uu in members[assign[u] - 1]
                        for ww in members[assign[w] - 1]
                        if rank(uu) < rank(ww))
            yield u, w, alpha, rel


def mid_point(pi: Permutation, alpha: int, a: int, b: int, c: int) -> int:
    """Median of three target labels along axis alpha."""
    key = pi.xrank if alpha == 1 else pi.yrank
    return sorted((a, b, c), key=key)[1]


# ---------------------------------------------------------------------------
# enumeration matchers
# ---------------------------------------------------------------------------

def t_monotone_match(sigma: Permutation, pi: Permutation,
                     part: MonotonePartition) -> Optional[Embedding]:
    """First embedding found over all class commitments of the pattern
    labels, enumerated as a base-t counter with label 1 most significant;
    branches die early on class overflow or an already non-monotone
    restriction."""
    validate_monotone_partition(pi, part)
    labels = sorted(sigma.labels)
    ell = len(labels)
    if ell < 1:
        raise ValidationError("pattern must be nonempty")
    if ell > len(pi):
        return None
    t = part.t
    sizes = [len(c) for c, _ in part.classes]
    dirs = [d for _, d in part.classes]
    assign: PatternAssignment = {}
    counts = [0] * t

    def class_ok(c: int) -> bool:
        mem = sorted((s for s in assign if assign[s] == c),
                     key=lambda s: sigma.xrank(s))
        ys = [sigma.yrank(s) for s in mem]
        if len(ys) < 2:
            return True
        if dirs[c - 1] == INCREASING:
            return all(p < q for p, q in zip(ys, ys[1:]))
        return all(p > q for p, q in zip(ys, ys[1:]))

    def dfs(idx: int) -> Optional[Embedding]:
        if idx == ell:
            return sigma_pi_embedding(sigma, dict(assign), pi, part)
        s = labels[idx]
        for c in range(1, t + 1):
            if counts[c - 1] >= sizes[c - 1]:
                continue
            assign[s] = c
            counts[c - 1] += 1
            if class_ok(c):
                found = dfs(idx + 1)
                if found is not None:
                    del assign[s]
                    counts[c - 1] -= 1
                    return found
            del assign[s]
            counts[c - 1] -= 1
        return None

    return dfs(0)


def poly_space_match(sigma: Permutation, pi: Permutation) -> Optional[Embedding]:
    """Greedy monotone partition of the target, then class-commitment
    enumeration; time n^(l/2+o(l)) but only polynomial memory."""
    part = greedy_monotone_partition(pi)
    return t_monotone_match(sigma, pi, part)
