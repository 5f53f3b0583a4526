"""Fast matching when the target splits into few monotone subsequences.

A partition comes from ``greedy_monotone_partition`` or, for the CLI's
``--partition`` file, from ``parse_monotone_partition``.  Two layers
build on a t-monotone partition of the target:

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

Most commitments have no embedding, so a cheap necessary check runs
before any 2SAT instance is built.  ``_bounds_refute`` keeps a window of
positions per committed label and narrows it by the order constraints,
each a ``bisect`` against the other label's extreme coordinate, until
nothing changes; an empty window refutes the commitment.  It runs on
every complete commitment inside ``sigma_pi_embedding`` and on every
prefix of two or more labels inside ``t_monotone_match``, which is forward
checking in the CSP view of pattern matching.  The constraints of a prefix
are a subset of those of its completions, so a refuted prefix has no
solution below it, and a commitment the check lets through is solved
exactly as without it: the first embedding found does not change.

No dynamic-programming tables are kept, so memory stays polynomial.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from operator import neg
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .core import (
    Embedding,
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
    its stated direction ("inc" or "dec").  A class's labels are kept in
    increasing order, which is the class's x-order."""

    classes: Tuple[Tuple[Tuple[int, ...], str], ...]

    def __post_init__(self):
        for labels, direction in self.classes:
            if direction not in (INCREASING, DECREASING):
                raise ValidationError("class direction must be 'inc' or 'dec', got %r" % (direction,))
            if not labels:
                raise ValidationError("partition classes must be nonempty")
            if any(type(s) is not int for s in labels):
                raise ValidationError("class labels must be ints, got %r" % (labels,))
        object.__setattr__(self, "classes", tuple((tuple(sorted(labels)), direction)
                                                  for labels, direction in self.classes))

    @property
    def t(self) -> int:
        return len(self.classes)


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
            labels = tuple(int(tok) for tok in rest.split())
        except ValueError:
            raise ParseError("line %d: labels must be integers" % lineno) from None
        if not labels:
            raise ParseError("line %d: empty class" % lineno)
        classes.append((labels, head.strip()))
    if not classes:
        raise ParseError("no classes found")
    return MonotonePartition(tuple(classes))


def _is_monotone(ys: Sequence[int], direction: str) -> bool:
    """Whether the values, read in x-order, run in ``direction``."""
    if direction == INCREASING:
        return all(a < b for a, b in zip(ys, ys[1:]))
    return all(a > b for a, b in zip(ys, ys[1:]))


def validate_monotone_partition(perm: Permutation, part: MonotonePartition) -> None:
    """Raise unless the classes partition the labels and each restriction
    is monotone in its stated direction."""
    n = len(perm)
    word = perm.word
    seen: Set[int] = set()
    total = 0
    for idx, (labels, direction) in enumerate(part.classes, start=1):
        for s in labels:
            if not 1 <= s <= n:
                raise ValidationError("class %d: label %d is not in the permutation" % (idx, s))
        seen.update(labels)
        total += len(labels)
        if not _is_monotone([word[s - 1] for s in labels], direction):
            raise ValidationError("class %d is not %s" % (idx, "increasing" if direction == INCREASING else "decreasing"))
    if total != len(seen) or len(seen) != len(perm):
        raise ValidationError("classes do not partition the labels")


# ---------------------------------------------------------------------------
# greedy partitioning
# ---------------------------------------------------------------------------

def _longest_monotone(values: List[int], decreasing: bool) -> List[int]:
    """Indices of a longest increasing — or decreasing — subsequence of
    ``values``, preferring the lexicographically least position set."""
    m = len(values)
    ys = [-v for v in values] if decreasing else values
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
    word = perm.word
    remaining = list(range(1, len(word) + 1))  # labels, in x-order
    classes = []
    while remaining:
        ys = [word[l - 1] for l in remaining]
        inc = _longest_monotone(ys, decreasing=False)
        dec = _longest_monotone(ys, decreasing=True)
        take, direction = (inc, INCREASING) if len(inc) >= len(dec) else (dec, DECREASING)
        chosen = set(take)
        classes.append((tuple(remaining[i] for i in take), direction))
        remaining = [l for i, l in enumerate(remaining) if i not in chosen]
    return MonotonePartition(tuple(classes))


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


def _bounds_refute(sw: Sequence[int], assign: PatternAssignment,
                   coords: Mapping[int, Tuple[Sequence[int], Sequence[int]]],
                   dirs: Sequence[str]) -> bool:
    """Whether interval propagation proves that the committed labels
    (the keys of ``assign``) have no class-respecting embedding.

    Each label keeps a window [lo, hi] of 0-based positions in its class.
    Every pairwise order constraint says "coordinate of u < coordinate of
    w", and both coordinates are monotone in position, so one ``bisect``
    against the other label's extreme value over its window tightens one
    end: u's coordinate must stay below w's largest, and w's above u's
    smallest.  Rules run until no window changes; an empty window proves
    that no embedding exists.  Every rule is a necessary condition, so a
    satisfiable assignment is never refuted.  ``coords[c-1]`` holds class
    c's x- and y-coordinates by position for every class in use.
    """
    labels = sorted(assign)  # in x-order
    lo = dict.fromkeys(labels, 0)
    hi = {s: len(coords[assign[s] - 1][0]) - 1 for s in labels}
    rules = []
    for i, x in enumerate(labels):
        for y in labels[i + 1:]:
            low, high = (x, y) if sw[x - 1] < sw[y - 1] else (y, x)
            for alpha, u, w in ((0, x, y), (1, low, high)):
                cu, cw = assign[u] - 1, assign[w] - 1
                rules.append((u, w, coords[cu][alpha], coords[cw][alpha],
                              alpha == 0 or dirs[cu] == INCREASING,
                              alpha == 0 or dirs[cw] == INCREASING))
    changed = True
    while changed:
        changed = False
        for u, w, A, B, inc_a, inc_b in rules:
            top = B[hi[w]] if inc_b else B[lo[w]]  # w's largest coordinate
            if inc_a:
                p = bisect_left(A, top) - 1
                if p < hi[u]:
                    hi[u] = p
                    changed = True
            else:
                p = bisect_right(A, -top, key=neg)
                if p > lo[u]:
                    lo[u] = p
                    changed = True
            if lo[u] > hi[u]:
                return True
            bottom = A[lo[u]] if inc_a else A[hi[u]]  # u's smallest coordinate
            if inc_b:
                p = bisect_right(B, bottom)
                if p > lo[w]:
                    lo[w] = p
                    changed = True
            else:
                p = bisect_left(B, -bottom, key=neg) - 1
                if p < hi[w]:
                    hi[w] = p
                    changed = True
            if lo[w] > hi[w]:
                return True
    return False


def sigma_pi_embedding(sigma: Permutation, assign: PatternAssignment,
                       pi: Permutation, part: MonotonePartition,
                       stats: Optional[dict] = None) -> Optional[Embedding]:
    """Embedding of sigma into pi sending each pattern label into its
    assigned class, or None.  Filters class direction mismatches and
    overfull classes first, then refutes by position-bounds propagation,
    and only then solves the per-pair staircase constraints by 2SAT.

    When ``stats`` is a dict, ``stats["refuted"]`` counts a refutation by
    the bounds and ``stats["solves"]`` a 2SAT solve."""
    t = part.t
    labels = range(1, len(sigma) + 1)  # in x-order
    sw = sigma.word
    if set(assign) != set(labels):
        raise ValidationError("assignment must cover exactly the pattern labels")
    for s, c in assign.items():
        if not 1 <= c <= t:
            raise ValidationError("assignment sends label %d to class %d, outside 1..%d" % (s, c, t))

    pw = pi.word
    order = [members for members, _ in part.classes]
    dirs = [d for _, d in part.classes]

    sig_cls: Dict[int, List[int]] = {}
    for s in labels:
        sig_cls.setdefault(assign[s], []).append(s)
    for c, mem in sig_cls.items():
        if len(mem) > len(order[c - 1]):
            return None  # more pattern labels than class members
        if not _is_monotone([sw[s - 1] for s in mem], dirs[c - 1]):
            return None  # direction mismatch
    # x- and y-coordinates by class position, for the classes in use
    coords = {c - 1: (order[c - 1], [pw[s - 1] for s in order[c - 1]]) for c in sig_cls}
    if _bounds_refute(sw, assign, coords, dirs):
        if stats is not None:
            stats["refuted"] = stats.get("refuted", 0) + 1
        return None
    if stats is not None:
        stats["solves"] = stats.get("solves", 0) + 1

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
            u, w = (x, y) if alpha == 1 or sw[x - 1] < sw[y - 1] else (y, x)
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


# ---------------------------------------------------------------------------
# enumeration matchers
# ---------------------------------------------------------------------------

def t_monotone_match(sigma: Permutation, pi: Permutation,
                     part: MonotonePartition, stats: Optional[dict] = None) -> Optional[Embedding]:
    """First embedding found over all class commitments of the pattern
    labels, enumerated as a base-t counter with label 1 most significant;
    branches die early on class overflow, an already non-monotone
    restriction, or a prefix the position bounds refute.

    When ``stats`` is a dict it receives four counts: ``leaves`` (complete
    commitments reached), ``pruned`` (prefixes refuted by the bounds),
    ``refuted`` (complete commitments refuted by the bounds) and
    ``solves`` (2SAT solves)."""
    validate_monotone_partition(pi, part)
    ell = len(sigma)
    sw = sigma.word
    if ell < 1:
        raise ValidationError("pattern must be nonempty")
    t = part.t
    pw = pi.word
    coords = {ci: (members, [pw[s - 1] for s in members])
              for ci, (members, _) in enumerate(part.classes)}
    sizes = [len(c) for c, _ in part.classes]
    dirs = [d for _, d in part.classes]
    assign: PatternAssignment = {}
    counts = [0] * t
    tally = dict.fromkeys(("leaves", "pruned", "refuted", "solves"), 0)

    def class_ok(c: int) -> bool:
        return _is_monotone([sw[s - 1] for s in sorted(assign) if assign[s] == c], dirs[c - 1])

    def dfs(idx: int) -> Optional[Embedding]:
        if idx == ell:
            tally["leaves"] += 1
            return sigma_pi_embedding(sigma, dict(assign), pi, part, stats=tally)
        s = idx + 1
        for c in range(1, t + 1):
            if counts[c - 1] >= sizes[c - 1]:
                continue
            assign[s] = c
            counts[c - 1] += 1
            if class_ok(c):
                if 2 <= s < ell and _bounds_refute(sw, assign, coords, dirs):
                    tally["pruned"] += 1
                else:
                    found = dfs(idx + 1)
                    if found is not None:
                        del assign[s]
                        counts[c - 1] -= 1
                        return found
            del assign[s]
            counts[c - 1] -= 1
        return None

    found = dfs(0) if ell <= len(pi) else None
    if stats is not None:
        stats.update(tally)
    return found


def poly_space_match(sigma: Permutation, pi: Permutation,
                     stats: Optional[dict] = None) -> Optional[Embedding]:
    """Greedy monotone partition of the target, then class-commitment
    enumeration; time n^(l/2+o(l)) but only polynomial memory.  ``stats``
    is passed to ``t_monotone_match``."""
    part = greedy_monotone_partition(pi)
    return t_monotone_match(sigma, pi, part, stats=stats)
