"""Fast matching when the target splits into few monotone subsequences.

A partition comes from ``greedy_monotone_partition`` or, for the CLI's
``--partition`` file, from ``parse_monotone_partition``.  Two layers
build on a t-monotone partition of the target:

* ``sigma_pi_embedding`` solves the class-respecting embedding problem:
  once every pattern label is committed to a class, the image of a label
  is just a position along its class, and every pairwise order constraint
  is monotone in the two positions.  Each label keeps a window of
  positions, and ``_narrow`` tightens the windows by the constraints,
  each a ``bisect`` against the other label's extreme coordinate, until
  nothing changes; an empty window refutes the commitment.  Otherwise a
  binary search per label, in label order, fixes the least position that
  narrows without emptying a window, which gives the lexicographically
  least embedding without backtracking.
* ``t_monotone_match`` enumerates the class commitments (base-t counter
  over pattern labels), and ``poly_space_match`` feeds it the greedy
  partition, whose class count never exceeds 2*ceil(sqrt(n)) because a
  longest monotone subsequence of m points has at least ceil(sqrt(m)) of
  them.

Most commitments have no embedding.  ``_bounds_refute`` runs the
narrowing on every prefix of two or more labels inside
``t_monotone_match``, which is forward checking in the CSP view of
pattern matching.  The constraints of a prefix are a subset of those of
its completions, so a refuted prefix has no solution below it, and the
first embedding found does not change.

No dynamic-programming tables are kept, so memory stays polynomial.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import neg
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

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
# class-respecting embedding by narrowing position windows
# ---------------------------------------------------------------------------

def _narrowing_rules(sw: Sequence[int], assign: PatternAssignment,
                     coords: Mapping[int, Tuple[Sequence[int], Sequence[int]]],
                     dirs: Sequence[str]) -> List[tuple]:
    """The pairwise order constraints between the committed labels (the
    keys of ``assign``), each as ``(u, w, A, B, inc_a, inc_b)``: "coordinate
    of u < coordinate of w", where ``A``/``B`` list the coordinate by
    position in u's/w's class and ``inc_a``/``inc_b`` say whether it grows
    with position.  ``coords[c-1]`` holds class c's x- and y-coordinates by
    position for every class in use."""
    labels = sorted(assign)  # in x-order
    rules = []
    for i, x in enumerate(labels):
        for y in labels[i + 1:]:
            low, high = (x, y) if sw[x - 1] < sw[y - 1] else (y, x)
            for alpha, u, w in ((0, x, y), (1, low, high)):
                cu, cw = assign[u] - 1, assign[w] - 1
                rules.append((u, w, coords[cu][alpha], coords[cw][alpha],
                              alpha == 0 or dirs[cu] == INCREASING,
                              alpha == 0 or dirs[cw] == INCREASING))
    return rules


def _narrow(rules: Sequence[tuple], lo: Dict[int, int], hi: Dict[int, int]) -> bool:
    """Narrow every label's window [lo, hi] of 0-based class positions in
    place until no rule changes one; False as soon as a window empties.

    Both coordinates of a rule are monotone in position, so one ``bisect``
    against the other label's extreme value over its window tightens one
    end: u's coordinate must stay below w's largest, and w's above u's
    smallest.  Every rule is a necessary condition, so no position of a
    solution inside the windows is ever cut."""
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
                return False
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
                return False
    return True


def _full_windows(assign: PatternAssignment,
                  coords: Mapping[int, Tuple[Sequence[int], Sequence[int]]]
                  ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Each committed label's window over all of its class's positions."""
    return (dict.fromkeys(assign, 0),
            {s: len(coords[c - 1][0]) - 1 for s, c in assign.items()})


def _bounds_refute(sw: Sequence[int], assign: PatternAssignment,
                   coords: Mapping[int, Tuple[Sequence[int], Sequence[int]]],
                   dirs: Sequence[str]) -> bool:
    """Whether narrowing the position windows proves that the committed
    labels (the keys of ``assign``) have no class-respecting embedding."""
    lo, hi = _full_windows(assign, coords)
    return not _narrow(_narrowing_rules(sw, assign, coords, dirs), lo, hi)


def sigma_pi_embedding(sigma: Permutation, assign: PatternAssignment,
                       pi: Permutation, part: MonotonePartition,
                       stats: Optional[dict] = None) -> Optional[Embedding]:
    """The lexicographically least embedding of sigma into pi sending each
    pattern label into its assigned class (its images, read in label
    order, come first in ``itertools.combinations`` order), or None.

    Filters class direction mismatches and overfull classes first, then
    narrows the position windows.  If no window empties, a binary search
    per label, in label order, finds the least position whose trial bound
    ("position <= mid") narrows without emptying a window.  Narrowing is
    exactly unit propagation over the threshold 2SAT encoding of the
    constraints (every clause links "position >= v" literals of two
    labels), so by the Even-Itai-Shamir argument a trial that empties no
    window keeps the commitment satisfiable, and no decision is undone.

    When ``stats`` is a dict, ``stats["refuted"]`` counts a commitment the
    first narrowing refutes and ``stats["solves"]`` one it lets through,
    which the search then decides."""
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
    rules = _narrowing_rules(sw, assign, coords, dirs)
    lo, hi = _full_windows(assign, coords)
    if not _narrow(rules, lo, hi):
        if stats is not None:
            stats["refuted"] = stats.get("refuted", 0) + 1
        return None
    if stats is not None:
        stats["solves"] = stats.get("solves", 0) + 1

    for s in labels:
        while lo[s] < hi[s]:
            mid = (lo[s] + hi[s]) // 2
            trial_lo, trial_hi = dict(lo), dict(hi)
            trial_hi[s] = mid
            if _narrow(rules, trial_lo, trial_hi):
                lo, hi = trial_lo, trial_hi
            else:
                lo[s] = mid + 1
                if not _narrow(rules, lo, hi):
                    return None
    emb: Embedding = {s: order[assign[s] - 1][lo[s]] for s in labels}
    if not verify_embedding(sigma, pi, emb):
        raise AssertionError("internal: narrowed positions failed verification")
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
    ``solves`` (complete commitments the bounds let through, which the
    search in ``sigma_pi_embedding`` then decides)."""
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
