"""Fast matching when the target splits into few monotone subsequences.

A partition comes from ``greedy_monotone_partition`` or, for the CLI's
``--partition`` file, from ``parse_monotone_partition``.  Two layers
build on a t-monotone partition of the target:

* Once every pattern label is committed to a class, the image of a
  label is just a position along its class, and every pairwise order
  constraint is monotone in the two positions.  Each label keeps a
  window of positions, and ``_narrow`` tightens the windows by the
  constraints, each a ``bisect`` against the other label's extreme
  coordinate, until nothing changes; an empty window refutes the
  commitment.  Otherwise, per label in label order, a trial at the
  window's low end, then a binary search if it fails, fixes the least
  position that narrows without emptying a window, which gives the
  lexicographically least embedding without backtracking.
* ``_search`` commits the labels to classes depth first and narrows at
  every prefix, which is forward checking in the CSP view of pattern
  matching.  A prefix keeps its narrowed windows, and the next label
  starts from them plus its own full window.  Narrowing applies
  monotone, shrinking bound operators, so it reaches the same greatest
  fixpoint from any start that contains it, and a prefix's fixpoint
  contains the projection of every completion's: the search refutes
  exactly what narrowing from full windows refutes, and a refuted prefix
  has no solution below it.  ``t_monotone_match`` lets every label take
  every class (a base-t counter over the labels), ``sigma_pi_embedding``
  one class per label, and ``poly_space_match`` feeds the former the
  greedy partition, whose class count never exceeds 2*ceil(sqrt(n))
  because a longest monotone subsequence of m points has at least
  ceil(sqrt(m)) of them.

No dynamic-programming tables are kept, so memory stays polynomial.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from operator import gt, lt, neg
from typing import Dict, List, Optional, Sequence, Set, Tuple

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
            if not set(map(type, labels)) <= {int}:
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
    return all(map(lt if direction == INCREASING else gt, ys, ys[1:]))


def validate_monotone_partition(perm: Permutation, part: MonotonePartition) -> None:
    """Raise unless the classes partition the labels and each restriction
    is monotone in its stated direction."""
    n = len(perm)
    word = perm.word
    seen: Set[int] = set()
    total = 0
    for idx, (labels, direction) in enumerate(part.classes, start=1):
        if labels[0] < 1 or labels[-1] > n:  # labels are sorted
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
    ``values``, preferring the lexicographically least position set: one
    patience pass over the values right to left, negated for an increasing
    run, then a greedy read-off."""
    # best[i] = length of the longest run starting at i: read right to
    # left, and negated if increasing, that run ascends and ends at i.
    best: List[int] = []
    tails: List[int] = []
    for v in values[::-1] if decreasing else map(neg, values[::-1]):
        idx = bisect_left(tails, v)
        if idx == len(tails):
            tails.append(v)
        else:
            tails[idx] = v
        best.append(idx + 1)
    best.reverse()
    # Read the run off greedily, each time at the first position that can
    # go on.  Values are distinct, and two positions a < b with one best
    # value are out of the run's order, else a would start a longer run
    # through b.  After position j of the run, some later position of best
    # value best[j] - 1 continues it; the first such position lies at or
    # before that one, is past it in the run's order, and so continues it.
    out: List[int] = []
    j = -1
    for need in range(len(tails), 0, -1):
        j = best.index(need, j + 1)
        out.append(j)
    return out


def greedy_monotone_partition(perm: Permutation) -> MonotonePartition:
    """Repeatedly strip a longest monotone subsequence (ties to
    increasing); never more than 2*ceil(sqrt(n)) classes.  A remainder
    that is already increasing, or else decreasing, is the last class:
    no patience pass runs on it, and a single point stays increasing."""
    remaining = list(range(1, len(perm) + 1))  # labels, in x-order
    ys = list(perm.word)  # their values
    classes = []
    while remaining:
        direction = next((d for d in (INCREASING, DECREASING) if _is_monotone(ys, d)), None)
        if direction:
            classes.append((tuple(remaining), direction))
            break
        inc = _longest_monotone(ys, decreasing=False)
        take, direction = inc, INCREASING
        # an increasing and a decreasing subsequence share at most one
        # position, so len(dec) <= len(ys) + 1 - len(inc); once
        # 2 * len(inc) > len(ys) that is at most len(inc), and ties go to
        # increasing: the decreasing pass cannot win
        if 2 * len(inc) <= len(ys):
            dec = _longest_monotone(ys, decreasing=True)
            if len(dec) > len(inc):
                take, direction = dec, DECREASING
        keep = [True] * len(ys)
        for i in take:
            keep[i] = False
        classes.append((tuple(map(remaining.__getitem__, take)), direction))
        remaining = list(compress(remaining, keep))
        ys = list(compress(ys, keep))
    return MonotonePartition(tuple(classes))


# ---------------------------------------------------------------------------
# class-commitment search by narrowing position windows
# ---------------------------------------------------------------------------

_COUNTERS = ("pruned", "refuted", "solves")


def _narrow(rules: Sequence[tuple], lo: List[int], hi: List[int]) -> bool:
    """Narrow every label's window [lo, hi] of 0-based class positions in
    place until no rule changes one; False as soon as a window empties.

    Both coordinates of a rule are monotone in position, so one ``bisect``
    against the other label's extreme value over its window tightens one
    end: u's coordinate must stay below w's largest, and w's above u's
    smallest; a decreasing list is stored negated, so all ascend.  Every
    rule is a necessary condition, so no position of a solution inside the
    windows is ever cut."""
    changed = True
    while changed:
        changed = False
        for u, w, A, B, inc_a, inc_b in rules:
            top = B[hi[w]] if inc_b else -B[lo[w]]  # w's largest coordinate
            if inc_a:
                p = bisect_left(A, top) - 1
                if p < hi[u]:
                    hi[u] = p
                    changed = True
            else:
                p = bisect_right(A, -top)
                if p > lo[u]:
                    lo[u] = p
                    changed = True
            if lo[u] > hi[u]:
                return False
            bottom = A[lo[u]] if inc_a else -A[hi[u]]  # u's smallest coordinate
            if inc_b:
                p = bisect_right(B, bottom)
                if p > lo[w]:
                    lo[w] = p
                    changed = True
            else:
                p = bisect_left(B, -bottom) - 1
                if p < hi[w]:
                    hi[w] = p
                    changed = True
            if lo[w] > hi[w]:
                return False
    return True


def _search(sigma: Permutation, pi: Permutation, part: MonotonePartition,
            options: Sequence[Sequence[int]], tally: Dict[str, int]) -> Optional[Embedding]:
    """The first embedding over the class commitments that send each label
    s to a class in ``options[s-1]``, tried depth first with label 1 most
    significant and each label's options in the order given; None if
    there is none.  ``tally`` counts the proper prefixes the bounds prune
    and the complete commitments they refute or let through to a solve.

    A label goes only to a class with room left whose restriction stays
    monotone in its direction.  Committing label s adds the two rules
    (x-order, and y-order between the lower- and higher-valued label)
    linking it to each earlier label, each as ``(u, w, A, B, inc_a,
    inc_b)``: "coordinate of u < coordinate of w", where ``A``/``B`` list
    the coordinate by position in u's/w's class and ``inc_a``/``inc_b``
    say whether it grows with position; a decreasing class's y-list is
    stored negated, so it ascends too.  The prefix's narrowed windows,
    with s's full window added, are narrowed again."""
    ell = len(sigma)
    sw = sigma.word
    xs = [members for members, _ in part.classes]
    inc = [d == INCREASING for _, d in part.classes]
    word = pi.word
    ys = [[word[m - 1] if up else -word[m - 1] for m in members] for members, up in zip(xs, inc)]
    room = [len(members) for members in xs]
    last = [0] * part.t  # last label committed to each class, 0 if none
    cls = [0] * (ell + 1)  # 0-based class of each committed label
    rules: List[tuple] = []

    def least(lo: List[int], hi: List[int]) -> Optional[Embedding]:
        """Per label, in label order, the least position whose trial bound
        "position <= mid" narrows without emptying a window: first the low
        end, the least if it narrows, then a binary search.  Narrowing is
        unit propagation over the threshold 2SAT encoding of the rules, so
        by the Even-Itai-Shamir argument such a trial keeps the commitment
        satisfiable, and no decision is undone."""
        for s in range(1, ell + 1):
            mid = lo[s]
            while lo[s] < hi[s]:
                trial_lo, trial_hi = lo[:], hi[:]
                trial_hi[s] = mid
                if _narrow(rules, trial_lo, trial_hi):
                    lo, hi = trial_lo, trial_hi
                else:
                    lo[s] = mid + 1
                    if not _narrow(rules, lo, hi):
                        return None
                mid = (lo[s] + hi[s]) // 2
        emb: Embedding = {s: xs[cls[s]][lo[s]] for s in range(1, ell + 1)}
        if not verify_embedding(sigma, pi, emb):
            raise AssertionError("internal: narrowed positions failed verification")
        return emb

    def dfs(s: int, lo: List[int], hi: List[int]) -> Optional[Embedding]:
        y = sw[s - 1]
        for c in options[s - 1]:
            k = c - 1
            prev = last[k]
            if not room[k] or (prev and (sw[prev - 1] < y) != inc[k]):
                continue
            mark = len(rules)
            for x in range(1, s):
                kx = cls[x]
                rules.append((x, s, xs[kx], xs[k], True, True))
                if sw[x - 1] < y:
                    rules.append((x, s, ys[kx], ys[k], inc[kx], inc[k]))
                else:
                    rules.append((s, x, ys[k], ys[kx], inc[k], inc[kx]))
            cls[s] = k
            room[k] -= 1
            last[k] = s
            sub_lo, sub_hi = lo + [0], hi + [len(xs[k]) - 1]
            found = None
            if not _narrow(rules, sub_lo, sub_hi):
                tally["pruned" if s < ell else "refuted"] += 1
            elif s < ell:
                found = dfs(s + 1, sub_lo, sub_hi)
            else:
                tally["solves"] += 1
                found = least(sub_lo, sub_hi)
            room[k] += 1
            last[k] = prev
            del rules[mark:]
            if found is not None:
                return found
        return None

    return dfs(1, [0], [0])


def sigma_pi_embedding(sigma: Permutation, assign: PatternAssignment,
                       pi: Permutation, part: MonotonePartition) -> Optional[Embedding]:
    """The lexicographically least embedding of sigma into pi sending each
    pattern label into its assigned class (its images, read in label
    order, come first in ``itertools.combinations`` order), or None."""
    validate_monotone_partition(pi, part)
    labels = range(1, len(sigma) + 1)  # in x-order
    if not labels:
        raise ValidationError("pattern must be nonempty")
    if set(assign) != set(labels):
        raise ValidationError("assignment must cover exactly the pattern labels")
    for s, c in assign.items():
        if not 1 <= c <= part.t:
            raise ValidationError("assignment sends label %d to class %d, outside 1..%d" % (s, c, part.t))
    return _search(sigma, pi, part, [(assign[s],) for s in labels], dict.fromkeys(_COUNTERS, 0))


# ---------------------------------------------------------------------------
# enumeration matchers
# ---------------------------------------------------------------------------

def _pattern_fits(sigma: Permutation, pi: Permutation, stats: Optional[dict]) -> bool:
    """Raise on an empty pattern; False, all counts 0, if it outgrows pi."""
    if len(sigma) < 1:
        raise ValidationError("pattern must be nonempty")
    if len(sigma) > len(pi) and stats is not None:
        stats.update(leaves=0, **dict.fromkeys(_COUNTERS, 0))
    return len(sigma) <= len(pi)


def t_monotone_match(sigma: Permutation, pi: Permutation,
                     part: MonotonePartition, stats: Optional[dict] = None) -> Optional[Embedding]:
    """First embedding found over all class commitments of the pattern
    labels, enumerated as a base-t counter with label 1 most significant;
    branches die early on class overflow, an already non-monotone
    restriction, or a prefix whose position windows narrow to empty.

    When ``stats`` is a dict it receives four counts: ``leaves`` (complete
    commitments reached), ``pruned`` (prefixes refuted by the bounds),
    ``refuted`` (complete commitments refuted by the bounds) and
    ``solves`` (complete commitments the bounds let through, which the
    binary search for the least positions then decides)."""
    validate_monotone_partition(pi, part)
    if not _pattern_fits(sigma, pi, stats):
        return None
    tally = dict.fromkeys(_COUNTERS, 0)
    found = _search(sigma, pi, part, [range(1, part.t + 1)] * len(sigma), tally)
    if stats is not None:
        stats.update(leaves=tally["refuted"] + tally["solves"], **tally)
    return found


def poly_space_match(sigma: Permutation, pi: Permutation,
                     stats: Optional[dict] = None) -> Optional[Embedding]:
    """Greedy monotone partition of the target, then class-commitment
    enumeration; time n^(l/2+o(l)) but only polynomial memory.  ``stats``
    is passed to ``t_monotone_match``.  The pattern is checked first."""
    if not _pattern_fits(sigma, pi, stats):
        return None
    return t_monotone_match(sigma, pi, greedy_monotone_partition(pi), stats=stats)
