"""Answer checks of the benchmark, computed apart from the program.

Nothing here imports ``permpat``: a FOUND answer is checked by reading the
embedding against the generated words, an absence is known from a class
property of the generator or from the exhaustive search below, and a merge
sequence printed by ``permpat decompose`` is parsed, validated and replayed
by this module's own code.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


class CheckFailed(Exception):
    """A program answer disagrees with the benchmark's own computation."""


def embedding_ok(pattern: Sequence[int], target: Sequence[int], emb: Mapping[int, int]) -> bool:
    """True iff emb (pattern position -> target position, both 1-based, the
    labels ``parse_permutation`` gives) is an occurrence: total on the
    pattern, increasing in position, and order-isomorphic in value."""
    ell = len(pattern)
    if sorted(emb) != list(range(1, ell + 1)):
        return False
    image = [emb[i] for i in range(1, ell + 1)]
    if any(not isinstance(p, int) or not 1 <= p <= len(target) for p in image):
        return False
    if any(a >= b for a, b in zip(image, image[1:])):
        return False
    values = [target[p - 1] for p in image]
    return all((pattern[a] < pattern[b]) == (values[a] < values[b])
               for a in range(ell) for b in range(a + 1, ell))


def contains(pattern: Sequence[int], target: Sequence[int]) -> bool:
    """Exhaustive search over increasing position tuples, pruned on the
    first prefix whose value order differs from the pattern's."""
    ell = len(pattern)
    n = len(target)
    chosen: List[int] = []

    def extend(start: int) -> bool:
        k = len(chosen)
        if k == ell:
            return True
        for pos in range(start, n - (ell - k) + 1):
            v = target[pos]
            if all((pattern[i] < pattern[k]) == (chosen[i] < v) for i in range(k)):
                chosen.append(v)
                if extend(pos + 1):
                    return True
                chosen.pop()
        return False

    return extend(0)


def view_budget(r: int) -> int:
    """The builder's budget 4 f(r), f(r) = r^4 C(r^2, r), as the paper sets it."""
    return 4 * r ** 4 * comb(r * r, r)


def parse_decompose_output(text: str) -> Tuple[List[Tuple[int, int, int]], int, int]:
    """Steps, printed width and printed budget of a ``decompose`` sequence
    output: lines ``i j k`` followed by one ``# width W budget B`` line."""
    lines = text.splitlines()
    if not lines:
        raise CheckFailed("empty decompose output")
    tail = lines[-1].split()
    if len(tail) != 5 or tail[:2] != ["#", "width"] or tail[3] != "budget":
        raise CheckFailed("last line is not '# width W budget B': %r" % lines[-1][:80])
    steps = []
    for raw in lines[:-1]:
        parts = raw.split()
        if len(parts) != 3:
            raise CheckFailed("not a merge step: %r" % raw[:80])
        steps.append((int(parts[0]), int(parts[1]), int(parts[2])))
    return steps, int(tail[2]), int(tail[4])


def check_complete(steps: Sequence[Tuple[int, int, int]], n: int) -> None:
    """A complete merge sequence over n points: n - 1 steps, step p creates
    the fresh label n + p, and both sources are alive when merged."""
    if len(steps) != n - 1:
        raise CheckFailed("%d steps for %d points" % (len(steps), n))
    alive = bytearray(2 * n)
    for label in range(1, n + 1):
        alive[label] = 1
    for p, (i, j, k) in enumerate(steps, 1):
        if k != n + p:
            raise CheckFailed("step %d creates %d, not the fresh label %d" % (p, k, n + p))
        if i == j or not (0 < i < k and alive[i]) or not (0 < j < k and alive[j]):
            raise CheckFailed("step %d merges %d and %d, not two live rectangles" % (p, i, j))
        alive[i] = alive[j] = 0
        alive[k] = 1


def replay_width(word: Sequence[int], steps: Sequence[Tuple[int, int, int]]) -> int:
    """Width of a complete merge sequence over the permutation word: one
    more than the largest number of live rectangles whose x- or y-interval
    meets the interval of a newly created rectangle.

    One Fenwick tree per interval end and axis counts the live upper ends
    below the new lower end and the live lower ends above the new upper
    end; every other live rectangle meets it.  A merge only ever drops the
    inner of the two upper ends and of the two lower ends, so each step
    makes one update per tree.
    """
    n = len(word)
    top = n + len(steps)
    lows = [[0] * (top + 1), [0] * (top + 1)]  # per axis, by label
    highs = [[0] * (top + 1), [0] * (top + 1)]
    for pos, v in enumerate(word, 1):
        lows[0][pos] = highs[0][pos] = pos
        lows[1][pos] = highs[1][pos] = v
    # every rank holds one end at the start, so tree[i] = i & -i
    high_trees = [[0] + [i & -i for i in range(1, n + 1)] for _ in range(2)]
    low_trees = [tree[:] for tree in high_trees]

    def add(tree: List[int], i: int, v: int) -> None:
        while i <= n:
            tree[i] += v
            i += i & -i

    def count_upto(tree: List[int], i: int) -> int:
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & -i
        return s

    live = n
    best = 0
    for i, j, k in steps:
        live -= 1
        for axis in (0, 1):
            lo, hi = lows[axis], highs[axis]
            a = lo[i] if lo[i] < lo[j] else lo[j]
            b = hi[i] if hi[i] > hi[j] else hi[j]
            add(high_trees[axis], hi[i] if hi[i] < hi[j] else hi[j], -1)
            add(low_trees[axis], lo[i] if lo[i] > lo[j] else lo[j], -1)
            lo[k] = a
            hi[k] = b
            # of the live - 1 others, those ending below a or starting
            # above b miss k; every other one meets it
            ends_below = count_upto(high_trees[axis], a - 1)
            starts_above = live - count_upto(low_trees[axis], b)
            meet = live - 1 - ends_below - starts_above
            if meet > best:
                best = meet
    return best + 1


def replay_width_quadratic(word: Sequence[int], steps: Sequence[Tuple[int, int, int]]) -> int:
    """The same width by direct pairwise tests; O(n^2), for tests."""
    boxes: Dict[int, Tuple[int, int, int, int]] = {
        pos: (pos, pos, v, v) for pos, v in enumerate(word, 1)}
    best = 0
    for i, j, k in steps:
        a, b = boxes.pop(i), boxes.pop(j)
        box = (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))
        for axis in (0, 2):
            meet = sum(1 for o in boxes.values()
                       if o[axis] <= box[axis + 1] and box[axis] <= o[axis + 1])
            best = max(best, meet)
        boxes[k] = box
    return best + 1


def check_decompose_output(word: Sequence[int], text: str, r: int) -> int:
    """Check a ``decompose --r r`` sequence output for the word; returns the
    width it re-derived."""
    steps, printed_width, printed_budget = parse_decompose_output(text)
    check_complete(steps, len(word))
    budget = view_budget(r)
    if printed_budget != budget:
        raise CheckFailed("printed budget %d, expected 4 f(%d) = %d" % (printed_budget, r, budget))
    width = replay_width(word, steps)
    if width != printed_width:
        raise CheckFailed("printed width %d, replayed width %d" % (printed_width, width))
    if width > budget:
        raise CheckFailed("width %d exceeds the budget %d" % (width, budget))
    return width


def expect_found(pattern: Sequence[int], target: Sequence[int],
                 emb: Optional[Mapping[int, int]]) -> None:
    if emb is None:
        raise CheckFailed("NOT FOUND, but the target contains the pattern")
    if not embedding_ok(pattern, target, emb):
        raise CheckFailed("returned map is not an occurrence of the pattern")


def expect_absent(emb: Optional[Mapping[int, int]]) -> None:
    if emb is not None:
        raise CheckFailed("FOUND an embedding of a pattern the target avoids")
