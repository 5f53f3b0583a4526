"""Seeded input generators of the benchmark.

Every generator returns a permutation as its one-line word (a list of the
values 1..n in position order) and draws only from the ``random.Random``
it is given, so a workload seed fixes every input.  None of them calls
``permpat``: the class properties the answer checks rely on (separable
words avoid 2413 and 3142; a union of t increasing runs avoids the
decreasing pattern of length t+1) hold by construction here.
"""

from __future__ import annotations

import random
from typing import List, Sequence


def uniform(n: int, rng: random.Random) -> List[int]:
    """Uniform permutation of 1..n."""
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return values


def separable(n: int, rng: random.Random) -> List[int]:
    """Random separable permutation: split the positions at a uniform
    point and join the two blocks by a direct sum (left block low) or a
    skew sum (left block high), recursively."""
    word = [0] * n
    stack = [(0, 0, n)]  # first position, lowest value - 1, block size
    while stack:
        pos, low, size = stack.pop()
        if size == 1:
            word[pos] = low + 1
            continue
        k = rng.randint(1, size - 1)
        if rng.random() < 0.5:
            stack.append((pos, low, k))
            stack.append((pos + k, low + k, size - k))
        else:
            stack.append((pos, low + size - k, k))
            stack.append((pos + k, low, size - k))
    return word


def monotone_runs(n: int, directions: Sequence[int], rng: random.Random) -> List[int]:
    """Union of len(directions) monotone runs: each position joins a
    random run, each run takes a random set of values, and run c lists its
    values increasing (directions[c] = 1) or decreasing (-1) by position."""
    t = len(directions)
    run_of = [rng.randrange(t) for _ in range(n)]
    values = uniform(n, rng)
    sizes = [0] * t
    for c in run_of:
        sizes[c] += 1
    pools = []
    start = 0
    for c in range(t):
        chunk = sorted(values[start:start + sizes[c]], reverse=directions[c] < 0)
        pools.append(iter(chunk))
        start += sizes[c]
    return [next(pools[c]) for c in run_of]


def planted_pattern(word: Sequence[int], ell: int, rng: random.Random) -> List[int]:
    """Pattern of ell random positions of word, so word contains it."""
    positions = sorted(rng.sample(range(len(word)), ell))
    return reduce_word([word[p] for p in positions])


def reduce_word(values: Sequence[int]) -> List[int]:
    """Replace distinct values by their ranks 1..len(values)."""
    rank = {v: r for r, v in enumerate(sorted(values), 1)}
    return [rank[v] for v in values]


def text(word: Sequence[int]) -> str:
    return " ".join(map(str, word))
