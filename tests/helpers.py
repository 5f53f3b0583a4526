"""Shared instance generators for the test suite."""

import random
from typing import List, Tuple

from permpat import MergeSequence, MonotonePartition, Permutation


def random_t_monotone(n: int, t: int, rng: random.Random) -> Tuple[Permutation, MonotonePartition]:
    """Random permutation that is a union of t monotone subsequences,
    together with a witnessing partition (every class nonempty)."""
    while True:
        values = list(range(1, n + 1))
        rng.shuffle(values)
        owner = [rng.randrange(t) for _ in range(n)]
        if len(set(owner)) < t:
            continue
        directions = [rng.choice(["inc", "dec"]) for _ in range(t)]
        pools: List[List[int]] = []
        for ci in range(t):
            vals = [v for v, c in zip(values, owner) if c == ci]
            pools.append(sorted(vals, reverse=(directions[ci] == "dec")))
        points = []
        owners = []
        while any(pools):
            ci = rng.choice([i for i in range(t) if pools[i]])
            points.append(pools[ci].pop(0))
            owners.append(ci)
        perm = Permutation(points)
        classes = []
        for ci in range(t):
            members = tuple(i + 1 for i in range(n) if owners[i] == ci)
            classes.append((members, directions[ci]))
        return perm, MonotonePartition(tuple(classes))


def random_merge_sequence(n: int, rng: random.Random) -> MergeSequence:
    """Complete merge sequence with a uniformly chosen pair at each step."""
    live = list(range(1, n + 1))
    steps = []
    k = n
    while len(live) > 1:
        i, j = rng.sample(live, 2)
        k += 1
        steps.append((i, j, k))
        live.remove(i)
        live.remove(j)
        live.append(k)
    return MergeSequence(steps)
