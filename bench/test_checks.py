"""Tests of the benchmark's own answer checks and generators.

    python3 -m pytest bench
"""

import itertools
import random

import pytest

import checks
import gen
import tracing


def random_sequence(n, rng):
    live = list(range(1, n + 1))
    steps = []
    k = n
    while len(live) > 1:
        i, j = rng.sample(live, 2)
        k += 1
        live.remove(i)
        live.remove(j)
        live.append(k)
        steps.append((i, j, k))
    return steps


def brute_contains(pattern, target):
    ell = len(pattern)
    return any(gen.reduce_word([target[p] for p in pos]) == list(pattern)
               for pos in itertools.combinations(range(len(target)), ell))


@pytest.mark.parametrize("seed", range(40))
def test_replay_width_matches_quadratic_count(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    word = gen.separable(n, rng) if seed % 2 else gen.uniform(n, rng)
    steps = random_sequence(n, rng)
    checks.check_complete(steps, n)
    assert checks.replay_width(word, steps) == checks.replay_width_quadratic(word, steps)


def test_replay_width_of_a_left_to_right_sweep():
    # merging 1..n left to right: the growing prefix box meets every
    # remaining point whose value lies inside its value range
    word = [2, 4, 1, 3]
    steps = [(1, 2, 5), (5, 3, 6), (6, 4, 7)]
    # after step 1 the box has values 2..4 and meets point 4 (value 3)
    # on the y-axis, and nothing on the x-axis
    assert checks.replay_width(word, steps) == 2


@pytest.mark.parametrize("steps, n", [
    ([(1, 2, 4)], 3),                      # too few steps
    ([(1, 2, 4), (1, 3, 5)], 3),           # 1 is no longer live
    ([(1, 2, 5), (4, 3, 6)], 3),           # 4 is not a label yet / not fresh
    ([(1, 1, 4), (4, 2, 5)], 3),           # a rectangle merged with itself
])
def test_check_complete_rejects_broken_sequences(steps, n):
    with pytest.raises(checks.CheckFailed):
        checks.check_complete(steps, n)


def test_decompose_output_check_reads_width_and_budget():
    rng = random.Random(5)
    word = gen.separable(25, rng)
    steps = random_sequence(25, rng)
    width = checks.replay_width_quadratic(word, steps)
    body = "\n".join("%d %d %d" % s for s in steps)
    good = body + "\n# width %d budget 384\n" % width
    assert checks.check_decompose_output(word, good, 2) == width
    for bad in (body + "\n# width %d budget 384\n" % (width + 1),
                body + "\n# width %d budget 383\n" % width,
                "GRID\n" + good):
        with pytest.raises(checks.CheckFailed):
            checks.check_decompose_output(word, bad, 2)


def test_embedding_check_accepts_an_occurrence_and_rejects_mutations():
    target = [3, 1, 4, 5, 9, 2, 6, 8, 7]
    pattern = [2, 1, 3]
    emb = {1: 1, 2: 2, 3: 3}  # values 3 1 4
    assert checks.embedding_ok(pattern, target, emb)
    assert not checks.embedding_ok(pattern, target, {1: 2, 2: 1, 3: 3})  # positions out of order
    assert not checks.embedding_ok(pattern, target, {1: 1, 2: 6, 3: 3})  # positions out of order
    assert not checks.embedding_ok(pattern, target, {1: 1, 2: 4, 3: 5})  # 3 5 9 is 1 2 3
    assert not checks.embedding_ok(pattern, target, {1: 1, 2: 2})        # not total
    assert not checks.embedding_ok(pattern, target, {1: 1, 2: 2, 3: 10})  # outside the target


@pytest.mark.parametrize("seed", range(30))
def test_exhaustive_search_matches_brute_force(seed):
    rng = random.Random(seed)
    target = gen.uniform(rng.randint(1, 9), rng)
    pattern = gen.uniform(rng.randint(1, 4), rng)
    assert checks.contains(pattern, target) == brute_contains(pattern, target)


@pytest.mark.parametrize("seed", range(20))
def test_generators_have_the_class_properties_the_checks_use(seed):
    rng = random.Random(seed)
    sep = gen.separable(rng.randint(1, 40), rng)
    assert sorted(sep) == list(range(1, len(sep) + 1))
    assert not checks.contains([2, 4, 1, 3], sep)
    assert not checks.contains([3, 1, 4, 2], sep)
    t = rng.randint(1, 4)
    runs = gen.monotone_runs(rng.randint(1, 60), [1] * t, rng)
    assert sorted(runs) == list(range(1, len(runs) + 1))
    assert not checks.contains(list(range(t + 1, 0, -1)), runs)
    mixed = gen.monotone_runs(50, [1, -1, 1], rng)
    ell = rng.randint(1, 6)
    assert checks.contains(gen.planted_pattern(mixed, ell, rng), mixed)


def test_generators_repeat_under_the_same_seed():
    a = gen.separable(500, random.Random("x"))
    b = gen.separable(500, random.Random("x"))
    assert a == b and a != gen.separable(500, random.Random("y"))


def test_self_time_subtracts_child_spans():
    tr = tracing.Tracer()
    # query [0, 10] > build [1, 7] > find_grid [2, 5]; reduce [8, 9]
    tr.spans = [["query", 0.0, 10.0, -1], ["decompose.build", 1.0, 7.0, 0],
                ["griddetect.find_grid", 2.0, 5.0, 1], ["core.reduce", 8.0, 9.0, 0],
                ["core.parse", 11.0, 12.0, -1]]
    times = tr.self_times([0])
    assert times == {"query": 3.0, "decompose.build": 3.0,
                     "griddetect.find_grid": 3.0, "core.reduce": 1.0}
