"""Visibility graphs and the decomposition-driven matcher."""

import hashlib
import itertools
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permpat
from helpers import monotone_decomposition, random_merge_sequence
from permpat import (
    Permutation,
    ValidationError,
    brute_force_match,
    build_decomposition,
    canonical_grid,
    find_pattern,
    greedy_monotone_partition,
    match_auto,
    parse_merge_sequence,
    parse_permutation,
    random_permutation,
    random_separable,
    verify_embedding,
    width_of_decomposition,
)
from permpat.core import reduce
from permpat.decompose import _stall_free_budget
from permpat.matcher import VisibilityGraph, connected_sets


def test_initial_graph_is_edgeless():
    g = VisibilityGraph(parse_permutation("3 1 4 2"))
    assert len(g) == 4
    for v in range(1, 5):
        assert sorted(g.neighbor_set(v)) == []


def test_merge_of_a_pair_leaves_one_isolated_vertex():
    g = VisibilityGraph(parse_permutation("1 2"))
    g.merge((1, 2, 3))
    assert len(g) == 1 and 3 in g and sorted(g.neighbor_set(3)) == []


def test_graph_keeps_the_boxes_of_merged_rectangles():
    g = VisibilityGraph(parse_permutation("3 1 4 2"))
    for step in parse_merge_sequence("2 1 5\n4 3 6\n5 6 7"):
        g.merge(step)
    assert len(g) == 1 and 7 in g and 5 not in g and 1 not in g
    assert g.boxes[5] == (1, 2, 1, 3) and g.boxes[6] == (3, 4, 2, 4)
    assert g.boxes[7] == (1, 4, 1, 4) and g.boxes[1] == (1, 1, 3, 3)


def test_viewing_is_interval_overlap():
    g = VisibilityGraph(parse_permutation("2 1 4 3"))
    g.merge((1, 2, 5))  # box spans x 1..2, y 1..2
    g.merge((3, 4, 6))  # box spans x 3..4, y 3..4
    # disjoint on both axes: no view either way
    assert sorted(g.neighbor_set(5)) == [] and sorted(g.neighbor_set(6)) == []
    g2 = VisibilityGraph(parse_permutation("2 1 3"))
    g2.merge((1, 3, 4))  # spans y 2..3, x 1..3 swallowing x of 2
    assert sorted(g2.neighbor_set(4)) == [2] and sorted(g2.neighbor_set(2)) == [4]


def test_neighbors_of_dead_rectangle_error():
    g = VisibilityGraph(parse_permutation("1 2"))
    g.merge((1, 2, 3))
    with pytest.raises(ValidationError):
        connected_sets(g, 1, 2)


def test_connected_sets_on_a_path():
    # path 1 - 5 - 4: all connected sets through the center, smallest first
    g = VisibilityGraph(parse_permutation("2 1 4 3"))
    g.merge((2, 3, 5))
    assert sorted(g.neighbor_set(5)) == [1, 4] and sorted(g.neighbor_set(1)) == [5]
    assert connected_sets(g, 5, 2) == [(5,), (1, 5), (4, 5)]
    assert connected_sets(g, 5, 3) == [(5,), (1, 5), (4, 5), (1, 4, 5)]


def test_connected_sets_enumerates_each_set_once():
    perm = random_separable(40, 2)
    res = build_decomposition(perm, 2)
    g = VisibilityGraph(perm)
    seen_total = 0
    for i, j, k in res.seq:
        g.merge((i, j, k))
        sets = connected_sets(g, k, 3)
        assert len(sets) == len(set(sets))
        assert all(k in s for s in sets)
        assert sets == sorted(sets, key=lambda t: (len(t), t))
        seen_total += len(sets)
    assert seen_total > 0
    # against every connected subset through the new rectangle, on targets
    # small enough (at most 12 live rectangles) to list them all
    for s in range(3):
        perm = random_permutation(12, s)
        for seq in (build_decomposition(perm, d=_stall_free_budget(12)).seq,
                    random_merge_sequence(12, random.Random(s))):
            g = VisibilityGraph(perm)
            live = set(range(1, 13))
            for i, j, k in seq:
                g.merge((i, j, k))
                live -= {i, j}
                live.add(k)
                want = [key for size in range(1, 6)
                        for key in itertools.combinations(sorted(live), size)
                        if k in key and _connected(key, g.boxes)]
                for l in range(1, 6):
                    assert connected_sets(g, k, l) == [key for key in want if len(key) <= l]


def _views(a, b):
    return (a[0] <= b[1] and b[0] <= a[1]) or (a[2] <= b[3] and b[2] <= a[3])


def _connected(key, boxes):
    reached, todo = {key[0]}, [key[0]]
    while todo:
        u = todo.pop()
        for v in key:
            if v not in reached and _views(boxes[u], boxes[v]):
                reached.add(v)
                todo.append(v)
    return len(reached) == len(key)


def test_live_degrees_stay_bounded_during_replay():
    perm = random_separable(800, 4)
    res = build_decomposition(perm, 2)
    w = width_of_decomposition(perm, res.seq)
    g = VisibilityGraph(perm)
    for i, j, k in res.seq:
        g.merge((i, j, k))
        assert len(g.neighbor_set(k)) <= 2 * (w - 1)
    # every live rectangle's neighbours after every step, against a direct
    # projection test; random sequences also merge nested and touching boxes
    for n in (10, 25, 40):
        for s in range(3):
            for perm in (random_permutation(n, s), random_separable(n, s)):
                for seq in (build_decomposition(perm, d=_stall_free_budget(n)).seq,
                            random_merge_sequence(n, random.Random(s))):
                    g = VisibilityGraph(perm)
                    live = set(range(1, n + 1))
                    for i, j, k in seq:
                        g.merge((i, j, k))
                        live -= {i, j}
                        live.add(k)
                        for u in live:
                            want = {v for v in live if v != u and _views(g.boxes[u], g.boxes[v])}
                            assert g.neighbor_set(u) == want


def test_find_pattern_worked_example():
    sigma = parse_permutation("1 3 2")
    pi = parse_permutation("3 2 1 5 6 7 4")
    seq = build_decomposition(pi, 2).seq
    emb = find_pattern(sigma, pi, seq)
    assert emb == {1: 3, 2: 4, 3: 7}  # values 1 5 4
    assert find_pattern(parse_permutation("4 3 2 1"), pi, seq) is None


def test_find_pattern_requires_canonical_target_and_complete_sequence():
    pi = parse_permutation("2 1 3")
    with pytest.raises(ValidationError):
        find_pattern(parse_permutation("1"), pi, parse_merge_sequence("1 2 4"))


def test_find_pattern_edge_sizes():
    pi = parse_permutation("2 1 3")
    seq = build_decomposition(pi, 2).seq
    emb = find_pattern(parse_permutation("1"), pi, seq)
    assert emb is not None and verify_embedding(parse_permutation("1"), pi, emb)
    assert find_pattern(parse_permutation("1 2 3 4"), pi, seq) is None
    one = parse_permutation("1")
    assert find_pattern(one, one, parse_merge_sequence("")) == {1: 1}


def test_find_pattern_fills_stats_when_no_sweep_runs():
    # a pattern longer than the target, and a one-point target, run no step
    for sigma, pi, want in [("1 2 3", "2 1", None), ("1", "1", {1: 1})]:
        pi = parse_permutation(pi)
        seq = build_decomposition(pi, 2).seq
        stats = {}
        assert find_pattern(parse_permutation(sigma), pi, seq, stats=stats) == want
        assert stats == {"entries": 0, "max_components": 0, "steps": 0}


def test_component_split_instance_exercises_multiway_recombination():
    sigma = parse_permutation("3 1 2 4")
    pi = parse_permutation("7 8 1 10 3 4 6 2 9 5")
    seq = build_decomposition(pi, 2).seq
    stats = {}
    emb = find_pattern(sigma, pi, seq, stats=stats)
    assert (emb is None) == (brute_force_match(sigma, pi) is None)
    assert stats["max_components"] == 4
    assert stats["entries"] == 127


def test_absent_patterns_keep_their_tables():
    # separable targets avoid 2 4 1 3 and 3 1 4 2, so no entry places every
    # label and the sweep runs to the end: the digest of the answers, entry
    # counts and component maxima is the one the full sweep gave
    h = hashlib.sha1()
    for pat in ("2 4 1 3", "3 1 4 2"):
        sigma = parse_permutation(pat)
        for n in (5, 12, 20, 40, 60):
            for s in range(4):
                pi = random_separable(n, s)
                seqs = [build_decomposition(pi, d=_stall_free_budget(n)).seq]
                if n <= 20:
                    seqs.append(random_merge_sequence(n, random.Random(s)))
                for seq in seqs:
                    stats = {}
                    got = find_pattern(sigma, pi, seq, stats=stats)
                    assert got is None
                    h.update(repr((got, stats["entries"], stats["max_components"])).encode())
    assert h.hexdigest() == "b58d6129d4bea4eda57d557771f15e12f55db57c"


def test_present_patterns_keep_their_embeddings():
    # a pattern read off the target's own points is present, so the sweep
    # ends at its first entry that places every label: the digest of the
    # embeddings, entry counts and steps is the one that re-descending the
    # stored winning splits gave before each entry carried its witness
    h = hashlib.sha1()
    for n in (5, 12, 20, 40):
        for s in range(3):
            rng = random.Random(s)
            for pi in (random_permutation(n, s), random_separable(n, s)):
                seqs = [build_decomposition(pi, d=_stall_free_budget(n)).seq]
                if n <= 12:
                    seqs.append(random_merge_sequence(n, rng))
                for ell in range(1, 6):
                    sigma = reduce((l, pi.word[l - 1]) for l in rng.sample(range(1, n + 1), ell))
                    for seq in seqs:
                        stats = {}
                        emb = find_pattern(sigma, pi, seq, stats=stats)
                        assert emb is not None and verify_embedding(sigma, pi, emb)
                        h.update(repr((sorted(emb.items()), stats["entries"],
                                       stats["steps"])).encode())
    assert h.hexdigest() == "18301a66f5e20167e820841603cc2fdea19fd2a3"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))),
       st.integers(1, 4).flatmap(lambda ell: st.permutations(range(1, ell + 1))),
       st.sampled_from(["random", "builder", "monotone"]),
       st.randoms(use_true_random=False))
def test_find_pattern_agrees_with_brute_force_on_any_complete_sequence(
        target, pattern, source, rng):
    pi = parse_permutation(" ".join(map(str, target)))
    sigma = parse_permutation(" ".join(map(str, pattern)))
    if source == "random":
        seq = random_merge_sequence(len(pi), rng)
    elif source == "builder":
        seq = build_decomposition(pi, 2).seq
    else:
        seq = monotone_decomposition(pi, greedy_monotone_partition(pi))
    stats = {}
    got = find_pattern(sigma, pi, seq, stats=stats)
    assert (got is None) == (brute_force_match(sigma, pi) is None)
    if got is None:
        # without an embedding the sweep runs every step (no sweep at l > n)
        assert len(sigma) > len(pi) or stats["steps"] == len(seq)
    else:
        assert verify_embedding(sigma, pi, got)


@pytest.mark.parametrize("pattern, n, seed", [("1 3 2", 200, 1), ("2 1", 1000, 2),
                                              ("3 1 4 2", 60, 3)])
def test_a_present_pattern_ends_the_sweep_early(pattern, n, seed):
    sigma, pi = parse_permutation(pattern), random_permutation(n, seed)
    seq = build_decomposition(pi, d=_stall_free_budget(n)).seq
    stats = {}
    emb = find_pattern(sigma, pi, seq, stats=stats)
    assert emb is not None and verify_embedding(sigma, pi, emb)
    assert stats["steps"] < len(seq)


def test_witness_checks_survive_optimized_mode():
    # under ``python -O`` a failed witness check must still raise, on the
    # DP, on each of match_auto's four exits that return an embedding (the
    # single label, the interval sequence of a separable target, the
    # sequence built at d0 and the grid), on the t-monotone track, in
    # the grid finder, in the builder's invariant check and in the
    # t-monotone decomposition's pin bound
    script = textwrap.dedent("""
        import sys
        import helpers
        import permpat.decompose as dec
        import permpat.griddetect as gd
        import permpat.matcher as m
        import permpat.monotone as mono
        from permpat import (Columns, DecompositionResult, brute_force_grid,
                             build_decomposition, canonical_grid, find_grid, find_pattern,
                             greedy_monotone_partition, match_auto, parse_permutation,
                             poly_space_match)
        from permpat.griddetect import PointSet

        grid = canonical_grid(2, 2)
        witness = brute_force_grid(grid, 2)
        # past n = 73728 a 2-pattern builds from r = 2, not at the smaller
        # stall-free budget, so the stubbed build below is reached
        big = canonical_grid(272, 272)
        p12, p21 = parse_permutation("1 2"), parse_permutation("2 1")
        pi = parse_permutation("2 3 1")
        seq = build_decomposition(pi, 2).seq

        def grid_exit(sigma, target):
            m.build_decomposition = lambda perm, r: DecompositionResult(None, witness, None)
            return match_auto(sigma, target)

        # the sequence exit returns the DP's embedding, checked by the DP
        m.verify_embedding = lambda sigma, target, emb: False
        mono.verify_embedding = lambda sigma, target, emb: False
        # dense enough for find_grid at r = 2: 40200 > f(2) * (200 + 201 - 2).
        # Its wide-block check sees the transpose (p = 201), and the check of
        # the transposed witness sees the set itself (p = 200)
        tall = Columns.of(PointSet(200, 201, [(x, y) for x in range(1, 201)
                                              for y in range(1, 202)]))

        def grid_check(failing):
            gd.verify_grid = lambda target, w, r: target.p not in failing
            return find_grid(tall, 2)

        def invariants():
            # the tests' check of the builder state, on a state with a wrong count
            state = dec._build_state(3, 384, [0, 0, 0])
            state.total = 99
            helpers.check_builder_state(state, {1: (1, 1, 2, 2), 2: (2, 2, 1, 1),
                                                3: (3, 3, 3, 3)})

        def pin_bound():
            # every box counts as pinned, so the one-class target breaks the
            # 4 (t - 1) = 0 bound on the first pair
            helpers._inside = lambda inner, outer, axis: True
            inc = parse_permutation("1 2 3 4")
            return helpers.monotone_decomposition(inc, greedy_monotone_partition(inc))
        print("optimize", sys.flags.optimize)
        for name, call in [("find_pattern", lambda: find_pattern(p12, pi, seq)),
                           ("single", lambda: match_auto(parse_permutation("1"), pi)),
                           ("sequence", lambda: match_auto(p12, pi)),
                           ("built sequence",
                            lambda: match_auto(p12, parse_permutation("2 4 1 3"))),
                           ("grid", lambda: grid_exit(p21, big)),
                           ("poly_space_match", lambda: poly_space_match(p12, pi)),
                           ("find_grid", lambda: grid_check({200, 201})),
                           ("find_grid transposed", lambda: grid_check({200})),
                           ("builder invariants", invariants),
                           ("monotone_decomposition", pin_bound)]:
            try:
                call()
                print(name, "returned")
            except AssertionError:
                print(name, "raised")
    """)
    src = str(pathlib.Path(permpat.__file__).resolve().parents[1])
    tests = str(pathlib.Path(__file__).resolve().parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == [
        "optimize 1", "find_pattern raised", "single raised", "sequence raised",
        "built sequence raised", "grid raised",
        "poly_space_match raised", "find_grid raised", "find_grid transposed raised",
        "builder invariants raised", "monotone_decomposition raised"]


TARGETS = st.one_of(
    st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))).map(Permutation),
    st.builds(random_separable, st.integers(1, 12), st.integers(0, 1 << 30)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda rs: rs[0] * rs[1] <= 12)
    .map(lambda rs: canonical_grid(*rs)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TARGETS, st.integers(1, 4).flatmap(lambda ell: st.permutations(range(1, ell + 1))))
def test_match_auto_agrees_with_brute_force_on_random_instances(pi, pattern):
    sigma = Permutation(pattern)
    got = match_auto(sigma, pi)
    assert (got is None) == (brute_force_match(sigma, pi) is None)
    if got is not None:
        assert verify_embedding(sigma, pi, got)


SEPARABLE = st.builds(random_separable, st.integers(1, 12), st.integers(0, 1 << 30))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(SEPARABLE, st.integers(1, 5).flatmap(lambda ell: st.permutations(range(1, ell + 1))))
def test_match_auto_agrees_with_brute_force_on_separable_targets(pi, pattern):
    # the interval pass answers every one of these without a build
    sigma = Permutation(pattern)
    got = match_auto(sigma, pi)
    assert (got is None) == (brute_force_match(sigma, pi) is None)
    if got is not None:
        assert verify_embedding(sigma, pi, got)


class _Spied(Exception):
    pass


@pytest.mark.parametrize("n, args, kwargs", [
    (73728, (), {"d": 384}),  # d0(73728) = 384 = 4 f(2): cannot stall
    (73729, (2,), {}),  # d0(73729) = 385: the paper build may stall
])
def test_match_auto_builds_at_the_stall_free_budget_only_below_the_paper_one(
        monkeypatch, n, args, kwargs):
    calls = []

    def spy(*a, **kw):
        calls.append((a, kw))
        raise _Spied

    monkeypatch.setattr(permpat.matcher, "build_decomposition", spy)
    # not separable, so the interval pass does not answer first
    pi = Permutation([2, 4, 1, 3, *range(5, n + 1)])
    with pytest.raises(_Spied):
        match_auto(parse_permutation("1 2"), pi)
    assert calls == [((pi, *args), kwargs)]


def test_match_auto_finds_a_2_pattern_below_the_grid_exit_size():
    # d0(20000) = 200 <= 4 f(2), so this runs the DP on a complete sequence
    # of width near 200; the first merge of a descent ends the sweep
    sigma, pi = parse_permutation("2 1"), random_permutation(20000, 1)
    emb = match_auto(sigma, pi)
    assert emb is not None and verify_embedding(sigma, pi, emb)


def test_match_auto_through_the_grid_branch():
    # the canonical 500x500 grid stalls the merge loop immediately, so the
    # answer comes back through the extracted grid witness
    pi = canonical_grid(500, 500)
    sigma = parse_permutation("2 1")
    emb = match_auto(sigma, pi)
    assert emb is not None and verify_embedding(sigma, pi, emb)


def test_match_auto_pattern_longer_than_target():
    assert match_auto(parse_permutation("2 1 3"), parse_permutation("2 1")) is None
    with pytest.raises(OverflowError):
        match_auto(random_permutation(11, 0), random_permutation(12, 1))
