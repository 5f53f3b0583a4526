"""Visibility graphs and the decomposition-driven matcher."""

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
from helpers import random_merge_sequence
from permpat import (
    ValidationError,
    VisibilityGraph,
    brute_force_match,
    build_decomposition,
    canonical_grid,
    connected_sets,
    find_pattern,
    greedy_monotone_partition,
    match_auto,
    monotone_decomposition,
    parse_merge_sequence,
    parse_permutation,
    random_permutation,
    random_separable,
    verify_embedding,
    width_of_decomposition,
)


def test_initial_graph_is_edgeless():
    g = VisibilityGraph(parse_permutation("3 1 4 2"))
    assert len(g) == 4
    for v in range(1, 5):
        assert g.neighbors(v) == []


def test_merge_of_a_pair_leaves_one_isolated_vertex():
    g = VisibilityGraph(parse_permutation("1 2"))
    g.merge((1, 2, 3))
    assert len(g) == 1 and 3 in g and g.neighbors(3) == []


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
    assert g.neighbors(5) == [] and g.neighbors(6) == []
    g2 = VisibilityGraph(parse_permutation("2 1 3"))
    g2.merge((1, 3, 4))  # spans y 2..3, x 1..3 swallowing x of 2
    assert g2.neighbors(4) == [2] and g2.neighbors(2) == [4]


def test_neighbors_of_dead_rectangle_error():
    g = VisibilityGraph(parse_permutation("1 2"))
    g.merge((1, 2, 3))
    with pytest.raises(ValidationError):
        g.neighbors(1)


def test_connected_sets_on_a_path():
    # path 1 - 5 - 4: all connected sets through the center, smallest first
    g = VisibilityGraph(parse_permutation("2 1 4 3"))
    g.merge((2, 3, 5))
    assert g.neighbors(5) == [1, 4] and g.neighbors(1) == [5]
    assert connected_sets(g, 5, 2) == [(5,), (1, 5), (4, 5)]
    assert connected_sets(g, 5, 3) == [(5,), (1, 5), (4, 5), (1, 4, 5)]


def test_connected_sets_enumerates_each_set_once():
    perm = random_separable(40, 2)
    res = build_decomposition(perm, 2)
    g = VisibilityGraph(perm)
    seen_total = 0
    for step in res.seq:
        g.merge(step)
        sets = connected_sets(g, step.k, 3)
        assert len(sets) == len(set(sets))
        assert all(step.k in s for s in sets)
        assert sets == sorted(sets, key=lambda t: (len(t), t))
        seen_total += len(sets)
    assert seen_total > 0


def test_live_degrees_stay_bounded_during_replay():
    perm = random_separable(800, 4)
    res = build_decomposition(perm, 2)
    w = width_of_decomposition(perm, res.seq)
    g = VisibilityGraph(perm)
    for step in res.seq:
        g.merge(step)
        assert g.degree(step.k) <= 2 * (w - 1)


def test_find_pattern_worked_example():
    sigma = parse_permutation("1 3 2")
    pi = parse_permutation("3 2 1 5 6 7 4")
    seq = build_decomposition(pi, 2).seq
    emb = find_pattern(sigma, pi, seq)
    assert emb == {1: 3, 2: 6, 3: 7}
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


def test_component_split_instance_exercises_multiway_recombination():
    sigma = parse_permutation("3 1 2 4")
    pi = parse_permutation("7 8 1 10 3 4 6 2 9 5")
    seq = build_decomposition(pi, 2).seq
    stats = {}
    emb = find_pattern(sigma, pi, seq, stats=stats)
    assert (emb is None) == (brute_force_match(sigma, pi) is None)
    assert stats["max_components"] == 4
    assert stats["entries"] == 423


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
    got = find_pattern(sigma, pi, seq)
    assert (got is None) == (brute_force_match(sigma, pi) is None)
    if got is not None:
        assert verify_embedding(sigma, pi, got)


def test_witness_checks_survive_optimized_mode():
    # under ``python -O`` a failed witness check must still raise, on the
    # DP, on each of match_auto's three exits, on the 2SAT track, in the
    # grid finder, in the builder's invariant check and in the t-monotone
    # decomposition's pin bound
    script = textwrap.dedent("""
        import sys
        import permpat.decompose as dec
        import permpat.griddetect as gd
        import permpat.matcher as m
        import permpat.monotone as mono
        from permpat import (DecompositionResult, PointSet, brute_force_grid,
                             build_decomposition, canonical_grid, find_grid, find_pattern,
                             greedy_monotone_partition, match_auto, monotone_decomposition,
                             parse_permutation, poly_space_match)

        grid = canonical_grid(2, 2)
        witness = brute_force_grid(grid, 2)
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
        tall = PointSet(200, 201, [(x, y) for x in range(1, 201) for y in range(1, 202)])

        def grid_check(failing):
            gd.verify_grid = lambda target, w, r: target.p not in failing
            return find_grid(tall, 2)

        def invariants():
            # the builder's validate=True check, on a state with a wrong count
            state = dec._build_state(parse_permutation("2 1 3"), 384, validate=True)
            state.total = 99
            dec._check_invariants(state)

        def pin_bound():
            # every box counts as pinned, so the one-class target breaks the
            # 4 (t - 1) = 0 bound on the first pair
            mono._inside = lambda inner, outer, axis: True
            inc = parse_permutation("1 2 3 4")
            return monotone_decomposition(inc, greedy_monotone_partition(inc))
        print("optimize", sys.flags.optimize)
        for name, call in [("find_pattern", lambda: find_pattern(p12, pi, seq)),
                           ("single", lambda: match_auto(parse_permutation("1"), pi)),
                           ("sequence", lambda: match_auto(p12, pi)),
                           ("grid", lambda: grid_exit(p21, grid)),
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == [
        "optimize 1", "find_pattern raised", "single raised", "sequence raised", "grid raised",
        "poly_space_match raised", "find_grid raised", "find_grid transposed raised",
        "builder invariants raised", "monotone_decomposition raised"]


def test_match_auto_agrees_with_brute_force_on_random_instances():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 10)
        ell = rng.randint(1, 4)
        pi = random_permutation(n, rng.randrange(1 << 30))
        sigma = random_permutation(ell, rng.randrange(1 << 30))
        got = match_auto(sigma, pi)
        want = brute_force_match(sigma, pi)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_embedding(sigma, pi, got)


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
