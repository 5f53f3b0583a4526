"""Brute-force ground truth: matcher, exact width, close pairs, trees."""

import random

import pytest

import permpat.oracle
from helpers import (
    check_tree_characterization,
    find_close_pair,
    is_separable,
    random_merge_sequence,
    substitute,
)
from permpat import (
    SizeCapError,
    brute_force_grid,
    brute_force_match,
    canonical_grid,
    exact_width,
    grid_search,
    parse_merge_sequence,
    parse_permutation,
    random_permutation,
    verify_embedding,
    verify_grid,
    verify_wide,
)
from permpat.core import reduce


def test_brute_force_match_examples():
    pi = parse_permutation("3 2 1 5 6 7 4")
    emb = brute_force_match(parse_permutation("1 3 2"), pi)
    assert emb is not None and verify_embedding(parse_permutation("1 3 2"), pi, emb)
    assert brute_force_match(parse_permutation("4 3 2 1"), pi) is None
    assert brute_force_match(pi, pi) == {l: l for l in range(1, len(pi) + 1)}


def test_brute_force_match_is_lexicographically_least():
    # by pattern-label order, then target x-coordinate
    assert brute_force_match(parse_permutation("1 2"), parse_permutation("1 2 3")) == {1: 1, 2: 2}
    assert brute_force_match(parse_permutation("1"), parse_permutation("2 3 1")) == {1: 1}


def test_brute_force_match_longer_pattern_absent():
    assert brute_force_match(parse_permutation("1 2"), parse_permutation("1")) is None


def test_exact_width_frozen_values():
    assert exact_width(parse_permutation("1")) == 1
    assert exact_width(parse_permutation("1 2 3")) == 1
    assert exact_width(parse_permutation("3 1 4 2")) == 2
    assert exact_width(canonical_grid(3, 3)) == 3


def test_exact_width_size_cap():
    with pytest.raises(SizeCapError):
        exact_width(random_permutation(10, 0))


def test_find_close_pair_examples():
    assert find_close_pair(parse_permutation("3 1 4 2"), 1) is None
    assert find_close_pair(canonical_grid(3, 3), 2) is None
    pair = find_close_pair(parse_permutation("1 2"), 1)
    assert pair is not None and set(pair) == {1, 2}


def test_close_pair_deterministic_scan_order():
    perm = parse_permutation("1 2 3")
    assert find_close_pair(perm, 1) == find_close_pair(perm, 1)


def test_check_tree_characterization_examples():
    perm = canonical_grid(2, 2)
    seq = parse_merge_sequence("2 1 5\n4 3 6\n5 6 7")
    assert check_tree_characterization(perm, seq, 2)
    assert not check_tree_characterization(perm, seq, 1)
    two = parse_permutation("1 2")
    assert check_tree_characterization(two, parse_merge_sequence("1 2 3"), 1)


def test_tree_characterization_matches_replay_on_random_instances():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 6)
        perm = random_permutation(n, rng.randrange(1 << 30))
        seq = random_merge_sequence(n, rng)
        for d in range(1, n + 1):
            assert check_tree_characterization(perm, seq, d) == verify_wide(perm, seq, d)


def test_brute_force_grid_examples():
    w = brute_force_grid(canonical_grid(2, 2), 2)
    assert w is not None and verify_grid(canonical_grid(2, 2), w, 2)
    assert brute_force_grid(parse_permutation("1 2 3 4"), 2) is None
    for line in ["1", "2 1 3"]:
        assert brute_force_grid(parse_permutation(line), 1) is not None


def test_grid_search_with_fewer_points_than_cells_enumerates_no_cuts(monkeypatch):
    def spy(*args):
        raise AssertionError("combinations called")

    monkeypatch.setattr(permpat.oracle, "combinations", spy)
    for r in (5, 6):
        assert brute_force_grid(random_permutation(16, 1), r) is None
    assert grid_search([(1, 1), (2, 3), (3, 2)], 2) is None


def test_grid_search_agrees_with_permutation_wrapper():
    rng = random.Random(9)
    for _ in range(40):
        perm = random_permutation(rng.randint(1, 8), rng.randrange(1 << 30))
        a = brute_force_grid(perm, 2)
        b = grid_search(perm.points, 2)
        assert (a is None) == (b is None)


def test_is_separable_examples():
    assert not is_separable(parse_permutation("3 1 4 2"))
    assert not is_separable(parse_permutation("2 4 1 3"))
    assert is_separable(parse_permutation("1 2 3"))
    assert is_separable(substitute(parse_permutation("2 1"), 1, parse_permutation("1 2")))


def test_subwidth_monotone_under_deletion_sampled():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 7)
        perm = random_permutation(n, rng.randrange(1 << 30))
        w = exact_width(perm)
        for lab in range(1, n + 1):
            sub = reduce(p for p in perm.points if p.x != lab)
            assert exact_width(sub) <= w


def test_close_pair_exists_whenever_width_small_sampled():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(2, 7)
        perm = random_permutation(n, rng.randrange(1 << 30))
        w = exact_width(perm)
        for d in range(w, n + 1):
            assert find_close_pair(perm, d) is not None
