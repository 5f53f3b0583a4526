"""Width replay and the budgeted decomposition builder."""

import random

import pytest

from permpat import (
    MergeSequence,
    PointSet,
    ValidationError,
    build_decomposition,
    build_decomposition_budget,
    canonical_grid,
    canonical_grid_decomposition,
    exact_width,
    first_violation,
    parse_merge_sequence,
    parse_permutation,
    random_permutation,
    random_separable,
    validate_merge_sequence,
    verify_wide,
    width_of_decomposition,
)


def test_canonical_grid_decomposition_2x2_frozen_steps():
    seq = canonical_grid_decomposition(2, 2)
    assert [tuple(s) for s in seq] == [(2, 1, 5), (4, 3, 6), (5, 6, 7)]


def test_canonical_grid_decomposition_width_is_exactly_r():
    for r in (2, 3, 4):
        perm = canonical_grid(r, r)
        seq = canonical_grid_decomposition(r, r)
        validate_merge_sequence(seq, len(perm), require_complete=True)
        assert width_of_decomposition(perm, seq) == r


def test_width_replay_frozen_example():
    perm = canonical_grid(2, 2)
    seq = canonical_grid_decomposition(2, 2)
    assert verify_wide(perm, seq, 2)
    assert not verify_wide(perm, seq, 1)
    assert first_violation(perm, seq, 2) is None
    assert first_violation(perm, seq, 1) == (1, 1)


def test_width_convention_for_tiny_inputs():
    assert width_of_decomposition(parse_permutation("1"), MergeSequence([])) == 1


def test_builder_on_worked_example():
    perm = parse_permutation("3 2 7 8 4 6 1 5")
    res = build_decomposition(perm, 2)
    assert not res.is_grid
    assert res.width_bound == 384
    validate_merge_sequence(res.seq, 8, require_complete=True)
    assert verify_wide(perm, res.seq, 384)


def test_builder_is_deterministic():
    perm = random_permutation(400, 3)
    a = build_decomposition(perm, 2)
    b = build_decomposition(perm, 2)
    assert [tuple(s) for s in a.seq] == [tuple(s) for s in b.seq]


def test_builder_trivial_and_error_inputs():
    res = build_decomposition(parse_permutation("1"), 2)
    assert not res.is_grid and len(res.seq) == 0
    with pytest.raises(ValidationError):
        build_decomposition_budget(parse_permutation("2 1"), 0)


def test_builder_validate_flag():
    perm = random_separable(300, 5)
    res = build_decomposition(perm, 2, validate=True)
    assert verify_wide(perm, res.seq, 384)


def test_builder_width_never_exceeds_budget_on_random_inputs():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 60)
        perm = random_permutation(n, rng.randrange(1 << 30))
        res = build_decomposition(perm, 2)
        assert not res.is_grid  # tiny inputs always complete
        assert width_of_decomposition(perm, res.seq) <= 384


def test_budget_variant_completes_with_generous_budget():
    perm = random_permutation(50, 8)
    out = build_decomposition_budget(perm, 100)
    assert isinstance(out, MergeSequence)
    assert verify_wide(perm, out, 100)


def test_budget_variant_dense_branch_returns_heavy_cells():
    perm = canonical_grid(5, 5)
    out = build_decomposition_budget(perm, 2)
    assert isinstance(out, PointSet)
    assert out.p + out.q > 2
    assert 4 * len(out) > 2 * (out.p + out.q - 2)
    again = build_decomposition_budget(perm, 2)
    assert out == again


def test_builder_output_beats_exhaustive_width_bound_never():
    # the builder can't do better than the true width
    rng = random.Random(37)
    for _ in range(10):
        n = rng.randint(2, 7)
        perm = random_permutation(n, rng.randrange(1 << 30))
        res = build_decomposition(perm, 2)
        assert width_of_decomposition(perm, res.seq) >= exact_width(perm)


def test_width_replay_rejects_foreign_sequence():
    perm = parse_permutation("2 1 3")
    with pytest.raises(ValidationError):
        width_of_decomposition(perm, parse_merge_sequence("1 5 6"))
