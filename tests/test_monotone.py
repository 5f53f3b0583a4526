"""Monotone partitions: greedy extraction, pin-guided merging, 2SAT matching."""

import math
import random

import pytest

from helpers import random_t_monotone
from permpat import (
    MonotonePartition,
    ParseError,
    ValidationError,
    brute_force_match,
    format_monotone_partition,
    greedy_monotone_partition,
    monotone_decomposition,
    parse_monotone_partition,
    parse_permutation,
    poly_space_match,
    random_permutation,
    sigma_pi_embedding,
    t_monotone_match,
    validate_monotone_partition,
    verify_embedding,
    verify_wide,
    width_of_decomposition,
)
from permpat.monotone import _TwoSat, constraint_relations, mid_point


def test_partition_text_round_trip():
    part = MonotonePartition((((1, 2, 3), "dec"), ((4, 5, 6), "inc"), ((7,), "inc")))
    text = format_monotone_partition(part)
    assert parse_monotone_partition(text) == part
    assert parse_monotone_partition("# c\n\ninc: 2 1\n") == MonotonePartition((((1, 2), "inc"),))


def test_partition_parse_errors():
    with pytest.raises(ParseError):
        parse_monotone_partition("")
    with pytest.raises(ParseError):
        parse_monotone_partition("sideways: 1 2")
    with pytest.raises(ParseError):
        parse_monotone_partition("inc:")
    with pytest.raises(ParseError):
        parse_monotone_partition("inc: a b")


def test_partition_validation_names_the_offending_class():
    pi = parse_permutation("2 1 4 3")
    validate_monotone_partition(pi, MonotonePartition((((1, 3), "inc"), ((2, 4), "inc"))))
    with pytest.raises(ValidationError, match="class 2"):
        validate_monotone_partition(pi, MonotonePartition((((1, 3), "inc"), ((2, 4), "dec"))))
    with pytest.raises(ValidationError, match="partition"):
        validate_monotone_partition(pi, MonotonePartition((((1, 3), "inc"),)))
    with pytest.raises(ValidationError):
        validate_monotone_partition(pi, MonotonePartition((((1, 9), "inc"), ((2, 3, 4), "inc"))))


def test_greedy_partition_frozen_small_case():
    # two longest runs tie at length 2; increasing wins with the
    # lexicographically least positions {1, 3}
    part = greedy_monotone_partition(parse_permutation("2 1 4 3"))
    assert part.classes == (((1, 3), "inc"), ((2, 4), "inc"))


def test_greedy_partition_monotone_input_single_class():
    part = greedy_monotone_partition(parse_permutation("5 4 3 2 1"))
    assert part.classes == (((1, 2, 3, 4, 5), "dec"),)


def test_greedy_partition_is_valid_and_bounded():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 60)
        pi = random_permutation(n, rng.randrange(1 << 30))
        part = greedy_monotone_partition(pi)
        validate_monotone_partition(pi, part)
        assert part.t <= 2 * math.ceil(math.sqrt(n))


def test_monotone_decomposition_single_increasing_class():
    pi = parse_permutation("1 2 3 4 5")
    part = MonotonePartition((((1, 2, 3, 4, 5), "inc"),))
    seq = monotone_decomposition(pi, part, validate=True)
    assert width_of_decomposition(pi, seq) == 1


def test_monotone_decomposition_two_classes_within_bound():
    pi = parse_permutation("2 1 4 3")
    part = MonotonePartition((((1, 3), "inc"), ((2, 4), "inc")))
    seq = monotone_decomposition(pi, part, validate=True)
    assert len(seq) == 3
    assert verify_wide(pi, seq, 6 * 2 - 5)


def test_monotone_decomposition_respects_6t_minus_5_on_random_instances():
    rng = random.Random(19)
    for trial in range(80):
        n = rng.randint(1, 14)
        t = rng.randint(1, min(3, n))
        pi, part = random_t_monotone(n, t, rng)
        seq = monotone_decomposition(pi, part, validate=(trial % 10 == 0))
        assert verify_wide(pi, seq, 6 * part.t - 5)


def test_monotone_decomposition_rejects_bad_partition():
    pi = parse_permutation("2 1 4 3")
    with pytest.raises(ValidationError):
        monotone_decomposition(pi, MonotonePartition((((1, 2), "inc"), ((3, 4), "dec"))))


def test_two_sat_solves_and_detects_conflicts():
    ts = _TwoSat(2)
    ts.imply(0, 2)  # v0 -> v1
    ts.unit(0)      # v0
    values = ts.solve()
    assert values == [True, True]
    ts = _TwoSat(1)
    ts.unit(0)
    ts.unit(1)
    assert ts.solve() is None


def test_sigma_pi_embedding_worked_example():
    # cross-class descent: present exactly because the two increasing
    # classes interleave
    pi = parse_permutation("2 1 4 3")
    part = MonotonePartition((((2, 3), "inc"), ((1, 4), "inc")))
    sigma = parse_permutation("2 1")
    emb = sigma_pi_embedding(sigma, {1: 1, 2: 2}, pi, part)
    assert emb is not None and verify_embedding(sigma, pi, emb)
    assert emb[1] in (2, 3) and emb[2] in (1, 4)


def test_sigma_pi_embedding_direction_and_size_filters():
    pi = parse_permutation("1 2 3 4")
    part = MonotonePartition((((1, 2), "inc"), ((3, 4), "inc")))
    sigma = parse_permutation("2 1")
    assert sigma_pi_embedding(sigma, {1: 1, 2: 1}, pi, part) is None  # direction
    three = parse_permutation("1 2 3")
    assert sigma_pi_embedding(three, {1: 1, 2: 1, 3: 1}, pi, part) is None  # pigeonhole


def test_sigma_pi_embedding_validates_assignment():
    pi = parse_permutation("2 1")
    part = MonotonePartition((((1, 2), "dec"),))
    with pytest.raises(ValidationError):
        sigma_pi_embedding(parse_permutation("1"), {1: 2}, pi, part)
    with pytest.raises(ValidationError):
        sigma_pi_embedding(parse_permutation("2 1"), {1: 1}, pi, part)


def test_sigma_pi_embedding_matches_exhaustive_class_respecting_search():
    rng = random.Random(29)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 9)
        t = rng.randint(1, min(3, n))
        pi, part = random_t_monotone(n, t, rng)
        ell = rng.randint(1, min(3, n))
        sigma = random_permutation(ell, rng.randrange(1 << 30))
        assign = {s: rng.randint(1, t) for s in range(1, ell + 1)}
        got = sigma_pi_embedding(sigma, assign, pi, part)
        # reference: filter brute-force embeddings by class membership
        cls = part.class_of()
        want = None
        import itertools

        for images in itertools.permutations(range(1, n + 1), ell):
            emb = dict(enumerate(images, 1))
            if all(cls[emb[s]] == assign[s] for s in emb):
                try:
                    ok = verify_embedding(sigma, pi, emb)
                except ValidationError:
                    ok = False
                if ok:
                    want = emb
                    break
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_embedding(sigma, pi, got)
            assert all(cls[got[s]] == assign[s] for s in got)
            checked += 1
    assert checked > 5


def test_t_monotone_match_worked_examples():
    pi = parse_permutation("3 2 1 5 6 7 4")
    part = MonotonePartition((((1, 2, 3), "dec"), ((4, 5, 6), "inc"), ((7,), "inc")))
    emb = t_monotone_match(parse_permutation("1 3 2"), pi, part)
    assert emb is not None and verify_embedding(parse_permutation("1 3 2"), pi, emb)
    assert t_monotone_match(parse_permutation("4 3 2 1"), pi, part) is None
    assert t_monotone_match(parse_permutation("1"), pi, part) is not None


def test_t_monotone_match_agrees_with_brute_force():
    rng = random.Random(43)
    for _ in range(150):
        n = rng.randint(1, 12)
        t = rng.randint(1, min(3, n))
        pi, part = random_t_monotone(n, t, rng)
        sigma = random_permutation(rng.randint(1, 4), rng.randrange(1 << 30))
        got = t_monotone_match(sigma, pi, part)
        want = brute_force_match(sigma, pi)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_embedding(sigma, pi, got)


def test_poly_space_match_agrees_with_brute_force():
    rng = random.Random(47)
    for _ in range(80):
        n = rng.randint(1, 11)
        pi = random_permutation(n, rng.randrange(1 << 30))
        sigma = random_permutation(rng.randint(1, 4), rng.randrange(1 << 30))
        got = poly_space_match(sigma, pi)
        want = brute_force_match(sigma, pi)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_embedding(sigma, pi, got)


def test_constraint_members_follow_the_axis_order():
    pi = parse_permutation("2 1 4 3")
    part = MonotonePartition((((2, 3), "inc"), ((1, 4), "inc")))
    sigma = parse_permutation("2 1")
    rels = list(constraint_relations(sigma, {1: 1, 2: 2}, pi, part))
    assert len(rels) == 2  # one per axis for the single pair
    for x, y, alpha, members in rels:
        rank = (lambda l: l) if alpha == 1 else (lambda l: pi.word[l - 1])
        assert all(rank(a) < rank(b) for a, b in members)


def test_in_class_medians_coincide_on_both_axes():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(3, 10)
        t = rng.randint(1, 3)
        pi, part = random_t_monotone(n, min(t, n), rng)
        for members, _ in part.classes:
            if len(members) < 3:
                continue
            for triple in [rng.sample(members, 3) for _ in range(5)]:
                assert mid_point(pi, 1, *triple) == mid_point(pi, 2, *triple)
