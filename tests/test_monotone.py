"""Monotone partitions: greedy extraction, pin-guided merging, window-narrowing matching."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permpat.monotone
from helpers import (class_of, constraint_relations, format_monotone_partition, mid_point,
                     monotone_decomposition, random_t_monotone, reference_greedy_partition)
from permpat import (
    MonotonePartition,
    ParseError,
    Permutation,
    ValidationError,
    brute_force_match,
    greedy_monotone_partition,
    parse_monotone_partition,
    parse_permutation,
    poly_space_match,
    random_permutation,
    random_separable,
    t_monotone_match,
    validate_monotone_partition,
    verify_embedding,
    verify_wide,
    width_of_decomposition,
)
from permpat.core import reduce
from permpat.monotone import _longest_monotone, sigma_pi_embedding


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


def _least_longest_run(values, decreasing):
    # the first position set, in lexicographic order, of the largest size
    # whose values are monotone in the asked direction
    for k in range(len(values), 0, -1):
        for run in itertools.combinations(range(len(values)), k):
            ys = [values[i] for i in run]
            if all((a > b) if decreasing else (a < b) for a, b in zip(ys, ys[1:])):
                return list(run)


def test_longest_monotone_is_the_least_longest_run():
    rng = random.Random(5)
    words = [list(w) for n in range(1, 7) for w in itertools.permutations(range(1, n + 1))]
    words += [rng.sample(range(1, 40), n) for n in (7, 8, 9) for _ in range(150)]
    for values in words:
        for decreasing in (False, True):
            assert _longest_monotone(values, decreasing) == \
                _least_longest_run(values, decreasing), (values, decreasing)


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


def test_greedy_partition_matches_the_reference():
    # the monotone-remainder exit and the keep-mask strip change no class:
    # every permutation up to n = 7, random and separable targets, and
    # unions of two runs, whose last class the exit takes
    rng = random.Random(71)
    perms = [Permutation(w) for n in range(8) for w in itertools.permutations(range(1, n + 1))]
    for _ in range(150):
        n = rng.randint(1, 300)
        perms += [random_permutation(n, rng.randrange(1 << 30)),
                  random_separable(n, rng.randrange(1 << 30))]
    perms += [random_t_monotone(n, 2, rng)[0] for n in range(50, 2001, 50)]
    for pi in perms:
        assert greedy_monotone_partition(pi).classes == reference_greedy_partition(pi).classes, pi.word


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
    with pytest.raises(ValidationError, match="nonempty"):
        sigma_pi_embedding(Permutation([]), {}, pi, part)
    with pytest.raises(ValidationError):  # the partition names a label pi lacks
        sigma_pi_embedding(parse_permutation("1"), {1: 1}, pi, MonotonePartition((((1, 3), "dec"),)))


def _first_class_respecting_images(sigma, assign, pi, part):
    # exhaustive: the first images, in itertools.combinations order, each
    # in its label's class and with values ordered as the pattern's
    cls = class_of(part)
    by_value = sorted(range(len(sigma)), key=lambda i: sigma.word[i])
    for images in itertools.combinations(range(1, len(pi) + 1), len(sigma)):
        if all(cls[p] == assign[s] for s, p in enumerate(images, 1)) and \
                sorted(range(len(sigma)), key=lambda i: pi.word[images[i] - 1]) == by_value:
            return images
    return None


def _first_over_commitments(sigma, pi, part):
    # the least class-respecting embedding of the first commitment, in
    # base-t order with label 1 most significant, that has one
    for classes in itertools.product(range(1, part.t + 1), repeat=len(sigma)):
        images = _first_class_respecting_images(sigma, dict(enumerate(classes, 1)), pi, part)
        if images is not None:
            return dict(enumerate(images, 1))
    return None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 1 << 32))
def test_sigma_pi_embedding_matches_exhaustive_class_respecting_search(seed):
    # the narrowing search returns exactly the least class-respecting
    # embedding, and None only when there is none.  The pattern is random
    # or planted at random images, and the assignment random or the
    # classes of those images, so both outcomes are common.
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    pi, part = random_t_monotone(n, rng.randint(1, min(3, n)), rng)
    ell = rng.randint(2, min(4, n))  # a single label meets no constraint
    images = sorted(rng.sample(range(1, n + 1), ell))
    cls = class_of(part)
    if rng.random() < 0.5:
        sigma = reduce((p, pi.word[p - 1]) for p in images)
    else:
        sigma = random_permutation(ell, rng.randrange(1 << 30))
    if rng.random() < 0.5:
        assign = {s: cls[p] for s, p in enumerate(images, 1)}
    else:
        assign = {s: rng.randint(1, part.t) for s in range(1, ell + 1)}
    got = sigma_pi_embedding(sigma, assign, pi, part)
    images = _first_class_respecting_images(sigma, assign, pi, part)
    if images is None:
        assert got is None
    else:
        assert got == dict(enumerate(images, 1))
        assert verify_embedding(sigma, pi, got)
        assert all(cls[got[s]] == assign[s] for s in got)
    # the search tries the commitments in base-t order, label 1 most
    # significant, and returns the least embedding of the first that has one
    assert t_monotone_match(sigma, pi, part) == _first_over_commitments(sigma, pi, part)


@pytest.mark.parametrize("word, classes", [
    # a label's low-end trial fails narrowing
    ("14 12 13 11 4 1 10 9 3 5 6 7 8 2",
     (((9, 11, 12, 13), "inc"), ((3, 5, 6), "dec"), ((1, 2, 4, 7, 8, 10, 14), "dec"))),
    # and here a trial of the binary search that follows fails too
    ("24 2 17 15 23 3 12 10 6 22 19 8 5 4 1 14 9 13 11 16 7 18 20 21",
     (((1, 3, 4, 7, 8, 12, 13, 14, 15), "dec"), ((2, 6, 9, 17, 20, 22, 23, 24), "inc"),
      ((5, 10, 11, 16, 18, 19, 21), "dec"))),
], ids=["low-end-miss", "search-miss"])
def test_least_positions_reach_the_binary_search(word, classes):
    # the least positions usually come from one trial at each window's low
    # end; on these instances the binary search must find them
    pi, part, sigma = parse_permutation(word), MonotonePartition(classes), parse_permutation("1 3 2")
    want = _first_over_commitments(sigma, pi, part)
    assert want is not None and t_monotone_match(sigma, pi, part) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(3, 12), st.integers(0, 1 << 30),
       st.integers(1, 5).flatmap(lambda ell: st.permutations(range(1, ell + 1))).map(Permutation))
def test_t_monotone_match_agrees_with_brute_force_on_three_classes(n, seed, sigma):
    # three classes give prefixes that the bounds can prune
    pi, part = random_t_monotone(n, 3, random.Random(seed))
    got = t_monotone_match(sigma, pi, part)
    assert (got is None) == (brute_force_match(sigma, pi) is None)
    if got is not None:
        assert verify_embedding(sigma, pi, got)


def test_match_stats_count_pruned_prefixes_refuted_leaves_and_solves():
    # 2413 is absent from separable targets: every leaf the prefix bounds
    # let through is refuted at the leaf.  The exact counts pin how much
    # the narrowing prunes: less pruning or too much changes them.
    for n, seed, want in ((30, 1, {"leaves": 75, "pruned": 33, "refuted": 75, "solves": 0}),
                          (480, 2, {"leaves": 27894, "pruned": 5469, "refuted": 27894, "solves": 0})):
        stats = {}
        assert poly_space_match(parse_permutation("2 4 1 3"), random_separable(n, seed), stats=stats) is None
        assert stats == want
    # a present pattern ends at its first successful solve
    pi = parse_permutation("3 2 1 5 6 7 4")
    part = MonotonePartition((((1, 2, 3), "dec"), ((4, 5, 6), "inc"), ((7,), "inc")))
    stats = {}
    assert t_monotone_match(parse_permutation("1 3 2"), pi, part, stats=stats) is not None
    assert stats == {"leaves": 1, "pruned": 0, "refuted": 0, "solves": 1}
    # longer than the target: nothing is enumerated
    stats = {}
    assert t_monotone_match(parse_permutation("1 2 3"), parse_permutation("1 2"),
                            MonotonePartition((((1, 2), "inc"),)), stats=stats) is None
    assert stats == {"leaves": 0, "pruned": 0, "refuted": 0, "solves": 0}


def test_poly_space_match_checks_the_pattern_before_partitioning(monkeypatch):
    def refuse(pi):
        raise AssertionError("the target was partitioned")
    monkeypatch.setattr(permpat.monotone, "greedy_monotone_partition", refuse)
    with pytest.raises(ValidationError, match="nonempty"):
        poly_space_match(Permutation([]), parse_permutation("2 1"))
    stats = {}
    assert poly_space_match(parse_permutation("1 2 3"), parse_permutation("2 1"), stats=stats) is None
    assert stats == {"leaves": 0, "pruned": 0, "refuted": 0, "solves": 0}
    assert poly_space_match(parse_permutation("1 2 3"), parse_permutation("2 1")) is None


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


def _two_runs(n, rng, increasing_only=False):
    # a union of two monotone runs, as the benchmark's polyspace targets
    while True:
        pi, part = random_t_monotone(n, 2, rng)
        if not increasing_only or all(d == "inc" for _, d in part.classes):
            return pi, part


def _planted(pi, ell, rng):
    positions = sorted(rng.sample(range(1, len(pi) + 1), ell))
    return reduce((p, pi.word[p - 1]) for p in positions)


def _line(emb):
    return "-" if emb is None else " ".join(str(emb[s]) for s in sorted(emb))


def _match_outputs():
    # the benchmark's polyspace query shapes at smaller n: planted 5-, 4-
    # and 6-patterns in two runs, 3 2 1 in two increasing runs (absent),
    # and 2413 / 3142 in separable targets (absent)
    rng = random.Random(61)
    lines = []
    for r in range(6):
        for ell in (5, 4 if r % 2 else 6):
            pi, _ = _two_runs(300, rng)
            lines.append(_line(poly_space_match(_planted(pi, ell, rng), pi)))
        pi, _ = _two_runs(150, rng, increasing_only=True)
        lines.append(_line(poly_space_match(parse_permutation("3 2 1"), pi)))
        pattern = "2 4 1 3" if r % 2 else "3 1 4 2"
        lines.append(_line(poly_space_match(parse_permutation(pattern), random_separable(30, r))))
    # small uniform targets, and small t-monotone targets under both
    # their witnessing partition and the greedy one
    for _ in range(220):
        n = rng.randint(1, 12)
        ell = rng.randint(1, min(5, n))
        sigma = random_permutation(ell, rng.randrange(1 << 30))
        lines.append(_line(poly_space_match(sigma, random_permutation(n, rng.randrange(1 << 30)))))
        pi, part = random_t_monotone(n, rng.randint(1, min(3, n)), rng)
        lines.append(_line(t_monotone_match(sigma, pi, part)))
        lines.append(_line(poly_space_match(sigma, pi)))
    return lines


def test_match_outputs_are_pinned():
    # the first embedding each matcher returns, over every class
    # commitment it tries in order, on a fixed set of queries.  Which
    # queries find an embedding is pinned apart from the embeddings, so a
    # change of the embedding chosen can never hide a change of the answer.
    lines = _match_outputs()
    assert len(lines) == 684 and sum(line != "-" for line in lines) > 300
    found = "\n".join("-" if line == "-" else "+" for line in lines)
    assert hashlib.sha1(found.encode()).hexdigest() == \
        "787093e2b96369b74e5e3554a8b317a80ff9b042"
    assert hashlib.sha1("\n".join(lines).encode()).hexdigest() == \
        "31eeabe43e0277eecd4f970b895074f7b7b3a06f"
