"""Core types, text formats, and combinatorial constructions."""

import importlib
import inspect
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permpat
from helpers import is_separable, parse_embedding, parse_grid_witness, substitute
from permpat import (
    Columns,
    GridWitness,
    MergeSequence,
    ParseError,
    Permutation,
    Point,
    ValidationError,
    canonical_grid,
    format_embedding,
    format_merge_sequence,
    parse_merge_sequence,
    parse_permutation,
    random_permutation,
    random_separable,
    validate_merge_sequence,
    verify_embedding,
    verify_grid,
)
from permpat.core import reduce
from permpat.griddetect import PointSet


def test_parse_one_line():
    perm = parse_permutation("3 1 4 2")
    assert perm.word == (3, 1, 4, 2)
    assert perm == Permutation([3, 1, 4, 2])
    assert perm.points == (Point(1, 3), Point(2, 1), Point(3, 4), Point(4, 2))
    assert perm.one_line() == "3 1 4 2"


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_permutation("")
    with pytest.raises(ParseError):
        parse_permutation("1 2 x")
    with pytest.raises(ParseError):
        parse_permutation("1 1 2")
    with pytest.raises(ParseError):
        parse_permutation("1 3")  # not a bijection onto 1..n


def test_format_round_trip_examples():
    for line in ["1", "2 1", "3 1 4 2", "3 2 1 5 6 7 4"]:
        assert parse_permutation(line).one_line() == line


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(1, 9))))
def test_format_round_trip_property(values):
    line = " ".join(str(v) for v in values)
    assert parse_permutation(line).one_line() == line


def test_reduce_to_canonical_form():
    red = reduce([Point(7, 30), Point(2, 14), Point(5, 9)])
    assert red.one_line() == "2 1 3"
    for pts in ([(1, 1), (1, 2)], [(1, 1), (2, 1)]):
        with pytest.raises(ValidationError):
            reduce(pts)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)),
    st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n, unique=True),
    st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n, unique=True),
    st.randoms(use_true_random=False))))
def test_reduce_reads_the_word_in_x_order(case):
    # word placed on spread coordinates, in any order: reduce gives it back
    word, xs, ys, rng = case
    xs, ys = sorted(xs), sorted(ys)
    pts = [Point(x, ys[v - 1]) for x, v in zip(xs, word)]
    rng.shuffle(pts)
    perm = reduce(pts)
    assert perm.word == tuple(word)
    assert reduce(perm.points) == perm


def test_permutation_rejects_words_that_are_not_permutations():
    assert Permutation([2, 3, 1]).word == (2, 3, 1)
    assert len(Permutation([])) == 0
    for word in ([0, 1, 2], [1, 2, 4], [1, 2, 2], [1, 2.0, 3], [1, "2", 3], [True]):
        with pytest.raises(ValidationError):
            Permutation(word)


def test_verify_embedding_accepts_and_rejects():
    sigma = parse_permutation("1 3 2")
    pi = parse_permutation("3 2 1 5 6 7 4")
    assert verify_embedding(sigma, pi, {1: 3, 2: 6, 3: 7})
    assert not verify_embedding(sigma, pi, {1: 3, 2: 7, 3: 6})  # order broken
    assert not verify_embedding(sigma, pi, {1: 3, 2: 3, 3: 6})  # not injective
    with pytest.raises(ValidationError):
        verify_embedding(sigma, pi, {1: 3, 2: 6})  # not total


def test_embedding_format_round_trip():
    emb = {1: 3, 2: 6, 3: 7}
    assert parse_embedding(format_embedding(emb)) == emb


def test_canonical_grid_2x2_is_3142():
    assert canonical_grid(2, 2).one_line() == "3 1 4 2"


def test_canonical_grid_3x3_frozen():
    assert canonical_grid(3, 3).one_line() == "7 4 1 8 5 2 9 6 3"


def test_canonical_grid_placement_formula():
    r, s = 3, 2
    perm = canonical_grid(r, s)
    for i in range(1, s + 1):
        for j in range(1, r + 1):
            x = (j - 1) * s + (s - i + 1)
            assert perm.word[x - 1] == (i - 1) * r + j


def test_canonical_grid_carries_its_own_gridding():
    from permpat import brute_force_grid

    for r in (2, 3):
        w = brute_force_grid(canonical_grid(r, r), r)
        assert w is not None
        assert verify_grid(canonical_grid(r, r), w, r)


def test_substitute_monotone_blocks():
    # blowing up a point of an increasing pair stays separable
    out = substitute(parse_permutation("2 1"), 1, parse_permutation("1 2"))
    assert len(out) == 3
    assert is_separable(out)
    with pytest.raises(ValidationError):
        substitute(parse_permutation("2 1"), 9, parse_permutation("1"))


def test_substitute_preserves_outer_orders():
    out = substitute(parse_permutation("2 4 1 3"), 2, parse_permutation("2 1"))
    assert out.one_line() == "2 5 4 1 3"


def test_random_permutation_deterministic():
    a = random_permutation(30, 7)
    b = random_permutation(30, 7)
    assert a.one_line() == b.one_line()
    assert random_permutation(30, 8).one_line() != a.one_line()


def test_random_separable_is_separable():
    for seed in range(12):
        perm = random_separable(10, seed)
        assert len(perm) == 10
        assert is_separable(perm)
    assert random_separable(40, 3).one_line() == random_separable(40, 3).one_line()
    assert random_separable(1, 0).one_line() == "1"
    with pytest.raises(ValidationError):
        random_separable(0, 1)


def test_merge_sequence_parse_format_round_trip():
    text = "2 1 5\n4 3 6\n5 6 7"
    seq = parse_merge_sequence(text)
    assert [tuple(s) for s in seq] == [(2, 1, 5), (4, 3, 6), (5, 6, 7)]
    assert format_merge_sequence(seq) == text
    assert parse_merge_sequence("# comment\n\n2 1 5") is not None


def test_validate_merge_sequence_errors():
    validate_merge_sequence(parse_merge_sequence("2 1 5\n4 3 6\n5 6 7"), 4, require_complete=True)
    with pytest.raises(ValidationError):
        validate_merge_sequence(parse_merge_sequence("1 2 6"), 4)  # wrong fresh index
    with pytest.raises(ValidationError):
        validate_merge_sequence(parse_merge_sequence("1 2 5\n1 3 6"), 4)  # 1 is dead
    with pytest.raises(ValidationError):
        validate_merge_sequence(parse_merge_sequence("1 2 5"), 4, require_complete=True)
    with pytest.raises(ValidationError):
        validate_merge_sequence(parse_merge_sequence("1 1 5"), 4)
    # indices outside the live range 1 .. k - 1, each named in its message
    for text, message in [
            ("1 0 5", "step 1 (1, 0, 5): index 0 is not alive"),
            ("-1 2 5", "step 1 (-1, 2, 5): index -1 is not alive"),
            ("1 2 5\n5 -4 6", "step 2 (5, -4, 6): index -4 is not alive"),
            ("1 2 5\n6 3 6", "step 2 (6, 3, 6): index 6 is not alive"),
            ("1 2 5\n3 9 6", "step 2 (3, 9, 6): index 9 is not alive"),
            ("1 2 5\n3 4 7", "step 2 (3, 4, 7): new index must be 6 "
                             "(originals 1..4, steps numbered upward)")]:
        with pytest.raises(ValidationError) as err:
            validate_merge_sequence(parse_merge_sequence(text), 4)
        assert str(err.value) == message


def test_verify_grid_canonical_and_negative():
    from permpat import GridWitness

    perm = canonical_grid(2, 2)
    w = GridWitness([2], [2], [[Point(2, 1), Point(4, 2)], [Point(1, 3), Point(3, 4)]])
    assert verify_grid(perm, w, 2)
    bad = GridWitness([3], [2], [[Point(2, 1), Point(4, 2)], [Point(1, 3), Point(3, 4)]])
    assert not verify_grid(perm, bad, 2)
    # (1, 1) lies inside its cell but is no point of the target
    off = GridWitness([2], [2], [[Point(1, 1), Point(4, 2)], [Point(1, 3), Point(3, 4)]])
    assert not verify_grid(perm, off, 2)
    cells = Columns.of(PointSet(4, 4, perm.points))
    assert verify_grid(cells, w, 2)
    assert not verify_grid(cells, off, 2)
    # a permutation answers by one word lookup: a witness outside 1..n or
    # at another height is no point of it (x = 0 must not read word[-1]).
    # Columns answer by one membership test: x = 0, x = p + 1, y = 0 and
    # y = q + 1 are no points of them (x = 0 must not read cols[-1])
    # (each stray witness lies inside its cell)
    top = [Point(1, 3), Point(3, 4)]
    for target, rows in [(perm, [[Point(0, 2), Point(4, 2)], top]),
                         (perm, [[Point(2, 1), Point(5, 1)], top]),
                         (perm, [[Point(2, 1), Point(4, 1)], top]),
                         (cells, [[Point(0, 2), Point(4, 2)], top]),
                         (cells, [[Point(2, 1), Point(5, 1)], top]),
                         (cells, [[Point(2, 0), Point(4, 2)], top]),
                         (cells, [[Point(2, 1), Point(4, 2)], [Point(1, 5), Point(3, 4)]])]:
        stray = GridWitness([2], [2], rows)
        assert not verify_grid(target, stray, 2)


def test_parse_grid_witness_raises_parse_error_on_malformed_text():
    good = "cols: 2\nrows: 2\n2 1\n4 2\n1 3\n3 4\n"
    assert verify_grid(canonical_grid(2, 2), parse_grid_witness(good), 2)
    for bad in ["cols: 2\nrows: 2\n2 1\n4 2\n1 3\n",        # three of four witnesses
                "cols: x\nrows: 2\n2 1\n4 2\n1 3\n3 4\n",   # non-integer cut
                "cols: 2\nrows: 2\n2 1\n4 2 7\n1 3\n3 4\n",  # three fields
                "cols: 2\nrows: 2\n2 x\n4 2\n1 3\n3 4\n"]:  # non-integer coordinate
        with pytest.raises(ParseError):
            parse_grid_witness(bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2 ** 30))
def test_random_separable_avoids_obstructions(n, seed):
    from permpat import brute_force_match

    perm = random_separable(n, seed)
    assert brute_force_match(parse_permutation("2 4 1 3"), perm) is None
    assert brute_force_match(parse_permutation("3 1 4 2"), perm) is None


def test_all_lists_exactly_the_public_names():
    names = permpat.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(permpat, name)] == []
    star: dict = {}
    exec("from permpat import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(names)
    # and nothing the package imports for its users is left out of the list
    public = {name for name, value in vars(permpat).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(names) - {"__version__"}
    assert set(names) == {
        "Columns", "DecompositionResult", "Embedding", "GridWitness", "MergeSequence",
        "MonotonePartition", "ParseError", "Permutation", "Point",
        "SizeCapError", "ValidationError", "brute_force_grid", "brute_force_match",
        "build_decomposition", "canonical_grid", "exact_width", "f_bound", "find_grid",
        "find_pattern", "first_violation", "format_embedding", "format_grid_witness",
        "format_merge_sequence", "greedy_monotone_partition",
        "grid_search", "match_auto", "parse_merge_sequence", "parse_monotone_partition",
        "parse_permutation", "poly_space_match", "random_permutation",
        "random_separable", "t_monotone_match", "validate_merge_sequence",
        "validate_monotone_partition", "verify_embedding", "verify_grid", "verify_wide",
        "width_of_decomposition", "__version__"}
    assert len(names) == 40
    # the internal steps of one layer, and the CLI's point-set file form,
    # stay importable from their modules
    for module, attr in [("core", "reduce"),
                         ("griddetect", "find_grid_or_reduce"), ("griddetect", "PointSet"),
                         ("griddetect", "parse_point_set"), ("griddetect", "format_point_set"),
                         ("matcher", "connected_sets"),
                         ("matcher", "VisibilityGraph"), ("monotone", "sigma_pi_embedding"),
                         ("monotone", "PatternAssignment")]:
        assert attr not in names
        assert hasattr(importlib.import_module("permpat." + module), attr), (module, attr)


def _entry_point_names(readme: str):
    """The names in the first column of the README's "Selected entry
    points" table: each backticked call or name, without its arguments."""
    table = readme.split("Selected entry points", 1)[1].split("\n\n", 2)[1]
    for row in table.splitlines()[2:]:
        for span in re.findall(r"`([^`]*)`", row.split("|")[1]):
            yield re.match(r"[\w.]+", span).group()


def test_readme_entry_points_resolve():
    # a plain name is importable from permpat; a dotted one from the
    # module its row spells out (permpat.<module>.<name>), or as an
    # attribute of a permpat name (Columns.of)
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = list(_entry_point_names(readme))
    assert len(names) > 15 and "match_auto" in names, names
    missing = []
    for name in names:
        head, *rest = name.split(".")
        if head == "permpat":
            obj, rest = importlib.import_module("permpat." + rest[0]), rest[1:]
        else:
            obj = getattr(permpat, head, None)
        for attr in rest:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize("make", [
    lambda: MergeSequence([(1, 2, 3.9)]),
    lambda: MergeSequence([(True, 2, 3)]),
    lambda: MergeSequence([(1, 2)]),
    lambda: MergeSequence([(1, 2, 3, 4)]),
    lambda: PointSet(3, 3, [(1, 2, 3)]),
    lambda: PointSet(3, 3, [(1,)]),
    lambda: GridWitness([1.7], [1], [[Point(1, 1), Point(2, 2)], [Point(1, 2), Point(2, 1)]]),
    lambda: GridWitness([1], [False], [[Point(1, 1), Point(2, 2)], [Point(1, 2), Point(2, 1)]]),
    lambda: GridWitness([1], [1], [[(1.0, 1), Point(2, 2)], [Point(1, 2), Point(2, 1)]]),
    lambda: GridWitness([1], [1], [[(1, 1, 1), Point(2, 2)], [Point(1, 2), Point(2, 1)]]),
])
def test_checked_constructors_reject_non_int_fields_and_wrong_arity(make):
    with pytest.raises(ValidationError):
        make()
