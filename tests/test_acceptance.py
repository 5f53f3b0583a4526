"""End-to-end acceptance gate.

Eight independent checks, each printing exactly one PASS/FAIL summary
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them)
and enforcing a wall-clock budget.  Together they exercise every public
layer: the four matchers against each other, canonical grid widths, the
linear-time decomposition builder, dense grid extraction and its
counting bound, the exhaustive small-width structure facts, the tree
characterization of d-wide sequences, the t-monotone track, and median
closure of the embedding constraints.
"""

import itertools
import math
import random
import time
from functools import lru_cache

from permpat import (
    brute_force_match,
    build_decomposition,
    canonical_grid,
    exact_width,
    f_bound,
    find_grid,
    find_pattern,
    grid_search,
    greedy_monotone_partition,
    match_auto,
    poly_space_match,
    random_permutation,
    random_separable,
    t_monotone_match,
    validate_monotone_partition,
    verify_embedding,
    verify_grid,
    verify_wide,
    width_of_decomposition,
)
from permpat.core import Permutation, Point
from permpat.griddetect import Columns, PointSet

from helpers import (
    canonical_grid_decomposition,
    check_tree_characterization,
    constraint_relations,
    find_close_pair,
    is_separable,
    mid_point,
    monotone_decomposition,
    random_merge_sequence,
    random_t_monotone,
    substitute,
)


def _conclude(num, label, t0, budget, problems):
    """Print the one-line verdict for a criterion, then fail on problems."""
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if not problems and elapsed < budget else "FAIL"
    print("%s [%d] %s (%.1fs / budget %ds)" % (verdict, num, label, elapsed, budget))
    assert not problems, problems[:5]
    assert elapsed < budget, "budget exceeded: %.1fs >= %ds" % (elapsed, budget)


def _perm(vals):
    return Permutation(vals)


# ---------------------------------------------------------------------------
# 1. the four matchers agree on 500 random instances
# ---------------------------------------------------------------------------

def test_matchers_agree_on_random_instances():
    t0 = time.perf_counter()
    rng = random.Random(20260815)
    problems = []
    for case in range(500):
        ell = rng.randint(1, 4)
        n = rng.randint(1, 12)
        sigma = random_permutation(ell, rng.randrange(2 ** 30))
        pi = random_permutation(n, rng.randrange(2 ** 30))
        seq = build_decomposition(pi, max(ell, 2)).seq
        results = {
            "brute": brute_force_match(sigma, pi),
            "auto": match_auto(sigma, pi),
            "fpt": find_pattern(sigma, pi, seq),
            "polyspace": poly_space_match(sigma, pi),
        }
        present = {name: emb is not None for name, emb in results.items()}
        if len(set(present.values())) != 1:
            problems.append("case %d (l=%d n=%d): disagreement %r" % (case, ell, n, present))
            continue
        for name, emb in results.items():
            if emb is not None and not verify_embedding(sigma, pi, emb):
                problems.append("case %d: %s witness fails verification" % (case, name))
    _conclude(1, "four matchers agree on 500 instances, witnesses verify", t0, 60, problems)


# ---------------------------------------------------------------------------
# 2. canonical r x r grids have width exactly r
# ---------------------------------------------------------------------------

def test_canonical_grid_width():
    t0 = time.perf_counter()
    problems = []
    for r in (2, 3):
        g = canonical_grid(r, r)
        if find_close_pair(g, r - 1) is not None:
            problems.append("canonical %dx%d has an unexpected %d-close pair" % (r, r, r - 1))
        w = width_of_decomposition(g, canonical_grid_decomposition(r, r))
        if w != r:
            problems.append("canonical %dx%d decomposition has width %d != %d" % (r, r, w, r))
    if exact_width(canonical_grid(2, 2)) != 2:
        problems.append("exact width of canonical 2x2 is not 2")
    if exact_width(canonical_grid(3, 3)) != 3:
        problems.append("exact width of canonical 3x3 is not 3")
    _conclude(2, "canonical grids: no close pair below r, width exactly r", t0, 5, problems)


# ---------------------------------------------------------------------------
# 3. decomposition builder: sound output, near-linear scaling
# ---------------------------------------------------------------------------

def test_builder_soundness_and_scaling():
    t0 = time.perf_counter()
    problems = []
    sizes = (100_000, 200_000, 400_000)
    perms = [random_separable(n, 1) for n in sizes]
    timings = [math.inf] * len(sizes)
    # five rounds over the three sizes, the least time per size: a slow
    # stretch of the host slows one round of every size, not one size
    for rnd in range(5):
        for i, (n, pi) in enumerate(zip(sizes, perms)):
            stats = {}
            t1 = time.perf_counter()
            seq = build_decomposition(pi, 2, stats=stats).seq
            timings[i] = min(timings[i], time.perf_counter() - t1)
            if rnd:
                continue  # the builds are deterministic: the first round's are checked
            if seq is None:
                problems.append("n=%d: builder returned a grid on a separable input" % n)
                continue
            if not verify_wide(pi, seq, 384):
                problems.append("n=%d: sequence is not 384-wide" % n)
            # the work is pinned, whatever the clock says: n - 1 merges, and
            # the ceil(n / 384) lines per axis coarsen down to one
            lines = -(-n // 384)
            if (len(seq) != n - 1
                    or not stats["coarsen_cols"] == stats["coarsen_rows"] == lines - 1):
                problems.append("n=%d: %d merges, %d/%d coarsenings, want %d and %d"
                                % (n, len(seq), stats["coarsen_cols"], stats["coarsen_rows"],
                                   n - 1, lines - 1))
    for a, b in zip(timings, timings[1:]):
        factor = b / a
        if factor > 3.0:
            problems.append("doubling factor %.2f exceeds 3 (timings %r)" % (factor, timings))
    # a dense uniform target must take the grid exit instead
    pi = random_permutation(200_000, 7)
    res = build_decomposition(pi, 2)
    if res.is_grid:
        if not verify_grid(pi, res.grid, 2):
            problems.append("grid exit produced an invalid witness")
    elif not verify_wide(pi, res.seq, 384):
        problems.append("sequence exit on uniform input is not 384-wide")
    _conclude(3, "builder verifies at n=1e5..4e5, doubling factor <= 3", t0, 120, problems)


# ---------------------------------------------------------------------------
# 4. dense point sets always yield a verified grid; counting bound holds
# ---------------------------------------------------------------------------

def test_grid_extraction_and_counting_bound():
    t0 = time.perf_counter()
    rng = random.Random(4)
    problems = []
    p = q = 200
    for trial in range(20):
        cells = rng.sample(range(p * q), 38_300)
        pts = tuple(Point(c % p + 1, c // p + 1) for c in cells)
        M = Columns.of(PointSet(p, q, pts))
        w = find_grid(M, 2)
        if not verify_grid(M, w, 2):
            problems.append("trial %d: extracted grid fails verification" % trial)
    for trial in range(400):
        pp = rng.randint(1, 5)
        qq = rng.randint(1, 5)
        if pp + qq <= 2:  # the counting bound is stated for p+q > 2
            continue
        density = rng.random()
        pts = tuple(Point(x, y) for x in range(1, pp + 1) for y in range(1, qq + 1)
                    if rng.random() < density)
        for r in (1, 2):
            if grid_search(pts, r) is None and len(pts) > f_bound(r) * (pp + qq - 2):
                problems.append("trial %d: grid-free set of %d points breaks the bound"
                                % (trial, len(pts)))
    _conclude(4, "20 dense 200x200 sets gridded and verified; counting bound holds", t0, 60,
              problems)


# ---------------------------------------------------------------------------
# 5. structure facts, exhaustive over every permutation of length <= 6
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _width_of(vals):
    return exact_width(_perm(vals))


def _deletions(vals):
    for i in range(len(vals)):
        rest = vals[:i] + vals[i + 1:]
        order = sorted(rest)
        yield tuple(order.index(v) + 1 for v in rest)


def test_structure_facts_exhaustive():
    t0 = time.perf_counter()
    problems = []
    obstructions = (_perm((2, 4, 1, 3)), _perm((3, 1, 4, 2)))
    everything = [vals
                  for n in range(1, 7)
                  for vals in itertools.permutations(range(1, n + 1))]
    for vals in everything:
        pi = _perm(vals)
        w = _width_of(vals)
        for sub in _deletions(vals):
            if _width_of(sub) > w:
                problems.append("width grows under deletion: %r -> %r" % (vals, sub))
        for d in range(1, len(vals) + 1):
            if len(vals) >= 2 and w <= d and find_close_pair(pi, d) is None:
                problems.append("%r has width %d but no %d-close pair" % (vals, w, d))
        avoids = all(brute_force_match(ob, pi) is None for ob in obstructions)
        if not (is_separable(pi) == (w <= 1) == avoids):
            problems.append("separability disagreement on %r" % (vals,))
    small = [vals
             for n in range(1, 5)
             for vals in itertools.permutations(range(1, n + 1))]
    for outer in small:
        for inner in small:
            for label in range(1, len(outer) + 1):
                comp = substitute(_perm(outer), label, _perm(inner))
                pts = sorted(comp.points)
                ranks = {y: i + 1 for i, y in enumerate(sorted(p.y for p in pts))}
                got = _width_of(tuple(ranks[p.y] for p in pts))
                want = max(_width_of(outer), _width_of(inner))
                if got != want:
                    problems.append("substitute(%r, %d, %r): width %d != %d"
                                    % (outer, label, inner, got, want))
    _conclude(5, "deletion monotone, close pairs, separability, substitution (all n<=6)",
              t0, 600, problems)


# ---------------------------------------------------------------------------
# 6. tree characterization matches the replay verifier
# ---------------------------------------------------------------------------

def test_tree_characterization_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(6)
    problems = []
    for n in range(1, 6):
        for vals in itertools.permutations(range(1, n + 1)):
            pi = _perm(vals)
            for _ in range(100):
                seq = random_merge_sequence(n, rng)
                for d in range(1, n + 1):
                    if check_tree_characterization(pi, seq, d) != verify_wide(pi, seq, d):
                        problems.append("disagree on %r seq=%r d=%d" % (vals, seq, d))
    _conclude(6, "tree characterization == replay verifier (all n<=5, 100 shapes)",
              t0, 120, problems)


# ---------------------------------------------------------------------------
# 7. the t-monotone track end to end
# ---------------------------------------------------------------------------

def test_t_monotone_track():
    t0 = time.perf_counter()
    rng = random.Random(7)
    problems = []
    for case in range(500):
        t = rng.randint(1, 3)
        n = rng.randint(t, 12)
        pi, part = random_t_monotone(n, t, rng)
        validate_monotone_partition(pi, part)
        sigma = random_permutation(rng.randint(1, 4), rng.randrange(2 ** 30))
        emb = t_monotone_match(sigma, pi, part)
        ref = brute_force_match(sigma, pi)
        if (emb is None) != (ref is None):
            problems.append("case %d: t-monotone %s vs brute %s"
                            % (case, emb is not None, ref is not None))
        if emb is not None and not verify_embedding(sigma, pi, emb):
            problems.append("case %d: witness fails verification" % case)
        seq = monotone_decomposition(pi, part)
        if not verify_wide(pi, seq, 6 * part.t - 5):
            problems.append("case %d: decomposition exceeds width %d" % (case, 6 * part.t - 5))
    for case in range(100):
        n = rng.randint(1, 10_000)
        part = greedy_monotone_partition(random_permutation(n, rng.randrange(2 ** 30)))
        bound = 2 * (math.isqrt(n - 1) + 1)  # 2 * ceil(sqrt(n)), exact in integers
        if part.t > bound:
            problems.append("greedy used %d classes on n=%d (bound %d)" % (part.t, n, bound))
    _conclude(7, "t-monotone matcher vs brute, width 6t-5, greedy <= 2*ceil(sqrt(n))",
              t0, 120, problems)


# ---------------------------------------------------------------------------
# 8. embedding constraints are closed under the median operation
# ---------------------------------------------------------------------------

def test_median_closure_of_constraints():
    t0 = time.perf_counter()
    rng = random.Random(8)
    problems = []
    for case in range(50):
        t = rng.randint(1, 3)
        n = rng.randint(max(t, 4), 8)
        pi, part = random_t_monotone(n, t, rng)
        ell = rng.randint(2, 4)
        sigma = random_permutation(ell, rng.randrange(2 ** 30))
        assign = {lab: rng.randint(1, t) for lab in range(1, ell + 1)}
        for u, w, alpha, rel in constraint_relations(sigma, assign, pi, part):
            members = set(rel)
            for (a1, b1), (a2, b2), (a3, b3) in \
                    itertools.combinations_with_replacement(rel, 3):
                ma = mid_point(pi, alpha, a1, a2, a3)
                mb = mid_point(pi, alpha, b1, b2, b3)
                if (ma, mb) not in members:
                    problems.append("case %d: median of members escapes the relation "
                                    "(labels %d,%d axis %d)" % (case, u, w, alpha))
                    break
    _conclude(8, "median closure on constraints of 50 random instances", t0, 30, problems)
