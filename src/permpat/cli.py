"""Command-line front end.

Subcommands: ``match`` (pattern occurrence, several backends),
``decompose`` (bounded-width merge sequence, grid witness or stalled
cells), ``grid`` (grid extraction from a point set), ``width`` (exact
width, exhaustive), ``gen`` (instance generators), ``verify`` (replay a
merge sequence against a width budget).

stdout carries only machine-readable payloads; diagnostics go to stderr.
Exit codes: 0 found/success, 1 not found/verification-false, 2 error.
Any FILE argument accepts ``-`` for stdin.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core import (
    ParseError,
    Permutation,
    SizeCapError,
    ValidationError,
    canonical_grid,
    format_embedding,
    format_grid_witness,
    format_merge_sequence,
    parse_merge_sequence,
    parse_permutation,
    random_permutation,
    random_separable,
    verify_grid,
)
from .decompose import (
    MergeSequence,
    _dense,
    build_decomposition,
    first_violation,
    verify_wide,  # unused here; bench/tracing.py wraps permpat.cli.verify_wide by name
    width_of_decomposition,
)
from .griddetect import Columns, f_bound, find_grid, format_point_set, parse_point_set
from .matcher import find_pattern, match_auto
from .monotone import parse_monotone_partition, poly_space_match, t_monotone_match
from .oracle import BRUTE_GRID_CAP, brute_force_grid, brute_force_match, exact_width, grid_search


def _read_file(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _input_text(file_arg: Optional[str], inline_arg: Optional[str], what: str) -> str:
    if (file_arg is None) == (inline_arg is None):
        raise ValidationError("provide exactly one source for the %s" % what)
    if file_arg is None:
        return inline_arg
    # The long form names a file, but an existing path wins over the
    # convenience fallback of treating a non-path value as inline text.
    if file_arg == "-" or os.path.exists(file_arg):
        return _read_file(file_arg)
    return file_arg


def _permutation_arg(file_arg: Optional[str], inline_arg: Optional[str], what: str) -> Permutation:
    return parse_permutation(_input_text(file_arg, inline_arg, what))


# ---------------------------------------------------------------------------
# match
# ---------------------------------------------------------------------------

def _run_match(algorithm: str, sigma: Permutation, pi: Permutation, args):
    if algorithm == "auto":
        return match_auto(sigma, pi)
    if algorithm == "bruteforce":
        return brute_force_match(sigma, pi)
    if algorithm == "fpt":
        if args.decomposition is None:
            raise ValidationError("--algorithm fpt requires --decomposition FILE")
        seq = parse_merge_sequence(_read_file(args.decomposition))
        return find_pattern(sigma, pi, seq)
    if algorithm == "monotone":
        if args.partition is None:
            raise ValidationError("--algorithm monotone requires --partition FILE")
        part = parse_monotone_partition(_read_file(args.partition))
        return t_monotone_match(sigma, pi, part)
    return poly_space_match(sigma, pi)


def cmd_match(args) -> int:
    if args.corpus is not None:
        if args.pattern is not None or args.p is not None or args.text is not None or args.t is not None:
            raise ValidationError("--corpus replaces the pattern/text arguments")
        if args.algorithm in ("fpt", "monotone"):
            raise ValidationError("--corpus does not support --algorithm %s" % args.algorithm)
        for lineno, raw in enumerate(_read_file(args.corpus).splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            left, sep, right = line.partition(";")
            if not sep:
                raise ParseError("corpus line %d: expected 'pattern ; target'" % lineno)
            sigma = parse_permutation(left)
            pi = parse_permutation(right)
            emb = _run_match(args.algorithm, sigma, pi, args)
            print("FOUND" if emb is not None else "NOT FOUND")
            if emb is not None and args.witness:
                print(format_embedding(emb))
        return 0
    sigma = _permutation_arg(args.pattern, args.p, "pattern")
    pi = _permutation_arg(args.text, args.t, "text")
    emb = _run_match(args.algorithm, sigma, pi, args)
    if emb is None:
        print("NOT FOUND")
        return 1
    print("FOUND")
    if args.witness:
        print(format_embedding(emb))
    return 0


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def _print_sequence(pi: Permutation, seq: MergeSequence, budget: int, check: bool) -> None:
    width = width_of_decomposition(pi, seq)
    if check and width > budget:
        raise ValidationError("internal: emitted sequence is not %d-wide" % budget)
    out = format_merge_sequence(seq)
    if out:
        print(out)
    print("# width %d budget %d" % (width, budget))


def cmd_decompose(args) -> int:
    if (args.r is None) == (args.budget is None):
        raise ValidationError("provide exactly one of --r and --budget")
    pi = _permutation_arg(args.text, args.t, "text")
    res = build_decomposition(pi, args.r, d=args.budget)
    if res.seq is not None:
        _print_sequence(pi, res.seq, args.budget or 4 * f_bound(args.r), args.verify)
    elif res.grid is not None:
        if args.verify and not verify_grid(pi, res.grid, args.r):
            raise ValidationError("internal: emitted grid witness failed verification")
        print("GRID")
        print(format_grid_witness(res.grid))
    else:
        cells = res.cells
        if args.verify and not _dense(cells.p, cells.q, len(cells), args.budget):
            raise ValidationError("internal: emitted cells are below the density threshold")
        print("CELLS")
        print(format_point_set(cells.point_set()))
    return 0


# ---------------------------------------------------------------------------
# grid / width / gen / verify
# ---------------------------------------------------------------------------

def cmd_grid(args) -> int:
    if (args.points is None) == (args.text is None and args.t is None):
        raise ValidationError("provide exactly one of --points and --text/-t")
    r = args.r
    d = 4 * f_bound(r)  # also rejects r < 1 and an r past the 64-bit range
    if args.points is None:
        # n points of an n x n box never pass the finder's bound: n <= f(r) (2n - 2)
        w = brute_force_grid(_permutation_arg(args.text, args.t, "text"), r)
    else:
        # the bound reads only the box and the count, so a sparse set in a
        # huge box never becomes one set per column
        M = parse_point_set(_read_file(args.points))
        if _dense(M.p, M.q, len(M), d):
            print(format_grid_witness(find_grid(Columns.of(M), r)))
            return 0
        if len(M) > BRUTE_GRID_CAP:
            raise SizeCapError("%d points are below the density threshold, and the exhaustive "
                               "cut search is capped at %d" % (len(M), BRUTE_GRID_CAP))
        w = grid_search(M.points, r)
    if w is None:
        print("NOT FOUND")
        return 1
    print(format_grid_witness(w))
    return 0


def cmd_width(args) -> int:
    pi = _permutation_arg(args.text, args.t, "text")
    print(exact_width(pi))
    return 0


def cmd_gen(args) -> int:
    chosen = [name for name in ("grid", "random", "separable") if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise ValidationError("provide exactly one of --grid, --random, --separable")
    if args.grid is not None:
        r, s = args.grid
        perm = canonical_grid(r, s)
    elif args.random is not None:
        if args.seed is None:
            raise ValidationError("--random requires --seed")
        if args.random < 1:
            raise ValidationError("length must be positive, got %d" % args.random)
        perm = random_permutation(args.random, args.seed)
    else:
        if args.seed is None:
            raise ValidationError("--separable requires --seed")
        perm = random_separable(args.separable, args.seed)
    print(perm.one_line())
    return 0


def cmd_verify(args) -> int:
    pi = _permutation_arg(args.text, args.t, "text")
    seq = parse_merge_sequence(_read_file(args.seq))
    bad = first_violation(pi, seq, args.d)
    if bad is None:
        print("OK")
        return 0
    step, count = bad
    print("FAIL step %d view %d budget %d" % (step, count, args.d))
    return 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_text_args(sub, what: str = "target permutation") -> None:
    sub.add_argument("--text", metavar="FILE", help="file with the %s (- for stdin)" % what)
    sub.add_argument("-t", metavar="PERM", help="inline %s, one-line format" % what)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="permpat",
                                     description="Permutation pattern matching via bounded-width merge decompositions.")
    subs = parser.add_subparsers(dest="command", required=True)

    m = subs.add_parser("match", help="decide whether the pattern occurs in the target")
    m.add_argument("--pattern", metavar="FILE", help="file with the pattern permutation (- for stdin)")
    m.add_argument("-p", metavar="PERM", help="inline pattern, one-line format")
    _add_text_args(m)
    m.add_argument("--algorithm", choices=["auto", "bruteforce", "fpt", "monotone", "polyspace"],
                   default="auto")
    m.add_argument("--decomposition", metavar="FILE",
                   help="merge sequence of the target, required by --algorithm fpt")
    m.add_argument("--partition", metavar="FILE",
                   help="monotone partition of the target for --algorithm monotone")
    m.add_argument("--witness", action="store_true", help="print an embedding when found")
    m.add_argument("--corpus", metavar="FILE",
                   help="batch mode: one 'pattern ; target' per line, FOUND/NOT FOUND per line")
    m.set_defaults(func=cmd_match)

    d = subs.add_parser("decompose", help="build a bounded-width merge sequence or a grid witness")
    _add_text_args(d)
    d.add_argument("--r", type=int, help="grid order; view budget becomes 4*f(r)")
    d.add_argument("--budget", type=int, help="explicit view budget")
    d.add_argument("--verify", action="store_true", help="re-check the output before printing")
    d.set_defaults(func=cmd_decompose)

    g = subs.add_parser("grid", help="extract an r x r grid from a point set")
    g.add_argument("--points", metavar="FILE", help="point set file (- for stdin)")
    _add_text_args(g)
    g.add_argument("--r", type=int, required=True)
    g.set_defaults(func=cmd_grid)

    w = subs.add_parser("width", help="exact width by exhaustive search (small inputs)")
    _add_text_args(w)
    w.set_defaults(func=cmd_width)

    gen = subs.add_parser("gen", help="generate instances")
    gen.add_argument("--grid", type=int, nargs=2, metavar=("R", "S"),
                     help="canonical r x s grid permutation")
    gen.add_argument("--random", type=int, metavar="N", help="uniform random permutation")
    gen.add_argument("--separable", type=int, metavar="N", help="random separable permutation")
    gen.add_argument("--seed", type=int)
    gen.set_defaults(func=cmd_gen)

    v = subs.add_parser("verify", help="replay a merge sequence against a width budget")
    _add_text_args(v)
    v.add_argument("--seq", metavar="FILE", required=True, help="merge sequence file (- for stdin)")
    v.add_argument("--d", type=int, required=True, help="view budget")
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, ValidationError, SizeCapError, OverflowError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
