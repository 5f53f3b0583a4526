"""Command-line surface: exit codes, payload formats, round trips."""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import permpat
from helpers import (canonical_grid_decomposition, is_separable, parse_embedding,
                     parse_grid_witness)
from permpat import (
    Columns,
    canonical_grid,
    format_merge_sequence,
    parse_merge_sequence,
    parse_permutation,
    random_permutation,
    random_separable,
    verify_embedding,
    verify_grid,
    verify_wide,
)
from permpat.cli import main
from permpat.griddetect import parse_point_set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_match_found_and_not_found(capsys):
    code, out, _ = run(capsys, "match", "-p", "1 3 2", "-t", "3 2 1 5 6 7 4")
    assert (code, out.strip()) == (0, "FOUND")
    code, out, _ = run(capsys, "match", "-p", "4 3 2 1", "-t", "3 2 1 5 6 7 4")
    assert (code, out.strip()) == (1, "NOT FOUND")
    code, out, _ = run(capsys, "match", "-p", "1", "-t", "1")
    assert (code, out.strip()) == (0, "FOUND")


def test_match_witness_round_trips(capsys):
    code, out, _ = run(capsys, "match", "-p", "1 3 2", "-t", "3 2 1 5 6 7 4", "--witness")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "FOUND"
    emb = parse_embedding("\n".join(lines[1:]))
    assert verify_embedding(parse_permutation("1 3 2"), parse_permutation("3 2 1 5 6 7 4"), emb)


def test_match_algorithms_agree_on_exit_codes(capsys):
    cases = [("2 1 3", "5 3 1 2 4"), ("3 1 2", "1 2 3"), ("1 2", "2 1")]
    for pat, text in cases:
        codes = set()
        for algo in ("auto", "bruteforce", "polyspace"):
            code, _, _ = run(capsys, "match", "-p", pat, "-t", text, "--algorithm", algo)
            codes.add(code)
        assert len(codes) == 1


def test_match_fpt_with_explicit_decomposition(capsys, tmp_path):
    from permpat import build_decomposition

    pi = parse_permutation("3 2 1 5 6 7 4")
    seq = build_decomposition(pi, 2).seq
    fn = tmp_path / "seq.txt"
    fn.write_text(format_merge_sequence(seq) + "\n")
    code, out, _ = run(capsys, "match", "-p", "1 3 2", "-t", "3 2 1 5 6 7 4",
                       "--algorithm", "fpt", "--decomposition", str(fn))
    assert (code, out.strip()) == (0, "FOUND")


def test_match_monotone_requires_partition(capsys, tmp_path):
    code, _, err = run(capsys, "match", "-p", "2 1", "-t", "2 1", "--algorithm", "monotone")
    assert code == 2 and "partition" in err
    fn = tmp_path / "part.txt"
    fn.write_text("dec: 1 2\n")
    code, out, _ = run(capsys, "match", "-p", "2 1", "-t", "2 1",
                       "--algorithm", "monotone", "--partition", str(fn))
    assert (code, out.strip()) == (0, "FOUND")


def test_match_fpt_requires_decomposition(capsys, tmp_path):
    code, out, err = run(capsys, "match", "-p", "2 1", "-t", "2 1", "--algorithm", "fpt")
    assert code == 2 and out == "" and "--decomposition" in err
    fn = tmp_path / "corpus.txt"
    fn.write_text("1 2 ; 1 2\n")
    for algo in ("fpt", "monotone"):
        code, out, err = run(capsys, "match", "--corpus", str(fn), "--algorithm", algo)
        assert code == 2 and out == "" and algo in err


def test_match_corpus_batch(capsys, tmp_path):
    fn = tmp_path / "corpus.txt"
    fn.write_text("# pairs\n1 3 2 ; 3 2 1 5 6 7 4\n4 3 2 1 ; 3 2 1 5 6 7 4\n1 2 ; 1 2\n")
    code, out, _ = run(capsys, "match", "--corpus", str(fn))
    assert code == 0
    assert out.splitlines() == ["FOUND", "NOT FOUND", "FOUND"]
    code_b, out_b, _ = run(capsys, "match", "--corpus", str(fn), "--algorithm", "bruteforce")
    assert (code_b, out_b) == (code, out)


def test_match_bundled_corpus_algorithms_agree(capsys):
    corpus = str(pathlib.Path(__file__).parent / "data" / "corpus.txt")
    outputs = {}
    for algo in ("auto", "bruteforce", "polyspace"):
        code, out, _ = run(capsys, "match", "--corpus", corpus, "--algorithm", algo)
        assert code == 0
        outputs[algo] = out
    assert len(set(outputs.values())) == 1
    assert len(outputs["auto"].splitlines()) == 15


def test_decompose_sequence_output_round_trips(capsys):
    code, out, _ = run(capsys, "decompose", "-t", "3 2 7 8 4 6 1 5", "--r", "2", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("# width ") and lines[-1].endswith(" budget 384")
    seq = parse_merge_sequence("\n".join(lines))
    assert verify_wide(parse_permutation("3 2 7 8 4 6 1 5"), seq, 384)
    assert len(lines) == 8


def test_decompose_singleton(capsys):
    code, out, _ = run(capsys, "decompose", "-t", "1", "--r", "2")
    assert code == 0 and out.strip() == "# width 1 budget 384"


def test_decompose_prints_the_budget_it_built_at(capsys):
    perm = random_permutation(50, 8)
    code, out, _ = run(capsys, "decompose", "-t", perm.one_line(), "--budget", "100", "--verify")
    assert code == 0 and out.splitlines()[-1].endswith(" budget 100")
    code, out, _ = run(capsys, "decompose", "-t", "1", "--r", "1")
    assert code == 0 and out == "# width 1 budget 4\n"


def test_decompose_needs_exactly_one_mode(capsys):
    code, _, err = run(capsys, "decompose", "-t", "1 2")
    assert code == 2 and "exactly one" in err
    code, _, _ = run(capsys, "decompose", "-t", "1 2", "--r", "2", "--budget", "5")
    assert code == 2


def test_decompose_budget_dense_branch_emits_cells(capsys):
    perm = canonical_grid(5, 5)
    code, out, _ = run(capsys, "decompose", "-t", perm.one_line(), "--budget", "2", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "CELLS"
    cells = parse_point_set("\n".join(lines[1:]))
    assert 4 * len(cells) > 2 * (cells.p + cells.q - 2)


def test_grid_subcommand_dense_and_sparse(capsys):
    pts = ["200 200"] + ["%d %d" % (x, y) for x in range(1, 201) for y in range(1, 201)]
    import io

    old = sys.stdin
    sys.stdin = io.StringIO("\n".join(pts))
    try:
        code, out, _ = run(capsys, "grid", "--points", "-", "--r", "2")
    finally:
        sys.stdin = old
    assert code == 0
    w = parse_grid_witness(out)
    full = Columns.of(parse_point_set("\n".join(pts)))
    assert verify_grid(full, w, 2)

    sys.stdin = io.StringIO("3 3\n1 1\n2 2\n3 3")
    try:
        code, out, _ = run(capsys, "grid", "--points", "-", "--r", "2")
    finally:
        sys.stdin = old
    assert (code, out.strip()) == (1, "NOT FOUND")


def test_grid_subcommand_never_turns_a_sparse_box_into_columns(capsys, monkeypatch):
    # 3 points in a 10^12 x 10^12 box fail the density test, which reads
    # only the box and the count; one set per column would be 10^12 sets
    def no_columns(M):
        raise AssertionError("Columns.of called on a sparse point set")

    import io

    monkeypatch.setattr(permpat.cli.Columns, "of", no_columns)
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO("1000000000000 1000000000000\n1 1\n2 2\n1000000000000 3"))
    code, out, _ = run(capsys, "grid", "--points", "-", "--r", "2")
    assert (code, out.strip()) == (1, "NOT FOUND")


def test_grid_subcommand_caps_the_exhaustive_search(capsys):
    # too sparse for the linear-time finder and too large to search
    # exhaustively: exit 2 at once instead of trying every cut choice
    text = random_permutation(40, 1).one_line()
    code, out, err = run(capsys, "grid", "-t", text, "--r", "4")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "16" in err
    code, out, _ = run(capsys, "grid", "-t", "1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16", "--r", "2")
    assert (code, out.strip()) == (1, "NOT FOUND")


def test_width_subcommand(capsys):
    code, out, _ = run(capsys, "width", "-t", "3 1 4 2")
    assert (code, out.strip()) == (0, "2")
    # long-form flags fall back to inline text when no such file exists
    code, out, _ = run(capsys, "width", "--text", "3 1 4 2")
    assert (code, out.strip()) == (0, "2")
    code, _, err = run(capsys, "width", "-t", "1 2 3 4 5 6 7 8 9 10")
    assert code == 2 and err.startswith("error:")


def test_gen_subcommand(capsys):
    code, out, _ = run(capsys, "gen", "--grid", "2", "2")
    assert (code, out.strip()) == (0, "3 1 4 2")
    code1, out1, _ = run(capsys, "gen", "--random", "5", "--seed", "7")
    code2, out2, _ = run(capsys, "gen", "--random", "5", "--seed", "7")
    assert code1 == code2 == 0 and out1 == out2
    code, out, _ = run(capsys, "gen", "--separable", "6", "--seed", "1")
    assert code == 0 and is_separable(parse_permutation(out))
    code, _, _ = run(capsys, "gen", "--random", "5")
    assert code == 2
    code, _, _ = run(capsys, "gen", "--random", "3", "--separable", "3", "--seed", "1")
    assert code == 2
    # an empty line would not parse back as a permutation
    for kind in ("--random", "--separable"):
        code, out, err = run(capsys, "gen", kind, "0", "--seed", "1")
        assert (code, out) == (2, "")
        assert err == "error: length must be positive, got 0\n"


def test_verify_subcommand(capsys, tmp_path):
    seq = canonical_grid_decomposition(2, 2)
    fn = tmp_path / "seq.txt"
    fn.write_text(format_merge_sequence(seq) + "\n")
    code, out, _ = run(capsys, "verify", "-t", "3 1 4 2", "--seq", str(fn), "--d", "2")
    assert (code, out.strip()) == (0, "OK")
    code, out, _ = run(capsys, "verify", "-t", "3 1 4 2", "--seq", str(fn), "--d", "1")
    assert code == 1 and out.startswith("FAIL step 1 ")
    # no sequence meets a budget below 1, not even an empty one
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    pair = tmp_path / "pair.txt"
    pair.write_text("1 2 3\n")
    for text, fn in (("1", empty), ("1 2", pair)):
        for d in ("0", "-3"):
            code, out, err = run(capsys, "verify", "-t", text, "--seq", str(fn), "--d", d)
            assert (code, out) == (2, "")
            assert err == "error: view budget must be >= 1, got %s\n" % d


def test_decompose_and_verify_output_digests(capsys, tmp_path):
    # the stdout of the width replay with per-rank Fenwick trees, which
    # the blocked view counter reproduces byte for byte
    perm = random_separable(20000, 1).one_line()
    code, out, _ = run(capsys, "decompose", "-t", perm, "--r", "2", "--verify")
    assert code == 0 and out.endswith("\n# width 342 budget 384\n")
    assert hashlib.sha1(out.encode()).hexdigest() == "203a270ae72931fa2d8b69b1067edf4740c85500"
    fn = tmp_path / "seq.txt"
    fn.write_text(out)
    code, out, _ = run(capsys, "verify", "-t", perm, "--seq", str(fn), "--d", "100")
    assert code == 1
    assert hashlib.sha1(out.encode()).hexdigest() == "ceef80ecb86d931166ed8b021646642e67d245b7"


def test_verify_subcommand_validates_past_the_first_violation(capsys, tmp_path):
    fn = tmp_path / "seq.txt"
    fn.write_text("2 1 5\n4 3 6\n5 5 7\n")
    code, out, err = run(capsys, "verify", "-t", "3 1 4 2", "--seq", str(fn), "--d", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: step 3 ")


def test_error_exit_codes(capsys):
    code, _, _ = run(capsys, "match", "-p", "1 2")
    assert code == 2
    code, _, err = run(capsys, "match", "-p", "zap", "-t", "1")
    assert code == 2 and err.startswith("error:")
    code, _, _ = run(capsys, "match", "-p", "1", "--pattern", "also.txt", "-t", "1")
    assert code == 2
    code, _, _ = run(capsys, "verify", "-t", "1", "--seq", "/nonexistent/x.txt", "--d", "1")
    assert code == 2
    code, _, _ = run(capsys, "nosuchcommand")
    assert code == 2
    code, _, _ = run(capsys, "bench")  # timing lives in the benchmark, not the CLI
    assert code == 2


def test_console_script_entry_point():
    # ``python -m permpat`` runs the console script's function, so this works
    # in an uninstalled checkout.  The child imports the same copy of the
    # package as this test, whatever the working directory or install state.
    src = str(pathlib.Path(permpat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run_cli(*argv, prog=(sys.executable, "-m", "permpat")):
        return subprocess.run([*prog, *argv], capture_output=True, text=True,
                              env=env, timeout=60)

    proc = run_cli("gen", "--grid", "2", "2")
    assert proc.returncode == 0 and proc.stdout.strip() == "3 1 4 2"
    # entry() hands main()'s return value to sys.exit
    proc = run_cli("match", "-p", "4 3 2 1", "-t", "3 2 1 5 6 7 4")
    assert proc.returncode == 1 and proc.stdout.strip() == "NOT FOUND"
    assert run_cli("nosuchcommand").returncode == 2

    if shutil.which("permpat") is not None:
        proc = run_cli("gen", "--grid", "2", "2", prog=("permpat",))
        assert proc.returncode == 0 and proc.stdout.strip() == "3 1 4 2"


def test_console_script_declares_module_entry():
    from permpat import __main__ as module_main

    assert module_main.entry is permpat.cli.entry
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["permpat"] == "permpat.cli:entry"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
