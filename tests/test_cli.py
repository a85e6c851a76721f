"""End-to-end command line checks, driven through main() in-process, and
one run of ``python -m ranklines`` in a subprocess."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from ranklines import cli
from ranklines.cli import _parse_int_list, _UsageError, main
from ranklines.fields import GF, parse_field
from ranklines.gallery import (
    EXAMPLE_NAMES,
    flanders_extremal,
    lemma1_witness,
    remark1_example,
    remark2_f2_example,
    sharpness_example,
)
from ranklines.lines import WitnessCertificate
from ranklines.matrices import Matrix, canonical_N
from ranklines.spaces import parse_subspace_text
from ranklines.verify import VerificationReport

F2 = GF(2)


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def _write(path, content):
    path.write_text(content)
    return str(path)


def _matrix_file(path, M):
    return _write(path, M.to_text())


# ------------------------------------------------------------------ check-line


def test_check_line_full_rank_exits_zero(workdir, capsys):
    A = _matrix_file(workdir / "A.txt",
                     Matrix.from_rows(F2, [[0, 0], [1, 0], [0, 1]]))
    N = _matrix_file(workdir / "N.txt", canonical_N(F2, 3, 2, 1))
    code = main(["check-line", A, N])
    out = capsys.readouterr().out
    assert code == 0
    assert "full-rank" in out


def test_check_line_rank_drop_exits_one(workdir, capsys):
    A = _matrix_file(workdir / "A.txt", Matrix.zeros(F2, 3, 2))
    N = _matrix_file(workdir / "N.txt", canonical_N(F2, 3, 2, 1))
    code = main(["check-line", A, N])
    out = capsys.readouterr().out
    assert code == 1
    assert "t" in out  # the failing parameter is reported
    assert main(["check-line", A, N, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"verdict": "rank-drop", "t0": "0"}


def test_check_line_json_certificate_round_trips(workdir, capsys):
    A = _matrix_file(workdir / "A.txt",
                     Matrix.from_rows(F2, [[0, 0], [1, 0], [0, 1]]))
    N = _matrix_file(workdir / "N.txt", canonical_N(F2, 3, 2, 1))
    code = main(["check-line", A, N, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    cert = WitnessCertificate.from_json(out)
    assert cert.verdict == "full-rank"


def test_check_line_with_no_columns_exits_zero(workdir, capsys):
    # A 2 x 0 matrix has rank p = 0 at every t: a full-rank line.
    M = _matrix_file(workdir / "M.txt", Matrix.zeros(GF(3), 2, 0))
    code = main(["check-line", M, M])
    assert code == 0
    assert "full-rank" in capsys.readouterr().out


def test_check_line_shape_mismatch_exits_two(workdir, capsys):
    A = _matrix_file(workdir / "A.txt", Matrix.zeros(F2, 3, 2))
    N = _matrix_file(workdir / "N.txt", Matrix.zeros(F2, 2, 2))
    assert main(["check-line", A, N]) == 2


def test_check_line_missing_file_exits_two(workdir):
    N = _matrix_file(workdir / "N.txt", Matrix.zeros(F2, 2, 2))
    assert main(["check-line", str(workdir / "nope.txt"), N]) == 2


def test_check_line_malformed_matrix_exits_two(workdir):
    A = _write(workdir / "A.txt", "field gf 2\nsize 2 2\n1 0\n")
    N = _matrix_file(workdir / "N.txt", Matrix.zeros(F2, 2, 2))
    assert main(["check-line", A, N]) == 2


def test_check_line_negative_size_exits_two(workdir, capsys):
    M = _write(workdir / "M.txt", "field gf 2\nsize 0 -3\n")
    assert main(["check-line", M, M]) == 2
    assert "bad size line" in capsys.readouterr().err


def test_a_huge_row_count_with_no_columns_is_refused_before_any_row(workdir, capsys):
    # An n x 0 matrix is written as n blank lines, so a text of k lines
    # holds at most k empty rows; "size 10000000 0" alone once made ten
    # million of them (76 MiB).
    for n in (3, 10_000_000, 1_000_000_000):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{n} empty rows need {n} blank lines"):
                Matrix.from_text(f"field gf 2\nsize {n} 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (n, peak)
    M = _write(workdir / "M.txt", "field gf 2\nsize 1000000000 0\n")
    assert main(["check-line", M, M]) == 2
    assert "1000000000 empty rows need 1000000000 blank lines" in capsys.readouterr().err


def test_check_line_zero_denominator_exits_two(workdir, capsys):
    A = _write(workdir / "A.txt", "field rat\nsize 2 2\n1/0 0\n0 1\n")
    N = _write(workdir / "N.txt", "field rat\nsize 2 2\n1 0\n0 0\n")
    assert main(["check-line", A, N]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_check_line_rational_with_30_bit_entries(workdir, capsys):
    # det(A + tN) has a 120-bit constant term; trial division over its
    # divisors never finished, the p-adic root search is immediate.
    from ranklines.fields import RATIONALS
    diag = (1073741789, 1073741827, 1073741831, 1073741833)
    A = _matrix_file(workdir / "A.txt", Matrix.from_rows(
        RATIONALS, [[diag[i] if i == j else 0 for j in range(4)] for i in range(4)]))
    N = _matrix_file(workdir / "N.txt", Matrix.from_rows(
        RATIONALS, [[1 if i == j < 3 else 0 for j in range(4)] for i in range(4)]))
    code = main(["check-line", A, N])
    assert code == 1
    assert "rank drops at t = -1073741789" in capsys.readouterr().out


# --------------------------------------------------------------------- witness


def test_witness_found_exits_zero(workdir, capsys):
    code = main(["gen", "--example", "lemma1", "--n", "3", "--p", "2",
                 "--r", "1", "--out", str(workdir)])
    assert code == 0
    capsys.readouterr()
    full = [
        "field gf 2", "size 3 2", "dim 6",
        "1 0 0 0 0 0", "0 1 0 0 0 0", "0 0 1 0 0 0",
        "0 0 0 1 0 0", "0 0 0 0 1 0", "0 0 0 0 0 1",
    ]
    space = _write(workdir / "full.txt", "\n".join(full) + "\n")
    N = str(workdir / "lemma1_N.txt")
    code = main(["witness", space, N, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "full-rank"
    assert data["cases_examined"] >= 1
    assert "A" in data and "N" in data
    assert main(["witness", space, N]) == 0
    head, *rows = capsys.readouterr().out.splitlines(keepends=True)
    assert head == f"witness found after {data['cases_examined']} candidates\n"
    assert Matrix.from_text("".join(rows)) == WitnessCertificate.from_json(out).A


def test_witness_exhausted_exits_one(workdir, capsys):
    assert main(["gen", "--example", "sharpness", "--n", "3", "--p", "2",
                 "--out", str(workdir)]) == 0
    capsys.readouterr()
    space = str(workdir / "sharpness_space.txt")
    N = str(workdir / "sharpness_N.txt")
    code = main(["witness", space, N])
    out = capsys.readouterr().out
    assert code == 1
    assert "no witness" in out.lower() or "exhausted" in out.lower()
    assert main(["witness", space, N, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"verdict": "exhausted-no-witness",
                                                   "cases_examined": 16}


def test_witness_random_budget_exhaustion_exits_three(workdir, capsys):
    assert main(["gen", "--example", "sharpness", "--n", "3", "--p", "2",
                 "--out", str(workdir)]) == 0
    capsys.readouterr()
    space = str(workdir / "sharpness_space.txt")
    N = str(workdir / "sharpness_N.txt")
    code = main(["witness", space, N, "--strategy", "random", "--budget", "10"])
    assert code == 3


def test_witness_exhaustive_budget_overrun_exits_three(workdir, capsys):
    assert main(["gen", "--example", "sharpness", "--n", "3", "--p", "2",
                 "--out", str(workdir)]) == 0
    capsys.readouterr()
    space = str(workdir / "sharpness_space.txt")
    N = str(workdir / "sharpness_N.txt")
    assert main(["witness", space, N, "--budget", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: 16 elements exceed the budget of 3\n"
    assert captured.out == ""


@pytest.mark.parametrize("strategy,budget", [("random", "-5"), ("random", "0"),
                                             ("exhaustive", "0"), ("exhaustive", "-1")])
def test_witness_budget_below_one_exits_two(workdir, capsys, strategy, budget):
    assert main(["gen", "--example", "sharpness", "--n", "3", "--p", "2",
                 "--out", str(workdir)]) == 0
    capsys.readouterr()
    space = str(workdir / "sharpness_space.txt")
    N = str(workdir / "sharpness_N.txt")
    code = main(["witness", space, N, "--strategy", strategy, "--budget", budget])
    captured = capsys.readouterr()
    assert code == 2
    assert "budget must be positive" in captured.err
    assert captured.out == ""


def test_witness_rank_precondition_exits_two(workdir, capsys):
    full = [
        "field gf 2", "size 2 2", "dim 4",
        "1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1",
    ]
    space = _write(workdir / "full.txt", "\n".join(full) + "\n")
    N = _matrix_file(workdir / "N.txt", Matrix.identity(F2, 2))
    assert main(["witness", space, N]) == 2


def test_witness_zero_denominator_in_space_exits_two(workdir, capsys):
    space = _write(workdir / "space.txt", "field rat\nsize 1 1\ndim 1\n3/0\n")
    N = _write(workdir / "N.txt", "field rat\nsize 1 1\n0\n")
    assert main(["witness", space, N]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_witness_refuses_a_dim_beyond_the_ambient_dimension(workdir, capsys):
    space = _write(workdir / "space.txt", "field gf 2\nsize 2 0\ndim 1000000000\n")
    N = _write(workdir / "N.txt", "field gf 2\nsize 2 0\n")
    assert main(["witness", space, N]) == 2
    assert "dim 1000000000 exceeds the ambient dimension n*p = 0" in capsys.readouterr().err


# ---------------------------------------------------------------------- verify


def test_verify_main_small_campaign(workdir, capsys):
    out_path = workdir / "report.json"
    code = main(["verify", "--theorem", "main", "--q", "2", "--n", "3",
                 "--p", "2", "--codim", "1", "--out", str(out_path)])
    assert code == 0
    rep = VerificationReport.from_json(out_path.read_text())
    assert rep.verified
    assert rep.total == 126
    assert rep.spec.codims == (1,)
    assert rep.spec.rank_range == (0, 1)  # defaulted to all r < p


def test_verify_unwritable_out_exits_two_before_the_campaign(workdir, capsys, monkeypatch):
    def refuse(spec):
        raise AssertionError("the campaign ran before --out was checked")

    monkeypatch.setattr(cli, "run_campaign", refuse)
    code = main(["verify", "--theorem", "main", "--q", "2", "--n", "2",
                 "--out", str(workdir / "missing" / "r.json")])
    assert code == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert not (workdir / "missing").exists()


def test_verify_budget_overrun_writes_an_incomplete_report(workdir, capsys):
    # The 63 codim-1 cases fit the budget; the first codim-0 case needs 64 members.
    out = workdir / "r.json"
    assert main(["verify", "--theorem", "main", "--q", "2", "--n", "3", "--p", "2",
                 "--codim", "1,0", "--rank", "1", "--element-budget", "32",
                 "--out", str(out)]) == 3
    rep = VerificationReport.from_json(out.read_text())
    assert rep.verdict == "incomplete" and rep.total == rep.passed == 63


def test_verify_text_format_to_stdout(capsys):
    code = main(["verify", "--theorem", "flanders", "--q", "2", "--n", "2",
                 "--p", "2", "--codim", "0-2", "--rank", "1",
                 "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verified" in out
    assert "51" in out


def test_verify_defaults_codims_to_hypothesis_range(capsys):
    code = main(["verify", "--theorem", "pencil", "--q", "2", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    rep = VerificationReport.from_json(out)
    assert rep.spec.codims == (0, 1)
    assert rep.filtered == 1  # the corner-pinned affine hyperplane family


def test_verify_rejects_out_of_hypothesis_codim(capsys):
    code = main(["verify", "--theorem", "main", "--q", "2", "--n", "3",
                 "--p", "2", "--codim", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "allow-out-of-hypothesis" in err or "allow_out_of_hypothesis" in err


def test_verify_rejects_remark2_strong_over_gf2(capsys):
    code = main(["verify", "--theorem", "remark2-strong", "--q", "2",
                 "--n", "3"])
    assert code == 2


def test_verify_rejects_negative_random_conjugates(capsys):
    code = main(["verify", "--theorem", "main", "--q", "2", "--n", "3", "--p", "2",
                 "--codim", "1", "--random-conjugates", "-3"])
    assert code == 2
    assert "random conjugates must be at least 0" in capsys.readouterr().err


def test_verify_workers_flag_keeps_identical_report(workdir):
    a_path = workdir / "a.json"
    b_path = workdir / "b.json"
    base = ["verify", "--theorem", "main", "--q", "2", "--n", "3", "--p", "2",
            "--codim", "1", "--rank", "1"]
    assert main(base + ["--out", str(a_path)]) == 0
    assert main(base + ["--workers", "2", "--out", str(b_path)]) == 0
    a = VerificationReport.from_json(a_path.read_text())
    b = VerificationReport.from_json(b_path.read_text())
    assert a.signature() == b.signature()


def test_verify_comma_and_range_codim_syntax(capsys):
    code = main(["verify", "--theorem", "main", "--q", "2", "--n", "4",
                 "--p", "2", "--codim", "0,2", "--rank", "1"])
    out = capsys.readouterr().out
    assert code == 0
    rep = VerificationReport.from_json(out)
    assert rep.spec.codims == (0, 2)


@pytest.mark.parametrize("flag, value", [("--codim", "x"), ("--codim", "1-"), ("--rank", ","),
                                         ("--codim", ""), ("--codim", "2-1")])
def test_verify_non_integer_list_exits_two(flag, value, capsys):
    code = main(["verify", "--theorem", "main", "--q", "2", "--n", "3", flag, value])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag, value", [("--codim", "0-7"), ("--codim", "1,9"), ("--rank", "3")])
def test_verify_out_of_range_list_exits_two(flag, value, capsys):
    code = main(["verify", "--theorem", "main", "--q", "2", "--n", "3", "--p", "2", flag, value])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


def test_verify_repeated_list_value_exits_two(capsys):
    code = main(["verify", "--theorem", "main", "--q", "2", "--n", "3", "--p", "2",
                 "--codim", "1,1", "--rank", "0-1,1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "a codimension is listed twice in [1, 1]" in err
    assert "a rank is listed twice in [0, 1, 1]" in err


def test_int_list_bound_is_checked_before_a_range_is_built():
    with pytest.raises(_UsageError, match="codimension 1000000000 exceeds 9"):
        _parse_int_list("0-1000000000", 9, "codimension")
    assert _parse_int_list("0-2,5", 9, "codimension") == (0, 1, 2, 5)


# ------------------------------------------------------------------------- gen


def test_gen_lemma1_writes_line_pair(workdir, capsys):
    code = main(["gen", "--example", "lemma1", "--n", "3", "--p", "2",
                 "--r", "1", "--field", "gf 3", "--out", str(workdir)])
    out = capsys.readouterr().out
    assert code == 0
    A = Matrix.from_text((workdir / "lemma1_A.txt").read_text())
    N = Matrix.from_text((workdir / "lemma1_N.txt").read_text())
    assert A.field == GF(3)
    assert N == canonical_N(GF(3), 3, 2, 1)
    assert "lemma1_A.txt" in out


def _gallery_files(field):
    """Every example gen can write over field, as {file name: gallery object}."""
    files = {
        "lemma1_A.txt": lemma1_witness(3, 2, 1, field),
        "lemma1_N.txt": canonical_N(field, 3, 2, 1),
        "flanders-extremal_space.txt": flanders_extremal(3, 2, 1, field),
    }
    files["sharpness_space.txt"], files["sharpness_N.txt"] = sharpness_example(3, 2, field)
    files["remark1_space.txt"], files["remark1_N.txt"] = remark1_example(3, field)
    if field == F2:
        files["remark2-f2_space.txt"], files["remark2-f2_N.txt"] = remark2_f2_example()
    return files


@pytest.mark.parametrize("field", ["gf 2", "gf 3", "rat"])
def test_gen_writes_every_example_as_the_gallery_builds_it(workdir, capsys, field):
    expected = _gallery_files(parse_field(field))
    for name in EXAMPLE_NAMES:
        if name == "remark2-f2" and field != "gf 2":
            continue
        assert main(["gen", "--example", name, "--n", "3", "--p", "2", "--r", "1",
                     "--field", field, "--out", str(workdir)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert sorted(printed) == sorted(str(workdir / name) for name in expected)
    assert sorted(path.name for path in workdir.iterdir()) == sorted(expected)
    for name, obj in expected.items():
        assert (workdir / name).read_text() == obj.to_text()


def test_gen_remark2_f2_is_parameterless(workdir, capsys):
    code = main(["gen", "--example", "remark2-f2", "--out", str(workdir)])
    assert code == 0
    space = parse_subspace_text((workdir / "remark2-f2_space.txt").read_text())
    N = Matrix.from_text((workdir / "remark2-f2_N.txt").read_text())
    assert space.codim == 1
    assert N == canonical_N(F2, 3, 3, 2)


def test_gen_out_that_is_a_file_exits_two(workdir, capsys):
    taken = workdir / "taken"
    taken.write_text("keep")
    code = main(["gen", "--example", "remark2-f2", "--out", str(taken)])
    assert code == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert taken.read_text() == "keep"


def test_gen_remark2_f2_refuses_other_fields(workdir, capsys):
    code = main(["gen", "--example", "remark2-f2", "--field", "gf 3", "--out", str(workdir)])
    assert code == 2
    assert "gf 2 only" in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


def test_gen_missing_required_parameter_exits_two(workdir, capsys):
    code = main(["gen", "--example", "lemma1", "--out", str(workdir)])
    err = capsys.readouterr().err
    assert code == 2
    assert "n" in err


def test_gen_rational_flanders(workdir, capsys):
    code = main(["gen", "--example", "flanders-extremal", "--n", "3",
                 "--p", "2", "--r", "1", "--field", "rat",
                 "--out", str(workdir)])
    assert code == 0
    space = parse_subspace_text(
        (workdir / "flanders-extremal_space.txt").read_text())
    assert space.dim == 3


def test_gen_sharpness_and_remark1(workdir, capsys):
    assert main(["gen", "--example", "sharpness", "--n", "3", "--p", "3",
                 "--field", "gf 3", "--out", str(workdir)]) == 0
    assert main(["gen", "--example", "remark1", "--n", "3", "--field", "gf 5",
                 "--out", str(workdir)]) == 0
    space = parse_subspace_text((workdir / "remark1_space.txt").read_text())
    assert space.codim == 1
    assert space.base.rows[2][2] == 1


# ------------------------------------------------------------------ pencil-det


def test_pencil_det_text_output(workdir, capsys):
    from ranklines.fields import RATIONALS

    A = _matrix_file(workdir / "A.txt",
                     Matrix.from_rows(RATIONALS, [[0, 1], [1, 0]]))
    N = _matrix_file(workdir / "N.txt",
                     Matrix.from_rows(RATIONALS, [[1, 0], [0, 0]]))
    code = main(["pencil-det", A, N])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "-1"


def test_pencil_det_fractional_rational_output(workdir, capsys):
    # Rows with different denominators; expected strings pinned before the
    # integer interpolation route replaced the Laplace expansion over Q[t].
    A = _write(workdir / "A.txt", "field rat\nsize 3 3\n1/2 -2/3 1\n0 3/4 -1/5\n2 1 1/3\n")
    N = _write(workdir / "N.txt", "field rat\nsize 3 3\n1/3 0 -1/2\n1 1/7 0\n0 -2 5/6\n")
    poly = "-121/120 + 9943/5040*t - 1387/840*t^2 + 131/126*t^3"
    assert main(["pencil-det", A, N]) == 0
    assert capsys.readouterr().out == poly + "\n"
    assert main(["pencil-det", A, N, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "poly": poly, "coeffs": ["-121/120", "9943/5040", "-1387/840", "131/126"], "degree": 3}


def test_pencil_det_json_output(workdir, capsys):
    A = _matrix_file(workdir / "A.txt", Matrix.identity(F2, 2))
    N = _matrix_file(workdir / "N.txt", Matrix.identity(F2, 2))
    code = main(["pencil-det", A, N, "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["coeffs"] == ["1", "0", "1"]  # (1 + t)^2 over GF(2)
    assert data["degree"] == 2


def test_pencil_det_zero_polynomial_json(workdir, capsys):
    A = _matrix_file(workdir / "A.txt", Matrix.zeros(F2, 2, 2))
    N = _matrix_file(workdir / "N.txt", Matrix.zeros(F2, 2, 2))
    code = main(["pencil-det", A, N, "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["coeffs"] == []
    assert data["degree"] is None
    assert data["poly"] == "0"


def test_pencil_det_rejects_rectangular(workdir, capsys):
    A = _matrix_file(workdir / "A.txt", Matrix.zeros(F2, 3, 2))
    N = _matrix_file(workdir / "N.txt", Matrix.zeros(F2, 3, 2))
    assert main(["pencil-det", A, N]) == 2


# ----------------------------------------------------------------------- misc


def test_no_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_python_m_ranklines_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "ranklines", "--help"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "check-line" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "ranklines", "frobnicate"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr


def test_a_huge_sampled_case_ends_incomplete_within_its_limits():
    # Drawing a GF(2) 50x50 case is cheap; its coset's 2^2500 members exceed
    # the element budget, so the run stops at once with an incomplete report.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (60, 60))

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = ["verify", "--theorem", "main", "--q", "2", "--n", "50", "--codim", "0",
            "--mode", "sample", "--samples", "1"]
    proc = subprocess.run([sys.executable, "-m", "ranklines", *argv], cwd=root, env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["incomplete"] is True and rep["counts"]["total"] == 0


# ``python -m ranklines`` with the case streams wrapped to print "judging"
# once the campaign starts to judge, inside run_campaign's stop handling.
_ANNOUNCING_CLI = """
import sys
from ranklines import cli, verify

def announced(judge):
    def judging(spec, *span):
        print("judging", flush=True)
        yield from judge(spec, *span)
    return judging

verify._judge = announced(verify._judge)
verify._judge_in_pool = announced(verify._judge_in_pool)
sys.exit(cli.main())
"""


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.parametrize("workers", [1, 2])
def test_ctrl_c_ends_a_verify_run_with_an_incomplete_report(tmp_path, workers):
    # Ctrl-C reaches the whole process group, workers included; the run
    # writes an incomplete report, exits 3 and leaves no process behind.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = tmp_path / "r.json"
    argv = ["verify", "--theorem", "main", "--q", "2", "--n", "4", "--p", "3",
            "--codim", "0-2", "--workers", str(workers), "--format", "json", "--out", str(out)]
    proc = subprocess.Popen([sys.executable, "-c", _ANNOUNCING_CLI, *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "the campaign did not start"
        assert proc.stdout.readline() == "judging\n"
        os.killpg(proc.pid, signal.SIGINT)
        _stdout, stderr = proc.communicate(timeout=10)
        assert proc.returncode == 3, stderr
        assert stderr == ""
        assert VerificationReport.from_json(out.read_text()).verdict == "incomplete"
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
