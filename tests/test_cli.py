"""End-to-end command line checks, driven through main() in-process."""

from __future__ import annotations

import json

import pytest

from ranklines.cli import main
from ranklines.fields import GF
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


def test_check_line_json_certificate_round_trips(workdir, capsys):
    A = _matrix_file(workdir / "A.txt",
                     Matrix.from_rows(F2, [[0, 0], [1, 0], [0, 1]]))
    N = _matrix_file(workdir / "N.txt", canonical_N(F2, 3, 2, 1))
    code = main(["check-line", A, N, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    cert = WitnessCertificate.from_json(out)
    assert cert.verdict == "full-rank"


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


def test_witness_random_budget_exhaustion_exits_three(workdir, capsys):
    assert main(["gen", "--example", "sharpness", "--n", "3", "--p", "2",
                 "--out", str(workdir)]) == 0
    capsys.readouterr()
    space = str(workdir / "sharpness_space.txt")
    N = str(workdir / "sharpness_N.txt")
    code = main(["witness", space, N, "--strategy", "random", "--budget", "10"])
    assert code == 3


def test_witness_rank_precondition_exits_two(workdir, capsys):
    full = [
        "field gf 2", "size 2 2", "dim 4",
        "1 0 0 0", "0 1 0 0", "0 0 1 0", "0 0 0 1",
    ]
    space = _write(workdir / "full.txt", "\n".join(full) + "\n")
    N = _matrix_file(workdir / "N.txt", Matrix.identity(F2, 2))
    assert main(["witness", space, N]) == 2


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


def test_gen_remark2_f2_is_parameterless(workdir, capsys):
    code = main(["gen", "--example", "remark2-f2", "--out", str(workdir)])
    assert code == 0
    space = parse_subspace_text((workdir / "remark2-f2_space.txt").read_text())
    N = Matrix.from_text((workdir / "remark2-f2_N.txt").read_text())
    assert space.codim == 1
    assert N == canonical_N(F2, 3, 3, 2)


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
