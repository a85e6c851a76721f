"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each criterion is also a separate test for ``-v`` style output.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from ranklines.fields import GF, RATIONALS
from ranklines.gallery import (
    flanders_extremal,
    lemma1_witness,
    remark1_example,
    remark2_f2_example,
    sharpness_example,
)
from ranklines.lines import (
    EXHAUSTED_NO_WITNESS,
    WitnessCertificate,
    constant_det_witness_search,
    line_full_rank,
    witness_search,
)
from ranklines.matrices import Matrix, canonical_N, det, random_matrix, rank
from ranklines.pencils import classify_line, det_pencil
from ranklines.polynomials import Poly, rational_roots
from ranklines.spaces import (
    MatrixSpaceShape,
    count_subspaces,
    enumerate_affine,
    enumerate_subspaces,
    parse_subspace_text,
)
from ranklines.verify import (
    CampaignSpec,
    VerificationReport,
    run_campaign,
)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def _run(num: int, summary: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {num}: FAIL  {summary}")
        raise
    print(f"criterion {num}: PASS  {summary}")


# ---------------------------------------------------------------------------


def test_criterion_01_main_theorem_exhaustive_gf2():
    def check():
        for n, p in [(2, 2), (3, 2), (3, 3), (4, 2)]:
            spec = CampaignSpec(theorem="main", field=F2, n=n, p=p,
                                codims=tuple(range(n - 1)),
                                rank_range=tuple(range(p)))
            rep = run_campaign(spec)
            assert rep.failures == (), (n, p, rep.failures)
            assert rep.findings == ()
            assert rep.verified

    _run(1, "witness exists for every subspace of codim <= n-2 over GF(2)",
         check)


def test_criterion_02_sharpness_at_codim_n_minus_1():
    def check():
        for field in (F2, F3):
            for n, p in [(2, 2), (3, 2), (3, 3), (4, 3)]:
                space, N = sharpness_example(n, p, field)
                assert space.codim == n - 1
                out = witness_search(space, N)
                assert out.status == EXHAUSTED_NO_WITNESS, (field.order, n, p)

    _run(2, "codim n-1 spaces with no full-rank line at q in {2,3}", check)


def test_criterion_03_subdiagonal_witness_all_small_sizes():
    def check():
        for field in (F2, F3, F5, RATIONALS):
            for n in range(1, 7):
                for p in range(1, n + 1):
                    for r in range(p):
                        A = lemma1_witness(n, p, r, field)
                        N = canonical_N(field, n, p, r)
                        ok, cert = line_full_rank(A, N)
                        assert ok, (str(field), n, p, r)

    _run(3, "explicit witness passes line_full_rank for n <= 6 on 4 fields",
         check)


def test_criterion_04_pencil_theorem_exhaustive_gf2_n3():
    def check():
        spec = CampaignSpec(theorem="pencil", field=F2, n=3, p=3,
                            codims=(0, 1), rank_range=(2,))
        verdicts: list[str] = []
        rep = run_campaign(spec, on_case=lambda i, c, r, v: verdicts.append(v))
        assert rep.total == 1023
        assert rep.failures == ()
        assert rep.filtered == 1
        # identify the filtered case: it must be the corner-pinned hyperplane
        shape = MatrixSpaceShape(F2, 3, 3)
        cases = [space for codim in (0, 1)
                 for space in enumerate_affine(shape, codim)]
        assert len(cases) == len(verdicts)
        (only,) = [s for s, v in zip(cases, verdicts) if v == "filtered"]
        expected, _ = remark1_example(3, F2)
        assert only == expected

    _run(4, "1023 affine cases: all pass, the M33=1 hyperplane filters out",
         check)


def test_criterion_05_square_theorem_and_pencil_agreement():
    def check():
        spec1 = CampaignSpec(theorem="square", field=F2, n=3, p=3,
                             codims=(0, 1), rank_range=(1,))
        rep1 = run_campaign(spec1)
        assert rep1.total == 1023
        assert rep1.failures == () and rep1.findings == ()
        # at r = n-1 the square and pencil side conditions coincide, so the
        # two sweeps must agree case by case
        sq_verdicts: list[str] = []
        pc_verdicts: list[str] = []
        run_campaign(CampaignSpec(theorem="square", field=F2, n=3, p=3,
                                  codims=(0, 1), rank_range=(2,)),
                     on_case=lambda i, c, r, v: sq_verdicts.append(v))
        run_campaign(CampaignSpec(theorem="pencil", field=F2, n=3, p=3,
                                  codims=(0, 1), rank_range=(2,)),
                     on_case=lambda i, c, r, v: pc_verdicts.append(v))
        assert sq_verdicts == pc_verdicts
        assert len(sq_verdicts) == 1023

    _run(5, "kernel-cokernel sweep passes; r=2 verdicts equal the pencil's",
         check)


def test_criterion_06_constant_det_strong_form_gf3():
    def check():
        spec = CampaignSpec(theorem="remark2-strong", field=F3, n=3, p=3,
                            codims=(0, 1), rank_range=(2,))
        rep = run_campaign(spec)
        assert rep.total == 1 + 9841 * 3
        assert rep.failures == ()
        assert rep.findings == ()
        assert rep.verified
        assert rep.passed + rep.filtered == rep.total

    _run(6, "every side-condition case over GF(3) has a constant-det member",
         check)


def test_criterion_07_constant_det_fails_over_gf2():
    def check():
        space, N = remark2_f2_example()
        const = constant_det_witness_search(space, N)
        assert const.status == EXHAUSTED_NO_WITNESS
        assert const.cases_examined == 256
        plain = witness_search(space, N)
        assert plain.found
        # adjugate identity, both sides assembled independently
        for rows in space.elements():
            M = Matrix(F2, 3, 3, rows)
            A2 = [M.rows[0][:2], M.rows[1][:2]]
            (a, b), (c, d2) = A2
            C = [[M.rows[0][2]], [M.rows[1][2]]]
            B = [M.rows[2][:2]]
            dd = M.rows[2][2]
            det_a = (a * d2 - b * c) % 2
            trace_a = (a + d2) % 2
            bc = (B[0][0] * C[0][0] + B[0][1] * C[1][0]) % 2
            # B * adj(A) * C with adj([[a,b],[c,d]]) = [[d,-b],[-c,a]]
            bac = (B[0][0] * (d2 * C[0][0] - b * C[1][0])
                   + B[0][1] * (-c * C[0][0] + a * C[1][0])) % 2
            rhs = Poly.from_coeffs(F2, ((dd * det_a + bac) % 2,
                                        (dd * trace_a + bc) % 2,
                                        dd))
            assert det_pencil(M, N) == rhs

    _run(7, "GF(2) counterexample space: no constant det, plain witness, "
            "adjugate identity on all 256 members", check)


def test_criterion_08_rank_bound_contrapositive():
    def check():
        spec = CampaignSpec(theorem="flanders", field=F2, n=3, p=3,
                            codims=(1,), rank_range=(2,))
        rep = run_campaign(spec)
        assert rep.total == 511
        assert rep.passed == 511  # dim 8 > 6 = n*r, so none are filtered
        assert rep.failures == ()
        extremal = flanders_extremal(3, 3, 2, F2)
        assert extremal.dim == 6
        ranks = [rank(Matrix(F2, 3, 3, rows)) for rows in extremal.elements()]
        assert max(ranks) == 2

    _run(8, "all 511 codim-1 subspaces of Mat3(GF(2)) have a rank-3 member; "
            "the extremal dim-6 space stays at rank 2", check)


def test_criterion_09_oracle_agreement():
    def check():
        rng = random.Random(20260814)
        # finite kind: classification against brute-force parameter sweeps
        finite_fields = (F2, F3, F5)
        for _ in range(10_000):
            field = finite_fields[rng.randrange(3)]
            p = rng.randint(1, 3)
            n = rng.randint(p, 4)
            A = random_matrix(field, n, p, rng)
            N = random_matrix(field, n, p, rng)
            res = classify_line(A, N)
            drops = [t for t in field.elements()
                     if rank(A + N.scale(t)) < p]
            if res.classification == "identically-zero":
                assert len(drops) == field.order
            elif res.classification == "has-root-in-K":
                assert drops and res.witness.value == drops[0]
            else:
                assert not drops
        # rational kind: rank spot checks plus exact root certificates
        spots = [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
        for _ in range(10_000):
            p = rng.randint(1, 3)
            n = rng.randint(p, 4)
            A = random_matrix(RATIONALS, n, p, rng)
            N = random_matrix(RATIONALS, n, p, rng)
            res = classify_line(A, N)
            if res.classification == "identically-zero":
                assert res.poly.is_zero
                for t in spots[:3]:
                    assert rank(A + N.scale(t)) < p
            elif res.classification == "has-root-in-K":
                t0 = res.witness.value
                assert rank(A + N.scale(t0)) < p
                assert res.poly(t0) == 0
            else:
                assert rational_roots(res.poly) == []
                for t in spots:
                    assert rank(A + N.scale(t)) == p
        # formal pencil determinants against pointwise evaluation
        for field in finite_fields:
            for _ in range(600):
                n = rng.randint(1, 5)
                A = random_matrix(field, n, n, rng)
                N = random_matrix(field, n, n, rng)
                g = det_pencil(A, N)
                for t in field.elements():
                    assert g(t) == det(A + N.scale(t)).value

    _run(9, "10,000 random classifications per field kind match brute force; "
            "pencil dets match pointwise dets over GF(2),GF(3),GF(5)", check)


def test_criterion_10_infrastructure_properties():
    def check():
        # enumeration counts match Gaussian binomials up to ambient dim 9
        for field in (F2, F3):
            q = field.order
            for n, p in [(m, 1) for m in range(1, 10)] + [(2, 2), (3, 2),
                                                          (4, 2), (3, 3)]:
                shape = MatrixSpaceShape(field, n, p)
                m = shape.ambient_dim
                for codim in range(min(2, m) + 1):
                    expected = count_subspaces(m, codim, q)
                    it = enumerate_subspaces(shape, codim)
                    if expected <= 100_000:
                        seen = {s.basis for s in it}
                        assert len(seen) == expected, (q, n, p, codim)
                    else:
                        total = sum(1 for _ in it)
                        assert total == expected, (q, n, p, codim)
        # parallel runs produce byte-identical reports
        sigs = set()
        for workers in (1, 2, 8):
            spec = CampaignSpec(theorem="main", field=F2, n=3, p=3,
                                codims=(1,), rank_range=(1,), workers=workers)
            sigs.add(run_campaign(spec).signature())
        assert len(sigs) == 1
        # serialized artifacts round-trip
        M = Matrix.from_rows(RATIONALS, [[Fraction(-7, 3), 1], [0, 4]])
        assert Matrix.from_text(M.to_text()) == M
        shape = MatrixSpaceShape(F3, 2, 2)
        spaces = list(enumerate_affine(shape, 1))
        assert parse_subspace_text(spaces[7].to_text()) == spaces[7]
        lin = next(iter(enumerate_subspaces(shape, 2)))
        assert parse_subspace_text(lin.to_text()) == lin
        _, cert = line_full_rank(lemma1_witness(3, 2, 1, F3),
                                 canonical_N(F3, 3, 2, 1))
        assert WitnessCertificate.from_json(cert.to_json()) == cert
        _, rcert = line_full_rank(lemma1_witness(3, 2, 1, RATIONALS),
                                  canonical_N(RATIONALS, 3, 2, 1))
        assert WitnessCertificate.from_json(rcert.to_json()) == rcert
        rep = run_campaign(CampaignSpec(theorem="main", field=F2, n=2, p=2,
                                        codims=(0,), rank_range=(1,)))
        back = VerificationReport.from_json(rep.to_json())
        assert back.signature() == rep.signature()
        assert json.loads(rep.to_json())["verdict"] == "verified"

    _run(10, "Gaussian binomial counts to ambient 9, identical reports for "
             "1/2/8 workers, all artifacts round-trip", check)
