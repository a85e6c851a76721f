"""Full-rank lines, kernel side conditions, and witness searches."""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ranklines import lines, matrices, spaces, verify
from ranklines.fields import GF, RATIONALS, FieldMismatchError, Scalar
from ranklines.gallery import lemma1_witness, remark2_f2_example, sharpness_example
from ranklines.lines import (
    BUDGET_EXHAUSTED,
    DEFAULT_RANDOM_BUDGET,
    EXHAUSTED_NO_WITNESS,
    EXHAUSTIVE,
    RANDOM,
    WITNESS_FOUND,
    SearchOutcome,
    WitnessCertificate,
    constant_det_witness_search,
    line_full_rank,
    validate_certificate,
    witness_search,
)
from ranklines.matrices import (
    Matrix,
    canonical_N,
    det,
    line_rows,
    random_invertible,
    random_matrix,
    rank,
    to_rank_normal_form,
)
from ranklines.pencils import CONSTANT_NONZERO, PencilAnalysis, classify_line, det_pencil
from ranklines.polynomials import Poly
from ranklines.spaces import (
    BudgetExceededError,
    MatrixSpaceShape,
    _odometer_digits,
    affine_from_point,
    from_generators,
    random_affine,
    random_subspace,
)
from ranklines.verify import CampaignSpec, run_campaign

from oracles import (
    classify_line_by_ranks,
    constant_det_search_full_walk,
    ker_coker_noninjective,
    maps_ker_into_im,
    witness_search_full_walk,
)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
F7 = GF(7)

# sha256 of (source, A, N) of every certificate _seeded_certificates builds,
# taken with the earlier code that certified a finite line by its per-t rank
# table: the searches and line_full_rank still return the same witnesses.
WITNESSES_SHA256 = "63fb3a9c66e4c4e6d4843b526fc000cdc0188dd69a7cbcb14e81885a7bed63a3"

# A certificate in the retired per-t table form, as the earlier code wrote it.
TABLE_CERT_JSON = (
    '{"A": "field gf 2\\nsize 3 2\\n0 0\\n1 0\\n0 1\\n", '
    '"N": "field gf 2\\nsize 3 2\\n1 0\\n0 0\\n0 0\\n", "field": "gf 2", '
    '"verdict": "full-rank", "table": [{"t": "0", "rank": 2}, {"t": "1", "rank": 2}]}')


def _full_space(field, n, p):
    shape = MatrixSpaceShape(field, n, p)
    gens = [Matrix.unit(field, n, p, i, j) for i in range(n) for j in range(p)]
    return from_generators(shape, gens)


# -------------------------------------------------------------- line_full_rank


def test_line_full_rank_subdiagonal_witness():
    A = Matrix.from_rows(F2, [[0, 0], [1, 0], [0, 1]])
    N = canonical_N(F2, 3, 2, 1)
    ok, cert = line_full_rank(A, N)
    assert ok
    assert cert.verdict == "full-rank"
    assert cert.analysis == PencilAnalysis(Poly(F2, (1,)), "minor-gcd", CONSTANT_NONZERO)
    assert validate_certificate(cert)


def test_line_full_rank_zero_base_fails_at_zero():
    A = Matrix.zeros(F2, 3, 2)
    N = canonical_N(F2, 3, 2, 1)
    ok, t0 = line_full_rank(A, N)
    assert not ok
    assert t0 == Scalar(F2, F2.normalize(0))


def test_line_full_rank_reports_smallest_failure():
    A = Matrix.identity(F3, 2)
    N = Matrix.unit(F3, 2, 2, 0, 0)
    ok, t0 = line_full_rank(A, N)
    assert not ok
    assert t0 == Scalar(F3, F3.normalize(2))


def test_line_full_rank_rational_cases():
    A = Matrix.from_rows(RATIONALS, [[0, 1], [1, 0]])
    N = Matrix.from_rows(RATIONALS, [[1, 0], [0, 0]])
    ok, cert = line_full_rank(A, N)
    assert ok
    assert cert.analysis.full_rank
    bad_ok, t0 = line_full_rank(Matrix.identity(RATIONALS, 2),
                                Matrix.from_rows(RATIONALS, [[1, 0], [0, -1]]))
    assert not bad_ok
    assert t0.value == 1
    assert rank(Matrix.identity(RATIONALS, 2)
                + Matrix.from_rows(RATIONALS, [[1, 0], [0, -1]])) < 2


def test_line_full_rank_shape_guards():
    with pytest.raises(ValueError):
        line_full_rank(Matrix.zeros(F2, 2, 3), Matrix.zeros(F2, 2, 3))
    with pytest.raises(ValueError):
        line_full_rank(Matrix.zeros(F2, 3, 2), Matrix.zeros(F2, 2, 2))


def _planted_lines(field, rng):
    """Square and tall lines with a rank drop planted at t = 0 and at t = q - 1
    (a zero column of A + t0*N), and lines whose polynomial is identically
    zero (a zero column shared by A and N)."""
    q = field.order
    out = []
    for n, p in ((3, 3), (4, 2)):
        for t0, shared in ((0, False), (q - 1, False), (0, True)):
            j = rng.randrange(p)
            M = [[0 if k == j else rng.randrange(q) for k in range(p)] for _ in range(n)]
            N = Matrix.from_rows(field, [[0 if k == j and shared else rng.randrange(q)
                                          for k in range(p)] for _ in range(n)])
            out.append((Matrix.from_rows(field, M) + N.scale(-t0), N))
    return out


def test_line_full_rank_matches_brute_force():
    rng = random.Random(73)
    planted = random.Random(74)
    for field in (F2, F3, F5, F7):
        pairs = []
        for _ in range(40):
            p = rng.randint(1, 3)
            n = rng.randint(p, 4)
            pairs.append((random_matrix(field, n, p, rng), random_matrix(field, n, p, rng)))
        pairs += _planted_lines(field, planted)
        for A, N in pairs:
            p = A.ncols
            ok, payload = line_full_rank(A, N)
            drops = [t for t in field.elements()
                     if rank(A + N.scale(t)) < p]
            assert ok == (not drops)
            if not ok:
                assert payload.value == drops[0]
            assert classify_line(A, N) == classify_line_by_ranks(A, N)
        assert sum(classify_line(A, N).poly.is_zero for A, N in pairs) >= 2, field


def _large_field_lines(rng):
    """3 x 3 and 3 x 2 lines over GF(65521) whose only rank drop is t0, for
    t0 above 60,000 and next to q/2, and one 3 x 3 line that never drops.

    Each is P*(A0 + t*N0)*Q for random invertible P and Q, which keeps the
    rank at every t.  A0 + t*N0 is diag([[t, -c], [1, t]], t - t0) when
    square, and has rows (t - t0, 0), (0, 1), (0, 5) when tall; -c is a
    non-square mod q, so t^2 + c has no root.
    """
    field = GF(65521)
    q = field.order
    c = next(c for c in range(2, q) if pow(-c % q, (q - 1) // 2, q) == q - 1)
    square_N = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    cases = [([[0, -c, 0], [1, 0, 0], [0, 0, -t0]], square_N, t0) for t0 in (60013, q // 2 + 1)]
    cases += [([[-t0, 0], [0, 1], [0, 5]], [[1, 0], [0, 0], [0, 0]], t0) for t0 in (65519, q // 2)]
    cases.append(([[0, -c, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 0]], None))
    for A0, N0, t0 in cases:
        P, Q = random_invertible(field, 3, rng), random_invertible(field, len(A0[0]), rng)
        yield P @ Matrix.from_rows(field, A0) @ Q, P @ Matrix.from_rows(field, N0) @ Q, t0


def test_large_field_classification_matches_the_rank_at_every_t():
    # Over GF(65521) classify_line finds the smallest root by Horner's rule
    # at t = 0, 1, ...; the oracle takes the rank of A + tN at all 65,521 t.
    for A, N, t0 in _large_field_lines(random.Random(79)):
        res = classify_line(A, N)
        assert res == classify_line_by_ranks(A, N)
        assert res.witness == (None if t0 is None else Scalar(A.field, t0))
        assert res.full_rank == (t0 is None)


# --------------------------------------------------------------- certificates


def test_certificate_json_round_trip_finite():
    A = Matrix.from_rows(F2, [[0, 0], [1, 0], [0, 1]])
    N = canonical_N(F2, 3, 2, 1)
    _, cert = line_full_rank(A, N)
    blob = cert.to_json()
    data = json.loads(blob)
    assert data["verdict"] == "full-rank"
    assert data["field"] == "gf 2"
    back = WitnessCertificate.from_json(blob)
    assert back == cert
    assert validate_certificate(back)


def test_certificate_json_round_trip_rational():
    A = Matrix.from_rows(RATIONALS, [[Fraction(1, 2), 0], [0, 1], [0, 0]])
    N = Matrix.zeros(RATIONALS, 3, 2)
    ok, cert = line_full_rank(A, N)
    assert ok
    back = WitnessCertificate.from_json(cert.to_json())
    assert back == cert
    assert validate_certificate(back)


# -------------------------------------------- line kernel and certificate oracle


def _seeded_certificates(field):
    """(source, certificate) pairs from line_full_rank and all three searches."""
    rng = random.Random(f"certs:{field}")
    out = []
    for _ in range(25):
        p = rng.randint(1, 3)
        n = rng.randint(p, 4)
        ok, cert = line_full_rank(random_matrix(field, n, p, rng),
                                  random_matrix(field, n, p, rng))
        if ok:
            out.append(("line_full_rank", cert))
    for n, p, codim in ((2, 2, 0), (3, 2, 2)):
        shape = MatrixSpaceShape(field, n, p)
        for _ in range(4):
            space = random_subspace(shape, codim, rng)
            N = canonical_N(field, n, p, rng.randrange(p))
            for strategy in (EXHAUSTIVE, RANDOM):
                res = witness_search(space, N, strategy=strategy, budget=200 if
                                     strategy == RANDOM else None, seed=rng.randrange(100))
                if res.found:
                    out.append((strategy, res.certificate))
    shape = MatrixSpaceShape(field, 2, 2)
    for _ in range(4):
        res = constant_det_witness_search(random_affine(shape, 1, rng), canonical_N(field, 2, 2, 1))
        if res.found:
            out.append(("constant-det", res.certificate))
    return out


@pytest.mark.parametrize("field", [F2, F3, F5, F7])
def test_line_rows_matches_matrix_arithmetic(field):
    rng = random.Random(f"line_rows:{field}")
    for _ in range(30):
        p = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = random_matrix(field, n, p, rng)
        N = random_matrix(field, n, p, rng)
        assert line_rows(A.rows, N.rows, 0, field.modulus) is A.rows
        for t in field.elements():
            assert line_rows(A.rows, N.rows, t, field.modulus) == (A + N.scale(t)).rows


@pytest.mark.parametrize("field", [F2, F3, F5, F7])
def test_certificates_equal_fully_recomputed_ones(field):
    # Each certificate's analysis is the one the per-t rank oracle gives,
    # and a Remark 2 witness's says constant-nonzero, the claim itself.
    pairs = _seeded_certificates(field)
    assert {src for src, _ in pairs} == {"line_full_rank", EXHAUSTIVE, RANDOM, "constant-det"}
    for src, cert in pairs:
        assert cert.analysis == classify_line_by_ranks(cert.A, cert.N)
        assert WitnessCertificate.from_json(cert.to_json()) == cert
        assert validate_certificate(cert)
        if src == "constant-det":
            assert cert.analysis.classification == CONSTANT_NONZERO


def test_seeded_witnesses_unchanged_from_the_table_certificates():
    blob = "".join(f"{src}\n{cert.A.to_text()}{cert.N.to_text()}"
                   for field in (F2, F3, F5, F7) for src, cert in _seeded_certificates(field))
    assert blob.count("\nfield ") == 2 * 132
    assert hashlib.sha256(blob.encode()).hexdigest() == WITNESSES_SHA256


def test_tampered_certificate_fails_validation():
    A = Matrix.from_rows(F2, [[0, 0], [1, 0], [0, 1]])
    N = canonical_N(F2, 3, 2, 1)
    _, cert = line_full_rank(A, N)
    assert not validate_certificate(WitnessCertificate(Matrix.zeros(F2, 3, 2), N, cert.analysis))
    # A + t*A drops rank at t = 1, whatever analysis the certificate claims.
    assert not validate_certificate(WitnessCertificate(A, A, cert.analysis))


def test_certificate_json_refuses_other_verdicts_and_the_table_form():
    _, cert = line_full_rank(Matrix.from_rows(F2, [[0, 0], [1, 0], [0, 1]]), canonical_N(F2, 3, 2, 1))
    obj = cert.to_json_obj()
    for verdict in ("rank-drop", "bogus"):
        with pytest.raises(ValueError, match="verdict"):
            WitnessCertificate.from_json_obj({**obj, "verdict": verdict})
    with pytest.raises(ValueError, match="'table' form is retired"):
        WitnessCertificate.from_json(TABLE_CERT_JSON)
    with pytest.raises(AttributeError):
        cert.verdict = "rank-drop"


@pytest.mark.parametrize("n, p", [(3, 3), (6, 6), (5, 3)])
def test_large_field_certificates_take_no_per_t_rank(n, p, monkeypatch):
    # Over GF(65521) the retired table held 65,521 ranks (3.2 MB of JSON at
    # n = p = 3); the analysis certificate is read off one polynomial.
    calls = []
    real = lines._first_rank_drop
    monkeypatch.setattr(lines, "_first_rank_drop", lambda *a: calls.append(1) or real(*a))
    field = GF(65521)
    A, N = lemma1_witness(n, p, p - 1, field), canonical_N(field, n, p, p - 1)
    ok, cert = line_full_rank(A, N)
    assert ok and validate_certificate(cert)
    assert len(cert.to_json().encode()) < 2048
    assert calls == []


def test_certificate_with_fewer_rows_than_columns_fails_validation():
    A = Matrix.from_rows(RATIONALS, [[1, 0, 0], [0, 1, 0]])
    N = Matrix.zeros(RATIONALS, 2, 3)
    one = Poly(RATIONALS, (RATIONALS.one,))
    cert = WitnessCertificate(A, N, PencilAnalysis(one, "minor-gcd", CONSTANT_NONZERO))
    assert not validate_certificate(cert)
    assert not validate_certificate(WitnessCertificate.from_json(cert.to_json()))
    wide = WitnessCertificate(Matrix.zeros(F2, 2, 3), Matrix.zeros(F2, 2, 3),
                              PencilAnalysis(Poly(F2, (1,)), "minor-gcd", CONSTANT_NONZERO))
    assert not validate_certificate(wide)


# -------------------------------------------------------------- side conditions


def test_maps_ker_into_im_canonical_direction():
    # N = I_2 (+) 0 in Mat_3: Ker N = <e3>, im N = <e1, e2>; M maps the kernel
    # into the image iff its (3,3) entry vanishes.
    N = canonical_N(F2, 3, 3, 2)
    rng = random.Random(79)
    for _ in range(60):
        M = random_matrix(F2, 3, 3, rng)
        assert maps_ker_into_im(M, N) == (M.rows[2][2] == 0)


def test_maps_ker_into_im_trivial_cases():
    N = canonical_N(F3, 3, 3, 2)
    assert maps_ker_into_im(N, N)
    assert maps_ker_into_im(Matrix.zeros(F3, 3, 3), N)
    assert not maps_ker_into_im(Matrix.unit(F3, 3, 3, 2, 2), N)
    # full-rank N has trivial kernel, so the condition is vacuous
    assert maps_ker_into_im(Matrix.identity(F3, 3), Matrix.identity(F3, 3))


def test_ker_coker_noninjective_canonical_direction():
    # With N = I_r (+) 0, the induced map Ker N -> coker N is represented by
    # the lower-right block D, so non-injectivity is det-like: rank D < n - r.
    rng = random.Random(83)
    for r in (1, 2):
        N = canonical_N(F2, 3, 3, r)
        for _ in range(40):
            M = random_matrix(F2, 3, 3, rng)
            D = [row[r:] for row in M.rows[r:]]
            D_rank = rank(Matrix.from_rows(F2, D))
            assert ker_coker_noninjective(M, N) == (D_rank < 3 - r)


def test_side_conditions_agree_at_corank_one():
    # When rank N = n - 1 both predicates test the same 1-dimensional map.
    N = canonical_N(F2, 3, 3, 2)
    shape = MatrixSpaceShape(F2, 3, 3)
    full = _full_space(F2, 3, 3)
    for rows in full.elements():
        M = Matrix(F2, 3, 3, rows)
        assert maps_ker_into_im(M, N) == ker_coker_noninjective(M, N)
    assert shape.ambient_dim == 9


def test_side_condition_predicates_are_conjugation_invariant():
    rng = random.Random(89)
    for _ in range(25):
        n = rng.randint(2, 4)
        r = rng.randint(1, n - 1)
        N = canonical_N(F3, n, n, r)
        M = random_matrix(F3, n, n, rng)
        P = random_invertible(F3, n, rng)
        # P^-1 falls out of the rank normal form: Pm @ P @ Qm = I
        Pm, Qm = to_rank_normal_form(P)
        Pi = Qm @ Pm
        assert (Pi @ P) == Matrix.identity(F3, n)
        M2 = Pi @ M @ P
        N2 = Pi @ N @ P
        assert maps_ker_into_im(M, N) == maps_ker_into_im(M2, N2)
        assert ker_coker_noninjective(M, N) == ker_coker_noninjective(M2, N2)


def test_square_side_conditions_require_square_input():
    with pytest.raises(ValueError):
        maps_ker_into_im(Matrix.zeros(F2, 3, 2), Matrix.zeros(F2, 3, 2))
    with pytest.raises(ValueError):
        ker_coker_noninjective(Matrix.zeros(F2, 2, 2), Matrix.zeros(F2, 3, 3))


# ------------------------------------------------------------- witness search


@pytest.mark.parametrize("call, message", [
    (lambda: witness_search(from_generators(MatrixSpaceShape(F2, 2, 2), []),
                            canonical_N(F2, 2, 2, 1), strategy="greedy"),
     "unknown strategy 'greedy'"),
    (lambda: constant_det_witness_search(from_generators(MatrixSpaceShape(F2, 3, 2), []),
                                         canonical_N(F2, 3, 2, 1)),
     "constant-determinant search requires a square shape"),
], ids=["unknown-strategy", "constant-det-tall"])
def test_searches_refuse_a_strategy_or_shape_they_do_not_have(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_witness_search_full_space_finds_subdiagonal_style_witness():
    space = _full_space(F2, 3, 2)
    N = canonical_N(F2, 3, 2, 1)
    out = witness_search(space, N)
    assert out.status == WITNESS_FOUND
    assert out.found
    assert validate_certificate(out.certificate)
    assert space.contains(out.certificate.A)
    assert out.cases_examined >= 1


def test_witness_search_exhausts_on_sharp_example():
    # matrices whose first column is supported on row 1 only; with the rank-1
    # canonical direction no member keeps full rank on the whole line
    shape = MatrixSpaceShape(F2, 3, 2)
    gens = [Matrix.unit(F2, 3, 2, 0, 0)]
    gens += [Matrix.unit(F2, 3, 2, i, 1) for i in range(3)]
    space = from_generators(shape, gens)
    assert space.codim == 2
    N = canonical_N(F2, 3, 2, 1)
    out = witness_search(space, N)
    assert out.status == EXHAUSTED_NO_WITNESS
    assert out.certificate is None
    assert out.cases_examined == 16


def test_witness_search_affine():
    lin = from_generators(MatrixSpaceShape(F2, 3, 2),
                          [Matrix.unit(F2, 3, 2, 1, 0),
                           Matrix.unit(F2, 3, 2, 2, 1)])
    aff = affine_from_point(lin, Matrix.zeros(F2, 3, 2))
    N = canonical_N(F2, 3, 2, 1)
    out = witness_search(aff, N)
    assert out.found
    assert aff.contains(out.certificate.A)


def test_witness_search_rejects_full_rank_direction():
    space = _full_space(F2, 2, 2)
    with pytest.raises(ValueError):
        witness_search(space, Matrix.identity(F2, 2))


def test_invalid_directions_raise_on_every_search():
    # The direction check is cached, but a failed check is not: a full-rank
    # N and an N over another field raise on each of two searches in a row.
    space = random_affine(MatrixSpaceShape(F3, 3, 3), 4, random.Random("invalid-N"))
    full_rank = canonical_N(F3, 3, 3, 3)
    foreign = canonical_N(F2, 3, 3, 2)
    for search in (witness_search, constant_det_witness_search):
        for N, error in ((full_rank, ValueError), (foreign, FieldMismatchError)):
            for _ in range(2):
                with pytest.raises(error):
                    search(space, N)


def test_witness_search_zero_direction_reduces_to_rank():
    space = _full_space(F3, 2, 2)
    out = witness_search(space, Matrix.zeros(F3, 2, 2))
    assert out.found
    assert rank(out.certificate.A) == 2


def test_witness_search_random_strategy_is_seeded():
    space = _full_space(F3, 3, 2)
    N = canonical_N(F3, 3, 2, 1)
    a = witness_search(space, N, strategy=RANDOM, budget=50, seed=4)
    b = witness_search(space, N, strategy=RANDOM, budget=50, seed=4)
    assert a.found and b.found
    assert a.certificate == b.certificate
    assert a.cases_examined == b.cases_examined


def test_witness_search_random_budget_exhaustion():
    # sharp example has no witness; the random strategy can only give up
    shape = MatrixSpaceShape(F2, 3, 2)
    gens = [Matrix.unit(F2, 3, 2, 0, 0)]
    gens += [Matrix.unit(F2, 3, 2, i, 1) for i in range(3)]
    space = from_generators(shape, gens)
    N = canonical_N(F2, 3, 2, 1)
    out = witness_search(space, N, strategy=RANDOM, budget=25, seed=0)
    assert out.status == BUDGET_EXHAUSTED
    assert out.certificate is None
    assert out.cases_examined == 25
    assert DEFAULT_RANDOM_BUDGET == 10_000


def test_witness_search_exhaustive_budget_propagates():
    space = _full_space(F2, 5, 5)
    N = canonical_N(F2, 5, 5, 1)
    with pytest.raises(BudgetExceededError):
        witness_search(space, N, budget=1 << 10)


@pytest.mark.parametrize("budget", [0, -1, -5])
def test_searches_reject_a_budget_below_one(budget):
    space = _full_space(F3, 2, 2)
    N = canonical_N(F3, 2, 2, 1)
    for strategy in (EXHAUSTIVE, RANDOM):
        with pytest.raises(ValueError, match="budget must be positive"):
            witness_search(space, N, strategy=strategy, budget=budget)
    with pytest.raises(ValueError, match="budget must be positive"):
        constant_det_witness_search(space, N, budget=budget)
    # None keeps the defaults, and 1 is the smallest budget accepted.
    assert witness_search(space, N, budget=None).found
    assert witness_search(space, N, strategy=RANDOM, budget=1, seed=0).cases_examined == 1
    assert constant_det_witness_search(space, N, budget=None).found


def test_witness_search_needs_a_finite_field():
    # uniform sampling (and exhaustive scans) are undefined over the rationals
    shape = MatrixSpaceShape(RATIONALS, 2, 2)
    gens = [Matrix.unit(RATIONALS, 2, 2, i, j) for i in range(2) for j in range(2)]
    space = from_generators(shape, gens)
    N = canonical_N(RATIONALS, 2, 2, 1)
    with pytest.raises(ValueError):
        witness_search(space, N, strategy=RANDOM, budget=10, seed=1)
    with pytest.raises(ValueError):
        witness_search(space, N)


def test_search_outcome_is_plain_record():
    out = SearchOutcome(EXHAUSTED_NO_WITNESS, None, 7)
    assert not out.found
    assert out.cases_examined == 7


# ------------------------------------------------- constant determinant search


def test_constant_det_search_on_full_matrix_space():
    space = _full_space(F3, 2, 2)
    N = canonical_N(F3, 2, 2, 1)
    out = constant_det_witness_search(space, N)
    assert out.status == WITNESS_FOUND
    A = out.certificate.A
    p = det_pencil(A, N)
    assert p.degree == 0


def test_constant_det_search_requires_corank_one_direction():
    space = _full_space(F2, 3, 3)
    with pytest.raises(ValueError):
        constant_det_witness_search(space, canonical_N(F2, 3, 3, 1))


def test_constant_det_witness_is_also_plain_witness():
    rng = random.Random(97)
    shape = MatrixSpaceShape(F3, 3, 3)
    N = canonical_N(F3, 3, 3, 2)
    hits = 0
    for _ in range(10):
        aff = random_affine(shape, 1, rng)
        out = constant_det_witness_search(aff, N)
        if out.found:
            hits += 1
            ok, _ = line_full_rank(out.certificate.A, N)
            assert ok
            assert classify_line(out.certificate.A, N).classification == "constant-nonzero"
    assert hits > 0


def test_constant_det_fast_path_matches_formal_classification():
    # the formal pencil determinant must agree with the search's witness
    shape = MatrixSpaceShape(F5, 2, 2)
    N = canonical_N(F5, 2, 2, 1)
    space = _full_space(F5, 2, 2)
    out = constant_det_witness_search(space, N)
    assert out.found
    A = out.certificate.A
    assert det_pencil(A, N).degree == 0
    assert det(A).value != 0


def _cycle(field, n):
    """Ones on the superdiagonal and at (n-1, 0): det(A + tN) = +-1 for N of rank n-1."""
    return Matrix.from_rows(field, [[1 if j == (i + 1) % n else 0 for j in range(n)]
                                    for i in range(n)])


def _inverse(M):
    # M^-1 falls out of the rank normal form: P @ M @ Q = I
    P, Q = to_rank_normal_form(M)
    return Q @ P


def _bordered(X):
    """diag(X, 1)."""
    k = X.nrows
    return Matrix.from_rows(X.field, [list(row) + [0] for row in X.rows] + [[0] * k + [1]])


def _point(A):
    """The 0-dimensional coset {A}."""
    shape = MatrixSpaceShape(A.field, A.nrows, A.ncols)
    return affine_from_point(from_generators(shape, []), A)


@pytest.mark.parametrize("field", [F2, F3, F5], ids=str)
def test_constant_det_test_matches_det_pencil_on_seeded_members(field):
    # Members come in three kinds: uniform, constant-determinant ones
    # L @ cycle @ R with L @ N @ R = N, and those with one entry changed.
    # Each is checked against the canonical N and against G @ N @ H.
    rng = random.Random(f"constant-det-oracle:{field}")
    q = field.order
    outcomes = {False: 0, True: 0}
    for n in range(1, 7):
        N = canonical_N(field, n, n, n - 1)
        for _ in range(32):
            U = random_invertible(field, n - 1, rng)
            L, R = _bordered(U), _bordered(_inverse(U))
            assert L @ N @ R == N
            good = L @ _cycle(field, n) @ R
            rows = [list(row) for row in good.rows]
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = (rows[i][j] + rng.randrange(1, q)) % q
            for A in (random_matrix(field, n, n, rng), good, Matrix.from_rows(field, rows)):
                G = random_invertible(field, n, rng)
                H = random_invertible(field, n, rng)
                for A2, N2 in ((A, N), (G @ A @ H, G @ N @ H)):
                    want = det_pencil(A2, N2).degree == 0
                    out = constant_det_witness_search(_point(A2), N2)
                    assert out.found == want, (A2, N2)
                    assert out.cases_examined == 1
                    outcomes[want] += 1
    assert min(outcomes.values()) >= 300, outcomes


def _lane_tables(field, members, n):
    """The bitsliced tables of members, member s in lane s, as a tuple of
    row tuples."""
    q = field.order
    T = []
    for i in range(n):
        T.append([])
        for j in range(n):
            planes = [sum(1 << s for s, A in enumerate(members) if A[i][j] == v)
                      for v in range(1, q)]
            T[i].append(None if not any(planes) else planes[0] if q == 2 else tuple(planes))
    return tuple(map(tuple, T))


@pytest.mark.parametrize("field, n", [(F2, 2), (F2, 3), (F3, 2), (F3, 3)],
                         ids=["gf 2, n 2", "gf 2, n 3", "gf 3, n 2", "gf 3, n 3"])
def test_constant_det_rejects_a_nonzero_corner_in_both_kernels(field, n):
    # A member with a nonzero corner can pass the Markov test and det A:
    # [[0, 1], [1, 1]] has det -1, yet det(A + tN) = t - 1.  The scalar
    # test and the lanes of one block must both follow det_pencil on every
    # n x n matrix (n = 3 over GF(3): a seeded sample).
    q, last = field.order, n - 1
    members = [tuple(tuple(v[i * n:(i + 1) * n]) for i in range(n))
               for v in itertools.product(range(q), repeat=n * n)]
    if len(members) > 4096:
        members = random.Random(f"constant-det-corner:{field}").sample(members, 4096)
    if n == 2:
        assert ((0, 1), (1, 1)) in members
    N = canonical_N(field, n, n, n - 1)
    want = [det_pencil(Matrix(field, n, n, rows), N).degree == 0 for rows in members]
    assert [lines._constant_det(rows, last, q) for rows in members] == want
    ops = lines._GF2 if q == 2 else lines._GF3
    mask = lines._block_mask(ops, _lane_tables(field, members, n), (1 << len(members)) - 1)
    assert [bool(mask >> s & 1) for s in range(len(members))] == want
    # Members that only the corner rule rejects: det A != 0 and, for n = 3,
    # the one Markov parameter v u = 0.
    corner_only = [rows for rows in members if rows[last][last]
                   and (n == 2 or sum(rows[i][last] * rows[last][i] for i in range(last)) % q == 0)
                   and det(Matrix(field, n, n, rows)).value != 0]
    assert len(corner_only) >= 4, len(corner_only)


@pytest.mark.parametrize("field", [F2, F3], ids=str)
def test_constant_det_search_keeps_member_order_for_any_direction(field):
    # With N moved off canonical form the search walks the transported
    # coset; its witness and count must be those of the space's own order.
    rng = random.Random(f"constant-det-order:{field}")
    found = {False: 0, True: 0}
    for n in (2, 3, 4):
        shape = MatrixSpaceShape(field, n, n)
        N0 = canonical_N(field, n, n, n - 1)
        for _ in range(6):
            codim = n * n - min(n * n, 4 if field.order == 2 else 3)
            space = random_affine(shape, codim, rng)
            moved = random_invertible(field, n, rng) @ N0 @ random_invertible(field, n, rng)
            for N in (N0, moved):
                members = [Matrix(field, n, n, rows) for rows in space.elements()]
                hits = [k for k, M in enumerate(members) if det_pencil(M, N).degree == 0]
                out = constant_det_witness_search(space, N)
                if hits:
                    found[N is moved] += 1
                    assert out.found and out.cases_examined == hits[0] + 1
                    assert out.certificate.A == members[hits[0]]
                else:
                    assert not out.found and out.cases_examined == len(members)
    assert min(found.values()) > 3, found


@pytest.mark.parametrize("field", [F2, F3, F5], ids=str)
def test_constant_det_search_matches_the_full_walk_oracle(field, monkeypatch):
    # The search reads a member table or tests the transported coset,
    # bitsliced over GF(2) and GF(3); the oracle tests every member of the
    # space's own order by det_pencil.  Status, witness and count must all
    # agree, on each route and both sides of the table bound.
    routes = _search_routes(monkeypatch)
    sides: dict = {}
    rng = random.Random(f"constant-det-slice:{field}")
    q = field.order
    max_dim = {2: 10, 3: 6, 5: 4}[q]
    found = {False: 0, True: 0}
    for n in (1, 2, 3, 4, 5):
        shape = MatrixSpaceShape(field, n, n)
        m = n * n
        N0 = canonical_N(field, n, n, n - 1)
        for k in range(40):
            codim = m - rng.randint(0, min(m, max_dim))
            space = (random_affine(shape, codim, rng) if k % 4 else
                     random_subspace(shape, codim, rng))
            moved = random_invertible(field, n, rng) @ N0 @ random_invertible(field, n, rng)
            for N in (N0, moved):
                routes.clear()
                out = constant_det_witness_search(space, N)
                assert out == constant_det_search_full_walk(space, N), (space, N)
                found[out.found] += 1
                if side := _table_side(field, n, n):
                    assert routes == [_expected_route(field, n, N == N0)]
                    sides.setdefault(side, set()).add((n, n - 1, out.found, N == N0))
                else:
                    assert routes == []
    assert min(found.values()) > 50, found
    if field.order <= 3:
        ranks_by_n: dict = {"in": {}, "past": {}}
        for n in range(1, 6):
            ranks_by_n[_table_side(field, n, n)][n] = [n - 1]
        _check_sides(sides, ranks_by_n)


@pytest.mark.parametrize("field", [F2, F3], ids=str)
def test_bitsliced_lane_tables_sum_shared_columns(field):
    # Every basis row is a unit vector plus q-1 in the same two columns,
    # both past every pivot, so each of those entries' lane tables sums (and
    # over GF(3) negates) the digit tables of several fast rows.  With N moved, the
    # transported rows are dense.  The search must equal the full walk.
    q = field.order
    rng = random.Random(f"lane-tables:{field}")
    max_dim = {2: 8, 3: 5}[q]
    found = {False: 0, True: 0}
    for n in (2, 3, 4):
        shape = MatrixSpaceShape(field, n, n)
        m = n * n
        N0 = canonical_N(field, n, n, n - 1)
        for _ in range(16):
            shared = sorted(rng.sample(range(m // 2, m), 2))
            pivots = rng.sample(range(shared[0]), min(shared[0], rng.randint(2, max_dim)))
            gens = []
            for j in pivots:
                vec = [0] * m
                vec[j] = 1
                for c in shared:
                    vec[c] = q - 1
                gens.append(Matrix(field, n, n, tuple(tuple(vec[i * n:(i + 1) * n])
                                                      for i in range(n))))
            lin = from_generators(shape, gens)
            assert all(row[c] == q - 1 for row in lin.basis for c in shared)
            space = affine_from_point(lin, random_matrix(field, n, n, rng))
            moved = random_invertible(field, n, rng) @ N0 @ random_invertible(field, n, rng)
            for N in (N0, moved):
                out = constant_det_witness_search(space, N)
                assert out == constant_det_search_full_walk(space, N), (space, N)
                found[out.found] += 1
    assert min(found.values()) > 5, found


@pytest.mark.parametrize("field", [F2, F3, F5], ids=str)
def test_constant_det_witness_is_the_spaces_own_member(field, monkeypatch):
    # A lane witness (GF(2), GF(3)) is rebuilt once to be tested again, and
    # a walked one (GF(5)) is the member as walked; with N moved either is
    # rebuilt once more from the space's own basis and base.  Every empty
    # basis is the same (), so a point (d = 0) with N moved must still come
    # back untransported.
    calls = []
    real = lines._member
    monkeypatch.setattr(lines, "_member", lambda *a: calls.append(1) or real(*a))
    rng = random.Random(f"constant-det-own-member:{field}")
    seen = set()
    for n in (2, 3):
        shape = MatrixSpaceShape(field, n, n)
        N0 = canonical_N(field, n, n, n - 1)
        for dim in (0, 0, 1, 2, 3):
            for _ in range(12):
                space = random_affine(shape, n * n - dim, rng)
                moved = random_invertible(field, n, rng) @ N0 @ random_invertible(field, n, rng)
                for N in (N0, moved):
                    calls.clear()
                    out = constant_det_witness_search(space, N)
                    assert out == constant_det_search_full_walk(space, N), (space, N)
                    if out.found:
                        assert space.contains(out.certificate.A)
                        assert len(calls) == (field.order < 5) + (N != N0)
                        seen.add((dim > 0, N != N0))
                    else:
                        assert calls == []
    assert len(seen) == 4, seen


def _corner_free_coset(field, n, dim, rng):
    """A seeded coset whose basis and base have a zero corner (n-1, n-1):
    with the canonical N the corner rule rejects no lane, so a first
    witness can fall in any lane of a block."""
    shape = MatrixSpaceShape(field, n, n)

    def corner_free():
        rows = [list(row) for row in random_matrix(field, n, n, rng).rows]
        rows[n - 1][n - 1] = 0
        return Matrix.from_rows(field, rows)
    lin = from_generators(shape, [corner_free() for _ in range(dim)])
    return affine_from_point(lin, corner_free())


@pytest.mark.parametrize("field, n, codims", [(F2, 4, (0, 1)), (F3, 3, (0,))],
                         ids=["gf 2", "gf 3"])
def test_bitsliced_search_walks_the_coset_in_blocks(field, n, codims, monkeypatch):
    # These cosets span several blocks of lanes.  The search stops at the
    # first block with a passing lane; status, witness and count must equal
    # the full walk's, and some witnesses must lie past the first block.
    blocks = []
    real = lines._block_mask
    monkeypatch.setattr(lines, "_block_mask", lambda *a: blocks.append(1) or real(*a))
    rng = random.Random(f"constant-det-blocks:{field}")
    shape = MatrixSpaceShape(field, n, n)
    N0 = canonical_N(field, n, n, n - 1)
    lanes = field.order ** lines._LANE_DIGITS[field.order]
    assert field.order ** (n * n - 2) > lanes
    later = 0
    for codim in codims:
        for k in range(3):
            space = random_affine(shape, codim, rng) if k else random_subspace(shape, codim, rng)
            moved = random_invertible(field, n, rng) @ N0 @ random_invertible(field, n, rng)
            for N in (N0, moved):
                blocks.clear()
                out = constant_det_witness_search(space, N)
                assert out == constant_det_search_full_walk(space, N), (space, N)
                later += out.found and len(blocks) > 1
    assert later >= 3, later


@pytest.mark.parametrize("field", [F2, F3], ids=str)
def test_bitsliced_search_finds_witnesses_at_block_edges(field, monkeypatch):
    # With q^2 lanes to a block, seeded corner-free cosets put first
    # witnesses in the last lane of a block and in the first lane of the
    # next; each search must equal the full walk.
    q = field.order
    monkeypatch.setattr(lines, "_LANE_DIGITS", {q: 2})
    lanes = q * q
    rng = random.Random(f"constant-det-edges:{field}")
    N = canonical_N(field, 3, 3, 2)
    edges = set()
    for _ in range(300):
        space = _corner_free_coset(field, 3, 6 if q == 2 else 4, rng)
        out = constant_det_witness_search(space, N)
        assert out == constant_det_search_full_walk(space, N), space
        s = out.cases_examined - 1
        if out.found and s >= lanes - 1 and s % lanes in (0, lanes - 1):
            edges.add(s % lanes)
        if len(edges) == 2:
            break
    assert edges == {0, lanes - 1}, edges


def test_constant_det_search_checks_the_budget_before_any_table(monkeypatch):
    # The block walk: no member table within a bound of 0.
    def refuse(*args):
        raise AssertionError("a table was built")
    monkeypatch.setattr(lines, "_TABLE_MEMBERS", 0)
    monkeypatch.setattr(lines, "_digit_tables", refuse)
    for field in (F2, F3):
        space, N = _full_space(field, 3, 3), canonical_N(field, 3, 3, 2)
        with pytest.raises(BudgetExceededError):
            constant_det_witness_search(space, N, budget=field.order ** 9 - 1)
        with pytest.raises(AssertionError, match="a table was built"):
            constant_det_witness_search(space, N, budget=field.order ** 9)


def test_bitsliced_tables_hold_lane_digits_and_gf3_arithmetic():
    # Digit tables against the division they avoid, memoized entry tables
    # against v + sum_k c_k * digit_k(s) mod q, and the GF(3) planes
    # against the field's own sum and product, lane by lane.
    for q in (2, 3):
        for b in range(5):
            ones, X = lines._digit_tables(q, b)
            assert ones == (1 << q ** b) - 1 and len(X) == b
            for s in range(q ** b):
                for k, c in enumerate(_odometer_digits(s, q, b)):
                    planes = (X[k],) if q == 2 else X[k]
                    assert [v >> s & 1 for v in planes] == [int(c == v) for v in range(1, q)]
    rng = random.Random("lane-tables")
    for q in (2, 3):
        for b in range(7):
            lanes = range(q ** b)
            digits = [_odometer_digits(s, q, b) for s in lanes]
            columns = [(0,) * b] + [tuple(rng.randrange(q) for _ in range(b)) for _ in range(4)]
            for column in columns:
                for v in range(q):
                    want = [(v + sum(c * x for c, x in zip(column, ds))) % q for ds in digits]
                    table = lines._lane_table(q, v, column)
                    if not any(want):
                        assert table is None, (q, v, column)
                        continue
                    planes = (table,) if q == 2 else table
                    got = [sum(k * (plane >> s & 1) for k, plane in enumerate(planes, 1))
                           for s in lanes]
                    assert got == want, (q, v, column)
    _, (first, second) = lines._digit_tables(3, 2)

    def value(a, s):
        return (a[0] >> s & 1) + 2 * (a[1] >> s & 1)
    total, product = lines._add3(first, second), lines._mul3(first, second)
    for s in range(9):
        a, b = value(first, s), value(second, s)
        assert (value(total, s), value(product, s)) == ((a + b) % 3, a * b % 3)
        assert value(lines._GF3.neg(first), s) == -a % 3


def _bench_sweep_pin(monkeypatch, n, p):
    """sha256 of the signature of bench/workloads.py's pinned n x p sweep."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads.SWEEP_PINS[(n, p)][1]


def test_lane_memos_are_bounded_and_keep_every_report(monkeypatch):
    # The lane-table and head-minors memos are keyed by patterns, never by
    # a case, and bounded: a sampled GF(3) remark2-strong campaign and the
    # GF(2) 3 x 3 main sweep that the benchmark pins give the same
    # signatures with both memos cleared before every case as with them
    # warm, and no search changes a cached minors dict.  Both campaigns
    # walk lane blocks here: no member table within a bound of 0.  The
    # remark2 blocks ask the head memo; the sweep's full-rank test never does.
    monkeypatch.setattr(lines, "_TABLE_MEMBERS", 0)
    memos = (lines._lane_table, lines._head_minors)
    assert all(isinstance(memo.cache_info().maxsize, int) for memo in memos)
    handed = []
    real_minors = lines._head_minors

    def recorded(q, head):
        minors = real_minors(q, head)
        handed.append((q, head, minors, dict(minors)))
        return minors
    monkeypatch.setattr(lines, "_head_minors", recorded)
    specs = [CampaignSpec(theorem="remark2-strong", field=F3, n=3, p=3, codims=(1,),
                          rank_range=(2,), mode="sample", samples=300, seed=11),
             CampaignSpec(theorem="main", field=F2, n=3, p=3, codims=(0, 1),
                          rank_range=(0, 1, 2))]
    warm, asked = [], []
    for spec in specs:
        warm.append(run_campaign(spec).signature())
        asked.append(len(handed) - sum(asked))
    assert asked[0] >= 300 and asked[1] == 0, asked  # about one per remark2 case
    real_case = verify._process_case

    def cold(*args):
        for memo in memos:
            memo.cache_clear()
        return real_case(*args)
    monkeypatch.setattr(verify, "_process_case", cold)
    assert [run_campaign(spec).signature() for spec in specs] == warm
    assert hashlib.sha256(warm[1].encode()).hexdigest() == _bench_sweep_pin(monkeypatch, 3, 3)
    for q, head, minors, at_return in handed:
        assert minors == at_return == lines._minors(lines._PLANES[q], head)


def test_row_text_memo_is_bounded_and_keeps_every_report(monkeypatch):
    # The case hash reads each space's text, whose rows the row-text memo
    # looks up by content: a sampled GF(3) remark2-strong campaign and the
    # GF(2) 3 x 3 main sweep that the benchmark pins give the same
    # signatures with the memo cleared before every text as with it warm.
    memo = matrices._row_text
    assert isinstance(memo.cache_info().maxsize, int)
    specs = [CampaignSpec(theorem="remark2-strong", field=F3, n=3, p=3, codims=(1,),
                          rank_range=(2,), mode="sample", samples=300, seed=11),
             CampaignSpec(theorem="main", field=F2, n=3, p=3, codims=(0, 1),
                          rank_range=(0, 1, 2))]
    memo.cache_clear()
    warm = [run_campaign(spec).signature() for spec in specs]
    assert memo.cache_info().hits > memo.cache_info().misses
    real_write = matrices._write_text
    cleared = []

    def cold(*args):
        memo.cache_clear()
        cleared.append(1)
        return real_write(*args)
    monkeypatch.setattr(matrices, "_write_text", cold)
    monkeypatch.setattr(spaces, "_write_text", cold)
    assert [run_campaign(spec).signature() for spec in specs] == warm
    assert len(cleared) > 300
    assert hashlib.sha256(warm[1].encode()).hexdigest() == _bench_sweep_pin(monkeypatch, 3, 3)


def test_bitsliced_witness_is_tested_again(monkeypatch):
    # A kernel that passed every lane would return coset member 0, the
    # zero matrix here; the scalar re-test refuses it.  The block walk: no
    # member table within a bound of 0.
    monkeypatch.setattr(lines, "_TABLE_MEMBERS", 0)
    monkeypatch.setattr(lines, "_block_mask", lambda ops, T, ones: ones)
    for field in (F2, F3):
        with pytest.raises(RuntimeError, match="fails the constant-determinant test"):
            constant_det_witness_search(_full_space(field, 3, 3), canonical_N(field, 3, 3, 2))


@pytest.mark.parametrize("field", [F2, F3, F5], ids=str)
def test_constant_det_search_takes_no_minors(field, monkeypatch):
    # The Markov parameters v B^k u need no minor: the only determinant the
    # walk over GF(5) takes is det A itself, n x n.  Over GF(2) and GF(3)
    # the members are tested bitsliced, and the one scalar re-test of a
    # found witness is a search's only determinant, however many members
    # it covers.
    sizes = []
    real = lines._det_modp
    monkeypatch.setattr(lines, "_det_modp", lambda rows, p: sizes.append(len(rows)) or real(rows, p))
    rng = random.Random(f"constant-det-sizes:{field}")
    dim = {2: 8, 3: 5, 5: 3}[field.order]
    for n in (4, 5):
        shape = MatrixSpaceShape(field, n, n)
        N = canonical_N(field, n, n, n - 1)
        seen = set()
        for _ in range(10):
            out = constant_det_witness_search(random_affine(shape, n * n - dim, rng), N)
            seen.update(sizes)
            if field.order <= 3:
                assert len(sizes) == out.found, out
            sizes.clear()
        assert seen == {n}, n
    if field.order == 2:  # 256 members, no witness: no determinant at all
        assert constant_det_witness_search(*remark2_f2_example()).cases_examined == 256
        assert sizes == []
    if field.order <= 3:  # a witness after hundreds of members: one determinant
        n = 6 - field.order
        out = constant_det_witness_search(_full_space(field, n, n), canonical_N(field, n, n, n - 1))
        assert out.cases_examined > 800 and sizes == [n], out.cases_examined


def _first_row_free(field, n, corner):
    """The cycle matrix (see _cycle) with its first row free and its corner
    (n-1, n-1) set to corner: no basis row has a corner entry."""
    shape = MatrixSpaceShape(field, n, n)
    lin = from_generators(shape, [Matrix.unit(field, n, n, 0, j) for j in range(n)])
    rows = [list(row) for row in _cycle(field, n).rows]
    rows[n - 1][n - 1] = corner
    return affine_from_point(lin, Matrix.from_rows(field, rows))


def test_constant_det_search_pins_the_corner_edge_cases():
    # No basis row touches the corner and the base's is 1, so no member has
    # a zero corner, none a constant determinant, and all q^d are counted.
    for field in (F2, F3):
        q = field.order
        N = canonical_N(field, 3, 3, 2)
        empty = _first_row_free(field, 3, 1)
        out = constant_det_witness_search(empty, N)
        assert (out.status, out.cases_examined) == (EXHAUSTED_NO_WITNESS, q ** 3)
        assert out == constant_det_search_full_walk(empty, N)
        # The same basis with corner 0: every member has a zero corner.
        whole = _first_row_free(field, 3, 0)
        out = constant_det_witness_search(whole, N)
        assert out.found and out == constant_det_search_full_walk(whole, N)
    # n = 1: N = 0 and det(A + tN) = A[0][0], so there is no corner rule;
    # the witness is the first nonzero member.
    line = from_generators(MatrixSpaceShape(F3, 1, 1), [Matrix.from_rows(F3, [[1]])])
    out = constant_det_witness_search(line, canonical_N(F3, 1, 1, 0))
    assert out.cases_examined == 2 and out.certificate.A.rows == ((1,),)
    zero = from_generators(MatrixSpaceShape(F3, 1, 1), [])
    out = constant_det_witness_search(zero, canonical_N(F3, 1, 1, 0))
    assert (out.status, out.cases_examined) == (EXHAUSTED_NO_WITNESS, 1)
    # The budget bounds the whole coset (q^d = 81), not its 27 members with
    # a zero corner.
    space, N = _full_space(F3, 2, 2), canonical_N(F3, 2, 2, 1)
    with pytest.raises(BudgetExceededError, match="81 elements exceed the budget of 30"):
        constant_det_witness_search(space, N, budget=30)
    assert constant_det_witness_search(space, N, budget=81).found


# ------------------------------------------------- bitsliced full-rank search


def _moved(N, rng):
    """N conjugated by seeded invertible matrices: the same rank, rarely canonical."""
    f = N.field
    return random_invertible(f, N.nrows, rng) @ N @ random_invertible(f, N.ncols, rng)


@pytest.mark.parametrize("field, n", [(F2, 2), (F2, 3), (F3, 2), (F3, 3)],
                         ids=["gf 2, n 2", "gf 2, n 3", "gf 3, n 2", "gf 3, n 3"])
def test_full_rank_lanes_match_the_scalar_rank_test(field, n):
    # One block holds every n x n matrix (n = 3 over GF(3): a seeded
    # sample), member s in lane s; at every rank r < n the lane mask must
    # be the scalar test, lane by lane.
    q = field.order
    members = [tuple(tuple(v[i * n:(i + 1) * n]) for i in range(n))
               for v in itertools.product(range(q), repeat=n * n)]
    if len(members) > 1000:
        members = random.Random(f"full-rank-lanes:{n}").sample(members, 1000)
    ops = lines._GF2 if q == 2 else lines._GF3
    T = _lane_tables(field, members, n)
    ones = (1 << len(members)) - 1
    for r in range(n):
        N = canonical_N(field, n, n, r)
        want = [lines._first_rank_drop(field, rows, N.rows, n) is None for rows in members]
        mask = lines._full_rank_mask(ops, T, ones, r)
        assert [bool(mask >> s & 1) for s in range(len(members))] == want, r
        assert 0 < sum(want) < len(members)


# Every shape goes through lines._first_in_coset: the square GF(2)/GF(3)
# shapes read a member table (canonical N, q^(n*n) within its bound) or
# take the bitsliced blocks, and the tall shapes and GF(5) walk the coset,
# transported to canonical N when N is moved.  GF(2) 5 x 5 and GF(3) 4 x 4
# lie past the table bound.
FULL_WALK_SHAPES = {2: [(1, 1), (2, 2), (3, 3), (3, 2), (4, 2), (4, 3), (4, 4), (5, 5)],
                    3: [(1, 1), (2, 2), (3, 3), (3, 2), (4, 2), (4, 4)],
                    5: [(2, 2), (3, 3), (3, 2), (4, 2)]}


def _search_routes(monkeypatch):
    """A list each search adds its route to: "table" when it reads a member
    table, "lanes" when it walks lane blocks; a member walk adds nothing."""
    routes = []
    for name, route in (("_table_first", "table"), ("_bitsliced_first", "lanes")):
        real = getattr(lines, name)
        monkeypatch.setattr(lines, name,
                            lambda *a, real=real, route=route: routes.append(route) or real(*a))
    return routes


def _table_side(field, n, p):
    """"in" or "past" the member-table bound for a square GF(2) or GF(3)
    shape; None for the shapes that walk their members."""
    if n != p or field.order > 3:
        return None
    return "in" if field.order ** (n * n) <= lines._TABLE_MEMBERS else "past"


def _expected_route(field, n, canonical):
    """The route a square GF(2)/GF(3) search takes: a table exactly for
    canonical N within the bound, known before any table is built."""
    return "table" if canonical and _table_side(field, n, n) == "in" else "lanes"


def _check_sides(sides, ranks_by_n):
    """Both sides of the table bound have found and no-witness searches,
    canonical and moved N, and every rank of each of their shapes."""
    assert set(sides) == {"in", "past"}, sides
    for side, seen in sides.items():
        assert {hit for _, _, hit, _ in seen} == {True, False}, side
        assert {canonical for *_, canonical in seen} == {True, False}, side
        assert {(n, r) for n, r, _, _ in seen} == {
            (n, r) for n, ranks in ranks_by_n[side].items() for r in ranks}, side


@pytest.mark.parametrize("field", [F2, F3, GF(5)], ids=str)
def test_witness_search_matches_the_full_walk_oracle(field, monkeypatch):
    # Random cosets and subspaces at every direction rank, canonical and
    # moved: status, witness and count must equal the member-by-member
    # walk of the space's own order, on each route and both sides of the
    # table bound.
    routes = _search_routes(monkeypatch)
    rng = random.Random(f"full-rank-oracle:{field}")
    max_dim = {2: 8, 3: 5, 5: 4}[field.order]
    found = {False: 0, True: 0}
    ranks = set()
    sides: dict = {}
    for n, p in FULL_WALK_SHAPES[field.order]:
        shape = MatrixSpaceShape(field, n, p)
        m = n * p
        side = _table_side(field, n, p)
        for k in range(24):
            codim = m - rng.randint(0, min(m, max_dim))
            space = (random_affine(shape, codim, rng) if k % 3 else
                     random_subspace(shape, codim, rng))
            N0 = canonical_N(field, n, p, k % p)
            for N in (N0, _moved(N0, rng)):
                routes.clear()
                out = witness_search(space, N)
                assert out == witness_search_full_walk(space, N), (space, N)
                found[out.found] += 1
                ranks.add((n, p, k % p, out.found))
                if side is not None:
                    assert routes == [_expected_route(field, n, N == N0)]
                    sides.setdefault(side, set()).add((n, k % p, out.found, N == N0))
                else:
                    assert routes == []
    assert min(found.values()) > 20, found
    assert {(n, p, r) for n, p, r, hit in ranks if hit} == {
        (n, p, r) for n, p in FULL_WALK_SHAPES[field.order] for r in range(p)}
    if field.order <= 3:
        ranks_by_n: dict = {"in": {}, "past": {}}
        for n, p in FULL_WALK_SHAPES[field.order]:
            if _table_side(field, n, p):
                ranks_by_n[_table_side(field, n, p)][n] = range(n)
        _check_sides(sides, ranks_by_n)


def test_square_witness_search_pins_the_small_cases():
    # n = p = 1: N = 0, so the witness is the first nonzero member; the zero
    # space has none.  The sharpness spaces have no witness at all, and all
    # of their q^d members are counted.
    for field in (F2, F3):
        N = canonical_N(field, 1, 1, 0)
        line = from_generators(MatrixSpaceShape(field, 1, 1), [Matrix.from_rows(field, [[1]])])
        out = witness_search(line, N)
        assert out.cases_examined == 2 and out.certificate.A.rows == ((1,),)
        assert out == witness_search_full_walk(line, N)
        zero = from_generators(MatrixSpaceShape(field, 1, 1), [])
        out = witness_search(zero, N)
        assert (out.status, out.cases_examined) == (EXHAUSTED_NO_WITNESS, 1)
        rng = random.Random(f"sharpness:{field}")
        for n in (2, 3):
            space, N = sharpness_example(n, n, field)
            out = witness_search(space, N)
            assert (out.status, out.cases_examined) == (EXHAUSTED_NO_WITNESS,
                                                        field.order ** space.dim)
            assert out == witness_search_full_walk(space, N)
            # Sharp for N only: a moved direction may find a witness.
            moved = _moved(N, rng)
            assert witness_search(space, moved) == witness_search_full_walk(space, moved)


@pytest.mark.parametrize("field", [F2, F3], ids=str)
def test_square_witness_search_finds_witnesses_at_block_edges(field, monkeypatch):
    # With q^2 lanes to a block, seeded cosets put first witnesses in the
    # last lane of a block and in the first lane of the next.  Over GF(3)
    # at rank 0 a last-lane witness is rare (det A must vanish on the eight
    # lanes before it), so each rank must reach an edge and some rank both.
    q = field.order
    monkeypatch.setattr(lines, "_LANE_DIGITS", {q: 2})
    lanes = q * q
    rng = random.Random(f"full-rank-edges:{field}")
    shape = MatrixSpaceShape(field, 3, 3)
    edges = set()
    for r in range(3):
        N = canonical_N(field, 3, 3, r)
        for _ in range(400):
            space = random_affine(shape, 9 - (6 if q == 2 else 4), rng)
            out = witness_search(space, N)
            assert out == witness_search_full_walk(space, N), space
            s = out.cases_examined - 1
            if out.found and s >= lanes - 1 and s % lanes in (0, lanes - 1):
                edges.add((r, s % lanes))
            if (r, 0) in edges and (r, lanes - 1) in edges:
                break
    assert {r for r, _ in edges} == {0, 1, 2}, edges
    assert {r for r, lane in edges if lane} & {r for r, lane in edges if not lane}, edges


def test_bitsliced_full_rank_witness_is_tested_again(monkeypatch):
    # A full-rank kernel that passed every lane would return coset member
    # 0, the zero matrix here, at every rank; the scalar re-test refuses it.
    # The block walk: no member table within a bound of 0.
    monkeypatch.setattr(lines, "_TABLE_MEMBERS", 0)
    monkeypatch.setattr(lines, "_full_rank_mask", lambda ops, T, ones, r: ones)
    for field in (F2, F3):
        for r in range(3):
            with pytest.raises(RuntimeError, match="fails the full-rank test"):
                witness_search(_full_space(field, 3, 3), canonical_N(field, 3, 3, r))


def test_full_rank_search_checks_the_budget_before_any_table(monkeypatch):
    # The same error as the member walk's, raised before a digit table.
    # The block walk: no member table within a bound of 0.
    def refuse(*args):
        raise AssertionError("a table was built")
    monkeypatch.setattr(lines, "_TABLE_MEMBERS", 0)
    monkeypatch.setattr(lines, "_digit_tables", refuse)
    for field in (F2, F3):
        space, N = _full_space(field, 3, 3), canonical_N(field, 3, 3, 1)
        budget = field.order ** 9 - 1
        with pytest.raises(BudgetExceededError) as walk:
            next(space.elements(budget=budget))
        with pytest.raises(BudgetExceededError) as search:
            witness_search(space, N, budget=budget)
        assert str(search.value) == str(walk.value)
        with pytest.raises(AssertionError, match="a table was built"):
            witness_search(space, N, budget=budget + 1)


# ------------------------------------------------------------- member tables


@pytest.fixture
def cold_tables():
    """The member-table memo, emptied before the test and after it, so a
    table built with a patched kernel never outlives the test."""
    lines._member_table.cache_clear()
    yield lines._member_table
    lines._member_table.cache_clear()


def _refuse(what):
    def refused(*args):
        raise AssertionError(what)
    return refused


def test_table_witness_is_tested_again(monkeypatch, cold_tables):
    # The table twin of the two block-walk re-tests: kernels that pass lane
    # 0 alone, the zero matrix, build tables whose first member in the full
    # space is that matrix, and the scalar re-test refuses it.
    monkeypatch.setattr(lines, "_bitsliced_first", _refuse("a block was walked"))
    monkeypatch.setattr(lines, "_block_mask", lambda ops, T, ones: 1)
    monkeypatch.setattr(lines, "_full_rank_mask", lambda ops, T, ones, r: 1)
    for field in (F2, F3):
        space = _full_space(field, 3, 3)
        with pytest.raises(RuntimeError, match="fails the constant-determinant test"):
            constant_det_witness_search(space, canonical_N(field, 3, 3, 2))
        for r in range(3):
            with pytest.raises(RuntimeError, match="fails the full-rank test"):
                witness_search(space, canonical_N(field, 3, 3, r))


def test_table_witness_is_the_rebuilt_coset_member(monkeypatch, cold_tables):
    # The member the table names must be the one the coset's own digits
    # rebuild; a rebuild at other digits is refused before any re-test.
    real = lines._member
    monkeypatch.setattr(lines, "_member", lambda shape, basis, base, digits: real(
        shape, basis, base, [(c + 1) % shape.field.order for c in digits]))
    for field in (F2, F3):
        with pytest.raises(RuntimeError, match="is not the table's member"):
            constant_det_witness_search(_full_space(field, 3, 3), canonical_N(field, 3, 3, 2))


def test_searches_check_the_budget_before_building_a_table(monkeypatch, cold_tables):
    # The table twin of the two budget tests: with the memo empty, an
    # over-budget coset raises the walk's error before a table is built,
    # and a coset within budget builds one before any block is walked.
    monkeypatch.setattr(lines, "_digit_tables", _refuse("a table was built"))
    monkeypatch.setattr(lines, "_bitsliced_first", _refuse("a block was walked"))
    for field in (F2, F3):
        space = _full_space(field, 3, 3)
        budget = field.order ** 9 - 1
        for search, N in ((constant_det_witness_search, canonical_N(field, 3, 3, 2)),
                          (witness_search, canonical_N(field, 3, 3, 1))):
            with pytest.raises(BudgetExceededError) as walk:
                next(space.elements(budget=budget))
            with pytest.raises(BudgetExceededError) as searched:
                search(space, N, budget=budget)
            assert str(searched.value) == str(walk.value)
            with pytest.raises(AssertionError, match="a table was built"):
                search(space, N, budget=budget + 1)
    assert cold_tables.cache_info().currsize == 0


def test_member_table_memo_is_bounded_and_keeps_every_report(monkeypatch, cold_tables):
    # The table twin of the lane-memo test: the member-table memo is keyed
    # by (q, n, test, r), never by a case, and bounded.  A sampled GF(3)
    # remark2-strong campaign and the GF(2) 3 x 3 main sweep that the
    # benchmark pins read four tables, and give the same signatures with
    # the memo cleared before every case as with it warm.
    assert isinstance(cold_tables.cache_info().maxsize, int)
    monkeypatch.setattr(lines, "_bitsliced_first", _refuse("a block was walked"))
    specs = [CampaignSpec(theorem="remark2-strong", field=F3, n=3, p=3, codims=(1,),
                          rank_range=(2,), mode="sample", samples=300, seed=11),
             CampaignSpec(theorem="main", field=F2, n=3, p=3, codims=(0, 1),
                          rank_range=(0, 1, 2))]
    warm = [run_campaign(spec).signature() for spec in specs]
    info = cold_tables.cache_info()
    assert info.currsize == 4 and info.hits > 1500, info
    real_case = verify._process_case

    def cold(*args):
        cold_tables.cache_clear()
        return real_case(*args)
    monkeypatch.setattr(verify, "_process_case", cold)
    assert [run_campaign(spec).signature() for spec in specs] == warm
    assert hashlib.sha256(warm[1].encode()).hexdigest() == _bench_sweep_pin(monkeypatch, 3, 3)


def test_only_square_small_field_searches_skip_the_member_walk(monkeypatch):
    # A square GF(2) search takes one scalar rank test, of its witness,
    # however deep; tall and GF(5) searches test each member in turn.
    calls = []
    real = lines._first_rank_drop
    monkeypatch.setattr(lines, "_first_rank_drop", lambda *a: calls.append(1) or real(*a))
    out = witness_search(_full_space(F2, 4, 4), canonical_N(F2, 4, 4, 3))
    assert out.cases_examined > 1 << lines._LANE_DIGITS[2] and calls == [1]
    calls.clear()
    space, N = sharpness_example(3, 3, F2)
    assert not witness_search(space, N).found and calls == []
    for space, N in ((_full_space(F2, 3, 2), canonical_N(F2, 3, 2, 1)),
                     (_full_space(F5, 2, 2), canonical_N(F5, 2, 2, 1)),
                     (sharpness_example(3, 2, F3))):
        calls.clear()
        out = witness_search(space, N)
        assert len(calls) == out.cases_examined > 1, (space, N)


def test_full_rank_searches_at_rank_zero_read_the_largest_tables(monkeypatch, cold_tables):
    # The full-rank tables at r = 0 keep the most members of any in-bound
    # table: 11,232 of GF(3) 3 x 3 and 20,160 of GF(2) 4 x 4.  Canonical
    # searches there read them, at codims inside and past the hypothesis,
    # walk no block, and equal the full walk.  The matrices with a zero
    # first column have no witness.
    routes = _search_routes(monkeypatch)
    rng = random.Random("rank-zero-tables")
    for field, n, kept in ((F3, 3, 11_232), (F2, 4, 20_160)):
        shape = MatrixSpaceShape(field, n, n)
        N = canonical_N(field, n, n, 0)
        singular = from_generators(shape, [Matrix.unit(field, n, n, i, j)
                                           for i in range(n) for j in range(1, n)])
        found = set()
        for codim in range(2 * n - 1):
            for k in range(4):
                space = (singular if codim == n and not k else
                         random_affine(shape, codim, rng) if k else
                         random_subspace(shape, codim, rng))
                routes.clear()
                out = witness_search(space, N)
                assert routes == ["table"] and out == witness_search_full_walk(space, N), space
                found.add(out.found)
        assert found == {True, False}, (field, found)
        table = lines._member_table(field.order, n, "full-rank", 0)
        assert len(table.members) == kept * n * n


@pytest.mark.parametrize("field", [F2, F3, F5], ids=str)
def test_a_line_with_a_zero_direction_takes_one_rank(field, monkeypatch):
    # At r = 0, N = 0 and the line is one point: its rank is taken once.
    # At r >= 1 a full-rank line takes q ranks, one per t, and a line whose
    # rank drops first at t0 takes t0 + 1.  A walked search at r = 0 takes
    # one rank per member.
    calls = []
    real = lines.rank_rows
    monkeypatch.setattr(lines, "rank_rows", lambda *a: calls.append(1) or real(*a))
    q = field.order
    rng = random.Random(f"zero-direction-ranks:{field}")
    seen = set()
    for n, p in ((2, 2), (3, 2), (3, 3)):
        for r in range(p):
            N = canonical_N(field, n, p, r)
            for _ in range(30):
                A = random_matrix(field, n, p, rng)
                calls.clear()
                t0 = lines._first_rank_drop(field, A.rows, N.rows, p)
                assert len(calls) == (1 if r == 0 else q if t0 is None else t0 + 1), (A, r)
                seen.add((r > 0, t0 is None))
    assert seen == {(False, True), (False, False), (True, True), (True, False)}, seen
    space, N = sharpness_example(3, 2, field)
    zero = canonical_N(field, 3, 2, 0)
    calls.clear()
    out = witness_search(space, zero)
    assert len(calls) == out.cases_examined > 1, out
