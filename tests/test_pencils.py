"""Determinants of matrix pencils, minor gcds, and line classification."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from ranklines.fields import GF, RATIONALS, Scalar
from ranklines.matrices import Matrix, canonical_N, det, random_matrix, rank
from ranklines.pencils import (
    CONSTANT_NONZERO,
    HAS_ROOT,
    IDENTICALLY_ZERO,
    NONCONSTANT_NO_ROOT,
    PencilAnalysis,
    _det_bareiss_poly,
    _det_cofactor,
    _pencil_entries,
    classify_line,
    det_pencil,
    minor_gcd,
)
from ranklines.polynomials import Poly

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def _shift(A: Matrix, N: Matrix, t) -> Matrix:
    return A + N.scale(t)


# ------------------------------------------------------------------ det_pencil


def test_det_pencil_identity_plus_t_identity():
    I2 = Matrix.identity(RATIONALS, 2)
    p = det_pencil(I2, I2)
    assert p.coeffs == (1, 2, 1)  # (1+t)^2


def test_det_pencil_swap_with_corner_direction():
    A = Matrix.from_rows(RATIONALS, [[0, 1], [1, 0]])
    N = Matrix.from_rows(RATIONALS, [[1, 0], [0, 0]])
    p = det_pencil(A, N)
    assert p.coeffs == (-1,)
    assert str(p) == "-1"


def test_det_pencil_zero_direction_is_plain_det():
    A = Matrix.from_rows(F5, [[2, 1], [1, 3]])
    p = det_pencil(A, Matrix.zeros(F5, 2, 2))
    assert p.is_constant and p.coeff(0) == 0  # det = 6-1 = 5 = 0 mod 5


def test_det_pencil_requires_square_matching_shapes():
    with pytest.raises(ValueError):
        det_pencil(Matrix.zeros(F2, 2, 3), Matrix.zeros(F2, 2, 3))
    with pytest.raises(ValueError):
        det_pencil(Matrix.identity(F2, 2), Matrix.identity(F2, 3))


def test_det_pencil_agrees_with_pointwise_determinants():
    for field in (F2, F3, F5):
        rng = random.Random(field.modulus)
        for _ in range(40):
            n = rng.randint(1, 4)
            A = random_matrix(field, n, n, rng)
            N = random_matrix(field, n, n, rng)
            p = det_pencil(A, N)
            for t in field.elements():
                assert p(t) == det(_shift(A, N, t)).value


def test_det_pencil_degree_bounded_by_rank_of_direction():
    rng = random.Random(41)
    for field in (F2, F3, RATIONALS):
        for _ in range(30):
            n = rng.randint(1, 4)
            A = random_matrix(field, n, n, rng)
            N = random_matrix(field, n, n, rng)
            assert det_pencil(A, N).degree <= rank(N)


def test_bareiss_poly_path_matches_cofactor_expansion():
    # n = 5 routes through fraction-free elimination; Laplace expansion is the
    # independent slow oracle here.
    for field in (F3, RATIONALS):
        rng = random.Random(43)
        for _ in range(6):
            A = random_matrix(field, 5, 5, rng)
            N = random_matrix(field, 5, 5, rng)
            entries = _pencil_entries(A, N)
            assert _det_bareiss_poly(entries, field) == _det_cofactor(entries, field)
            assert det_pencil(A, N) == _det_cofactor(entries, field)


def test_det_pencil_monic_on_remark1_hyperplane():
    # N with rank n-1 and bottom-right corner pinned to 1: degree is exactly
    # n-1 and the leading coefficient is 1.
    for field in (F2, F3, F5, RATIONALS):
        for n in (2, 3, 4):
            N = canonical_N(field, n, n, n - 1)
            rng = random.Random(n)
            for _ in range(10):
                A = random_matrix(field, n, n, rng)
                rows = [list(r) for r in A.rows]
                rows[n - 1][n - 1] = field.one
                A = Matrix.from_rows(field, rows)
                p = det_pencil(A, N)
                assert p.degree == n - 1
                assert p.leading() == field.one


# ------------------------------------------------------------------- minor_gcd


def test_minor_gcd_of_full_rank_line_is_one():
    # subdiagonal witness for (3, 2): every 2x2 minor gcd collapses to 1
    A = Matrix.from_rows(F2, [[0, 0], [1, 0], [0, 1]])
    N = canonical_N(F2, 3, 2, 1)
    g = minor_gcd(A, N)
    assert g.coeffs == (1,)


def test_minor_gcd_zero_when_line_never_has_full_rank():
    A = Matrix.zeros(F2, 3, 2)
    N = canonical_N(F2, 3, 2, 1)
    assert minor_gcd(A, N).is_zero


def test_minor_gcd_square_case_matches_monic_determinant():
    rng = random.Random(47)
    for field in (F3, RATIONALS):
        for _ in range(20):
            n = rng.randint(1, 3)
            A = random_matrix(field, n, n, rng)
            N = random_matrix(field, n, n, rng)
            d = det_pencil(A, N)
            g = minor_gcd(A, N)
            assert g == d.monic()


def test_minor_gcd_divides_every_maximal_minor():
    rng = random.Random(53)
    for field in (F2, F5, RATIONALS):
        for _ in range(15):
            p_cols = rng.randint(1, 3)
            n_rows = rng.randint(p_cols, 4)
            A = random_matrix(field, n_rows, p_cols, rng)
            N = random_matrix(field, n_rows, p_cols, rng)
            g = minor_gcd(A, N)
            entries = _pencil_entries(A, N)
            for rows in itertools.combinations(range(n_rows), p_cols):
                sub = [entries[i] for i in rows]
                minor = _det_cofactor(sub, field)
                if g.is_zero:
                    assert minor.is_zero
                else:
                    assert (minor % g).is_zero
            assert g.is_zero or g.leading() == field.one


def test_minor_gcd_rejects_wide_matrices():
    with pytest.raises(ValueError):
        minor_gcd(Matrix.zeros(F2, 2, 3), Matrix.zeros(F2, 2, 3))


def test_minor_gcd_roots_are_exactly_the_rank_drops():
    rng = random.Random(59)
    for _ in range(40):
        n, p = 3, 2
        A = random_matrix(F3, n, p, rng)
        N = random_matrix(F3, n, p, rng)
        g = minor_gcd(A, N)
        if g.is_zero:
            assert all(rank(_shift(A, N, t)) < p for t in F3.elements())
        else:
            for t in F3.elements():
                assert (g(t) == 0) == (rank(_shift(A, N, t)) < p)


# --------------------------------------------------------------- classify_line


def test_classify_zero_line_identically_zero():
    A = Matrix.zeros(F2, 3, 2)
    N = canonical_N(F2, 3, 2, 1)
    res = classify_line(A, N)
    assert res.classification == IDENTICALLY_ZERO
    assert res.witness is None
    assert not res.full_rank
    assert res.poly.is_zero


def test_classify_full_rank_line_over_gf2():
    A = Matrix.from_rows(F2, [[0, 0], [1, 0], [0, 1]])
    N = canonical_N(F2, 3, 2, 1)
    res = classify_line(A, N)
    assert res.full_rank
    assert res.classification in (CONSTANT_NONZERO, NONCONSTANT_NO_ROOT)
    assert res.witness is None


def test_classify_detects_smallest_root():
    # det(I + t*E11) = 1 + t vanishes at t = -1 = 2 over GF(3)
    A = Matrix.identity(F3, 2)
    N = Matrix.unit(F3, 2, 2, 0, 0)
    res = classify_line(A, N)
    assert res.classification == HAS_ROOT
    assert res.witness == Scalar.of(F3, 2)
    assert res.poly_kind == "det"
    assert rank(_shift(A, N, 2)) < 2


def test_classify_square_uses_det_and_tall_uses_minor_gcd():
    sq = classify_line(Matrix.identity(F2, 2), Matrix.zeros(F2, 2, 2))
    assert sq.poly_kind == "det"
    tall = classify_line(Matrix.from_rows(F2, [[1, 0], [0, 1], [0, 0]]),
                         Matrix.zeros(F2, 3, 2))
    assert tall.poly_kind == "minor-gcd"


def test_classification_matches_brute_force_over_small_fields():
    rng = random.Random(61)
    for field in (F2, F3, F5):
        for _ in range(60):
            p_cols = rng.randint(1, 3)
            n_rows = rng.randint(p_cols, 4)
            A = random_matrix(field, n_rows, p_cols, rng)
            N = random_matrix(field, n_rows, p_cols, rng)
            res = classify_line(A, N)
            drops = [t for t in field.elements()
                     if rank(_shift(A, N, t)) < p_cols]
            if res.classification == IDENTICALLY_ZERO:
                assert len(drops) == field.order
            elif res.classification == HAS_ROOT:
                assert drops and res.witness.value == drops[0]
            else:
                assert not drops
                is_const = res.poly.is_constant
                assert (res.classification == CONSTANT_NONZERO) == is_const


def test_classify_rational_constant_case():
    A = Matrix.from_rows(RATIONALS, [[0, 1], [1, 0]])
    N = Matrix.from_rows(RATIONALS, [[1, 0], [0, 0]])
    res = classify_line(A, N)
    assert res.classification == CONSTANT_NONZERO
    assert res.full_rank and res.witness is None


def test_classify_rational_root_case_picks_first_root_in_order():
    # det((I + tN)) with N = diag(1, -1): (1+t)(1-t); roots 1 and -1, and the
    # ordering puts 1 first.
    A = Matrix.identity(RATIONALS, 2)
    N = Matrix.from_rows(RATIONALS, [[1, 0], [0, -1]])
    res = classify_line(A, N)
    assert res.classification == HAS_ROOT
    assert res.witness.value == 1


def test_classify_rational_nonconstant_without_rational_roots():
    # det(I + t*antisym) = 1 + t^2
    A = Matrix.identity(RATIONALS, 2)
    N = Matrix.from_rows(RATIONALS, [[0, 1], [-1, 0]])
    res = classify_line(A, N)
    assert res.classification == NONCONSTANT_NO_ROOT
    assert res.full_rank
    assert res.poly.coeffs == (1, 0, 1)


def test_classify_rational_spot_checks_rank():
    rng = random.Random(67)
    spots = [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3)]
    for _ in range(30):
        p_cols = rng.randint(1, 3)
        n_rows = rng.randint(p_cols, 4)
        A = random_matrix(RATIONALS, n_rows, p_cols, rng)
        N = random_matrix(RATIONALS, n_rows, p_cols, rng)
        res = classify_line(A, N)
        if res.full_rank:
            for t in spots:
                assert rank(_shift(A, N, t)) == p_cols
        elif res.classification == HAS_ROOT:
            assert rank(_shift(A, N, res.witness.value)) < p_cols
        else:
            for t in spots:
                assert rank(_shift(A, N, t)) < p_cols


def test_analysis_is_immutable_record():
    res = classify_line(Matrix.identity(F2, 2), Matrix.zeros(F2, 2, 2))
    assert isinstance(res, PencilAnalysis)
    with pytest.raises(AttributeError):
        res.classification = HAS_ROOT  # type: ignore[misc]


def test_block_triangular_pencil_factors():
    # When the direction is I_{n-1} (+) 0 and the last column of A above the
    # corner vanishes, det(A + tN) = d * det(P + t I_{n-1}).
    rng = random.Random(71)
    for field in (F2, F3, RATIONALS):
        for _ in range(15):
            n = rng.randint(2, 4)
            P = random_matrix(field, n - 1, n - 1, rng)
            B = random_matrix(field, 1, n - 1, rng)
            d = random_matrix(field, 1, 1, rng).rows[0][0]
            rows = [list(P.rows[i]) + [field.zero] for i in range(n - 1)]
            rows.append(list(B.rows[0]) + [d])
            M = Matrix.from_rows(field, rows)
            N = canonical_N(field, n, n, n - 1)
            lhs = det_pencil(M, N)
            rhs = det_pencil(P, Matrix.identity(field, n - 1)).scale(d)
            assert lhs == rhs
