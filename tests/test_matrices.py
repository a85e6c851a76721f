"""Exact matrix arithmetic: rank, determinant, RREF, normal forms, text I/O."""

from __future__ import annotations

import gc
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklines.fields import GF, RATIONALS, FieldMismatchError
from ranklines.matrices import (
    Matrix,
    _det_bareiss_int,
    _det_modp,
    _rank_modp,
    _row_text,
    _rref_raw,
    canonical_N,
    det,
    random_invertible,
    random_matrix,
    rank,
    rank_rows,
    to_rank_normal_form,
)
from ranklines.polynomials import Poly
from ranklines.spaces import MatrixSpaceShape, from_generators

from oracles import _det_cofactor, hstack, kernel_basis

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
FIELDS = (F2, F3, F5, RATIONALS)


def rank_rows_generic(field, rows) -> int:
    """Rank by the mod-p forward elimination only (no GF(2) packing)."""
    return _rank_modp(rows, field.modulus)


def _mats(field, nrows, ncols, count, seed):
    rng = random.Random(seed)
    return [random_matrix(field, nrows, ncols, rng) for _ in range(count)]


def _transpose(M):
    return Matrix(M.field, M.ncols, M.nrows, tuple(zip(*M.rows)))


# ---------------------------------------------------------------- construction


def test_from_rows_normalizes_entries():
    M = Matrix.from_rows(F3, [[4, -1], [Fraction(1, 2), 0]])
    assert M.rows == ((1, 2), (2, 0))


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(ValueError):
        Matrix.from_rows(F2, [[1, 0], [1]])


def test_basic_constructors():
    Z = Matrix.zeros(F5, 2, 3)
    assert Z.rows == ((0, 0, 0), (0, 0, 0))
    I3 = Matrix.identity(F5, 3)
    assert I3.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    E = Matrix.unit(F5, 2, 2, 0, 1)
    assert E.rows == ((0, 1), (0, 0))


def test_arithmetic_and_shape_guards():
    A = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    B = Matrix.from_rows(F5, [[4, 3], [2, 1]])
    assert (A + B).rows == ((0, 0), (0, 0))
    assert A.scale(2).rows == ((2, 4), (1, 3))
    assert _transpose(A).rows == ((1, 3), (2, 4))
    with pytest.raises(ValueError):
        A + Matrix.zeros(F5, 2, 3)
    with pytest.raises(FieldMismatchError):
        A + Matrix.zeros(F3, 2, 2)


@pytest.mark.parametrize("i, j", [(2, 0), (0, 3), (-1, 0)])
def test_unit_refuses_a_position_outside_the_shape(i, j):
    with pytest.raises(ValueError, match=re.escape(f"unit position ({i}, {j}) outside 2x3")):
        Matrix.unit(F2, 2, 3, i, j)


def test_matmul_matches_hand_product():
    A = Matrix.from_rows(RATIONALS, [[1, 2], [3, 4]])
    B = Matrix.from_rows(RATIONALS, [[Fraction(1, 2)], [1]])
    assert (A @ B).rows == ((Fraction(5, 2),), (Fraction(11, 2),))
    with pytest.raises(ValueError):
        B @ A  # noqa: B018  inner dimensions 1 vs 2


# ------------------------------------------------------------------------ rank


def test_rank_fixed_cases():
    assert rank(Matrix.identity(F2, 4)) == 4
    assert rank(Matrix.zeros(F3, 3, 2)) == 0
    M = Matrix.from_rows(F3, [[1, 2], [2, 4], [0, 1]])  # row2 = 2*row1
    assert rank(M) == 2
    R = Matrix.from_rows(RATIONALS, [[Fraction(1, 2), 1], [1, 2]])
    assert rank(R) == 1


@given(st.integers(0, 5), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_gf2_packed_rank_matches_generic_elimination(nrows, ncols, data):
    rows = tuple(
        tuple(data.draw(st.integers(0, 1)) for _ in range(ncols))
        for _ in range(nrows)
    )
    assert rank_rows(F2, rows, ncols) == rank_rows_generic(F2, rows)


def _deficient(field, nrows, ncols, rng):
    """A random matrix whose last row is a combination of the others (zero if it is alone)."""
    M = random_matrix(field, nrows, ncols, rng)
    rows = list(M.rows)
    coeffs = [rng.randrange(field.modulus) for _ in rows[:-1]]
    rows[-1] = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % field.modulus
                     for j in range(ncols))
    return Matrix(field, nrows, ncols, tuple(rows))


def test_rank_rows_matches_rref_pivot_count():
    # The RREF is the independent oracle for the packed and mod-p rank kernels.
    rng = random.Random(29)
    for field in (F2, F3, F5, GF(65521)):
        shapes = [(5, 2), (6, 3), (2, 5), (3, 6), (4, 4), (0, 3), (3, 0), (1, 1)]
        for nrows, ncols in shapes:
            cases = [Matrix.zeros(field, nrows, ncols), random_matrix(field, nrows, ncols, rng)]
            if nrows:
                cases.append(_deficient(field, nrows, ncols, rng))
            for M in cases:
                expected = len(_rref_raw(field, M.rows, ncols)[1])
                assert rank_rows(field, M.rows, ncols) == expected, (field, M)
                assert _rank_modp(M.rows, field.modulus) == expected


@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_rank_is_transpose_invariant(field, nrows, ncols, seed):
    M = random_matrix(field, nrows, ncols, random.Random(seed))
    assert rank(M) == rank(_transpose(M))


@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_rank_is_equivalence_invariant(field, nrows, ncols, seed):
    rng = random.Random(seed)
    M = random_matrix(field, nrows, ncols, rng)
    P = random_invertible(field, nrows, rng)
    Q = random_invertible(field, ncols, rng)
    assert rank(P @ M @ Q) == rank(M)


# ------------------------------------------------------------------------- det


def test_det_edge_cases():
    assert det(Matrix.zeros(F2, 0, 0)).value == 1  # empty product convention
    assert det(Matrix.zeros(RATIONALS, 0, 0)).value == 1
    assert det(Matrix.identity(F2, 1)).value == 1
    assert det(Matrix.zeros(F3, 2, 2)).value == 0
    with pytest.raises(ValueError):
        det(Matrix.zeros(F2, 2, 3))


def test_det_known_values():
    M = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    assert det(M).value == (1 * 4 - 2 * 3) % 5
    R = Matrix.from_rows(RATIONALS, [[Fraction(1, 2), 1], [1, 3]])
    assert det(R).value == Fraction(1, 2)
    big = Matrix.from_rows(
        RATIONALS,
        [[2, 0, 1, 0], [1, 1, 0, 1], [0, 3, 1, 1], [1, 0, 0, 2]],
    )
    # first-row expansion: 2*det([[1,0,1],[3,1,1],[0,0,2]])
    #   + 1*det([[1,1,1],[0,3,1],[1,0,2]]) = 2*2 + 4 = 8
    assert det(big).value == 8


@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_det_is_multiplicative(field, n, seed):
    rng = random.Random(seed)
    A = random_matrix(field, n, n, rng)
    B = random_matrix(field, n, n, rng)
    assert det(A @ B).value == field.mul(det(A).value, det(B).value)


@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_det_nonzero_iff_full_rank(field, n, seed):
    M = random_matrix(field, n, n, random.Random(seed))
    assert (det(M).value != 0) == (rank(M) == n)
    assert (M.is_square and rank(M) == M.nrows) == (det(M).value != 0)


def test_det_closed_forms_match_elimination_on_padding():
    # Embed small matrices into a block diagonal with I_2 so the same value
    # goes through the closed form (n = 3) and the Bareiss path (n = 5).
    rng = random.Random(7)
    for _ in range(50):
        A = random_matrix(F5, 3, 3, rng)
        padded = [[0] * 5 for _ in range(5)]
        for i in range(3):
            for j in range(3):
                padded[i][j] = A.rows[i][j]
        padded[3][3] = padded[4][4] = 1
        P = Matrix.from_rows(F5, padded)
        assert det(P).value == det(A).value


def test_integer_det_matches_the_laplace_oracle():
    # _det_bareiss_int has closed forms for n = 2..4 and runs Bareiss
    # elimination otherwise; Laplace expansion over Q[t], on constant
    # polynomials, is the oracle.  The cases add singular matrices, a zero
    # first pivot and a second pivot that vanishes after one step (both force
    # a row swap in the elimination), and entries of about 2^40.
    rng = random.Random(97)
    big = 1 << 40
    for n in range(7):
        cases = [[[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
                 for lo, hi in ((-9, 9), (big - 50, big + 50), (-big - 50, big + 50)) for _ in range(5)]
        for m in cases[::5]:  # one per entry range
            if n:
                cases.append([[0] + row[1:] for row in m])  # a zero column
                cases.append([[0] + m[0][1:]] + m[1:])  # a zero first pivot
            if n >= 2:
                cases.append(m[:-1] + [[x - 2 * y for x, y in zip(m[0], m[-2])]])  # a dependent row
                # row 1 starts as 2 * row 0, so the second pivot vanishes after one step
                cases.append([m[0], [2 * x for x in m[0][:2]] + m[1][2:]] + m[2:])
        dets = set()
        for m in cases:
            entries = [[Poly.from_coeffs(RATIONALS, (x,)) for x in row] for row in m]
            expected = _det_cofactor(entries, RATIONALS)(0)
            rows = [row[:] for row in m]
            assert _det_bareiss_int(rows) == expected, m
            assert rows == m  # the argument is not modified
            dets.add(expected == 0)
        assert dets == ({True, False} if n else {False}), n


def test_det_modp_matches_the_laplace_oracle():
    # _det_modp is the integer kernel (closed forms up to n = 4, then
    # Bareiss) reduced mod p; Laplace expansion over GF(p)[t], on constant
    # polynomials, is the oracle and shares no step with it.
    rng = random.Random(31)
    for field in (F2, F3, F5, GF(65521)):
        for n in range(7):
            zero = Matrix.zeros(field, n, n)
            cases = [zero, Matrix.identity(field, n)]
            cases += [random_matrix(field, n, n, rng) for _ in range(4 if field.order > 2 else 24)]
            cases += [random_invertible(field, n, rng) for _ in range(2)]
            if n:
                cases.append(_deficient(field, n, n, rng))
            dets = set()
            for A in cases:
                entries = [[Poly.from_coeffs(field, (x,)) for x in row] for row in A.rows]
                expected = _det_cofactor(entries, field)(0)
                assert _det_modp(A.rows, field.modulus) == expected, (field, A)
                assert det(A).value == expected
                dets.add(expected)
            if n:
                assert _det_modp(cases[-1].rows, field.modulus) == 0
                assert 0 in dets and len(dets) > 1, (field, n)


# ------------------------------------------------------------------------ rref


def _rref(M):
    """RREF of M as a Matrix, with its pivot columns."""
    red, pivots = _rref_raw(M.field, M.rows, M.ncols)
    return Matrix(M.field, M.nrows, M.ncols, tuple(tuple(r) for r in red)), tuple(pivots)


def test_rref_canonical_shape():
    M = Matrix.from_rows(F5, [[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    R, pivots = _rref(M)
    assert pivots == (0, 1)
    assert R.rows == ((1, 0, 4), (0, 1, 2), (0, 0, 0))


def test_rref_is_idempotent_and_preserves_rank():
    rng = random.Random(11)
    for field in FIELDS:
        for _ in range(20):
            M = random_matrix(field, 3, 4, rng)
            R, pivots = _rref(M)
            assert len(pivots) == rank(M)
            R2, pivots2 = _rref(R)
            assert R2 == R and pivots2 == pivots


def test_rref_of_row_shuffle_is_identical():
    rng = random.Random(13)
    shape = MatrixSpaceShape(F3, 1, 4)
    for _ in range(20):
        M = random_matrix(F3, 4, 4, rng)
        perm = list(range(4))
        rng.shuffle(perm)
        S = Matrix.from_rows(F3, [M.rows[i] for i in perm])
        assert _rref(M)[0] == _rref(S)[0]
        # from_generators keeps the nonzero rows of the same RREF as its basis
        gens = [Matrix.from_rows(F3, [row]) for row in S.rows]
        basis = from_generators(shape, gens).basis
        assert basis == _rref(M)[0].rows[:len(basis)]


def test_kernel_basis_spans_the_kernel():
    rng = random.Random(17)
    for field in FIELDS:
        for _ in range(15):
            M = random_matrix(field, 3, 5, rng)
            K = kernel_basis(M)
            assert K.ncols == 5 - rank(M)
            if K.ncols:
                assert (M @ K) == Matrix.zeros(field, 3, K.ncols)
                assert rank(K) == K.ncols


def test_kernel_basis_of_injective_map_is_empty():
    K = kernel_basis(Matrix.identity(F2, 3))
    assert K.nrows == 3 and K.ncols == 0


# --------------------------------------------------------------- normal forms


def test_canonical_n_layout():
    N = canonical_N(F2, 3, 2, 1)
    assert N.rows == ((1, 0), (0, 0), (0, 0))
    assert rank(N) == 1
    with pytest.raises(ValueError):
        canonical_N(F2, 2, 3, 3)


def test_to_rank_normal_form_produces_canonical_matrix():
    rng = random.Random(23)
    for field in FIELDS:
        for _ in range(25):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 4)
            M = random_matrix(field, nrows, ncols, rng)
            P, Q = to_rank_normal_form(M)
            assert rank(P) == nrows and rank(Q) == ncols
            assert P @ M @ Q == canonical_N(field, nrows, ncols, rank(M))


def test_to_rank_normal_form_at_empty_and_zero_shapes():
    for field in (F3, RATIONALS):
        for nrows, ncols in [(0, 0), (0, 3), (3, 0), (2, 3), (3, 2)]:
            M = Matrix.zeros(field, nrows, ncols)
            P, Q = to_rank_normal_form(M)
            assert (P.nrows, P.ncols, Q.nrows, Q.ncols) == (nrows, nrows, ncols, ncols)
            assert P @ M @ Q == canonical_N(field, nrows, ncols, 0)
            assert rank(P) == nrows and rank(Q) == ncols


def test_hstack_widths():
    L = Matrix.identity(F2, 2)
    R = Matrix.zeros(F2, 2, 3)
    H = hstack(L, R)
    assert H.nrows == 2 and H.ncols == 5
    with pytest.raises(ValueError):
        hstack(L, Matrix.zeros(F2, 3, 1))


# --------------------------------------------------------------------- text IO


def test_text_round_trip_gf():
    M = Matrix.from_rows(F3, [[0, 1, 2], [2, 2, 0]])
    text = M.to_text()
    assert text.splitlines()[0] == "field gf 3"
    assert text.splitlines()[1] == "size 2 3"
    assert Matrix.from_text(text) == M


def test_text_round_trip_rationals():
    M = Matrix.from_rows(RATIONALS, [[Fraction(-1, 2), 3], [0, Fraction(7, 5)]])
    again = Matrix.from_text(M.to_text())
    assert again == M
    assert "-1/2" in M.to_text()


@pytest.mark.parametrize("field", [F2, F3, RATIONALS], ids=str)
def test_text_round_trip_with_no_columns(field):
    # An n x 0 matrix writes n blank rows, and blank lines are dropped on
    # reading, so at width 0 there are no lines to read; one is refused.
    for n in (0, 1, 2, 3):
        M = Matrix.zeros(field, n, 0)
        assert Matrix.from_text(M.to_text()) == M
    with pytest.raises(ValueError, match="expected no lines for 2 empty rows, found 1"):
        Matrix.from_text(f"field {field}\nsize 2 0\n0\n")


def test_from_text_rejects_malformed_input():
    with pytest.raises(ValueError):
        Matrix.from_text("size 1 1\n0\n")
    with pytest.raises(ValueError):
        Matrix.from_text("field gf 2\nsize 2 2\n1 0\n")
    with pytest.raises(ValueError):
        Matrix.from_text("field gf 2\nsize 1 2\n1 0 1\n")
    with pytest.raises(ValueError):
        Matrix.from_text("field gf 4\nsize 1 1\n1\n")
    with pytest.raises(ValueError):
        Matrix.from_text("field gf 2\nsize 0 -3\n")


def test_from_text_ignores_blank_lines_and_comments():
    text = "field gf 2\nsize 2 2\n\n1 0\n0 1\n"
    assert Matrix.from_text(text) == Matrix.identity(F2, 2)


def test_row_text_memo_pins_bounded_bytes():
    # Thousands of distinct rows leave under 1 MiB in the row-text memo:
    # rows at its width bound over GF(5) fill it, and wide rows, rows over
    # GF(65521) and large rationals are written without it.
    rng = random.Random("row-text-memo")
    kinds = [(F5, 64, 2000), (F2, 400, 500), (GF(65521), 400, 500), (RATIONALS, 50, 200)]
    _row_text.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for field, width, count in kinds:
            for _ in range(count):
                if field == RATIONALS:
                    row = tuple(Fraction(rng.getrandbits(200) - (1 << 199), rng.getrandbits(100) | 1)
                                for _ in range(width))
                else:
                    row = tuple(rng.choices(range(field.modulus), k=width))
                text = Matrix(field, 1, width, (row,)).to_text()
                assert text.splitlines()[2] == " ".join(map(field.format, row))
        del row, text
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _row_text.cache_info().currsize == _row_text.cache_info().maxsize
    assert kept < 1 << 20, kept


# --------------------------------------------------------------------- random


def test_random_matrix_is_seed_deterministic():
    for field in FIELDS:
        a = random_matrix(field, 3, 3, random.Random(99))
        b = random_matrix(field, 3, 3, random.Random(99))
        assert a == b


def test_random_invertible_is_invertible():
    rng = random.Random(5)
    for field in FIELDS:
        for n in (0, 1, 2, 4):
            assert rank(random_invertible(field, n, rng)) == n
