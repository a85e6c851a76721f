"""Named example constructions and their advertised properties."""

from __future__ import annotations

import itertools

import pytest

from ranklines.fields import GF, RATIONALS
from ranklines.gallery import (
    EXAMPLE_NAMES,
    flanders_extremal,
    lemma1_witness,
    remark1_example,
    remark2_f2_example,
    sharpness_example,
)
from ranklines.lines import (
    EXHAUSTED_NO_WITNESS,
    constant_det_witness_search,
    line_full_rank,
    witness_search,
)
from ranklines.matrices import Matrix, canonical_N, rank
from ranklines.pencils import det_pencil
from ranklines.polynomials import Poly

from oracles import maps_ker_into_im

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def test_example_name_registry():
    assert EXAMPLE_NAMES == ("lemma1", "sharpness", "remark1", "remark2-f2",
                             "flanders-extremal")


# ---------------------------------------------------------------------- lemma1


def test_lemma1_witness_tall_case_layout():
    A = lemma1_witness(3, 2, 1, F2)
    assert A.rows == ((0, 0), (1, 0), (0, 1))


def test_lemma1_witness_square_case_layout():
    A = lemma1_witness(3, 3, 1, F5)
    # subdiagonal plus the top-right corner unit
    assert A.rows == ((0, 0, 1), (1, 0, 0), (0, 1, 0))


def test_lemma1_witness_rows_are_the_shifted_identity():
    # The rows are built directly; the sum of unit matrices is the reference.
    for field in (F2, F5, RATIONALS):
        for n in range(1, 6):
            for p in range(1, n + 1):
                units = [(j + 1, j) for j in range(p) if j + 1 < n]
                if n == p:
                    units.append((0, n - 1))
                want = Matrix.zeros(field, n, p)
                for i, j in units:
                    want = want + Matrix.unit(field, n, p, i, j)
                A = lemma1_witness(n, p, 0, field)
                assert (A.nrows, A.ncols, A.rows) == (n, p, want.rows), (field, n, p)
                assert A == want


def test_lemma1_witness_gives_full_rank_line():
    for field in (F2, F3, F5, RATIONALS):
        for n in range(1, 5):
            for p in range(1, n + 1):
                for r in range(p):
                    A = lemma1_witness(n, p, r, field)
                    N = canonical_N(field, n, p, r)
                    ok, _ = line_full_rank(A, N)
                    assert ok, (field, n, p, r)


def test_lemma1_witness_validates_arguments():
    with pytest.raises(ValueError):
        lemma1_witness(2, 3, 1, F2)  # wider than tall
    with pytest.raises(ValueError):
        lemma1_witness(3, 2, 2, F2)  # r must stay below p
    with pytest.raises(ValueError):
        lemma1_witness(3, 2, -1, F2)


# ------------------------------------------------------------------- sharpness


def test_sharpness_example_shape_and_codim():
    space, N = sharpness_example(3, 2, F2)
    assert space.codim == 2  # n - 1
    assert rank(N) == 1  # p - 1
    assert N == canonical_N(F2, 3, 2, 1)


def test_sharpness_space_membership_pattern():
    space, _ = sharpness_example(3, 2, F3)
    ok = Matrix.from_rows(F3, [[2, 1], [0, 2], [0, 1]])
    bad = Matrix.from_rows(F3, [[0, 0], [1, 0], [0, 0]])
    assert space.contains(ok)
    assert not space.contains(bad)


def test_sharpness_example_defeats_search():
    for field in (F2, F3):
        for (n, p) in [(2, 2), (3, 2), (3, 3)]:
            space, N = sharpness_example(n, p, field)
            out = witness_search(space, N)
            assert out.status == EXHAUSTED_NO_WITNESS, (field, n, p)


def test_sharpness_example_rejects_small_p():
    with pytest.raises(ValueError):
        sharpness_example(3, 1, F2)


def _members(space):
    """The space's members as Matrix objects; elements() yields raw rows."""
    shape = space.shape
    return (Matrix(shape.field, shape.n, shape.p, rows) for rows in space.elements())


# --------------------------------------------------------------------- remark1


def test_remark1_affine_hyperplane():
    space, N = remark1_example(3, F2)
    assert space.codim == 1
    assert rank(N) == 2
    for M in _members(space):
        assert M.rows[2][2] == 1


def test_remark1_every_member_has_monic_degree_n_minus_1_det():
    for field, n in ((F2, 2), (F2, 3), (F3, 2)):
        space, N = remark1_example(n, field)
        for M in _members(space):
            p = det_pencil(M, N)
            assert p.degree == n - 1
            assert p.coeffs[-1] == field.one


def test_remark1_no_member_satisfies_side_condition():
    space, N = remark1_example(3, F2)
    for M in _members(space):
        assert not maps_ker_into_im(M, N)


def test_remark1_rational_sample_members():
    space, N = remark1_example(3, RATIONALS)
    M = space.base
    p = det_pencil(M, N)
    assert p.degree == 2 and p.coeffs[-1] == 1
    assert space.contains(M)


def test_remark1_rejects_tiny_n():
    with pytest.raises(ValueError):
        remark1_example(1, F2)


# ------------------------------------------------------------------ remark2-f2


def test_remark2_f2_shape():
    space, N = remark2_f2_example()
    assert space.shape.field == F2
    assert (space.shape.n, space.shape.p) == (3, 3)
    assert space.codim == 1
    assert N == canonical_N(F2, 3, 3, 2)


def test_remark2_f2_members_satisfy_the_affine_constraint():
    space, _ = remark2_f2_example()
    mats = list(_members(space))
    assert len(mats) == 256
    for M in mats:
        assert (M.rows[0][2] + M.rows[2][1]) % 2 == 1


def test_remark2_f2_constant_search_fails_but_plain_search_succeeds():
    space, N = remark2_f2_example()
    const = constant_det_witness_search(space, N)
    assert const.status == EXHAUSTED_NO_WITNESS
    assert const.cases_examined == 256
    plain = witness_search(space, N)
    assert plain.found
    p = det_pencil(plain.certificate.A, N)
    assert p.degree > 0
    assert all(p(t) != 0 for t in F2.elements())


def _adjugate2(A: Matrix) -> Matrix:
    (a, b), (c, d) = A.rows
    f = A.field
    return Matrix.from_rows(f, [[d, f.neg(b)], [f.neg(c), a]])


def test_remark2_f2_adjugate_identity_on_every_member():
    # Write each member as [[A, C], [B, d]] against N = I_2 (+) 0.  Then
    # det(M + tN) = d*det(A + t I_2) + t*(BC) + B*adj(A)*C, assembled here
    # coefficient by coefficient without calling the pencil determinant.
    space, N = remark2_f2_example()
    for M in _members(space):
        A = Matrix.from_rows(F2, [M.rows[0][:2], M.rows[1][:2]])
        C = Matrix.from_rows(F2, [[M.rows[0][2]], [M.rows[1][2]]])
        B = Matrix.from_rows(F2, [M.rows[2][:2]])
        d = M.rows[2][2]
        det_a = (A.rows[0][0] * A.rows[1][1] - A.rows[0][1] * A.rows[1][0]) % 2
        trace_a = (A.rows[0][0] + A.rows[1][1]) % 2
        bc = (B @ C).rows[0][0]
        bac = (B @ _adjugate2(A) @ C).rows[0][0]
        rhs = Poly.from_coeffs(F2, ((d * det_a + bac) % 2,
                                    (d * trace_a + bc) % 2,
                                    d))
        assert det_pencil(M, N) == rhs


# ----------------------------------------------------------- flanders extremal


def test_flanders_extremal_dimension_is_nr():
    for field in (F2, F3, RATIONALS):
        for n in (2, 3, 4):
            for p in range(1, n + 1):
                for r in range(p + 1):
                    space = flanders_extremal(n, p, r, field)
                    assert space.dim == n * r, (field, n, p, r)


def test_flanders_extremal_ranks_are_bounded_by_r():
    space = flanders_extremal(3, 3, 2, F2)
    mats = list(_members(space))
    assert len(mats) == 64
    assert all(rank(M) <= 2 for M in mats)
    assert max(rank(M) for M in mats) == 2


def test_flanders_extremal_edge_ranks():
    zero = flanders_extremal(3, 2, 0, F3)
    assert zero.dim == 0
    full = flanders_extremal(2, 2, 2, F2)
    assert full.dim == 4
    assert any(rank(M) == 2 for M in _members(full))


def test_flanders_extremal_rejects_r_above_p():
    with pytest.raises(ValueError):
        flanders_extremal(3, 2, 3, F2)


def test_flanders_extremal_supported_on_first_r_columns():
    space = flanders_extremal(4, 3, 2, F5)
    for M in itertools.islice(_members(space), 40):
        for row in M.rows:
            assert row[2] == 0
