"""Determinants of matrix pencils, minor gcds, and line classification."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from ranklines import pencils
from ranklines.fields import GF, RATIONALS, Scalar
from ranklines.matrices import Matrix, canonical_N, det, random_matrix, rank
from ranklines.pencils import (
    CONSTANT_NONZERO,
    HAS_ROOT,
    IDENTICALLY_ZERO,
    NONCONSTANT_NO_ROOT,
    PencilAnalysis,
    classify_line,
    det_pencil,
    minor_gcd,
)
from ranklines.polynomials import Poly, rational_roots

from oracles import (
    _det_cofactor,
    _pencil_entries,
    classify_line_by_ranks,
    minor_gcd_laplace,
    poly_rem,
)

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
    assert p.is_zero  # det = 6-1 = 5 = 0 mod 5


def test_det_pencil_requires_square_matching_shapes():
    with pytest.raises(ValueError):
        det_pencil(Matrix.zeros(F2, 2, 3), Matrix.zeros(F2, 2, 3))
    with pytest.raises(ValueError):
        det_pencil(Matrix.identity(F2, 2), Matrix.identity(F2, 3))


def test_det_pencil_agrees_with_pointwise_determinants():
    for field in (F2, F3, F5):
        rng = random.Random(field.modulus)
        for _ in range(40):
            n = rng.randint(0, 6)
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
    # Laplace expansion over K[t] is the independent slow oracle for the
    # packed determinant at n = 5, where the integer kernel runs Bareiss,
    # over GF(p) and over Q.
    for field in (F3, RATIONALS):
        rng = random.Random(43)
        for _ in range(6):
            A = random_matrix(field, 5, 5, rng)
            N = random_matrix(field, 5, 5, rng)
            assert det_pencil(A, N) == _det_cofactor(_pencil_entries(A, N), field)


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
                assert p.coeffs[-1] == field.one


def _rational_lines(rng: random.Random):
    """Seeded rational (A, N) pairs, n = 0..6, for every tall-or-square shape kind.

    Each row draws its own denominators, so rows clear with different
    multipliers; the kinds add zero rows, N = 0, A = 0, a degree-n
    direction 7*I, and 30-bit numerators.
    """
    def rows(n, p, bits):
        out = []
        for _ in range(n):
            dens = rng.sample((1, 2, 3, 5, 7, 12, 35), 2)
            lim = (1 << bits) - 1
            out.append([Fraction(rng.randint(-lim, lim), rng.choice(dens)) for _ in range(p)])
        return out

    for n in range(7):
        for p in sorted({n, max(n - 1, 0), max(n - 2, 0)}):
            for kind in ("mixed", "zero-row", "N=0", "A=0", "N=7I", "30-bit"):
                bits = 30 if kind == "30-bit" else 4
                a, b = rows(n, p, bits), rows(n, p, bits)
                if kind == "zero-row" and n:
                    a[rng.randrange(n)] = [0] * p
                    b[rng.randrange(n)] = [0] * p
                if kind == "N=0":
                    b = [[0] * p for _ in range(n)]
                if kind == "A=0":
                    a = [[0] * p for _ in range(n)]
                if kind == "N=7I":
                    b = [[7 if i == j else 0 for j in range(p)] for i in range(n)]
                yield Matrix.from_rows(RATIONALS, a), Matrix.from_rows(RATIONALS, b)


def test_rational_pencils_match_the_laplace_oracles(monkeypatch):
    # det_pencil and minor_gcd take packed integer determinants over Q;
    # Laplace over Q[t], and the oracle's poly_gcd fold, are the oracles.
    lines = list(_rational_lines(random.Random(73)))
    assert any(A.is_square and A.nrows == 6 and det_pencil(A, N).degree == 6 for A, N in lines)
    _assert_pencils_match_the_laplace_oracles(lines, lines, monkeypatch)


def _assert_pencils_match_the_laplace_oracles(lines, classified, monkeypatch):
    """Both pencil polynomials of every line equal their oracles, and so do
    the classifications of the ``classified`` lines with the oracles patched in."""
    fast = [classify_line(A, N) for A, N in classified]
    for A, N in lines:
        if A.is_square:
            assert det_pencil(A, N) == _det_cofactor(_pencil_entries(A, N), A.field)
        assert minor_gcd(A, N) == minor_gcd_laplace(A, N)
    monkeypatch.setattr(pencils, "det_pencil",
                        lambda A, N: _det_cofactor(_pencil_entries(A, N), A.field))
    monkeypatch.setattr(pencils, "minor_gcd", minor_gcd_laplace)
    assert [classify_line(A, N) for A, N in classified] == fast


def _traffic_lines(rng: random.Random, count: int):
    """Seeded rational (A, N, t0) lines of the kinds a classification run sees.

    Shapes cycle through 3 x 3, 4 x 4, 4 x 3, 3 x 2 and 2 x 2, and kinds
    through a generic A and N; N of rank p - 1; and a planted drop
    A = B - t0*N with B singular and t0 a rational u/v, v <= 6, given as
    the third item (None for the other kinds).  Entries are 5-bit
    numerators, and each row of B (or A) and of N, drawn apart, is divided
    by 1, 2, 3 or 35, by 1 half the time.
    """
    shapes = ((3, 3), (4, 4), (4, 3), (3, 2), (2, 2))

    def ints(n, p, lim):
        return [[rng.randint(-lim, lim) for _ in range(p)] for _ in range(n)]

    def over_denominators(rows):
        return [[Fraction(x, d) for x in row] for row, d in
                zip(rows, (rng.choice((1, 1, 1, 2, 3, 35)) for _ in rows))]

    for i in range(count):
        n, p = shapes[i % len(shapes)]
        kind = ("generic", "low-rank-N", "planted")[(i // len(shapes)) % 3]
        N = ints(n, p, 15)
        if kind == "low-rank-N":
            U, V = ints(n, p - 1, 3), ints(p - 1, p, 3)
            N = [[sum(U[r][k] * V[k][c] for k in range(p - 1)) for c in range(p)] for r in range(n)]
        B = ints(n, p, 15)
        t0 = None
        if kind == "planted":
            coef = [rng.randint(-2, 2) for _ in range(p - 1)]
            for row in B:
                row[-1] = sum(c * v for c, v in zip(coef, row))
            t0 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        B, N = over_denominators(B), over_denominators(N)
        A = B if t0 is None else [[b - t0 * v for b, v in zip(rb, rn)] for rb, rn in zip(B, N)]
        yield Matrix.from_rows(RATIONALS, A), Matrix.from_rows(RATIONALS, N), t0


def test_classification_traffic_matches_the_laplace_oracles(monkeypatch):
    # The benchmark's kinds of line, with rational drops and row denominators:
    # both polynomials and every classification against the Laplace oracles,
    # and every planted t0 among the rank drops.
    traffic = list(_traffic_lines(random.Random(97), 150))
    lines = [(A, N) for A, N, _ in traffic]
    drops = []
    for A, N, t0 in traffic:
        res = classify_line(A, N)
        if t0 is not None:
            assert not res.full_rank
            assert res.poly.is_zero or rational_roots(res.poly).count(t0) == 1
            drops.append(res.witness)
    assert any(w is not None and w.value.denominator > 1 for w in drops)
    _assert_pencils_match_the_laplace_oracles(lines, lines, monkeypatch)


def _finite_lines(rng: random.Random):
    """Seeded GF(q) (A, N) pairs, n = 0..6, for every tall-or-square shape kind.

    n runs past q for the small fields; the kinds add zero rows, N = 0,
    A = 0, N = I, and every entry q - 1, the largest integer lift.
    """
    for field in (F2, F3, F5, GF(65521)):
        top = field.modulus - 1
        for n in range(7):
            for p in sorted({n, max(n - 1, 0), max(n - 2, 0)}):
                for kind in ("mixed", "zero-row", "N=0", "A=0", "N=I", "q-1"):
                    a, b = (list(random_matrix(field, n, p, rng).rows) for _ in range(2))
                    if kind == "zero-row" and n:
                        a[rng.randrange(n)] = [0] * p
                        b[rng.randrange(n)] = [0] * p
                    if kind == "N=0":
                        b = [[0] * p for _ in range(n)]
                    if kind == "A=0":
                        a = [[0] * p for _ in range(n)]
                    if kind == "N=I":
                        b = [[1 if i == j else 0 for j in range(p)] for i in range(n)]
                    if kind == "q-1":
                        a = b = [[top] * p for _ in range(n)]
                    yield Matrix.from_rows(field, a), Matrix.from_rows(field, b)


def test_finite_pencils_match_the_laplace_oracles(monkeypatch):
    # Over GF(q), det_pencil and minor_gcd pack the centred integer lift and
    # reduce mod q, also where q <= n leaves too few points to interpolate
    # in the field itself; Laplace over GF(q)[t] is the oracle.  classify_line
    # is compared over the small fields, where the lines are cheap to expand.
    lines = list(_finite_lines(random.Random(83)))
    assert any(A.is_square and A.field.order <= A.nrows and det_pencil(A, N).degree == A.nrows
               for A, N in lines)
    small = [(A, N) for A, N in lines if A.field.order <= 5]
    _assert_pencils_match_the_laplace_oracles(lines, small, monkeypatch)


def test_finite_classification_matches_the_rank_at_every_t():
    # classify_line reads rank drops off the roots of its polynomial; the
    # oracle computes the rank of A + tN at every t of the field.
    lines = [(A, N) for A, N in _finite_lines(random.Random(83)) if A.field.order <= 5]
    fast = [classify_line(A, N) for A, N in lines]
    assert fast == [classify_line_by_ranks(A, N) for A, N in lines]
    assert {a.classification for a in fast} == {IDENTICALLY_ZERO, CONSTANT_NONZERO,
                                                NONCONSTANT_NO_ROOT, HAS_ROOT}


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
            if d.is_zero:
                assert g.is_zero
            else:
                assert g.coeffs == tuple(field.div(c, d.coeffs[-1]) for c in d.coeffs)


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
                    assert poly_rem(minor, g).is_zero
            assert g.is_zero or g.coeffs[-1] == field.one


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


@pytest.mark.parametrize("field", [RATIONALS, F3], ids=str)
def test_minor_gcd_shares_line_points_across_minors(field):
    # minor_gcd lifts the line once, as the packed rows a + 2^k*b, and takes
    # each minor from a row subset of those shared rows; Laplace per minor is
    # the oracle.
    rng = random.Random(61)
    t2_plus_1 = Poly.from_coeffs(field, (1, 0, 1))
    folded_past_zero = False
    for n, p in ((5, 3), (4, 2)):
        for _ in range(10):
            # Row 1 is twice row 0, so the first minor (rows 0..p-1) vanishes.
            a, b = ([[rng.randint(-4, 4) for _ in range(p)] for _ in range(n)] for _ in range(2))
            a[1], b[1] = [2 * x for x in a[0]], [2 * x for x in b[0]]
            A, N = Matrix.from_rows(field, a), Matrix.from_rows(field, b)
            assert _det_cofactor(_pencil_entries(A, N)[:p], field).is_zero
            g = minor_gcd(A, N)
            assert g == minor_gcd_laplace(A, N)
            folded_past_zero |= not g.is_zero

            # Rows 0 and 1 are [[t, -1], [1, t]] in columns 0 and 1; below
            # them a constant combination of those two rows sits beside a
            # random tail.  The line is L * diag(block, tail) with L
            # unitriangular, so by Cauchy-Binet t^2 + 1 divides every minor.
            a = [[0, -1] + [0] * (p - 2), [1, 0] + [0] * (p - 2)]
            b = [[1, 0] + [0] * (p - 2), [0, 1] + [0] * (p - 2)]
            for _ in range(n - 2):
                c0, c1 = rng.randint(-3, 3), rng.randint(-3, 3)
                a.append([c0 * x + c1 * y for x, y in zip(a[0][:2], a[1][:2])]
                         + [rng.randint(-4, 4) for _ in range(p - 2)])
                b.append([c0 * x + c1 * y for x, y in zip(b[0][:2], b[1][:2])]
                         + [rng.randint(-4, 4) for _ in range(p - 2)])
            if not field.is_finite:  # a row multiplier other than 1
                a[0], b[0] = [Fraction(x, 3) for x in a[0]], [Fraction(x, 3) for x in b[0]]
            A, N = Matrix.from_rows(field, a), Matrix.from_rows(field, b)
            g = minor_gcd(A, N)
            assert g == minor_gcd_laplace(A, N)
            assert not g.is_zero and poly_rem(g, t2_plus_1).is_zero
    assert folded_past_zero


def test_pencils_take_one_determinant_per_minor(monkeypatch):
    # Each minor is one determinant of the packed rows a + 2^k*b, both where
    # the integer kernel has closed forms (p <= 4) and where it runs Bareiss.
    calls = []
    kernel = pencils._det_bareiss_int
    monkeypatch.setattr(pencils, "_det_bareiss_int",
                        lambda m: calls.append(len(m)) or kernel(m))
    rng = random.Random(89)
    for field in (RATIONALS, GF(65521)):
        for n in range(7):
            A, N = (Matrix.from_rows(field, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
                    for _ in range(2))
            calls.clear()
            assert det_pencil(A, N) == _det_cofactor(_pencil_entries(A, N), field)
            assert calls == [n]

        # A = B - N with B's last column the sum of the others: every 3 x 3
        # minor vanishes at t = 1, so the gcd never reaches 1 and all four
        # minors are taken.
        b = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(4)]
        b = [row + [row[0] + row[1]] for row in b]
        n_rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(4)]
        A = Matrix.from_rows(field, [[x - y for x, y in zip(rb, rn)] for rb, rn in zip(b, n_rows)])
        N = Matrix.from_rows(field, n_rows)
        calls.clear()
        g = minor_gcd(A, N)
        assert g == minor_gcd_laplace(A, N) and g(1) == 0
        assert calls == [3] * 4


def _sylvester(order: int) -> list[list[int]]:
    """The +-1 Hadamard matrix of Sylvester's construction, order a power of 2."""
    H = [[1]]
    while len(H) < order:
        H = [row + row for row in H] + [row + [-x for x in row] for row in H]
    return H


def _width_bound_lines():
    """Lines whose packed coefficients sit near the Hadamard width, n <= 7.

    A = 0 with N = +-M*X, and A = N = M*X, for M = 2^j - 1, 2^j, 2^j + 1,
    where X is the n x p matrix with 1 on the diagonal (so tall shapes have
    zero rows) or the first p columns of a Sylvester +-1 matrix of order
    1, 2 or 4.  A Sylvester matrix's |det| is the product of its rows' L2
    norms, Hadamard's bound itself, while a diagonal row has one nonzero
    entry, so its L2 norm is also its largest |entry|.  Over GF(65521) also
    every entry q - 1, which centres to -1, beside N = I.
    """
    shapes = ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (3, 2), (4, 3), (6, 4), (6, 1), (7, 5))
    diagonals = [[[int(i == j) for j in range(p)] for i in range(n)] for n, p in shapes]
    sylvester = [_sylvester(order) for order in (1, 2, 4)]
    sylvester += [[row[:p] for row in _sylvester(4)] for p in (3, 2)]
    for field in (RATIONALS, GF(65521)):
        def scaled(m, X):
            return Matrix.from_rows(field, [[m * x for x in row] for row in X])
        for X in diagonals + sylvester:
            zero = Matrix.zeros(field, len(X), len(X[0]))
            for j in (1, 2, 3, 15, 16, 17, 31, 32, 40):
                for M in (2 ** j - 1, 2 ** j, 2 ** j + 1):
                    yield zero, scaled(M, X)
                    yield zero, scaled(-M, X)
                    yield scaled(M, X), scaled(M, X)
        if field.is_finite:
            top = field.modulus - 1
            for X in diagonals:
                ones = [[1] * len(X[0]) for _ in X]
                yield scaled(top, ones), scaled(top, ones)
                yield scaled(top, ones), scaled(1, X)
                yield scaled(top, X), scaled(top, X)


def test_packed_pencils_match_the_laplace_oracles_at_the_width_bound():
    # Leaving N's rows out of the width, or packing the uncentred GF(q) values
    # under a width taken from the centred ones, makes these lines disagree.
    for A, N in _width_bound_lines():
        if A.is_square:
            assert det_pencil(A, N) == _det_cofactor(_pencil_entries(A, N), A.field)
        assert minor_gcd(A, N) == minor_gcd_laplace(A, N)


def _packed_rows_by_properties(A: Matrix, N: Matrix):
    """_packed_rows over Q, cleared through the public numerator and denominator."""
    p, rows, bound, scale = A.ncols, [], 1, 1
    for vals in (ra + rb for ra, rb in zip(A.rows, N.rows)):
        m = lcm(*(v.denominator for v in vals))
        row = [v.numerator * (m // v.denominator) for v in vals]
        bound, scale = bound * (sum(map(abs, row)) + 1), scale * m
        rows.append(row)
    k = bound.bit_length() + 1
    return [[x + (y << k) for x, y in zip(row[:p], row[p:])] for row in rows], k, scale


def test_packed_rows_read_each_fraction_like_its_public_properties():
    # _packed_rows reads a Fraction's numerator and denominator slots directly.
    rng = random.Random(60)
    drawn = []

    def value():
        num = rng.randint(-(1 << 60), 1 << 60)
        drawn.append(Fraction(num, rng.choice((1, 1, 2, 3, 35, rng.getrandbits(60) | 1))))
        return drawn[-1]

    for n, p in ((1, 1), (2, 2), (3, 3), (4, 4), (3, 2), (4, 3), (5, 2)):
        for _ in range(20):
            A, N = (Matrix.from_rows(RATIONALS, [[value() for _ in range(p)] for _ in range(n)])
                    for _ in range(2))
            assert pencils._packed_rows(A, N) == _packed_rows_by_properties(A, N)
    assert any(v < 0 for v in drawn) and any(v.denominator > 1 for v in drawn)
    assert any(abs(v.numerator).bit_length() == 60 for v in drawn)


def test_int_entries_over_q_classify_like_their_fractions():
    # A Matrix built directly may hold ints over Q, which have no Fraction
    # slots; rows with them fall back to the public properties.
    def with_ints(M: Matrix) -> Matrix:
        return Matrix(RATIONALS, M.nrows, M.ncols,
                      tuple(tuple(int(v) if v.denominator == 1 else v for v in row) for row in M.rows))

    kinds = set()
    for A, N, _ in _traffic_lines(random.Random(41), 120):
        rawA, rawN = with_ints(A), with_ints(N)
        kinds.update(tuple(type(v) for v in row) for row in rawA.rows + rawN.rows)
        assert pencils._packed_rows(rawA, rawN) == pencils._packed_rows(A, N)
        assert classify_line(rawA, rawN) == classify_line(A, N)
    # all-int, all-Fraction and mixed rows
    assert {frozenset(k) for k in kinds} >= {frozenset({int}), frozenset({Fraction}),
                                              frozenset({int, Fraction})}


# --------------------------------------------------------------- classify_line


def test_rational_classify_calls_rational_roots_once_per_nonzero_polynomial(monkeypatch):
    # bench/trace.py times the root layer by wrapping pencils.rational_roots,
    # so classify_line over Q calls it by that name, once per nonzero polynomial.
    calls = []
    roots = pencils.rational_roots
    monkeypatch.setattr(pencils, "rational_roots", lambda poly: calls.append(poly) or roots(poly))
    lines = list(_rational_lines(random.Random(73)))
    lines.append((Matrix.zeros(RATIONALS, 3, 2), Matrix.zeros(RATIONALS, 3, 2)))
    results = [classify_line(A, N) for A, N in lines]
    assert calls == [res.poly for res in results if not res.poly.is_zero]
    assert len(calls) < len(lines)


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
    assert res.witness == Scalar(F3, F3.normalize(2))
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
                is_const = res.poly.degree <= 0
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


@pytest.mark.parametrize("field", [RATIONALS, F3], ids=str)
@pytest.mark.parametrize("shape", [(0, 0), (3, 0)])
def test_empty_pencils_are_constant_one(field, shape):
    Z = Matrix.zeros(field, *shape)
    one = Poly(field, (field.one,))
    if Z.is_square:
        assert det_pencil(Z, Z) == one
    assert minor_gcd(Z, Z) == one
    res = classify_line(Z, Z)
    assert (res.poly, res.classification, res.witness) == (one, CONSTANT_NONZERO, None)
    assert res.poly_kind == ("det" if Z.is_square else "minor-gcd")


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
            rhs = det_pencil(P, Matrix.identity(field, n - 1))
            assert lhs == Poly.from_coeffs(field, [field.mul(d, c) for c in rhs.coeffs])
