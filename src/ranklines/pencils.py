"""Formal analysis of matrix lines A + t*N.

For square inputs the central object is the polynomial det(A + tN); for
rectangular n x p inputs (n >= p) it is the monic gcd of all maximal
p x p minors of A + tN.  Either way, the rank of A + t0*N drops below p
exactly at the roots of that polynomial, which turns the full-rank-line
question into root analysis.

Over the rationals both are computed in integers: det(a + tb) at
t = 0..n by integer Bareiss, exact interpolation, and a primitive
remainder sequence for the gcd (von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 5-6).  A finite field may have too few points, so
there the determinant is expanded over K[t].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod

from .fields import FieldDesc, Scalar, clear_denominators
from .matrices import Matrix, _det_bareiss_int, check_pair, line_rows, rank_rows
from .polynomials import Poly, _int_gcd_poly, _primitive, _strip, poly_gcd, rational_roots

IDENTICALLY_ZERO = "identically-zero"
CONSTANT_NONZERO = "constant-nonzero"
NONCONSTANT_NO_ROOT = "nonconstant-no-root-in-K"
HAS_ROOT = "has-root-in-K"

CLASSIFICATIONS = (IDENTICALLY_ZERO, CONSTANT_NONZERO, NONCONSTANT_NO_ROOT, HAS_ROOT)


@dataclass(frozen=True)
class PencilAnalysis:
    """Outcome of classifying the line A + K*N.

    ``poly`` is det(A+tN) when the line is square (poly_kind "det") and the
    monic maximal-minor gcd otherwise (poly_kind "minor-gcd").  ``witness``
    is the smallest rank-dropping t0 when classification is has-root-in-K.
    """

    poly: Poly
    poly_kind: str
    classification: str
    witness: Scalar | None = None

    @property
    def full_rank(self) -> bool:
        """True iff every matrix of the line has full column rank."""
        return self.classification in (CONSTANT_NONZERO, NONCONSTANT_NO_ROOT)


def _pencil_entries(A: Matrix, N: Matrix) -> list[list[Poly]]:
    f = A.field
    return [[Poly.from_coeffs(f, (a, b)) for a, b in zip(ra, rb)]
            for ra, rb in zip(A.rows, N.rows)]


def _det_cofactor(entries: list[list[Poly]], field: FieldDesc) -> Poly:
    n = len(entries)
    if n == 0:
        return Poly.constant(field, field.one)
    if n == 1:
        return entries[0][0]
    if n == 2:
        (a, b), (c, d) = entries
        return a * d - b * c
    total = Poly.zero(field)
    for i in range(n):
        pivot = entries[i][0]
        if pivot.is_zero:
            continue
        sub = [row[1:] for k, row in enumerate(entries) if k != i]
        term = pivot * _det_cofactor(sub, field)
        total = total + term if i % 2 == 0 else total - term
    return total


def _det_bareiss_poly(entries: list[list[Poly]], field: FieldDesc) -> Poly:
    """Fraction-free determinant over K[t]; every division is exact."""
    m = [row[:] for row in entries]
    n = len(m)
    sign = 1
    prev = Poly.constant(field, field.one)
    for k in range(n - 1):
        if m[k][k].is_zero:
            piv = None
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    piv = i
                    break
            if piv is None:
                return Poly.zero(field)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * pkk - m[i][k] * m[k][j]
                quot, rem = num.divmod(prev)
                assert rem.is_zero, "Bareiss division must be exact"
                m[i][j] = quot
            m[i][k] = Poly.zero(field)
        prev = pkk
    result = m[n - 1][n - 1]
    return result if sign == 1 else -result


def _int_det_pencil(rows: list[list[int]]) -> list[int]:
    """Ascending coefficients of det(a + tb), without trailing zeros, for rows [a_i | b_i].

    The degree is at most n, so the values at t = 0..n determine it.  For
    f in Z[t], Delta^k f(j) is divisible by k!, so every division in the
    Newton table of divided differences is exact; its diagonal c gives
    f = c_0 + t*(c_1 + (t-1)*(c_2 + ...)), expanded from the inside out.
    """
    n = len(rows)
    c = [_det_bareiss_int([[x + t * y for x, y in zip(r, r[n:])] for r in rows])
         for t in range(n + 1)]
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            c[i], rem = divmod(c[i] - c[i - 1], k)
            assert rem == 0, "Newton division must be exact"
    poly = [c[n]]
    for k in range(n - 1, -1, -1):  # poly <- poly * (t - k) + c_k
        poly = [c[k] - k * poly[0]] + [lo - k * hi for lo, hi in zip(poly, poly[1:])] + poly[-1:]
    return _strip(poly)


def det_pencil(A: Matrix, N: Matrix) -> Poly:
    """The exact polynomial det(A + t*N); degree at most rank(N)."""
    check_pair(A, N)
    if not A.is_square:
        raise ValueError(f"pencil determinant requires square matrices, got {A.nrows}x{A.ncols}")
    if not A.field.is_finite:
        # Row i of A and of N share one multiplier m_i; det(A + tN) = det(a + tb) / prod m_i.
        rows = [clear_denominators(ra + rb) for ra, rb in zip(A.rows, N.rows)]
        scale = prod(m for _, m in rows)
        coeffs = _int_det_pencil([r for r, _ in rows])
        return Poly(A.field, tuple(Fraction(c, scale) for c in coeffs))
    entries = _pencil_entries(A, N)
    # Interpolation is unusable over fields with <= n points, so expand
    # directly: Laplace for small n, fraction-free elimination beyond.
    if A.nrows <= 4:
        return _det_cofactor(entries, A.field)
    return _det_bareiss_poly(entries, A.field)


def minor_gcd(A: Matrix, N: Matrix) -> Poly:
    """Monic gcd of all maximal p x p minors of A + tN (zero iff all vanish)."""
    check_pair(A, N)
    n, p = A.nrows, A.ncols
    if n < p:
        raise ValueError(f"expected at least as many rows as columns, got {n}x{p}")
    f = A.field
    if not f.is_finite:
        # Row multipliers scale each minor by a unit of Q, so they drop out.
        ints = [clear_denominators(ra + rb)[0] for ra, rb in zip(A.rows, N.rows)]
        h: list[int] = []
        for rows in combinations(ints, p):
            minor = _int_det_pencil(list(rows))
            if minor:
                h = _int_gcd_poly(h, minor) if h else _primitive(minor)
                if len(h) == 1:
                    break  # gcd is already the unit polynomial
        return Poly(f, tuple(Fraction(c, h[-1]) for c in h))
    g = Poly.zero(f)
    for rows in combinations(range(n), p):
        subA = Matrix(f, p, p, tuple(A.rows[i] for i in rows))
        subN = Matrix(f, p, p, tuple(N.rows[i] for i in rows))
        g = poly_gcd(g, det_pencil(subA, subN))
        if g.degree == 0:
            break  # gcd is already the unit polynomial
    return g


def _classify_formal(poly: Poly) -> str:
    if poly.is_zero:
        return IDENTICALLY_ZERO
    return CONSTANT_NONZERO if poly.degree == 0 else NONCONSTANT_NO_ROOT


def classify_line(A: Matrix, N: Matrix) -> PencilAnalysis:
    """Classify the line A + K*N by where (if anywhere) its rank drops.

    Over GF(p) every t is tried directly and the smallest rank-dropping
    t0 is reported; over the rationals the classification is read off the
    minor gcd and its rational roots.  Full column rank everywhere is
    equivalent to classification constant-nonzero or nonconstant-no-root-in-K.
    """
    n, p = A.nrows, A.ncols
    f = A.field
    # det_pencil and minor_gcd reject mismatched pairs and n < p.
    poly = det_pencil(A, N) if n == p else minor_gcd(A, N)
    kind = "det" if n == p else "minor-gcd"
    if f.is_finite:
        witness = None
        failures = 0
        for t in f.elements():
            if rank_rows(f, line_rows(A.rows, N.rows, t, f.modulus), p) < p:
                failures += 1
                if witness is None:
                    witness = Scalar(f, t)
        if witness is not None and not (failures == f.order and poly.is_zero):
            return PencilAnalysis(poly, kind, HAS_ROOT, witness)
        return PencilAnalysis(poly, kind, _classify_formal(poly))
    if poly.is_zero:
        return PencilAnalysis(poly, kind, IDENTICALLY_ZERO)
    roots = rational_roots(poly)
    if roots:
        return PencilAnalysis(poly, kind, HAS_ROOT, Scalar(f, roots[0]))
    return PencilAnalysis(poly, kind, _classify_formal(poly))
