"""Formal analysis of matrix lines A + t*N.

For square inputs the central object is the polynomial det(A + tN); for
rectangular n x p inputs (n >= p) it is the monic gcd of all maximal
p x p minors of A + tN.  Either way, the rank of A + t0*N drops below p
exactly at the roots of that polynomial, which turns the full-rank-line
question into root analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .fields import FieldDesc, FieldMismatchError, Scalar
from .matrices import Matrix, rank_rows
from .polynomials import Poly, poly_gcd, rational_roots

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


def _check_line(A: Matrix, N: Matrix) -> None:
    if A.field != N.field:
        raise FieldMismatchError(f"cannot mix {A.field} and {N.field}")
    if (A.nrows, A.ncols) != (N.nrows, N.ncols):
        raise ValueError(f"shape mismatch: {A.nrows}x{A.ncols} vs {N.nrows}x{N.ncols}")


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


def det_pencil(A: Matrix, N: Matrix) -> Poly:
    """The exact polynomial det(A + t*N); degree at most rank(N)."""
    _check_line(A, N)
    if not A.is_square:
        raise ValueError(f"pencil determinant requires square matrices, got {A.nrows}x{A.ncols}")
    entries = _pencil_entries(A, N)
    # Interpolation is unusable over fields with <= n points, so expand
    # directly: Laplace for small n, fraction-free elimination beyond.
    if A.nrows <= 4:
        return _det_cofactor(entries, A.field)
    return _det_bareiss_poly(entries, A.field)


def minor_gcd(A: Matrix, N: Matrix) -> Poly:
    """Monic gcd of all maximal p x p minors of A + tN (zero iff all vanish)."""
    _check_line(A, N)
    n, p = A.nrows, A.ncols
    if n < p:
        raise ValueError(f"expected at least as many rows as columns, got {n}x{p}")
    f = A.field
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
    _check_line(A, N)
    n, p = A.nrows, A.ncols
    if n < p:
        raise ValueError(f"expected at least as many rows as columns, got {n}x{p}")
    f = A.field
    poly = det_pencil(A, N) if n == p else minor_gcd(A, N)
    kind = "det" if n == p else "minor-gcd"
    if f.is_finite:
        witness = None
        failures = 0
        for t in f.elements():
            rows = tuple(tuple((a + t * b) % f.modulus for a, b in zip(ra, rb))
                         for ra, rb in zip(A.rows, N.rows))
            if rank_rows(f, rows, p) < p:
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
