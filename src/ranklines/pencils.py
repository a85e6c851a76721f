"""Formal analysis of matrix lines A + t*N.

For square inputs the central object is the polynomial det(A + tN); for
rectangular n x p inputs (n >= p) it is the monic gcd of all maximal
p x p minors of A + tN.  Either way, the rank of A + t0*N drops below p
exactly at the roots of that polynomial, which turns the full-rank-line
question into root analysis.

Over GF(p) and Q alike both are computed in integers.  The line is
evaluated once, as the integer matrices a + tb at t = 0..k for k columns;
the determinants there (closed forms up to 4 x 4, integer Bareiss beyond)
give the coefficients by exact Newton interpolation.  A tall line takes
each maximal minor's values from row subsets of the same points.  Over
GF(p) the result is reduced mod p, a ring map, so it needs no k + 1 field
points.  Minors are folded by a primitive remainder sequence over Q and,
once reduced, by the Euclidean gcd over GF(p) (von zur Gathen & Gerhard,
*Modern Computer Algebra*, ch. 5-6).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod

from .fields import Scalar, clear_denominators
from .matrices import Matrix, _check_tall, _det_bareiss_int, check_shape

# rank_rows is unused here; bench/trace.py wraps pencils.rank_rows by name.
from .matrices import rank_rows  # noqa: F401
from .polynomials import Poly, _gcd_modp, _horner, _int_gcd_poly, _primitive, _strip, rational_roots

IDENTICALLY_ZERO = "identically-zero"
CONSTANT_NONZERO = "constant-nonzero"
NONCONSTANT_NO_ROOT = "nonconstant-no-root-in-K"
HAS_ROOT = "has-root-in-K"


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


def _line_points(rows: list[list[int]], p: int) -> list[list[list[int]]]:
    """The integer matrices a + t*b for t = 0..p, for rows [a_i | b_i] of width 2p.

    Each point is the previous one plus b.
    """
    point, b = [r[:p] for r in rows], [r[p:] for r in rows]
    points = [point]
    for _ in range(p):
        point = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(point, b)]
        points.append(point)
    return points


def _interpolate(values: list[int]) -> list[int]:
    """Ascending coefficients, without trailing zeros, of the f in Z[t] with
    deg f < len(values) and f(t) = values[t]; values is overwritten.

    For f in Z[t], Delta^k f(j) is divisible by k!, so every division in the
    Newton table of divided differences is exact; its diagonal c gives
    f = c_0 + t*(c_1 + (t-1)*(c_2 + ...)), expanded from the inside out.
    """
    c = values
    n = len(c) - 1
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            c[i], rem = divmod(c[i] - c[i - 1], k)
            assert rem == 0, "Newton division must be exact"
    poly = [c[n]]
    for k in range(n - 1, -1, -1):  # poly <- poly * (t - k) + c_k
        poly = [c[k] - k * poly[0]] + [lo - k * hi for lo, hi in zip(poly, poly[1:])] + poly[-1:]
    return _strip(poly)


def _int_rows(A: Matrix, N: Matrix) -> tuple[list[list[int]], int]:
    """Integer rows [a_i | b_i] of the pair and the product of their row multipliers.

    GF(p) values are integers already (multiplier 1).  Over Q, row i of A and
    of N share one multiplier m_i, so det(A + tN) = det(a + tb) / prod m_i.
    """
    if A.field.is_finite:
        return [ra + rb for ra, rb in zip(A.rows, N.rows)], 1
    rows = [clear_denominators(ra + rb) for ra, rb in zip(A.rows, N.rows)]
    return [r for r, _ in rows], prod(m for _, m in rows)


def det_pencil(A: Matrix, N: Matrix) -> Poly:
    """The exact polynomial det(A + t*N); degree at most rank(N)."""
    check_shape(N, A.field, A.nrows, A.ncols)
    if not A.is_square:
        raise ValueError(f"pencil determinant requires square matrices, got {A.nrows}x{A.ncols}")
    rows, scale = _int_rows(A, N)
    coeffs = _interpolate([_det_bareiss_int(point) for point in _line_points(rows, A.ncols)])
    if A.field.is_finite:
        return Poly.from_coeffs(A.field, coeffs)  # reduces mod p, which is a ring map
    return Poly(A.field, tuple(Fraction(c, scale) for c in coeffs))


def minor_gcd(A: Matrix, N: Matrix) -> Poly:
    """Monic gcd of all maximal p x p minors of A + tN (zero iff all vanish)."""
    check_shape(N, A.field, A.nrows, A.ncols)
    _check_tall(A.nrows, A.ncols)
    f = A.field
    rows, _ = _int_rows(A, N)  # a row multiplier scales every minor by a unit, so it drops out
    points = _line_points(rows, A.ncols)  # p + 1 points determine each minor of degree <= p
    g: list = []  # ascending coefficients of the gcd so far; [] is the zero polynomial
    for sub in combinations(range(A.nrows), A.ncols):
        minor = _interpolate([_det_bareiss_int([point[i] for i in sub]) for point in points])
        if f.is_finite:
            # Reduce each minor before the gcd: a gcd over Z, reduced afterwards, is wrong.
            g = _gcd_modp(g, minor, f.modulus)
        elif minor:
            g = _int_gcd_poly(g, minor) if g else _primitive(minor)
        if len(g) == 1:
            break  # gcd is already the unit polynomial
    if f.is_finite:
        return Poly(f, tuple(g))
    return Poly(f, tuple(Fraction(c, g[-1]) for c in g))


def _classify_formal(poly: Poly) -> str:
    if poly.is_zero:
        return IDENTICALLY_ZERO
    return CONSTANT_NONZERO if poly.degree == 0 else NONCONSTANT_NO_ROOT


def classify_line(A: Matrix, N: Matrix) -> PencilAnalysis:
    """Classify the line A + K*N by where (if anywhere) its rank drops.

    The rank of A + t0*N drops exactly where the polynomial vanishes, so
    the classification is read off the polynomial: over GF(p) the witness
    is its smallest root in 0..p-1, over the rationals its smallest
    rational root.  Full column rank everywhere is equivalent to
    classification constant-nonzero or nonconstant-no-root-in-K.
    """
    n, p = A.nrows, A.ncols
    f = A.field
    # det_pencil and minor_gcd reject mismatched pairs and n < p.
    poly = det_pencil(A, N) if n == p else minor_gcd(A, N)
    kind = "det" if n == p else "minor-gcd"
    if poly.is_zero:
        return PencilAnalysis(poly, kind, IDENTICALLY_ZERO)
    if not f.is_finite:
        roots = rational_roots(poly)
    elif poly.degree == 0:
        roots = []
    else:  # only the smallest root is needed
        q = f.modulus
        roots = next(([t] for t in range(q) if _horner(poly.coeffs, t, q) == 0), [])
    if roots:
        return PencilAnalysis(poly, kind, HAS_ROOT, Scalar(f, roots[0]))
    return PencilAnalysis(poly, kind, _classify_formal(poly))
