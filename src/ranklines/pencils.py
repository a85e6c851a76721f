"""Formal analysis of matrix lines A + t*N.

For square inputs the central object is the polynomial det(A + tN); for
rectangular n x p inputs (n >= p) it is the monic gcd of all maximal
p x p minors of A + tN.  Either way, the rank of A + t0*N drops below p
exactly at the roots of that polynomial, which turns the full-rank-line
question into root analysis.

Over GF(q) and Q alike both are computed in integers, from rows a and b
of A and N, with the denominators of each rational row pair cleared and
each GF(q) entry lifted to its centred representative.  Each minor is one
integer determinant of the packed rows a + 2^k*b, whose balanced base-2^k
digits are its coefficients (Kronecker substitution, von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 8; k comes from Hadamard's
inequality).  Over GF(q) the result is reduced mod q, a ring map, so it
needs no p + 1 field points.  Minors are folded by a primitive
remainder sequence over Q and, once reduced, by the Euclidean gcd over
GF(q) (ibid., ch. 5-6).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt
from operator import mul

from .fields import Scalar, clear_denominators
from .matrices import Matrix, _check_tall, _det_bareiss_int, check_shape

# rank_rows is unused here; bench/trace.py wraps pencils.rank_rows by name.
from .matrices import rank_rows  # noqa: F401
from .polynomials import Poly, _gcd_modp, _horner, _int_gcd_poly, _primitive, rational_roots

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


def _int_rows(A: Matrix, N: Matrix) -> tuple[list[list[int]], list[list[int]], int]:
    """Integer rows a and b of the pair, and the product of their row multipliers.

    GF(q) values become their centred representatives in (-q/2, q/2]
    (multiplier 1), which keeps the packed determinants small.  Over Q, row
    i of A and of N share one multiplier m_i, so det(A + tN) = det(a + tb) /
    prod m_i.
    """
    f = A.field
    if f.is_finite:
        q = f.modulus
        half = q // 2
        return ([[v - q if v > half else v for v in row] for row in A.rows],
                [[v - q if v > half else v for v in row] for row in N.rows], 1)
    a, b, scale, p = [], [], 1, A.ncols
    for ra, rb in zip(A.rows, N.rows):
        row, m = clear_denominators(ra + rb)
        a.append(row[:p])
        b.append(row[p:])
        scale *= m
    return a, b, scale


def _packed(a: list[list[int]], b: list[list[int]]) -> tuple[list[list[int]], int]:
    """The rows a_i + 2^k * b_i and the digit width k.

    On |t| = 1, |det(a + tb)| <= prod_i (|a_i| + |b_i|) (Hadamard), and by
    Cauchy's estimate that bounds every coefficient.  Each factor below is
    larger than |a_i| + |b_i| and at least 1, so the product bounds the
    coefficients of every row-subset minor too; with one guard bit each is
    a single balanced base-2^k digit.
    """
    bound = 1
    for ra, rb in zip(a, b):
        bound *= isqrt(sum(map(mul, ra, ra))) + isqrt(sum(map(mul, rb, rb))) + 2
    k = bound.bit_length() + 1
    return [[x + (y << k) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], k


def _digits(v: int, k: int) -> list[int]:
    """Balanced base-2^k digits of v, each in [-2^(k-1), 2^(k-1)), lowest
    first, without trailing zeros."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while v:
        d = ((v + half) & mask) - half
        out.append(d)
        v = (v - d) >> k
    return out


def _minors(a: list[list[int]], b: list[list[int]], p: int):
    """Each maximal minor of a + tb, for the row subsets in ``combinations`` order,
    as ascending integer coefficients without trailing zeros: one determinant
    of the packed rows per minor."""
    packed, k = _packed(a, b)
    for sub in combinations(range(len(a)), p):
        yield _digits(_det_bareiss_int([packed[i] for i in sub]), k)


def det_pencil(A: Matrix, N: Matrix) -> Poly:
    """The exact polynomial det(A + t*N); degree at most rank(N)."""
    check_shape(N, A.field, A.nrows, A.ncols)
    if not A.is_square:
        raise ValueError(f"pencil determinant requires square matrices, got {A.nrows}x{A.ncols}")
    a, b, scale = _int_rows(A, N)
    coeffs = next(_minors(a, b, A.ncols))  # the one maximal minor
    if A.field.is_finite:
        return Poly.from_coeffs(A.field, coeffs)  # reduces mod p, which is a ring map
    return Poly(A.field, tuple(Fraction(c, scale) for c in coeffs))


def minor_gcd(A: Matrix, N: Matrix) -> Poly:
    """Monic gcd of all maximal p x p minors of A + tN (zero iff all vanish)."""
    check_shape(N, A.field, A.nrows, A.ncols)
    _check_tall(A.nrows, A.ncols)
    f = A.field
    a, b, _ = _int_rows(A, N)  # a row multiplier scales every minor by a unit, so it drops out
    g: list = []  # ascending coefficients of the gcd so far; [] is the zero polynomial
    for minor in _minors(a, b, A.ncols):
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
