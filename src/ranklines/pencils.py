"""Formal analysis of matrix lines A + t*N.

For square inputs the central object is the polynomial det(A + tN); for
rectangular n x p inputs (n >= p) it is the monic gcd of all maximal
p x p minors of A + tN.  Either way, the rank of A + t0*N drops below p
exactly at the roots of that polynomial, which turns the full-rank-line
question into root analysis.

Over GF(q) and Q alike both are computed in integers: one pass over the
rows clears the denominators of each rational row pair of A and N, or
lifts each GF(q) entry to its centred representative, and packs the
rows a + 2^k*b.  Each minor is one integer determinant of them, whose
balanced base-2^k digits are its coefficients (Kronecker substitution,
von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 8); 2^k exceeds
Hadamard's bound taken with each row's L1 norm, which bounds every
coefficient.  Over GF(q) the result is reduced mod q, a ring map, so it
needs no p + 1 field points.  Minors are folded by a primitive remainder
sequence over Q and, once reduced, by the Euclidean gcd over GF(q)
(ibid., ch. 5-6).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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


def _packed_rows(A: Matrix, N: Matrix) -> tuple[list[list[int]], int, int]:
    """The integer rows a_i + 2^k * b_i, the digit width k, and prod m_i.

    Over Q, row i of A and of N is scaled by one lcm m_i, so det(A + tN) =
    det(a + tb) / prod m_i; a GF(q) entry becomes its centred representative
    in (-q/2, q/2] (m_i = 1), which keeps the determinants small.  On
    |t| = 1, Hadamard gives |det(a + tb)| <= prod_i |a_i + t*b_i|_2 <= prod_i
    |(a_i, b_i)|_1, the L1 norms of the concatenated rows, and by Cauchy's
    estimate that bounds every coefficient.  Each factor |(a_i, b_i)|_1 + 1
    is at least 1, so the product bounds every row-subset minor too, and
    with one guard bit each coefficient is one balanced base-2^k digit.
    """
    p, q = A.ncols, A.field.modulus  # q is None over Q
    rows, bound, scale = [], 1, 1
    for ra, rb in zip(A.rows, N.rows):
        if q is None:
            row, m = clear_denominators(ra + rb)
            scale *= m
        else:
            row = [v - q if 2 * v > q else v for v in ra + rb]
        bound *= sum(map(abs, row)) + 1
        rows.append(row)
    k = bound.bit_length() + 1
    return [[x + (y << k) for x, y in zip(row[:p], row[p:])] for row in rows], k, scale


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


def det_pencil(A: Matrix, N: Matrix) -> Poly:
    """The exact polynomial det(A + t*N); degree at most rank(N)."""
    check_shape(N, A.field, A.nrows, A.ncols)
    if not A.is_square:
        raise ValueError(f"pencil determinant requires square matrices, got {A.nrows}x{A.ncols}")
    packed, k, scale = _packed_rows(A, N)
    coeffs = _digits(_det_bareiss_int(packed), k)
    if A.field.is_finite:
        return Poly.from_coeffs(A.field, coeffs)  # reduces mod p, which is a ring map
    return Poly(A.field, _boxed(coeffs, scale))


def minor_gcd(A: Matrix, N: Matrix) -> Poly:
    """Monic gcd of all maximal p x p minors of A + tN (zero iff all vanish)."""
    check_shape(N, A.field, A.nrows, A.ncols)
    _check_tall(A.nrows, A.ncols)
    f = A.field
    packed, k, _ = _packed_rows(A, N)  # a row multiplier scales every minor by a unit, so it drops out
    g: list = []  # ascending coefficients of the gcd so far; [] is the zero polynomial
    for sub in combinations(range(A.nrows), A.ncols):  # one packed determinant per minor
        minor = _digits(_det_bareiss_int([packed[i] for i in sub]), k)
        if f.is_finite:
            # Reduce each minor before the gcd: a gcd over Z, reduced afterwards, is wrong.
            g = _gcd_modp(g, minor, f.modulus)
        elif minor:
            g = _int_gcd_poly(g, minor) if g else _primitive(minor)
        if len(g) == 1:
            break  # gcd is already the unit polynomial
    if f.is_finite or not g:
        return Poly(f, tuple(g))
    return Poly(f, _boxed(g, g[-1]))


def _boxed(ints: list[int], den: int) -> tuple[Fraction, ...]:
    """The rationals c / den, reduced by a gcd only where den is not 1."""
    if den == 1:
        return tuple(map(Fraction, ints))
    return tuple(Fraction(c, den) for c in ints)


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
