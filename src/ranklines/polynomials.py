"""Univariate polynomials with exact coefficients in a fixed field.

Coefficients are stored ascending (constant term first) with no trailing
zeros, so equal polynomials have equal tuples.  The zero polynomial has an
empty coefficient tuple and degree minus infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from math import lcm

from .fields import FieldDesc, FieldMismatchError, RawValue

NEG_INF = float("-inf")


@dataclass(frozen=True)
class Poly:
    field: FieldDesc
    coeffs: tuple[RawValue, ...]  # ascending, no trailing zeros

    @classmethod
    def from_coeffs(cls, field: FieldDesc, coeffs) -> "Poly":
        vals = [field.normalize(c) for c in coeffs]
        while vals and vals[-1] == field.zero:
            vals.pop()
        return cls(field, tuple(vals))

    @classmethod
    def zero(cls, field: FieldDesc) -> "Poly":
        return cls(field, ())

    @classmethod
    def constant(cls, field: FieldDesc, c) -> "Poly":
        return cls.from_coeffs(field, [c])

    @classmethod
    def t(cls, field: FieldDesc) -> "Poly":
        """The identity polynomial t."""
        return cls(field, (field.zero, field.one))

    # -- structure -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> RawValue:
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> RawValue:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.field.zero

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"cannot mix {self.field} and {other.field}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly.from_coeffs(f, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, tuple(f.neg(c) for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        if self.is_zero or other.is_zero:
            return Poly.zero(f)
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == f.zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly.from_coeffs(f, out)

    def scale(self, c) -> "Poly":
        f = self.field
        c = f.normalize(c)
        return Poly.from_coeffs(f, [f.mul(c, a) for a in self.coeffs])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial long division (other must be nonzero)."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dlen = len(other.coeffs)
        if len(rem) < dlen:
            return Poly.zero(f), self
        inv_lead = f.inv(other.coeffs[-1])
        quot = [f.zero] * (len(rem) - dlen + 1)
        for k in range(len(rem) - dlen, -1, -1):
            c = rem[k + dlen - 1]
            if c == f.zero:
                continue
            q = f.mul(c, inv_lead)
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] = f.sub(rem[k + j], f.mul(q, b))
        return Poly.from_coeffs(f, quot), Poly.from_coeffs(f, rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        f = self.field
        inv = f.inv(self.coeffs[-1])
        return Poly(f, tuple(f.mul(inv, c) for c in self.coeffs[:-1]) + (f.one,))

    def __call__(self, x) -> RawValue:
        """Evaluate by Horner's rule; returns a raw field value."""
        f = self.field
        x = f.normalize(x)
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    # -- rendering --------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        f = self.field
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == f.zero:
                continue
            mag, neg = c, False
            if f.kind == "rat" and c < 0:
                mag, neg = -c, True
            if k == 0:
                body = f.format(mag)
            else:
                tpow = "t" if k == 1 else f"t^{k}"
                body = tpow if mag == f.one else f"{f.format(mag)}*{tpow}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if a.field != b.field:
        raise FieldMismatchError(f"cannot mix {a.field} and {b.field}")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _primitive(ints: list[int]) -> list[int]:
    """Divide out the content; the leading coefficient becomes positive."""
    content = int_gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return [c // content for c in ints]


def _strip(ints: list[int]) -> list[int]:
    while ints and ints[-1] == 0:
        ints.pop()
    return ints


def _derivative(ints: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(ints)][1:]


def _int_gcd_poly(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero integer polynomials (primitive PRS)."""
    while len(b) > 1:
        # pseudo-remainder: lc(b)^e * a mod b stays in Z[t]
        r, lead = list(a), b[-1]
        while r and len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [lead * x for x in r]
            for j, y in enumerate(b):
                r[shift + j] -= c * y
            _strip(r)
        if not r:
            return _primitive(b)
        a, b = b, _primitive(r)
    return [1]


def _int_exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b in Z[t], where b is primitive and divides a."""
    r, lead = list(a), b[-1]
    quot = [0] * (len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        q = quot[k] = r[k + len(b) - 1] // lead
        for j, y in enumerate(b):
            r[k + j] -= q * y
    return quot


def _squarefree_mod(f: list[int], p: int) -> bool:
    """True iff f mod p keeps its degree and has no repeated factor."""
    if f[-1] % p == 0:
        return False
    a = [c % p for c in f]
    b = _strip([c % p for c in _derivative(f)])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % p, len(a) - len(b)
            for j, y in enumerate(b):
                a[shift + j] = (a[shift + j] - c * y) % p
            _strip(a)
        a, b = b, a
    return len(a) == 1


def _horner(ints: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = (acc * x + c) % m
    return acc


def _odd_primes():
    found: list[int] = []
    p = 3
    while True:
        if all(p % q for q in found):
            found.append(p)
            yield p
        p += 2


def _rational_reconstruction(u: int, m: int, bound: int) -> tuple[int, int]:
    """Extended Euclid on (m, u), stopped at the first remainder <= bound.

    Returns (a, b) with a = b*u mod m and |a| <= bound.  If some a'/b' with
    |a'| <= bound and 0 < b' <= B is congruent to u and m > 2 * bound * B,
    then a/b = a'/b' (von zur Gathen & Gerhard, section 5.10); otherwise
    a/b is arbitrary, so the caller still checks that it is a root.
    """
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    return r1, s1


def _homogeneous_value(ints: list[int], a: int, b: int) -> int:
    """sum_k c_k * a^k * b^(d-k): zero iff a/b is a root (b != 0)."""
    acc, bpow = ints[-1], 1
    for c in reversed(ints[:-1]):
        bpow *= b
        acc = acc * a + c * bpow
    return acc


def rational_roots(poly: Poly) -> list[Fraction]:
    """All rational roots of a nonzero polynomial over the rationals.

    Roots are sorted by (|num| + |den|, then positive before negative,
    then |num|), so 1 comes before -1 and 1/2 before 2; each root appears
    once.

    The roots are found p-adically (R. Loos, "Computing rational zeros of
    integral polynomials by p-adic expansion", SIAM J. Comput. 12, 1983;
    von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 15 and
    section 5.10), in time polynomial in the coefficients' bit size:

    1. the factor t^k is removed, giving the root 0;
    2. f is the primitive integer form of the squarefree part
       f / gcd(f, f');
    3. p is the smallest odd prime not dividing the leading coefficient
       for which f mod p stays squarefree;
    4. the roots of f mod p are found by evaluating every residue;
    5. each is Newton (Hensel) lifted until p^k > 2 * |f_0| * |f_d|;
    6. a/b is recovered by rational reconstruction with |a| <= |f_0| and
       0 < b <= |f_d|, which bound every rational root of f;
    7. a candidate is kept only if the integer homogeneous form
       sum_k f_k * a^k * b^(d-k) is exactly 0.
    """
    if poly.field.kind != "rat":
        raise ValueError("rational root search requires the rational field")
    if poly.is_zero:
        raise ValueError("the zero polynomial has every rational root")
    coeffs = list(poly.coeffs)
    # Strip the t^k factor: 0 is a root iff the constant term vanishes.
    roots: list[Fraction] = [Fraction(0)] if coeffs[0] == 0 else []
    while coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) > 1:
        mult = lcm(*(c.denominator for c in coeffs))
        f = _primitive([int(c * mult) for c in coeffs])
        g = _int_gcd_poly(f, _derivative(f))
        if len(g) > 1:
            f = _int_exact_div(f, g)
        p = next(q for q in _odd_primes() if _squarefree_mod(f, q))
        df = _derivative(f)
        bound = abs(f[0])  # |a| of every root a/b; b <= f[-1]
        for x in range(p):
            if _horner(f, x, p):
                continue
            m = p
            while m <= 2 * bound * f[-1]:
                m *= m
                x = (x - _horner(f, x, m) * pow(_horner(df, x, m), -1, m)) % m
            a, b = _rational_reconstruction(x, m, bound)
            if _homogeneous_value(f, a, b) == 0:
                roots.append(Fraction(a, b))
    roots.sort(key=lambda r: (abs(r.numerator) + r.denominator, r < 0, abs(r.numerator)))
    return roots
