"""Univariate polynomials with exact coefficients in a fixed field.

``Poly`` is a value: coefficients are stored ascending (constant term first)
with no trailing zeros, so equal polynomials have equal tuples.  The zero
polynomial has an empty coefficient tuple and degree minus infinity.  It
evaluates and prints but has no arithmetic: the pencil polynomials are
computed on integer coefficient lists and boxed once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd as int_gcd, isqrt

from .fields import FieldDesc, RawValue, _is_prime, clear_denominators

NEG_INF = float("-inf")

# The primes a rational root search tries before it takes a squarefree part.
_SCAN_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


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

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __call__(self, x) -> RawValue:
        """Evaluate by Horner's rule; returns a raw field value."""
        f = self.field
        x = f.normalize(x)
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

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


def _gcd_modp(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p) of two integer polynomials reduced mod p; [] if both are zero."""
    a = _strip([c % p for c in a])
    b = _strip([c % p for c in b])
    while b:
        inv, lb = pow(b[-1], -1, p), len(b) - 1
        while len(a) > lb:
            c = a.pop() * inv % p  # the leading term cancels
            shift = len(a) - lb
            for j in range(lb):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            _strip(a)
        a, b = b, a
    if len(a) <= 1:  # zero or a unit
        return [1] if a else []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _horner(ints: list[int], x: int, m: int) -> int:
    """f(x) mod m, evaluated in exact integers and reduced once."""
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc % m


def _simple_root_prime(f: list[int], primes) -> tuple[int, list[int]] | None:
    """The first p in primes with p !| lc(f) at which every root of f mod p
    is simple (f' does not vanish there), with those roots; None if none is."""
    df = _derivative(f)
    for p in primes:
        if f[-1] % p:
            fp, dfp = [c % p for c in f], [c % p for c in df]
            roots = [x for x in range(p) if _horner(fp, x, p) == 0]
            if all(_horner(dfp, x, p) for x in roots):
                return p, roots
    return None


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

    Past degree 2 the roots are found p-adically (R. Loos, "Computing
    rational zeros of integral polynomials by p-adic expansion", SIAM J.
    Comput. 12, 1983; von zur Gathen & Gerhard, *Modern Computer Algebra*,
    ch. 15 and section 5.10).  Every step takes time polynomial in the
    coefficients' bit size:

    1. the factor t^k is removed, giving the root 0;
    2. degrees 1 and 2 are answered in closed form: f_1*t + f_0 has the
       root -f_0/f_1, and a*t^2 + b*t + c has the roots (-b +- r)/2a
       exactly when D = b^2 - 4ac >= 0 is a square, r = isqrt(D); every
       direction of rank <= 2 has a pencil polynomial of degree <= 2.
       Higher degrees go on:
    3. f is made primitive, and p is the smallest of the odd primes 3 to
       23 that does not divide its leading coefficient and at which every
       root of f mod p, found by evaluating every residue, is simple
       (f' does not vanish there).  A rational root a/b has b | lc(f), so
       it maps to a root mod p, and a simple root mod p has exactly one
       p-adic lift, so f itself need not be squarefree;
    4. if no such prime is among them, f becomes the squarefree part
       f / gcd(f, f') and p is the smallest such odd prime for it;
    5. each root x mod p is Newton (Hensel) lifted, squaring the modulus m
       each step, until m > 2 * |f_0| * |f_d|.  The inverse s of f'(x) is
       lifted alongside x, as s <- s * (2 - f'(x) * s) mod m, so one
       modular inverse (mod p) serves every step (ibid., ch. 9);
    6. a/b is recovered by rational reconstruction with |a| <= |f_0| and
       0 < b <= |f_d|, which bound every rational root of f;
    7. a candidate is kept only if the integer homogeneous form
       sum_k f_k * a^k * b^(d-k) is exactly 0.
    """
    if poly.field.kind != "rat":
        raise ValueError("rational root search requires the rational field")
    if poly.is_zero:
        raise ValueError("the zero polynomial has every rational root")
    f = clear_denominators(poly.coeffs)[0]
    # Strip the t^k factor: 0 is a root iff the constant term vanishes.
    roots: list[Fraction] = [Fraction(0)] if f[0] == 0 else []
    while f[0] == 0:
        f.pop(0)
    if len(f) == 2:
        roots.append(Fraction(-f[0], f[1]))
    elif len(f) == 3:
        c, b, a = f
        disc = b * b - 4 * a * c
        if disc >= 0:
            r = isqrt(disc)
            if r * r == disc:
                roots.append(Fraction(r - b, 2 * a))
                if r:  # a double root is listed once
                    roots.append(Fraction(-r - b, 2 * a))
    elif len(f) > 3:
        f = _primitive(f)
        found = _simple_root_prime(f, _SCAN_PRIMES)
        if found is None:
            g = _int_gcd_poly(f, _derivative(f))
            if len(g) > 1:
                f = _int_exact_div(f, g)
            # A squarefree f has simple roots modulo all but finitely many primes.
            found = _simple_root_prime(f, filter(_is_prime, count(3, 2)))
        p, residues = found
        df = _derivative(f)
        bound = abs(f[0])  # |a| of every root a/b; b <= f[-1]
        limit = 2 * bound * f[-1]
        for x in residues:
            # s = 1/f'(x) mod m on entry to each step, which keeps it quadratic.
            m, s = p, pow(_horner(df, x, p), -1, p)
            while m <= limit:
                m *= m
                x = (x - _horner(f, x, m) * s) % m
                if m <= limit:
                    s = s * (2 - _horner(df, x, m) * s) % m
            a, b = _rational_reconstruction(x, m, bound)
            if _homogeneous_value(f, a, b) == 0:
                roots.append(Fraction(a, b))
    roots.sort(key=lambda r: (abs(r.numerator) + r.denominator, r < 0, abs(r.numerator)))
    return roots
