"""Univariate polynomial arithmetic, printing, gcd, and rational roots."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklines.fields import GF, RATIONALS
from ranklines.polynomials import NEG_INF, Poly, _gcd_modp, poly_gcd, rational_roots

F2 = GF(2)
F5 = GF(5)


def _poly(field, *coeffs):
    return Poly.from_coeffs(field, coeffs)


def test_trailing_zeros_are_stripped():
    p = _poly(F5, 1, 2, 0, 0)
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert _poly(F5, 0, 0).is_zero


def test_degree_of_zero_is_minus_infinity():
    z = Poly.zero(F5)
    assert z.degree == NEG_INF
    assert z.degree < 0
    assert Poly.constant(F5, 3).degree == 0
    assert Poly.t(F5).degree == 1


def test_addition_and_cancellation():
    a = _poly(F5, 1, 4)  # 1 + 4t
    b = _poly(F5, 2, 1)  # 2 + t
    assert (a + b).coeffs == (3,)
    assert (a - a).is_zero
    assert (-a).coeffs == (4, 1)


def test_multiplication_known_product():
    a = _poly(F5, 1, 1)
    # (1 + t)^2 = 1 + 2t + t^2
    assert (a * a).coeffs == (1, 2, 1)
    two = Poly.constant(F5, 2)
    assert (a * two).coeffs == (2, 2)
    assert (a * Poly.zero(F5)).is_zero
    assert a.scale(3).coeffs == (3, 3)


def test_call_evaluates_by_horner():
    p = _poly(F5, 1, 0, 2)  # 1 + 2t^2
    assert [p(t) for t in range(5)] == [(1 + 2 * t * t) % 5 for t in range(5)]
    q = _poly(RATIONALS, Fraction(1, 2), -1)
    assert q(Fraction(1, 2)) == 0


@given(st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_divmod_identity_over_gf5(da, db, data):
    a = _poly(F5, *[data.draw(st.integers(0, 4)) for _ in range(da + 1)])
    b_coeffs = [data.draw(st.integers(0, 4)) for _ in range(db)]
    b = _poly(F5, *(b_coeffs + [data.draw(st.integers(1, 4))]))
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree
    assert a % b == r and a // b == q


def test_divmod_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        Poly.t(F5).divmod(Poly.zero(F5))


def test_divmod_with_rational_leading_coefficient():
    a = _poly(RATIONALS, -1, 0, 1)          # t^2 - 1
    b = _poly(RATIONALS, Fraction(1, 2), Fraction(1, 2))  # (t + 1)/2
    q, r = a.divmod(b)
    assert r.is_zero
    assert q.coeffs == (-2, 2)  # 2t - 2


def test_monic_normalization():
    p = _poly(F5, 2, 4)
    assert p.monic().coeffs == (3, 1)
    assert Poly.zero(F5).monic().is_zero


def test_gcd_examples():
    t = Poly.t(RATIONALS)
    one = Poly.constant(RATIONALS, 1)
    a = (t - one) * (t + one)
    b = (t - one) * (t - one)
    g = poly_gcd(a, b)
    assert g.coeffs == (-1, 1)  # t - 1, monic
    assert poly_gcd(a, Poly.zero(RATIONALS)) == a.monic()
    assert poly_gcd(Poly.zero(F2), Poly.zero(F2)).is_zero
    coprime = poly_gcd(t, t + one)
    assert coprime.coeffs == (1,)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both_arguments(data):
    coeffs = lambda k: [data.draw(st.integers(0, 4)) for k in range(k)]  # noqa: E731
    a = _poly(F5, *coeffs(data.draw(st.integers(1, 5))))
    b = _poly(F5, *coeffs(data.draw(st.integers(1, 5))))
    g = poly_gcd(a, b)
    if g.is_zero:
        assert a.is_zero and b.is_zero
    else:
        assert (a % g).is_zero and (b % g).is_zero
        assert g.leading() == 1


@given(st.sampled_from((2, 3, 5, 65521)), st.data())
@settings(max_examples=80, deadline=None)
def test_integer_list_gcd_mod_p_matches_poly_gcd(p, data):
    # Integer inputs, possibly with leading coefficients that vanish mod p.
    ints = st.lists(st.integers(-3 * p, 3 * p), max_size=6)
    a, b = data.draw(ints), data.draw(ints)
    F = GF(p)
    assert _gcd_modp(a, b, p) == list(poly_gcd(Poly.from_coeffs(F, a), Poly.from_coeffs(F, b)).coeffs)


# -------------------------------------------------------------------- printing


def test_str_rendering():
    assert str(Poly.zero(F5)) == "0"
    assert str(Poly.constant(F5, 3)) == "3"
    assert str(Poly.t(F5)) == "t"
    assert str(_poly(F5, 1, 1, 1)) == "1 + t + t^2"
    assert str(_poly(F5, 1, 0, 2)) == "1 + 2*t^2"
    assert str(_poly(F5, 0, 0, 0, 1)) == "t^3"
    assert str(_poly(RATIONALS, Fraction(-1, 2), 1)) == "-1/2 + t"
    assert str(_poly(RATIONALS, 0, -2)) == "-2*t"


# -------------------------------------------------------------- rational roots


def test_rational_roots_examples():
    t = Poly.t(RATIONALS)
    one = Poly.constant(RATIONALS, 1)
    assert rational_roots((t - one) * (t + one)) == [1, -1]
    assert rational_roots(_poly(RATIONALS, 1, 0, 1)) == []  # t^2 + 1
    assert rational_roots(_poly(RATIONALS, -3, 2)) == [Fraction(3, 2)]
    assert rational_roots(t * t) == [0]
    assert rational_roots(one) == []


def test_rational_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        rational_roots(Poly.zero(RATIONALS))


def test_rational_roots_ordering():
    # roots 1, -1, 1/2, 2 from (t-1)(t+1)(2t-1)(t-2); the ordering key is
    # (|num| + den, sign, |num|) so 1 < -1 < 1/2 < 2.
    t = Poly.t(RATIONALS)
    c = lambda v: Poly.constant(RATIONALS, v)  # noqa: E731
    p = (t - c(1)) * (t + c(1)) * (c(2) * t - c(1)) * (t - c(2))
    assert rational_roots(p) == [1, -1, Fraction(1, 2), 2]


def test_rational_roots_with_fractional_coefficients():
    # (t - 2/3)(t + 5) scaled by 1/7; clearing denominators must not lose roots.
    t = Poly.t(RATIONALS)
    p = (t - Poly.constant(RATIONALS, Fraction(2, 3))) * (t + Poly.constant(RATIONALS, 5))
    p = p.scale(Fraction(1, 7))
    assert sorted(rational_roots(p)) == [-5, Fraction(2, 3)]


def test_rational_roots_random_products_recovered():
    rng = random.Random(31)
    t = Poly.t(RATIONALS)
    for _ in range(25):
        roots = set()
        p = Poly.constant(RATIONALS, Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        for _ in range(rng.randint(1, 3)):
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            roots.add(r)
            p = p * (t - Poly.constant(RATIONALS, r))
        # multiply in an irreducible quadratic so spurious roots would show up
        p = p * _poly(RATIONALS, 1, 0, 1)
        assert set(rational_roots(p)) == roots


# Trial-division root finder: every +-num/den with num | constant term and
# den | leading coefficient, checked by Fraction evaluation.  Exponential in
# the coefficients' bit size, so it is the oracle for small inputs only.


def _divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def _rational_roots_trial(poly: Poly) -> list[Fraction]:
    coeffs = list(poly.coeffs)
    shift = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    roots: list[Fraction] = [Fraction(0)] if shift else []
    if len(coeffs) > 1:
        mult = lcm(*(c.denominator for c in coeffs))
        ints = [int(c * mult) for c in coeffs]
        content = 0
        for v in ints:
            content = gcd(content, v)
        ints = [v // content for v in ints]
        for num in _divisors(abs(ints[0])):
            for den in _divisors(abs(ints[-1])):
                if gcd(num, den) != 1:
                    continue
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if poly(cand) == 0:
                        roots.append(cand)
    roots.sort(key=lambda r: (abs(r.numerator) + r.denominator, r < 0, abs(r.numerator)))
    return roots


_IRREDUCIBLE_QUADRATICS = ((1, 0, 1), (-2, 0, 1), (3, 0, 2), (1, 1, 1), (-3, 2, 5))


def _oracle_inputs(seed: int, count: int, max_root: int) -> list[Poly]:
    """Seeded nonzero polynomials with roots a/b, |a| <= max_root, b <= 3.

    Most are a rational scalar times t^k times products of (b*t - a)^m,
    sometimes times an irreducible quadratic.  Inputs 0, 10, 20, ... are
    constants and inputs 5, 15, 25, ... random dense polynomials with
    small coefficients.
    """
    rng = random.Random(seed)
    t = Poly.t(RATIONALS)
    c = lambda v: Poly.constant(RATIONALS, v)  # noqa: E731
    out = []
    for i in range(count):
        scalar = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        if i % 10 == 0:
            out.append(c(scalar))
            continue
        if i % 5 == 0:
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 9)]
            out.append(_poly(RATIONALS, *coeffs).scale(scalar))
            continue
        p = c(scalar)
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            p = p * t
        for _ in range(rng.randint(0, 3)):
            root = Fraction(rng.randint(-max_root, max_root), rng.randint(1, 3))
            for _ in range(rng.choice([1, 1, 2, 3])):
                p = p * (c(root.denominator) * t - c(root.numerator))
        if rng.random() < 0.4:
            p = p * _poly(RATIONALS, *rng.choice(_IRREDUCIBLE_QUADRATICS))
        out.append(p)
    return out


def test_rational_roots_match_trial_division_oracle():
    # Equal lists: same roots, each once, in the documented order.
    for p in _oracle_inputs(seed=2024, count=500, max_root=6):
        assert rational_roots(p) == _rational_roots_trial(p), str(p)


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    key = lambda r: (abs(r.numerator) + r.denominator, r < 0, abs(r.numerator))  # noqa: E731
    # Larger roots than the trial-division oracle can afford.
    for p in _oracle_inputs(seed=7, count=200, max_root=1 << 20):
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
        expected = sorted((Fraction(int(r.p), int(r.q))
                           for r in sympy.Poly(coeffs, x, domain="QQ").ground_roots()), key=key)
        assert rational_roots(p) == expected, str(p)


def test_rational_roots_large_constant_terms():
    # Trial division needs ~2^24 and ~2^60 steps here; the p-adic search
    # is polynomial in the bit size.
    t = Poly.t(RATIONALS)
    c = lambda v: Poly.constant(RATIONALS, v)  # noqa: E731
    p48 = (t - c(281474976710597)) * (t * t + c(1))  # 2^48 - 59 is prime
    assert abs(p48.coeff(0)).numerator.bit_length() == 48
    assert rational_roots(p48) == [281474976710597]
    primes = (1073741789, 1073741827, 1073741831, 1073741833)  # four primes near 2^30
    p120 = (c(3) * t - c(primes[0] * primes[1])) * (t + c(primes[2] * primes[3])) * (t * t + t + c(1))
    assert abs(p120.coeff(0)).numerator.bit_length() == 120
    assert rational_roots(p120) == [Fraction(primes[0] * primes[1], 3), -primes[2] * primes[3]]


def test_roots_only_supported_over_rationals():
    with pytest.raises(ValueError):
        rational_roots(Poly.t(F5))
