"""The Poly value, printing, the gcds over GF(p), and rational roots.

The K[t] arithmetic these tests build inputs with is the oracle's, from
``tests/oracles.py``; ``Poly`` itself has none."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranklines import polynomials
from ranklines.fields import GF, RATIONALS
from ranklines.polynomials import NEG_INF, Poly, _gcd_modp, rational_roots

from oracles import poly_add, poly_gcd, poly_mul, poly_rem, poly_sub

F2 = GF(2)
F5 = GF(5)


def _poly(field, *coeffs):
    return Poly.from_coeffs(field, coeffs)


def _product(*factors: Poly) -> Poly:
    out = factors[0]
    for f in factors[1:]:
        out = poly_mul(out, f)
    return out


T = _poly(RATIONALS, 0, 1)
ONE = _poly(RATIONALS, 1)


def _scale(p: Poly, c) -> Poly:
    return Poly.from_coeffs(p.field, [p.field.mul(p.field.normalize(c), a) for a in p.coeffs])


def test_trailing_zeros_are_stripped():
    p = _poly(F5, 1, 2, 0, 0)
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert _poly(F5, 0, 0).is_zero


def test_degree_of_zero_is_minus_infinity():
    z = Poly(F5, ())
    assert z.is_zero and z.degree == NEG_INF
    assert z.degree < 0
    assert _poly(F5, 3).degree == 0
    assert _poly(F5, 0, 1).degree == 1


# The K[t] arithmetic below is the oracle's (tests/oracles.py): the Laplace
# oracles of det_pencil and minor_gcd stand on it.


def test_addition_and_cancellation():
    a = _poly(F5, 1, 4)  # 1 + 4t
    b = _poly(F5, 2, 1)  # 2 + t
    assert poly_add(a, b).coeffs == (3,)
    assert poly_sub(a, a).is_zero
    assert poly_sub(Poly(F5, ()), a).coeffs == (4, 1)


def test_multiplication_known_product():
    a = _poly(F5, 1, 1)
    # (1 + t)^2 = 1 + 2t + t^2
    assert poly_mul(a, a).coeffs == (1, 2, 1)
    assert poly_mul(a, _poly(F5, 2)).coeffs == (2, 2)
    assert poly_mul(a, Poly(F5, ())).is_zero


@given(st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_divmod_identity_over_gf5(da, db, data):
    # r = a mod b iff deg r < deg b and b divides a - r.
    a = _poly(F5, *[data.draw(st.integers(0, 4)) for _ in range(da + 1)])
    b_coeffs = [data.draw(st.integers(0, 4)) for _ in range(db)]
    b = _poly(F5, *(b_coeffs + [data.draw(st.integers(1, 4))]))
    r = poly_rem(a, b)
    assert r.degree < b.degree
    assert poly_rem(poly_sub(a, r), b).is_zero
    assert poly_rem(poly_add(poly_mul(a, b), r), b) == r


def test_divmod_with_rational_leading_coefficient():
    a = _poly(RATIONALS, -1, 0, 1)          # t^2 - 1
    b = _poly(RATIONALS, Fraction(1, 2), Fraction(1, 2))  # (t + 1)/2
    assert poly_rem(a, b).is_zero
    assert poly_rem(a, _poly(RATIONALS, Fraction(1, 2), 1)) == _poly(RATIONALS, Fraction(-3, 4))


def test_monic_normalization():
    # The oracle's gcd with zero is its argument made monic.
    assert poly_gcd(_poly(F5, 2, 4), Poly(F5, ())).coeffs == (3, 1)
    assert poly_gcd(Poly(F5, ()), Poly(F5, ())).is_zero


def test_call_evaluates_by_horner():
    p = _poly(F5, 1, 0, 2)  # 1 + 2t^2
    assert [p(t) for t in range(5)] == [(1 + 2 * t * t) % 5 for t in range(5)]
    q = _poly(RATIONALS, Fraction(1, 2), -1)
    assert q(Fraction(1, 2)) == 0


def test_gcd_examples():
    a = poly_mul(poly_sub(T, ONE), poly_add(T, ONE))
    b = poly_mul(poly_sub(T, ONE), poly_sub(T, ONE))
    g = poly_gcd(a, b)
    assert g.coeffs == (-1, 1)  # t - 1, monic
    assert poly_gcd(a, Poly(RATIONALS, ())) == a  # t^2 - 1 is monic already
    assert poly_gcd(_scale(a, 3), Poly(RATIONALS, ())) == a
    assert poly_gcd(Poly(F2, ()), Poly(F2, ())).is_zero
    coprime = poly_gcd(T, poly_add(T, ONE))
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
        assert poly_rem(a, g).is_zero and poly_rem(b, g).is_zero
        assert g.coeffs[-1] == 1


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
    assert str(Poly(F5, ())) == "0"
    assert str(_poly(F5, 3)) == "3"
    assert str(_poly(F5, 0, 1)) == "t"
    assert str(_poly(F5, 1, 1, 1)) == "1 + t + t^2"
    assert str(_poly(F5, 1, 0, 2)) == "1 + 2*t^2"
    assert str(_poly(F5, 0, 0, 0, 1)) == "t^3"
    assert str(_poly(RATIONALS, Fraction(-1, 2), 1)) == "-1/2 + t"
    assert str(_poly(RATIONALS, 0, -2)) == "-2*t"


# -------------------------------------------------------------- rational roots


def test_rational_roots_examples():
    assert rational_roots(_poly(RATIONALS, -1, 0, 1)) == [1, -1]  # (t - 1)(t + 1)
    assert rational_roots(_poly(RATIONALS, 1, 0, 1)) == []  # t^2 + 1
    assert rational_roots(_poly(RATIONALS, -3, 2)) == [Fraction(3, 2)]
    assert rational_roots(_poly(RATIONALS, 0, 0, 1)) == [0]
    assert rational_roots(ONE) == []


def test_rational_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        rational_roots(Poly(RATIONALS, ()))


def test_rational_roots_ordering():
    # roots 1, -1, 1/2, 2 from (t-1)(t+1)(2t-1)(t-2); the ordering key is
    # (|num| + den, sign, |num|) so 1 < -1 < 1/2 < 2.
    p = _product(_poly(RATIONALS, -1, 1), _poly(RATIONALS, 1, 1),
                 _poly(RATIONALS, -1, 2), _poly(RATIONALS, -2, 1))
    assert rational_roots(p) == [1, -1, Fraction(1, 2), 2]


def test_rational_roots_with_fractional_coefficients():
    # (t - 2/3)(t + 5) scaled by 1/7; clearing denominators must not lose roots.
    p = poly_mul(_poly(RATIONALS, Fraction(-2, 3), 1), _poly(RATIONALS, 5, 1))
    p = _scale(p, Fraction(1, 7))
    assert sorted(rational_roots(p)) == [-5, Fraction(2, 3)]


def test_rational_roots_random_products_recovered():
    rng = random.Random(31)
    for _ in range(25):
        roots = set()
        p = _poly(RATIONALS, Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        for _ in range(rng.randint(1, 3)):
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            roots.add(r)
            p = poly_mul(p, _poly(RATIONALS, -r, 1))
        # multiply in an irreducible quadratic so spurious roots would show up
        p = poly_mul(p, _poly(RATIONALS, 1, 0, 1))
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
    out = []
    for i in range(count):
        scalar = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        if i % 10 == 0:
            out.append(_poly(RATIONALS, scalar))
            continue
        if i % 5 == 0:
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 9)]
            out.append(_scale(_poly(RATIONALS, *coeffs), scalar))
            continue
        p = _poly(RATIONALS, scalar)
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            p = poly_mul(p, T)
        for _ in range(rng.randint(0, 3)):
            root = Fraction(rng.randint(-max_root, max_root), rng.randint(1, 3))
            for _ in range(rng.choice([1, 1, 2, 3])):
                p = poly_mul(p, _poly(RATIONALS, -root.numerator, root.denominator))
        if rng.random() < 0.4:
            p = poly_mul(p, _poly(RATIONALS, *rng.choice(_IRREDUCIBLE_QUADRATICS)))
        out.append(p)
    return out


def test_rational_roots_match_trial_division_oracle():
    # Equal lists: same roots, each once, in the documented order.
    for p in _oracle_inputs(seed=2024, count=500, max_root=6):
        assert rational_roots(p) == _rational_roots_trial(p), str(p)


def _lift_inputs(seed: int, count: int) -> list[Poly]:
    """Seeded products of factors (b*t - a), |a| <= 2^10 and 0 < b <= 35, times t^2 - D.

    Even inputs have one factor (105*t - a) with a prime to 105, so 3, 5 and
    7 divide the leading coefficient and the prime scan starts at 11 or
    later; odd inputs have two factors (b*t - a).  D is a prime that is a
    nonzero square modulo the first scan prime p !| lc, so t^2 - D,
    irreducible over Q, has two roots mod p whose lifts are no rational root.
    """
    rng = random.Random(seed)
    prime_to_105 = [a for a in range(-1024, 1025) if gcd(a, 105) == 1]
    out = []
    for i in range(count):
        if i % 2 == 0:
            factors = [(-rng.choice(prime_to_105), 105)]
        else:
            factors = [(-rng.randint(-1024, 1024), rng.randint(1, 35)) for _ in range(2)]
        lead = prod(b for _, b in factors)
        p = next(p for p in polynomials._SCAN_PRIMES if lead % p)
        D = rng.choice([d for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
                        if d != p and pow(d, (p - 1) // 2, p) == 1])
        out.append(_product(_poly(RATIONALS, -D, 0, 1), *(_poly(RATIONALS, *c) for c in factors)))
    return out


def test_lifted_roots_match_trial_division_past_spurious_residues():
    # Each Newton step needs 1/f'(x) to the modulus it lifts from, so the
    # inverse is lifted with x; one kept at its mod-p value loses quadratic
    # convergence after the first step, and most of these roots come out wrong.
    polys = _lift_inputs(seed=1507, count=500)
    late_scans = spurious = 0
    for poly in polys:
        roots = rational_roots(poly)
        assert roots == _rational_roots_trial(poly), str(poly)
        ints = [c.numerator for c in poly.coeffs]
        while ints[0] == 0:
            ints.pop(0)
        p, residues = polynomials._simple_root_prime(polynomials._primitive(ints),
                                                     polynomials._SCAN_PRIMES)
        late_scans += p >= 11
        spurious += len(residues) > len([r for r in roots if r])
    assert late_scans >= 250 and spurious >= 250


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
    p48 = poly_mul(_poly(RATIONALS, -281474976710597, 1), _poly(RATIONALS, 1, 0, 1))  # 2^48 - 59 is prime
    assert abs(p48.coeffs[0]).numerator.bit_length() == 48
    assert rational_roots(p48) == [281474976710597]
    primes = (1073741789, 1073741827, 1073741831, 1073741833)  # four primes near 2^30
    p120 = _product(_poly(RATIONALS, -primes[0] * primes[1], 3), _poly(RATIONALS, primes[2] * primes[3], 1),
                    _poly(RATIONALS, 1, 1, 1))
    assert abs(p120.coeffs[0]).numerator.bit_length() == 120
    assert rational_roots(p120) == [Fraction(primes[0] * primes[1], 3), -primes[2] * primes[3]]


def test_squarefree_certificate_by_a_prime(monkeypatch):
    # A prime p !| lc(f) at which every root of f mod p is simple lifts each
    # rational root uniquely, so the integer gcd(f, f') runs only when no such
    # prime is among the first 8 odd primes; (t^2 + 1)^2 (2t - 3) is squarefree
    # mod no prime, but its one root mod 3 is simple.
    calls = []
    gcd_poly = polynomials._int_gcd_poly
    monkeypatch.setattr(polynomials, "_int_gcd_poly", lambda a, b: calls.append(1) or gcd_poly(a, b))
    D = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23  # t^2 - D = t^2 mod each of those primes
    for factors, gcd_calls, roots in (
            (((-1, 1), (2, 1), (-3, 2)), 0, [1, -2, Fraction(3, 2)]),
            (((-1, 1), (-1, 1), (2, 1)), 1, [1, -2]),
            (((-1, 1), (-D, 0, 1)), 1, [1]),
            (((1, 0, 1), (1, 0, 1), (-3, 2)), 0, [Fraction(3, 2)])):
        p = _product(*(_poly(RATIONALS, *c) for c in factors))
        calls.clear()
        assert rational_roots(p) == roots == _rational_roots_trial(p), str(p)
        assert len(calls) == gcd_calls, str(p)


# ----------------------------------------------- closed forms through degree 2


def test_closed_form_examples():
    # Each against its hand-worked roots and the trial-division oracle.
    for coeffs, roots in (
            ((6, -5, 1), [2, 3]),                  # D = 1, a square
            ((-2, 0, 1), []),                      # D = 8, not a square
            ((9, -12, 4), [Fraction(3, 2)]),       # D = 0: the double root once
            ((1, 1, 1), []),                       # D = -3
            ((-6, 0, 6), [1, -1]),                 # content 6
            ((6, 4), [Fraction(-3, 2)]),           # content 2, degree 1
            ((2, 3, -2), [2, Fraction(-1, 2)]),    # leading coefficient -2
            ((0, 0, 6, -5, 1), [0, 2, 3]),         # t^2 (t - 2)(t - 3)
            ((0, Fraction(1, 2), Fraction(-1, 3)), [0, Fraction(3, 2)])):
        p = _poly(RATIONALS, *coeffs)
        assert rational_roots(p) == roots == _rational_roots_trial(p), str(p)


def _low_degree_inputs(seed: int, count: int) -> list[Poly]:
    """Seeded polynomials of degree 1 or 2 after the t^k strip, roots a/b
    with |a| <= 12 and b <= 4.

    Each is a rational scalar, negative half the time, times c*t - d or
    (b1*t - a1)(b2*t - a2) plus a constant e in -3..3 (a square
    discriminant at e = 0, and at e != 0 mostly a non-square, zero or
    negative one), and every third input also times t^k, k = 1..3.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        scalar = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 5))
        if i % 2:
            p = _poly(RATIONALS, -rng.randint(-12, 12) or 1, rng.randint(1, 4))
        else:
            f = [(-rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(2)]
            p = _product(*(_poly(RATIONALS, *c) for c in f))
            p = poly_add(p, _poly(RATIONALS, rng.randint(-3, 3)))
        p = _scale(p, scalar)
        for _ in range(rng.randint(1, 3) if i % 3 == 0 else 0):
            p = poly_mul(p, T)
        out.append(p)
    return out


def _stripped_ints(p: Poly) -> list[int]:
    mult = lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (mult // c.denominator) for c in p.coeffs]
    while ints[0] == 0:
        ints.pop(0)
    return ints


def test_closed_forms_match_trial_division_oracle():
    polys = _low_degree_inputs(seed=35, count=600)
    discs = []
    for p in polys:
        assert rational_roots(p) == _rational_roots_trial(p), str(p)
        ints = _stripped_ints(p)
        if len(ints) == 3:
            c, b, a = ints
            discs.append(b * b - 4 * a * c)
    # The inputs reach every branch of the degree-2 form, with both signs of
    # the leading coefficient, non-primitive integer forms and a t^k factor.
    assert any(d > 0 and isqrt(d) ** 2 == d for d in discs)
    assert any(d > 0 and isqrt(d) ** 2 != d for d in discs)
    assert 0 in discs and any(d < 0 for d in discs)
    assert {_stripped_ints(p)[-1] > 0 for p in polys} == {True, False}
    assert any(gcd(*_stripped_ints(p)) > 1 for p in polys)
    assert any(p.coeffs[0] == 0 for p in polys)


def test_closed_forms_with_100_bit_coefficients():
    # Trial division cannot factor these.  f * (t^2 + 1) has the rational
    # roots of f and degree 3 or 4, so the p-adic search on it is the oracle.
    rng = random.Random(100)
    t2_plus_1 = poly_add(poly_mul(T, T), ONE)
    for i in range(120):
        if i % 3 == 0:
            p = _poly(RATIONALS, rng.getrandbits(100) - (1 << 99), rng.getrandbits(100) | 1)
        else:
            f = [(rng.getrandbits(50) - (1 << 49), rng.getrandbits(50) | 1) for _ in range(2)]
            p = _product(*(_poly(RATIONALS, *c) for c in f))
            if i % 3 == 1:
                assert {r for r in rational_roots(p) if r} == {Fraction(-a, b) for a, b in f if a}
            else:  # almost surely a non-square discriminant now
                p = poly_add(p, ONE)
        if i % 4 == 0:
            p = poly_mul(p, T)
        assert max(abs(c.numerator) for c in p.coeffs).bit_length() >= 95
        assert rational_roots(p) == rational_roots(poly_mul(p, t2_plus_1)), str(p)


def test_closed_forms_skip_the_prime_scan(monkeypatch):
    calls = []
    scan = polynomials._simple_root_prime
    monkeypatch.setattr(polynomials, "_simple_root_prime",
                        lambda f, primes: calls.append(len(f) - 1) or scan(f, primes))
    for coeffs in ((3, 2), (6, -5, 1), (1, 1, 1), (9, -12, 4), (0, 0, 0, -2, 0, 1), (0, 5)):
        rational_roots(_poly(RATIONALS, *coeffs))
    assert calls == []
    assert rational_roots(_poly(RATIONALS, -6, 11, -6, 1)) == [1, 2, 3]  # (t - 1)(t - 2)(t - 3)
    assert calls == [3]


def test_roots_only_supported_over_rationals():
    with pytest.raises(ValueError):
        rational_roots(_poly(F5, 0, 1))
