"""Basic checks for field descriptors and boxed scalars."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from ranklines.fields import (
    GF,
    RATIONALS,
    FieldDesc,
    FieldMismatchError,
    Scalar,
    parse_field,
)


def test_gf_accepts_primes_and_rejects_the_rest():
    for p in (2, 3, 5, 7, 65521):
        assert GF(p).modulus == p
    for bad in (0, 1, 4, 6, 9, 65536, 65537, 65025):
        with pytest.raises(ValueError):
            GF(bad)


def test_field_identity_and_str():
    assert GF(2) == GF(2)
    assert GF(2) != GF(3)
    assert str(GF(7)) == "gf 7"
    assert str(RATIONALS) == "rat"
    assert parse_field("gf 7") == GF(7)
    assert parse_field("rat") == RATIONALS
    with pytest.raises(ValueError):
        parse_field("gf")
    with pytest.raises(ValueError):
        parse_field("real")


def test_rationals_descriptor_has_no_modulus():
    assert RATIONALS.kind == "rat"
    assert RATIONALS.modulus is None
    assert not RATIONALS.is_finite
    with pytest.raises(ValueError):
        FieldDesc("rat", 5)


def test_elements_order_and_count():
    assert list(GF(2).elements()) == [0, 1]
    assert list(GF(5).elements()) == [0, 1, 2, 3, 4]
    assert GF(5).order == 5
    with pytest.raises(ValueError):
        RATIONALS.order  # noqa: B018


def test_normalize_canonicalizes_representatives():
    f = GF(7)
    assert f.normalize(-1) == 6
    assert f.normalize(14) == 0
    assert f.normalize(Fraction(1, 2)) == f.inv(2)
    r = RATIONALS.normalize(3)
    assert r == Fraction(3) and isinstance(r, Fraction)
    with pytest.raises(ZeroDivisionError):
        GF(3).normalize(Fraction(1, 3))


def test_normalize_reads_scalars_and_strings():
    assert GF(3).normalize(Scalar(GF(3), 2)) == 2
    assert RATIONALS.normalize(Scalar(RATIONALS, Fraction(1, 2))) == Fraction(1, 2)
    assert GF(3).normalize("5") == GF(3).normalize("-1") == 2


@pytest.mark.parametrize("call, error, message", [
    (lambda: FieldDesc("real"), ValueError, "unknown field kind 'real'"),
    (lambda: RATIONALS.elements(), ValueError, "cannot enumerate an infinite field"),
    (lambda: GF(3).normalize(Scalar(GF(5), 1)), FieldMismatchError,
     "scalar from gf 5 used in gf 3"),
    (lambda: RATIONALS.normalize(Scalar(GF(5), 1)), FieldMismatchError,
     "scalar from gf 5 used in rat"),
    (lambda: GF(3).normalize("1/2"), ValueError, "invalid literal for int()"),
    (lambda: GF(3).normalize(1.5), TypeError, "cannot coerce 1.5 into gf 3"),
    (lambda: RATIONALS.normalize(1.5), TypeError, "cannot coerce 1.5 into rat"),
], ids=["unknown-kind", "elements-of-Q", "scalar-gf", "scalar-rat", "string-gf", "float-gf",
        "float-rat"])
def test_fields_refuse_what_they_cannot_represent(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_modular_arithmetic_round_trip():
    f = GF(11)
    for a in f.elements():
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    assert f.sub(3, 5) == 9
    assert f.div(1, 2) == 6
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_rational_arithmetic_is_exact():
    f = RATIONALS
    a = f.normalize(Fraction(1, 3))
    b = f.normalize(Fraction(1, 6))
    assert f.add(a, b) == Fraction(1, 2)
    assert f.mul(a, b) == Fraction(1, 18)
    assert f.div(a, b) == 2
    assert f.inv(Fraction(-2, 7)) == Fraction(-7, 2)


def test_parse_and_format_tokens():
    f = GF(5)
    assert f.parse("7") == 2
    assert f.parse("-1") == 4
    assert f.format(3) == "3"
    r = RATIONALS
    assert r.parse("-3/6") == Fraction(-1, 2)
    assert r.format(Fraction(-1, 2)) == "-1/2"
    assert r.format(Fraction(4)) == "4"
    with pytest.raises(ValueError):
        f.parse("x")
    with pytest.raises(ValueError):
        r.parse("1/2/3")


def test_scalar_operators_and_field_guard():
    f = GF(5)
    a = Scalar(f, f.normalize(3))
    assert str(a) == "3"
    other = Scalar(GF(7), GF(7).normalize(3))
    with pytest.raises(FieldMismatchError):
        f.normalize(other)
    assert a != other
    assert a == Scalar(f, f.normalize(8))


def test_scalar_of_rationals():
    x = Scalar(RATIONALS, RATIONALS.normalize(Fraction(2, 4)))
    assert str(x) == "1/2"
