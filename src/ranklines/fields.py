"""Exact field arithmetic: prime fields GF(p) and the rationals.

Values are kept canonical throughout: integers in ``[0, p)`` for GF(p),
reduced :class:`fractions.Fraction` for the rationals.  Matrix and
polynomial code manipulates these raw values directly and carries a
:class:`FieldDesc` alongside; :class:`Scalar` is the boxed variant used
at API boundaries, and has no arithmetic of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Iterator, Union

RawValue = Union[int, Fraction]

# A Fraction's own slots, read at C speed; its properties are Python calls.
_fraction_num, _fraction_den = attrgetter("_numerator"), attrgetter("_denominator")

MAX_MODULUS = 1 << 16


class FieldMismatchError(ValueError):
    """Operands from two different fields were mixed."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldDesc:
    """A ground field: ``gf`` with a prime modulus below 2**16, or ``rat``."""

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "gf":
            p = self.modulus
            if p is None or p >= MAX_MODULUS or not _is_prime(p):
                raise ValueError(f"modulus must be a prime below 2**16, got {p!r}")
        elif self.kind == "rat":
            if self.modulus is not None:
                raise ValueError("the rationals take no modulus")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # -- structure ---------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind == "gf"

    @property
    def order(self) -> int:
        if self.kind != "gf":
            raise ValueError("the rationals are infinite")
        assert self.modulus is not None
        return self.modulus

    @property
    def zero(self) -> RawValue:
        return 0 if self.kind == "gf" else Fraction(0)

    @property
    def one(self) -> RawValue:
        return 1 if self.kind == "gf" else Fraction(1)

    def elements(self) -> Iterator[RawValue]:
        """All field elements, smallest canonical representative first."""
        if self.kind != "gf":
            raise ValueError("cannot enumerate an infinite field")
        return iter(range(self.modulus))  # type: ignore[arg-type]

    # -- canonicalization ---------------------------------------------------

    def normalize(self, x: object) -> RawValue:
        """Coerce ``x`` (int, Fraction, str, or Scalar) to canonical form."""
        if isinstance(x, Scalar):
            if x.field != self:
                raise FieldMismatchError(f"scalar from {x.field} used in {self}")
            return x.value
        if self.kind == "gf":
            if isinstance(x, str):
                x = int(x)
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    return self.div(x.numerator % self.modulus, x.denominator % self.modulus)
                x = x.numerator
            if not isinstance(x, int):
                raise TypeError(f"cannot coerce {x!r} into {self}")
            return x % self.modulus
        if isinstance(x, (int, str)):
            return Fraction(x)
        if isinstance(x, Fraction):
            return x
        raise TypeError(f"cannot coerce {x!r} into {self}")

    # -- arithmetic on raw canonical values ----------------------------------

    def add(self, a: RawValue, b: RawValue) -> RawValue:
        if self.kind == "gf":
            return (a + b) % self.modulus
        return a + b

    def sub(self, a: RawValue, b: RawValue) -> RawValue:
        if self.kind == "gf":
            return (a - b) % self.modulus
        return a - b

    def mul(self, a: RawValue, b: RawValue) -> RawValue:
        if self.kind == "gf":
            return (a * b) % self.modulus
        return a * b

    def neg(self, a: RawValue) -> RawValue:
        if self.kind == "gf":
            return (-a) % self.modulus
        return -a

    def inv(self, a: RawValue) -> RawValue:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "gf":
            return pow(a, -1, self.modulus)
        return Fraction(1) / a

    def div(self, a: RawValue, b: RawValue) -> RawValue:
        return self.mul(a, self.inv(b))

    # -- text form -----------------------------------------------------------

    def parse(self, token: str) -> RawValue:
        """Parse one entry token: an integer, or ``a/b`` over the rationals."""
        token = token.strip()
        if self.kind == "gf":
            return int(token) % self.modulus
        try:
            return Fraction(token)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {token!r}") from None

    def format(self, value: RawValue) -> str:
        return str(value)

    def __str__(self) -> str:
        return f"gf {self.modulus}" if self.kind == "gf" else "rat"


def GF(p: int) -> FieldDesc:
    """The prime field with ``p`` elements."""
    return FieldDesc("gf", p)


#: The field of rational numbers.
RATIONALS = FieldDesc("rat")


def clear_denominators(values) -> tuple[list[int], int]:
    """(m * v for v in values, m) where m is the lcm of the rationals' denominators.

    Each Fraction's numerator and denominator are read once, from its slots;
    a list holding any other value (an int entry of a Matrix built directly
    over Q) is read through the public properties instead.
    """
    try:
        nums, dens = list(map(_fraction_num, values)), list(map(_fraction_den, values))
    except AttributeError:
        nums, dens = [v.numerator for v in values], [v.denominator for v in values]
    m = lcm(*dens)
    if m == 1:
        return nums, 1
    return [n * (m // d) for n, d in zip(nums, dens)], m


def parse_field(text: str) -> FieldDesc:
    """Inverse of ``str(field)``: ``"gf <p>"`` or ``"rat"``."""
    parts = text.split()
    if parts == ["rat"]:
        return RATIONALS
    if len(parts) == 2 and parts[0] == "gf":
        return GF(int(parts[1]))
    raise ValueError(f"bad field descriptor {text!r}")


@dataclass(frozen=True)
class Scalar:
    """A field element boxed with its field, always in canonical form.

    It carries values across the API (a determinant, a rank-drop t0) and
    defines no arithmetic: compute on ``value`` with the field's ops.
    """

    field: FieldDesc
    value: RawValue

    def __str__(self) -> str:
        return self.field.format(self.value)
