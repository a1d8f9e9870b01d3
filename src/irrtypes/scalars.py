"""Exact scalars: rationals and Gaussian rationals.

Plain rationals are stdlib :class:`fractions.Fraction`.  This module adds
the degree-two extension by i together with the textual formats used on
the JSON surface: rationals as ``"a"`` or ``"a/b"`` strings, Gaussian
rationals as ``{"re": ..., "im": ...}`` objects.  Round trips through the
textual form are bit exact.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import MalformedInput, NotAUnit, TooLarge

_RAT_RE = _re.compile(r"^[+-]?\d+(/\d+)?$")

# Digits allowed in the numerator or the denominator of a literal, read or
# written; within Python's own int/str conversion limit of 4300 digits.
LITERAL_DIGIT_BUDGET = 4300
_LITERAL_BOUND = 10**LITERAL_DIGIT_BUDGET


def rat_to_str(value: Fraction) -> str:
    """Format a rational as ``a`` or ``a/b`` (reduced, denominator > 0)."""
    value = Fraction(value)
    if abs(value.numerator) >= _LITERAL_BOUND or value.denominator >= _LITERAL_BOUND:
        raise TooLarge(f"rational exceeds {LITERAL_DIGIT_BUDGET} digits")
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rat_from_str(text: str) -> Fraction:
    """Parse the ``a`` / ``a/b`` format.  Rejects anything else."""
    if not isinstance(text, str) or not _RAT_RE.match(text):
        raise MalformedInput(f"not a rational literal: {text!r}")
    num, slash, den = text.partition("/")
    if max(len(num.lstrip("+-")), len(den)) > LITERAL_DIGIT_BUDGET:
        raise TooLarge(f"rational literal exceeds {LITERAL_DIGIT_BUDGET} digits")
    if slash and int(den) == 0:
        raise MalformedInput(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den)) if slash else Fraction(int(num))


ScalarLike = Union[int, Fraction, "GaussianRational"]


@dataclass(frozen=True)
class GaussianRational:
    """Element a + b*i of the Gaussian rationals.

    Immutable and hashable; real and imaginary parts are reduced
    :class:`Fraction` values.  Arithmetic is exact field arithmetic.
    """

    re: Fraction
    im: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value), Fraction(0))
        raise MalformedInput(f"cannot coerce {value!r} to a Gaussian rational")

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.of(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm_sq()
        if not n:
            raise NotAUnit("division by zero in Gaussian rationals")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        return self * GaussianRational.of(other).inverse()

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.of(other) * self.inverse()

    def __pow__(self, exponent: int) -> "GaussianRational":
        if not isinstance(exponent, int):
            raise MalformedInput("exponent must be an integer")
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        out = G_ONE
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def __repr__(self) -> str:
        if not self.im:
            return rat_to_str(self.re)
        return f"({rat_to_str(self.re)}{'+' if self.im > 0 else '-'}{rat_to_str(abs(self.im))}i)"

    def to_json(self) -> dict:
        return {"re": rat_to_str(self.re), "im": rat_to_str(self.im)}

    @staticmethod
    def from_json(data: object) -> "GaussianRational":
        if not isinstance(data, dict) or set(data) != {"re", "im"}:
            raise MalformedInput(f"not a Gaussian rational object: {data!r}")
        return GaussianRational(rat_from_str(data["re"]), rat_from_str(data["im"]))


G_ZERO = GaussianRational(Fraction(0), Fraction(0))
G_ONE = GaussianRational(Fraction(1), Fraction(0))
G_I = GaussianRational(Fraction(0), Fraction(1))


def gauss(re: ScalarLike = 0, im: ScalarLike = 0) -> GaussianRational:
    """Shorthand constructor from integer or rational parts."""
    return GaussianRational(Fraction(re), Fraction(im))
