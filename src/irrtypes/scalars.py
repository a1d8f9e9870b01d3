"""Exact scalars: rationals and Gaussian rationals.

Plain rationals are stdlib :class:`fractions.Fraction`.  This module adds
the degree-two extension by i together with the textual formats used on
the JSON surface: rationals as ``"a"`` or ``"a/b"`` strings, Gaussian
rationals as ``{"re": ..., "im": ...}`` objects.  Round trips through the
textual form are bit exact.

The JSON shape checks that every decoder shares (``_as_object``,
``_as_list``, ``_as_int``, ``_as_str``) live here too, beside the scalar
and vector codecs; every other codec lives beside its type and needs
nothing more of the JSON layer.  Encoders emit plain dicts, lists and
strings ready for ``json.dumps``, every scalar an exact string literal,
so round trips are bit exact.  Decoders check the whole shape: unknown
or missing keys, wrong container types and malformed literals raise
:class:`MalformedInput`.  Then the normal constructors run, so negation
closure, span-closed levels and consistent precision are checked again
on the way in.

So does the library's one elimination, ``_gi_rref``: ranks, kernels and
spans for :mod:`irrtypes.rootsystems`, inverses and eigenvectors for
:mod:`irrtypes.connections`.  Every call of it charges a ``_Work``, the
library's one work meter, which also carries the substitution and witness
search budgets, all under its one word-cost rule.  Rational vectors reach
the integers by one scaling rule: ``_common_denominator`` stops once the
lcm passes a bit bound, and ``_integer_form`` scales coefficient vectors,
each under ``INTEGER_FORM_BUDGET``, and the roots of a root system, all
under one.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import isqrt, lcm
from typing import Dict, Iterable, List, Sequence, Tuple, Union

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


def _as_object(value: object, keys: Sequence[str], what: str) -> Dict[str, object]:
    if not isinstance(value, dict):
        raise MalformedInput(f"{what}: expected an object, got {type(value).__name__}")
    expected = set(keys)
    present = set(value)
    if present != expected:
        extra = sorted(present - expected)
        missing = sorted(expected - present)
        parts = []
        if missing:
            parts.append(f"missing keys {missing}")
        if extra:
            parts.append(f"unknown keys {extra}")
        raise MalformedInput(f"{what}: " + ", ".join(parts))
    return value


def _as_list(value: object, what: str) -> List[object]:
    if not isinstance(value, list):
        raise MalformedInput(f"{what}: expected an array, got {type(value).__name__}")
    return value


def _as_int(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedInput(f"{what}: expected an integer, got {value!r}")
    return value


def _as_str(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise MalformedInput(f"{what}: expected a string, got {value!r}")
    return value


ScalarLike = Union[int, Fraction, "GaussianRational"]
_set = object.__setattr__


def _set_fields(obj, **fields) -> None:
    """Set each of a record's ``fields`` once, by name."""
    for name, value in fields.items():
        _set(obj, name, value)


def _bare(cls, **fields):
    """An instance of ``cls`` holding ``fields``, without its constructor's checks:
    for results computed from checked parts, as outside input is checked once."""
    obj = object.__new__(cls)
    _set_fields(obj, **fields)
    return obj


class _Record:
    """Base of every library value: immutable once its checks have passed.

    One construction rule: a subclass's ``__init__`` checks its
    arguments, then sets each field once with ``_set_fields``, as
    ``_bare`` does for results computed from checked parts.  Its
    ``__slots__`` list every field, and its ``__match_args__`` the
    constructor's arguments in order.  The base gives equality only with
    the same class, the hash of the ``__match_args__`` tuple, the
    ``Name(field=value, ...)`` repr, no assignment or deletion, and copy
    and pickle through the constructor, so copies are checked again:
    what ``@dataclass(frozen=True)`` gave, without loading ``dataclasses``
    and ``inspect``.  As no value changes after its checks, outside input
    is checked once and trusted after.

    ``GaussianRational`` alone keeps a ``__post_init__``, called by its
    ``__init__`` and looked up on the class, so that a wrapper installed
    there counts every scalar built.
    """

    __slots__ = ()
    __match_args__: Tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class GaussianRational(_Record):
    """Element a + b*i of the Gaussian rationals.

    Immutable and hashable; real and imaginary parts are reduced
    :class:`Fraction` values.  Arithmetic is exact field arithmetic.
    Equal exactly to another ``GaussianRational`` with the same parts,
    never to an ``int`` or a ``Fraction``.
    """

    __slots__ = ("re", "im")
    __match_args__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction) -> None:
        _set(self, "re", re)
        _set(self, "im", im)
        # Looked up on the class, so that a wrapper installed there sees
        # every scalar built.
        self.__post_init__()

    def __post_init__(self) -> None:
        _set(self, "re", Fraction(self.re))
        _set(self, "im", Fraction(self.im))

    # Faster than the field-tuple forms of ``_Record``, on the hottest type.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

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


def _vector_to_json(vector: Sequence[ScalarLike]) -> list:
    return [GaussianRational.of(x).to_json() for x in vector]


def _vector_from_json(data: object, what: str) -> List[GaussianRational]:
    return [GaussianRational.from_json(x) for x in _as_list(data, what)]


# A Gaussian integer as an (re, im) pair of ints, and a dense matrix of them.
GInt = Tuple[int, int]
IMatrix = List[List[GInt]]


def _bits(matrices) -> int:
    return max((x.bit_length() for m in matrices for row in m for g in row for x in g), default=0)


class _Work:
    """What one public call may still spend, in word operations; each step is
    charged before it runs, and ``TooLarge`` with ``message`` is raised once
    ``limit`` is overdrawn.  The library's one work rule: a multiplication or
    gcd of operands totalling b bits costs (1 + b/64)^2 word operations."""

    __slots__ = ("left", "message")

    def __init__(self, limit: int, message: str) -> None:
        self.left, self.message = limit, message

    def charge(self, operations: int, bits: int = 0) -> None:
        """Pay for ``operations`` multiplications or gcds of operands totalling ``bits`` bits."""
        words = 1 + bits // 64
        self.left -= operations * words * words
        if self.left < 0:
            raise TooLarge(self.message)

    def max_bits(self, r: int) -> int:
        """Operand size past which one more r x r product cannot be paid."""
        return 64 * isqrt(self.left // r**3)


def _common_denominator(values: Iterable[Fraction], max_bits: int) -> int:
    """lcm of the denominators; ``TooLarge`` as soon as it passes ``max_bits``."""
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
        if den.bit_length() > max_bits:
            raise TooLarge(f"common denominator exceeds {max_bits} bits")
    return den


# Most bits the integer form of one rational vector, or of all the roots of
# one root system, may hold: the length of each vector times the bits of its
# common denominator.  Literals have at most 4,300 digits, so no single
# vector of 17 entries or fewer is refused.
INTEGER_FORM_BUDGET = 1 << 22


def _integer_form(values: Sequence[Fraction], spent: int = 0) -> Tuple[List[int], int]:
    """``values`` times the lcm of their denominators, as ints, and the bits
    that form holds; ``TooLarge`` when it would hold more than the
    ``spent`` bits leave of ``INTEGER_FORM_BUDGET``."""
    n = max(1, len(values))
    den = _common_denominator(values, (INTEGER_FORM_BUDGET - spent) // n)
    return [x.numerator * (den // x.denominator) for x in values], n * den.bit_length()


def _gi_mul(a: GInt, b: GInt) -> GInt:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gi_sub(a: GInt, b: GInt) -> GInt:
    return (a[0] - b[0], a[1] - b[1])


def _gi_exact_div(a: GInt, b: GInt) -> GInt:
    """a / b for a Gaussian integer b that divides a."""
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) // n, (a[1] * b[0] - a[0] * b[1]) // n)


def _gi_rref(m: Sequence[Sequence[GInt]], ncols: int, work: _Work) -> Tuple[IMatrix, List[int], GInt]:
    """Fraction-free Gauss-Jordan over the Gaussian integers, on the first ``ncols`` columns.

    Bareiss (Math. Comp. 22, 1968).  Returns (rows, pivot columns, p).
    Every division by the previous pivot is exact; each pivot row ends
    with p at its own pivot column and zero at the others, and the rows
    past the rank are zero, so the pivot rows over p are the RREF.  For a
    square m of full rank, p is its determinant up to sign.  ``work`` is
    charged for each pivot step before it runs: an update of one entry
    costs about five multiplications.
    """
    rows = [list(row) for row in m]
    prev: GInt = (1, 0)
    pivots: List[int] = []
    for col in range(ncols):
        k = len(pivots)
        pivot = next((i for i in range(k, len(rows)) if rows[i][col] != (0, 0)), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        p, row_k = rows[k][col], rows[k]
        work.charge(5 * len(rows) * len(row_k), 2 * _bits([[row_k]]))
        for i in range(len(rows)):
            if i == k:
                continue
            f = rows[i][col]
            rows[i] = [
                _gi_exact_div(_gi_sub(_gi_mul(p, x), _gi_mul(f, y)), prev)
                for x, y in zip(rows[i], row_k)
            ]
        prev = p
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows, pivots, prev
