"""Truncated power series, principal parts, and the section basis.

A :class:`TruncatedSeries` of order N stores the coefficients of
z^0 .. z^{N-1} and nothing beyond; mixing two precisions truncates to
the minimum.  A :class:`LaurentTail` stores a pure principal part with a
declared pole order bound.  ``section_basis_decompose`` writes a
polynomial modulo (z - q(x))^k in the basis 1, f, .., f^{k-1} over the
base ring, using the substitution z -> q(x) as the ring section.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .errors import BadModulus, MalformedInput, NotAUnit, OutOfRange, PrecisionExhausted
from .polynomials import MultiPoly
from .scalars import G_ONE, G_ZERO, GaussianRational, ScalarLike, _Record, _set


def _coerce(coeffs: Sequence[ScalarLike]) -> Tuple[GaussianRational, ...]:
    return tuple(GaussianRational.of(c) for c in coeffs)


class TruncatedSeries(_Record):
    """Power series known modulo z^order, order >= 1."""

    __slots__ = __match_args__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Tuple[GaussianRational, ...]) -> None:
        _set(self, "order", order)
        _set(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.order < 1:
            raise MalformedInput("series order must be at least 1")
        _set(self, "coeffs", _coerce(self.coeffs))
        if len(self.coeffs) != self.order:
            raise MalformedInput("coefficient count must equal the order")

    @staticmethod
    def of(coeffs: Sequence[ScalarLike], order: int | None = None) -> "TruncatedSeries":
        cs = list(coeffs)
        if order is None:
            order = len(cs)
        if len(cs) > order:
            raise MalformedInput("more coefficients than the order admits")
        cs = cs + [0] * (order - len(cs))
        return TruncatedSeries(order, _coerce(cs))

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries.of([1], order)

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries.of([], order)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise PrecisionExhausted("cannot extend a truncated series")
        return TruncatedSeries(order, self.coeffs[:order])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(n, tuple(a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        out = [G_ZERO] * n
        for i, a in enumerate(self.coeffs[:n]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: n - i]):
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(n, tuple(out))

    def scale(self, value: ScalarLike) -> "TruncatedSeries":
        c = GaussianRational.of(value)
        return TruncatedSeries(self.order, tuple(k * c for k in self.coeffs))

    @property
    def constant_term(self) -> GaussianRational:
        return self.coeffs[0]

    @property
    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)


def series_inverse(series: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse modulo z^order; the constant term must be a unit."""
    c0 = series.constant_term
    if not c0:
        raise NotAUnit("series has zero constant term")
    inv0 = c0.inverse()
    out = [inv0]
    for n in range(1, series.order):
        acc = G_ZERO
        for i in range(1, n + 1):
            if i < series.order and series.coeffs[i]:
                acc = acc + series.coeffs[i] * out[n - i]
        out.append(-inv0 * acc)
    return TruncatedSeries(series.order, tuple(out))


def series_derivative(series: TruncatedSeries) -> TruncatedSeries:
    """d/dz, known one order less than the input."""
    if series.order == 1:
        raise PrecisionExhausted("derivative of an order-1 series has no known terms")
    return TruncatedSeries(
        series.order - 1,
        tuple(series.coeffs[i] * i for i in range(1, series.order)),
    )


class LaurentTail(_Record):
    """Principal part with pole order bound k: coefficients c_{-k} .. c_{-1}."""

    __slots__ = __match_args__ = ("pole_order_bound", "coeffs")

    def __init__(self, pole_order_bound: int, coeffs: Tuple[GaussianRational, ...]) -> None:
        _set(self, "pole_order_bound", pole_order_bound)
        _set(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.pole_order_bound < 0:
            raise MalformedInput("pole order bound must be non-negative")
        _set(self, "coeffs", _coerce(self.coeffs))
        if len(self.coeffs) != self.pole_order_bound:
            raise MalformedInput("tail must list exactly pole_order_bound coefficients")

    @staticmethod
    def of(coeffs: Sequence[ScalarLike]) -> "LaurentTail":
        cs = _coerce(coeffs)
        return LaurentTail(len(cs), cs)

    def coefficient(self, order: int) -> GaussianRational:
        """Coefficient of z^order for -pole_order_bound <= order <= -1."""
        if not (-self.pole_order_bound <= order <= -1):
            raise OutOfRange(f"order {order} outside the stored tail")
        return self.coeffs[order + self.pole_order_bound]

    @property
    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def pole_order(self) -> int:
        """Actual pole order: largest j with c_{-j} nonzero, else 0."""
        for slot, c in enumerate(self.coeffs):
            if c:
                return self.pole_order_bound - slot
        return 0


def _monic_linear_parts(modulus: MultiPoly, var: str) -> MultiPoly:
    """Return q with modulus == var - q, else raise ``BadModulus``."""
    if var not in modulus.variables:
        raise BadModulus(f"modulus does not involve {var!r}")
    coeffs = modulus.coeffs_in(var)
    if len(coeffs) != 2:
        raise BadModulus("modulus must have degree exactly 1 in the series variable")
    lead = coeffs[1]
    if not (lead.is_constant and lead.constant_value() == G_ONE):
        raise BadModulus("modulus must be monic in the series variable")
    return -coeffs[0]


def section_basis_decompose(
    element: MultiPoly, modulus: MultiPoly, k: int, var: str = "z"
) -> Tuple[MultiPoly, ...]:
    """Coefficients of ``element`` in the basis 1, f, .., f^{k-1} mod f^k.

    ``modulus`` must be f = var - q with q free of ``var``; the section
    sends a base-ring class to its var-free representative, so each
    returned coefficient is a polynomial in the base variables only.
    The decomposition iterates the defining recursion: reduce modulo f
    via the substitution var -> q, divide the difference by f, repeat.
    """
    if k < 1:
        raise OutOfRange("basis length k must be at least 1")
    if element.variables != modulus.variables:
        raise BadModulus("element and modulus must share one variable tuple")
    q = _monic_linear_parts(modulus, var)
    out = []
    current = element
    for _ in range(k):
        # synthetic division by var - q: remainder is the substitution var -> q
        cs = current.coeffs_in(var)
        for degree in range(len(cs) - 1, 0, -1):
            cs[degree - 1] = cs[degree - 1] + q * cs[degree]
        out.append(cs[0])
        current = MultiPoly.from_coeffs_in(current.variables, var, cs[1:])
    return tuple(out)


def section_basis_reconstruct(
    alphas: Sequence[MultiPoly], modulus: MultiPoly, var: str = "z"
) -> MultiPoly:
    """Sum of s(alpha_j) * f^j for the section s: var -> q."""
    if not alphas:
        raise OutOfRange("need at least one coefficient")
    _monic_linear_parts(modulus, var)
    out = MultiPoly.zero(modulus.variables)
    power = MultiPoly.constant(modulus.variables, 1)
    for alpha in alphas:
        out = out + alpha * power
        power = power * modulus
    return out
