"""Formal connection germs in a framing, and irregular-type extraction.

A germ of pole bound k stores the matrix of one-forms f_ij(z) dz with
f_ij known exactly from order -(k+1) through order N-1.  Gauge elements
are polynomial matrices with invertible constant term; they act by
g M g^{-1} + dg g^{-1}.  Because a gauge element is known exactly (all
coefficients beyond its stored degree vanish), the action loses no
precision: only the germ's own truncation limits the output.

The untwisted test asks the off-diagonal part to vanish strictly below
the residue order; extraction reads the diagonal principal part through
the isomorphism sending z^{-l} to -l z^{-(l+1)} dz and discards the
residue.  The diagonalization routine brings a leading-regular germ with
Gaussian-rational spectrum to untwisted shape one pole order at a time.

Germs and gauges store one reduced Gaussian-rational matrix per order of
their window (-(k+1) .. N-1, or 0 .. order-1).  Products run on Python
ints: a Laurent matrix (``_Lau``) holds Gaussian-integer coefficient
matrices, as ``(re, im)`` pairs, over one positive integer denominator.
``_Lau.of`` converts a window on the way in (``to_lau``) and
``_Lau.matrix`` reduces each order once on the way out (``from_lau``),
which wraps the result without re-running the constructor's checks.
Inverses and eigenvectors are read off the library's one elimination,
the fraction-free Gauss-Jordan ``scalars._gi_rref``, which charges this
module's work budget.
Eigenvalues of the leading coefficient are found without factoring:
Hensel lifting of the roots of its characteristic polynomial, scaled to
be monic over Z[i], at a prime p = 1 (mod 4), then an exact check of
each root (``_qi_eigenvalues`` documents the method and its error order).

Every gauge transform, diagonalization and gauge composition may spend
at most ``GERM_WORK_BUDGET`` word operations; each product is charged
before it runs, from the sizes of its operands, and an exhausted budget
raises ``TooLarge``.  The Hensel step has its own bounds on the primes it
tries (``HENSEL_PRIME_BUDGET``) and on the precision it lifts to
(``HENSEL_BITS_BUDGET``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# Module objects, looked up at call time: ``extract_irregular_type``,
# ``gl_cartan_system`` and the series-pair germ form load them on first use.
from . import irregular, rootsystems, series
from .errors import (
    LeadingNotRegular,
    MalformedInput,
    NotAUnit,
    NotSplitOverField,
    OutOfRange,
    PrecisionExhausted,
    ShapeMismatch,
    TooLarge,
    Twisted,
)
from .scalars import (
    G_ONE,
    G_ZERO,
    GInt,
    GaussianRational,
    IMatrix,
    ScalarLike,
    _as_int,
    _as_list,
    _as_object,
    _bits,
    _gi_mul,
    _gi_rref,
    _gi_sub,
    _vector_from_json,
    _vector_to_json,
    gauss,
)

GMatrix = List[List[GaussianRational]]
# One stored coefficient matrix of a germ or gauge window.
Matrix = Tuple[Tuple[GaussianRational, ...], ...]


def gl_cartan_system(r: int) -> rootsystems.RootSystem:
    """Root data of the full diagonal Cartan of gl_r: all e_i - e_j."""
    if r < 1:
        raise MalformedInput("matrix size must be positive")
    if r == 1:
        return rootsystems.RootSystem(1, [])
    return rootsystems.build_root_system("A", r - 1)


def _zero_matrix(r: int) -> Matrix:
    return ((G_ZERO,) * r,) * r


def _identity_matrix(r: int) -> Matrix:
    return tuple(tuple(G_ONE if i == j else G_ZERO for j in range(r)) for i in range(r))


def _coerce_matrix(matrix: Sequence[Sequence[ScalarLike]]) -> Matrix:
    return tuple(tuple(GaussianRational.of(x) for x in row) for row in matrix)


def _by_order(cells: Sequence[Sequence[Sequence]]) -> Iterator[Matrix]:
    """Regroup a matrix of per-entry coefficient lists into one matrix per order."""
    return zip(*(zip(*row) for row in cells))


def _bare(cls, **fields):
    """An instance of ``cls`` holding ``fields``, without its constructor's checks."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        setattr(obj, name, value)
    return obj


def _to_gi(value: GaussianRational, den: int) -> GInt:
    return (
        value.re.numerator * (den // value.re.denominator),
        value.im.numerator * (den // value.im.denominator),
    )


def _from_gi(value: GInt, den: int) -> GaussianRational:
    return GaussianRational(Fraction(value[0], den), Fraction(value[1], den))


def _common_denominator(values, max_bits: int) -> int:
    """lcm of the denominators; ``TooLarge`` as soon as it passes ``max_bits``."""
    den = 1
    for v in values:
        den = lcm(den, v.re.denominator, v.im.denominator)
        if den.bit_length() > max_bits:
            raise TooLarge(f"common denominator exceeds {max_bits} bits")
    return den


# Work one gauge transform, diagonalization or gauge composition may do, in
# 64-bit word operations: a multiplication or gcd of integers totalling s
# words costs s^2.  A 10 x 10 germ of window 13 with small entries, gauged
# by a polynomial of order 3, needs about 9 x 10^7 (0.2 s on a 2-vCPU
# machine); the budget stops any request within a few seconds.
GERM_WORK_BUDGET = 10**9


class _Work:
    """What one public call may still spend; each step is charged before it runs."""

    __slots__ = ("left",)

    def __init__(self) -> None:
        self.left = GERM_WORK_BUDGET

    def charge(self, operations: int, bits: int) -> None:
        """Pay for ``operations`` multiplications or gcds of operands totalling ``bits`` bits."""
        s = 1 + bits // 64
        self.left -= operations * s * s
        if self.left < 0:
            raise TooLarge(f"connection work exceeds the budget of {GERM_WORK_BUDGET}")

    def charge_reduction(self, lau: "_Lau") -> None:
        """Pay for reducing each entry of ``lau`` over its denominator: two gcds."""
        bits = _bits(lau.coeffs.values()) + lau.den.bit_length()
        self.charge(2 * lau.r**2 * len(lau.coeffs), bits)

    def max_bits(self, r: int) -> int:
        """Operand size past which one more r x r product cannot be paid."""
        return 64 * isqrt(self.left // r**3)


def _gi_round_div(a: GInt, b: GInt) -> GInt:
    """The Gaussian integer nearest to a / b (halves round up)."""
    n = b[0] * b[0] + b[1] * b[1]
    re, im = a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]
    return ((2 * re + n) // (2 * n), (2 * im + n) // (2 * n))


def _gi_mat_mul(a: IMatrix, b: IMatrix) -> IMatrix:
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            re = im = 0
            for (x, u), (y, v) in zip(row, col):
                re += x * y - u * v
                im += x * v + u * y
            out_row.append((re, im))
        out.append(out_row)
    return out


def _gi_mat_add(a: IMatrix, b: IMatrix) -> IMatrix:
    return [[(x[0] + y[0], x[1] + y[1]) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _gi_mat_scale(a: IMatrix, c: GInt) -> IMatrix:
    return [[_gi_mul(x, c) for x in row] for row in a]


def _gi_identity(n: int) -> IMatrix:
    return [[(int(i == j), 0) for j in range(n)] for i in range(n)]


def _gi_char_poly(a: IMatrix) -> List[GInt]:
    """Characteristic polynomial, monic and highest degree first.

    Faddeev-LeVerrier: over the Gaussian integers the k-th trace is an
    exact multiple of k.
    """
    n = len(a)
    coeffs, m = [(1, 0)], _gi_identity(n)
    for k in range(1, n + 1):
        m = _gi_mat_mul(a, m)
        ck = (-sum(m[i][i][0] for i in range(n)) // k, -sum(m[i][i][1] for i in range(n)) // k)
        coeffs.append(ck)
        for i in range(n):
            m[i][i] = (m[i][i][0] + ck[0], m[i][i][1] + ck[1])
    return coeffs


def _gi_mat_inverse(m: IMatrix, work: _Work) -> Tuple[IMatrix, int]:
    """(Y, d) with m^{-1} = Y / d and d a positive integer.

    Raises ``NotAUnit`` when m is singular.
    """
    n = len(m)
    rows, pivots, p = _gi_rref([list(row) + unit for row, unit in zip(m, _gi_identity(n))], n, work)
    if len(pivots) < n:
        raise NotAUnit("matrix is singular")
    # rows = [p I | p m^{-1}]; move p's phase into Y, then divide out the
    # content Y and d share (a scalar m gives Y = I).
    y = _gi_mat_scale([row[n:] for row in rows], (p[0], -p[1]))
    d = p[0] ** 2 + p[1] ** 2
    g = gcd(d, *(x for row in y for pair in row for x in pair))
    return [[(re // g, im // g) for re, im in row] for row in y], d // g


class _Lau:
    """Matrix Laurent polynomial with a knowledge bound, over one denominator.

    ``coeffs`` maps orders to r x r matrices of Gaussian integers, each
    an ``(re, im)`` pair of ints; the coefficient at order l is
    ``coeffs[l] / den`` for the positive integer ``den``.  Nothing is
    reduced here: products multiply denominators and sums take their
    lcm, and ``ConnectionGerm.from_lau`` reduces once.  Orders at or
    above ``hi`` are unknown (``hi`` None means exactly known
    everywhere).  ``floor`` is a valuation lower bound used for
    propagating knowledge through products.
    """

    __slots__ = ("r", "coeffs", "den", "hi", "floor")

    def __init__(self, r: int, coeffs: Dict[int, IMatrix], den: int, hi: Optional[int], floor: int):
        self.r = r
        self.coeffs = {l: m for l, m in coeffs.items() if any(x != (0, 0) for row in m for x in row)}
        self.den = den
        self.hi = hi
        self.floor = floor
        for l in self.coeffs:
            if l < floor or (hi is not None and l >= hi):
                raise MalformedInput("Laurent coefficient outside the known window")

    @staticmethod
    def of(r: int, matrices: Dict[int, GMatrix], hi: Optional[int], floor: int, work: _Work) -> "_Lau":
        """Exact integer form of Gaussian-rational coefficient matrices.

        ``TooLarge`` when the common denominator alone would make one
        product cost more than ``work`` has left.
        """
        values = (x for m in matrices.values() for row in m for x in row)
        den = _common_denominator(values, work.max_bits(r))
        coeffs = {l: [[_to_gi(x, den) for x in row] for row in m] for l, m in matrices.items()}
        return _Lau(r, coeffs, den, hi, floor)

    def matrix(self, order: int) -> Matrix:
        """The coefficient at ``order`` as a reduced Gaussian-rational matrix."""
        m = self.coeffs.get(order)
        if m is None:
            return _zero_matrix(self.r)
        return tuple(tuple(_from_gi(x, self.den) for x in row) for row in m)

    def add(self, other: "_Lau") -> "_Lau":
        hi = _min_hi(self.hi, other.hi)
        den = lcm(self.den, other.den)
        fa, fb = (den // self.den, 0), (den // other.den, 0)
        out: Dict[int, IMatrix] = {}
        for l in set(self.coeffs) | set(other.coeffs):
            if hi is not None and l >= hi:
                continue
            a, b = self.coeffs.get(l), other.coeffs.get(l)
            if a is None:
                out[l] = _gi_mat_scale(b, fb)
            elif b is None:
                out[l] = _gi_mat_scale(a, fa)
            else:
                out[l] = _gi_mat_add(_gi_mat_scale(a, fa), _gi_mat_scale(b, fb))
        return _Lau(self.r, out, den, hi, min(self.floor, other.floor))

    def mul(self, other: "_Lau", work: _Work) -> "_Lau":
        hi = _min_hi(
            None if self.hi is None else self.hi + other.floor,
            None if other.hi is None else other.hi + self.floor,
        )
        pairs = [
            (la, lb) for la in self.coeffs for lb in other.coeffs if hi is None or la + lb < hi
        ]
        work.charge(len(pairs) * self.r**3, _bits(self.coeffs.values()) + _bits(other.coeffs.values()))
        out: Dict[int, IMatrix] = {}
        for la, lb in pairs:
            prod = _gi_mat_mul(self.coeffs[la], other.coeffs[lb])
            l = la + lb
            out[l] = _gi_mat_add(out[l], prod) if l in out else prod
        return _Lau(self.r, out, self.den * other.den, hi, self.floor + other.floor)

    def derivative(self) -> "_Lau":
        out = {l - 1: _gi_mat_scale(m, (l, 0)) for l, m in self.coeffs.items() if l}
        hi = None if self.hi is None else self.hi - 1
        floor = self.floor if self.floor == 0 else self.floor - 1
        return _Lau(self.r, out, self.den, hi, floor)


def _min_hi(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _series_matrix_inverse(poly: "_Lau", order: int, work: _Work) -> "_Lau":
    """Inverse of an exactly known polynomial matrix, modulo z^order.

    With poly = G / D and G_0^{-1} = Y / d, the integer matrices
    W_l = d^{l+1} (G^{-1})_l satisfy W_0 = Y and
    W_l = -Y sum_{a=1..l} d^{a-1} G_a W_{l-a}; the result is
    D W_l d^{order-1-l} over the shared denominator d^order.
    """
    if poly.floor < 0 or poly.hi is not None:
        raise MalformedInput("series inversion needs an exact non-negative-order input")
    r = poly.r
    zero = [[(0, 0)] * r for _ in range(r)]
    g_bits = _bits(poly.coeffs.values())
    y, d = _gi_mat_inverse(poly.coeffs.get(0, zero), work)
    w, w_bits = [y], _bits([y])
    for l in range(1, order):
        present = [a for a in range(1, l + 1) if a in poly.coeffs]
        work.charge((len(present) + 1) * r**3, 2 * (g_bits + w_bits + l * d.bit_length()))
        acc = None
        for a in present:
            term = _gi_mat_scale(_gi_mat_mul(poly.coeffs[a], w[l - a]), (d ** (a - 1), 0))
            acc = term if acc is None else _gi_mat_add(acc, term)
        w.append(zero if acc is None else _gi_mat_scale(_gi_mat_mul(y, acc), (-1, 0)))
        w_bits = max(w_bits, _bits([w[-1]]))
    out = {l: _gi_mat_scale(w[l], (poly.den * d ** (order - 1 - l), 0)) for l in range(order)}
    return _Lau(r, out, d**order, order, 0)


def _window_lau(r: int, window: Sequence[Matrix], lo: int, hi: Optional[int], work: _Work) -> _Lau:
    """Integer form of a window whose first matrix sits at order ``lo``."""
    return _Lau.of(r, dict(enumerate(window, lo)), hi, lo, work)


class GaugeElement:
    """Polynomial matrix gauge with invertible constant term.

    Stores one coefficient matrix per order 0 .. order-1; coefficients
    beyond the stored degree are exactly zero, so a gauge element
    carries full information about itself.
    """

    __slots__ = ("r", "order", "_window")

    def __init__(self, r: int, entries: Sequence[Sequence[Sequence[ScalarLike]]]):
        if r < 1:
            raise MalformedInput("matrix size must be positive")
        if len(entries) != r or any(len(row) != r for row in entries):
            raise MalformedInput("gauge entries must form an r x r matrix")
        lengths = {len(cell) for row in entries for cell in row}
        if len(lengths) != 1 or min(lengths) < 1:
            raise MalformedInput("gauge entries must share one positive order")
        window = tuple(_coerce_matrix(m) for m in _by_order(entries))
        work = _Work()
        den = _common_denominator((x for row in window[0] for x in row), work.max_bits(r))
        # raises NotAUnit when singular
        _gi_mat_inverse([[_to_gi(x, den) for x in row] for row in window[0]], work)
        self.r, self.order, self._window = r, len(window), window

    @staticmethod
    def identity(r: int, order: int = 1) -> "GaugeElement":
        entries = [
            [[G_ONE if i == j else G_ZERO] + [G_ZERO] * (order - 1) for j in range(r)]
            for i in range(r)
        ]
        return GaugeElement(r, entries)

    @staticmethod
    def from_constant(matrix: Sequence[Sequence[ScalarLike]]) -> "GaugeElement":
        return GaugeElement(len(matrix), [[[c] for c in row] for row in matrix])

    @property
    def entries(self) -> Tuple[Tuple[Tuple[GaussianRational, ...], ...], ...]:
        """Read-only view: ``entries[i][j][l]`` is the z^l coefficient of entry (i, j)."""
        return tuple(tuple(zip(*rows)) for rows in zip(*self._window))

    def constant_term(self) -> GMatrix:
        return [list(row) for row in self._window[0]]

    def is_identity_mod_z(self) -> bool:
        return self._window[0] == _identity_matrix(self.r)

    def to_lau(self, work: _Work) -> _Lau:
        return _window_lau(self.r, self._window, 0, None, work)

    @staticmethod
    def from_lau(lau: _Lau, order: int) -> "GaugeElement":
        """Wrap a product of gauges: its constant term is a product of units."""
        window = tuple(lau.matrix(l) for l in range(order))
        return _bare(GaugeElement, r=lau.r, order=order, _window=window)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GaugeElement) and self.r == other.r and self._window == other._window

    def __repr__(self) -> str:
        return f"GaugeElement(r={self.r}, order={self.order})"


def gauge_compose(second: GaugeElement, first: GaugeElement) -> GaugeElement:
    """Polynomial product second * first: apply ``first``, then ``second``."""
    return _compose(second, first, _Work())


def _compose(second: GaugeElement, first: GaugeElement, work: _Work) -> GaugeElement:
    if second.r != first.r:
        raise ShapeMismatch("gauge sizes differ")
    prod = second.to_lau(work).mul(first.to_lau(work), work)
    work.charge_reduction(prod)
    return GaugeElement.from_lau(prod, second.order + first.order - 1)


class ConnectionGerm:
    """Matrix of one-forms f_ij dz, exact from order -(k+1) to N-1.

    Stores one coefficient matrix per order of that window.
    """

    __slots__ = ("r", "pole_bound", "precision", "_window")

    def __init__(
        self,
        r: int,
        pole_bound: int,
        entries: Sequence[Sequence[Tuple[series.LaurentTail, series.TruncatedSeries]]],
    ):
        if r < 1:
            raise MalformedInput("matrix size must be positive")
        if pole_bound < 0:
            raise MalformedInput("pole bound must be non-negative")
        if len(entries) != r or any(len(row) != r for row in entries):
            raise MalformedInput("entries must form an r x r matrix")
        precisions = set()
        for row in entries:
            for tail, regular in row:
                if not isinstance(tail, series.LaurentTail) or not isinstance(
                    regular, series.TruncatedSeries
                ):
                    raise MalformedInput("each entry must pair a tail with a series")
                if tail.pole_order_bound != pole_bound + 1:
                    raise MalformedInput("tail bound must equal pole_bound + 1")
                precisions.add(regular.order)
        if len(precisions) != 1:
            raise MalformedInput("entries must share one regular precision")
        self.r, self.pole_bound, self.precision = r, pole_bound, precisions.pop()
        cells = [[tail.coeffs + regular.coeffs for tail, regular in row] for row in entries]
        self._window = tuple(_by_order(cells))

    @staticmethod
    def from_order_dict(
        r: int, pole_bound: int, precision: int, data: Dict[int, Sequence[Sequence[ScalarLike]]]
    ) -> "ConnectionGerm":
        """Build from a map order -> matrix; orders outside the window reject."""
        for l, matrix in data.items():
            if l < -(pole_bound + 1) or l >= precision:
                raise MalformedInput(f"order {l} outside the germ window")
            if len(matrix) != r or any(len(row) != r for row in matrix):
                raise MalformedInput(f"coefficient matrix at order {l} is not {r} x {r}")
        if r < 1:
            raise MalformedInput("matrix size must be positive")
        if pole_bound < 0 or precision < 1:
            raise MalformedInput("need pole_bound >= 0 and precision >= 1")
        zero = _zero_matrix(r)
        window = tuple(
            _coerce_matrix(data[l]) if l in data else zero
            for l in range(-(pole_bound + 1), precision)
        )
        return _bare(ConnectionGerm, r=r, pole_bound=pole_bound, precision=precision, _window=window)

    def _matrix(self, order: int) -> Matrix:
        if order < -(self.pole_bound + 1):
            return _zero_matrix(self.r)
        if order < self.precision:
            return self._window[order + self.pole_bound + 1]
        raise PrecisionExhausted(f"order {order} beyond the stored precision")

    def coefficient(self, i: int, j: int, order: int) -> GaussianRational:
        return self._matrix(order)[i][j]

    def coefficient_matrix(self, order: int) -> GMatrix:
        return [list(row) for row in self._matrix(order)]

    def to_lau(self, work: _Work) -> _Lau:
        return _window_lau(self.r, self._window, -(self.pole_bound + 1), self.precision, work)

    @staticmethod
    def from_lau(lau: _Lau, pole_bound: int) -> "ConnectionGerm":
        if lau.hi is None:
            raise MalformedInput("a germ needs a finite precision bound")
        if lau.hi < 1:
            raise PrecisionExhausted("resulting germ has no regular coefficients left")
        for l in lau.coeffs:
            if l < -(pole_bound + 1):
                raise MalformedInput("pole deeper than the declared bound")
        window = tuple(lau.matrix(l) for l in range(-(pole_bound + 1), lau.hi))
        return _bare(ConnectionGerm, r=lau.r, pole_bound=pole_bound, precision=lau.hi, _window=window)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConnectionGerm)
            and self.r == other.r
            and self.pole_bound == other.pole_bound
            and self._window == other._window
        )

    def __repr__(self) -> str:
        return (
            f"ConnectionGerm(r={self.r}, pole_bound={self.pole_bound}, "
            f"precision={self.precision})"
        )


def gauge_transform(germ: ConnectionGerm, g: GaugeElement) -> ConnectionGerm:
    """Apply g M g^{-1} + dg g^{-1} = (g M + dg) g^{-1}; precision follows the germ.

    The inverse is computed far enough past the pole that the only
    unknown orders are the germ's own, so the output window equals the
    input window.  ``TooLarge`` when the products would exceed
    ``GERM_WORK_BUDGET``.
    """
    return _transform(germ, g, _Work())


def _transform(germ: ConnectionGerm, g: GaugeElement, work: _Work) -> ConnectionGerm:
    if germ.r != g.r:
        raise ShapeMismatch("gauge and germ sizes differ")
    depth = germ.pole_bound + 1
    glau = g.to_lau(work)
    ginv = _series_matrix_inverse(glau, germ.precision + depth, work)
    total = glau.mul(germ.to_lau(work), work).add(glau.derivative()).mul(ginv, work)
    work.charge_reduction(total)
    return ConnectionGerm.from_lau(total, germ.pole_bound)


def is_untwisted_in_basis(germ: ConnectionGerm) -> bool:
    """Off-diagonal coefficients vanish at z^{-j} dz for every j >= 2."""
    # orders -(k+1) .. -2 are the first k matrices of the window
    return not any(
        x for m in germ._window[: germ.pole_bound] for i, row in enumerate(m) for j, x in enumerate(row) if i != j
    )


def extract_irregular_type(germ: ConnectionGerm) -> irregular.IrregularType:
    """Diagonal principal part as an irregular type, residue discarded.

    Inverts d: the coefficient of z^{-(l+1)} dz on the diagonal equals
    -l A_l, for l = 1 .. pole_bound.
    """
    if not is_untwisted_in_basis(germ):
        raise Twisted("off-diagonal principal part below residue order")
    system = gl_cartan_system(germ.r)
    vectors = []
    for l in range(1, germ.pole_bound + 1):
        inv = GaussianRational.of(Fraction(-1, l))
        vectors.append(
            [germ.coefficient(i, i, -(l + 1)) * inv for i in range(germ.r)]
        )
    return irregular.IrregularType(system, germ.pole_bound, vectors)


def verify_framing_invariance(germ: ConnectionGerm, g: GaugeElement) -> bool:
    """Extraction is blind to framing-compatible gauges (g = Id mod z).

    Both the input and its transform must be untwisted in the given
    basis; the extracted irregular types are then compared exactly.
    """
    if germ.r != g.r:
        raise ShapeMismatch("gauge and germ sizes differ")
    if not g.is_identity_mod_z():
        raise MalformedInput("gauge must be the identity modulo z")
    transformed = gauge_transform(germ, g)
    if not is_untwisted_in_basis(germ) or not is_untwisted_in_basis(transformed):
        raise Twisted("both connections must be untwisted in this basis")
    return extract_irregular_type(germ) == extract_irregular_type(transformed)


# Split primes p = 1 (mod 4) tried in turn for one whose residue roots are
# all simple; more than this many bad primes raises TooLarge.
HENSEL_PRIME_BUDGET = 64
# Largest p-adic precision, in bits, that separating the roots may need:
# p^k must exceed 4 B^2 for the root bound B of the integer-scaled matrix.
HENSEL_BITS_BUDGET = 1 << 16


def _split_primes():
    p = 5
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 4


def _poly_eval(coeffs: Sequence[int], x: int, modulus: int) -> int:
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % modulus
    return acc


def _has_repeated_root(coeffs: List[GaussianRational]) -> bool:
    """Whether gcd(f, f') has positive degree; f monic, highest degree first."""
    n = len(coeffs) - 1
    a, b = coeffs, [c * (n - j) for j, c in enumerate(coeffs[:-1])]
    while b:
        while len(a) >= len(b):
            q = a[0] / b[0]
            a = [x - q * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
            while a and not a[0]:
                a = a[1:]
        a, b = b, a
    return len(a) > 1


def _gaussian_integer_roots(f: List[GInt], bound: int) -> List[GInt]:
    """Every root of the monic Z[i] polynomial f of absolute value <= bound.

    Picks a prime p = 1 (mod 4) at which every root of f modulo the
    Gaussian prime pi | p is simple, lifts those roots by Newton steps to
    modulo p^k > 4 bound^2 (where i is a lifted square root of -1), reads
    each lift as the Gaussian integer of least absolute value in its
    class modulo pi^k, and keeps the ones that are exact roots of f.
    """
    deriv = [(re * (len(f) - 1 - j), im * (len(f) - 1 - j)) for j, (re, im) in enumerate(f[:-1])]
    for attempt, p in enumerate(_split_primes()):
        if attempt == HENSEL_PRIME_BUDGET:
            raise TooLarge(f"no suitable prime among the first {HENSEL_PRIME_BUDGET} split primes")
        s = next(pow(g, (p - 1) // 4, p) for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1)
        image = [(re + im * s) % p for re, im in f]
        residues = [t for t in range(p) if not _poly_eval(image, t, p)]
        image_deriv = [(re + im * s) % p for re, im in deriv]
        if any(not _poly_eval(image_deriv, t, p) for t in residues):
            continue
        k, modulus = 1, p
        while modulus <= 4 * bound * bound:
            k, modulus = k + 1, modulus * p
        m = p
        while m < modulus:
            m = min(m * m, modulus)
            s = (s - (s * s + 1) * pow(2 * s, -1, m)) % m
            image = [(re + im * s) % m for re, im in f]
            image_deriv = [(re + im * s) % m for re, im in deriv]
            residues = [
                (t - _poly_eval(image, t, m) * pow(_poly_eval(image_deriv, t, m), -1, m)) % m
                for t in residues
            ]
        # i -> s (mod p^k) has kernel pi^k for the Gaussian prime pi = gcd(p, s - i).
        a, b = (p, 0), (s % p, -1)
        while b != (0, 0):
            a, b = b, _gi_sub(a, _gi_mul(_gi_round_div(a, b), b))
        pik = (1, 0)
        for _ in range(k):
            pik = _gi_mul(pik, a)
        roots = []
        for t in residues:
            x = _gi_sub((t, 0), _gi_mul(_gi_round_div((t, 0), pik), pik))
            value = (0, 0)
            for c in f:
                value = _gi_mul(value, x)
                value = (value[0] + c[0], value[1] + c[1])
            if value == (0, 0):
                roots.append(x)
        return roots


def _qi_eigenvalues(matrix: GMatrix, work: _Work) -> List[GaussianRational]:
    """Distinct eigenvalues in the Gaussian rationals, sorted by (re, im).

    Exact, without factoring.  With c the common denominator of the
    entries, cA has Gaussian-integer entries, so its characteristic
    polynomial f is monic over Z[i] and every eigenvalue of cA in Q(i)
    is a Gaussian integer of absolute value at most B, the largest row
    sum of |re| + |im| over cA.  Checks, in this order:

    - ``TooLarge`` when separating roots of that size would need a
      p-adic precision above ``HENSEL_BITS_BUDGET`` bits, or when
      computing f would overdraw ``work``;
    - ``LeadingNotRegular`` when gcd(f, f') has positive degree, that
      is on any repeated eigenvalue, split or not;
    - ``TooLarge`` when none of the first ``HENSEL_PRIME_BUDGET`` split
      primes leaves the residue roots of f simple;
    - ``NotSplitOverField`` when Hensel lifting finds fewer than r
      Gaussian-integer roots of f, that is when an eigenvalue lies
      outside the field.
    """
    n = len(matrix)
    c = _common_denominator((x for row in matrix for x in row), HENSEL_BITS_BUDGET)
    scaled = [[_to_gi(x, c) for x in row] for row in matrix]
    bound = max(1, max(sum(abs(re) + abs(im) for re, im in row) for row in scaled))
    if (4 * bound * bound).bit_length() > HENSEL_BITS_BUDGET:
        raise TooLarge(f"eigenvalue search needs more than {HENSEL_BITS_BUDGET} bits")
    # n products for f, whose entries reach n times the size of cA.
    work.charge(4 * n**4, 2 * n * _bits([scaled]))
    f = _gi_char_poly(scaled)
    if _has_repeated_root([gauss(re, im) for re, im in f]):
        raise LeadingNotRegular("leading coefficient has a repeated eigenvalue")
    roots = _gaussian_integer_roots(f, bound)
    if len(roots) < n:
        raise NotSplitOverField("an eigenvalue of the leading coefficient is not Gaussian rational")
    return [_from_gi(x, c) for x in sorted(roots)]


def _eigenvector(scaled: IMatrix, x: GInt, work: _Work) -> List[GInt]:
    """The kernel vector of scaled - x I read off its fraction-free RREF."""
    n = len(scaled)
    shifted = [[_gi_sub(a, x) if i == j else a for j, a in enumerate(row)] for i, row in enumerate(scaled)]
    rows, pivots, p = _gi_rref(shifted, n, work)
    if len(pivots) != n - 1:
        raise LeadingNotRegular("eigenvalue is not geometrically simple")
    free = next(c for c in range(n) if c not in pivots)
    vec = [(0, 0)] * n
    vec[free] = p
    for row, col in zip(rows, pivots):
        vec[col] = (-row[free][0], -row[free][1])
    return vec


def _principal_diagonal_ok(germ: ConnectionGerm) -> bool:
    if not is_untwisted_in_basis(germ):
        return False
    leading = germ.coefficient_matrix(-(germ.pole_bound + 1))
    return all(
        not leading[i][j] for i in range(germ.r) for j in range(germ.r) if i != j
    )


def leading_regular_diagonalize(
    germ: ConnectionGerm,
) -> Tuple[GaugeElement, ConnectionGerm]:
    """Gauge a leading-regular germ to untwisted shape.

    The leading coefficient must have r distinct Gaussian-rational
    eigenvalues.  A constant gauge moves to the eigenbasis; then for
    each principal order above the leading one, a commutator equation
    against the leading diagonal removes the off-diagonal part without
    disturbing anything below.  Needs k >= 1 and precision >= k.  Every
    product of the whole diagonalization draws on one
    ``GERM_WORK_BUDGET``; ``TooLarge`` when it runs out.
    """
    k = germ.pole_bound
    if k < 1:
        raise OutOfRange("diagonalization needs a pole of order at least 2")
    if germ.precision < k:
        raise PrecisionExhausted(
            f"precision {germ.precision} below the pole bound {k}"
        )
    r = germ.r
    leading = germ.coefficient_matrix(-(k + 1))
    if _principal_diagonal_ok(germ):
        diag = [leading[i][i] for i in range(r)]
        if len({(d.re, d.im) for d in diag}) != r:
            raise LeadingNotRegular("repeated leading diagonal entries")
        return GaugeElement.identity(r), germ
    work = _Work()
    values = _qi_eigenvalues(leading, work)
    # The change of basis has the eigenvectors v_j, scaled to lead with 1,
    # as columns: with V their integer matrix and L = diag(lead_j), the
    # constant gauge is its inverse L V^{-1}.
    c = _common_denominator((x for row in leading for x in row), HENSEL_BITS_BUDGET)
    scaled = [[_to_gi(x, c) for x in row] for row in leading]
    vectors = [_eigenvector(scaled, _to_gi(lam, c), work) for lam in values]
    y, d = _gi_mat_inverse([[v[i] for v in vectors] for i in range(r)], work)
    leads = [next(x for x in v if x != (0, 0)) for v in vectors]
    constant = [[_from_gi(_gi_mul(leads[j], y[j][i]), d) for i in range(r)] for j in range(r)]
    total = GaugeElement.from_constant(constant)
    current = _transform(germ, total, work)
    for j in range(1, k):
        target = j - k - 1
        coeff = current.coefficient_matrix(target)
        correction = tuple(
            tuple(
                coeff[a][b] / (values[a] - values[b]) if a != b and coeff[a][b] else G_ZERO
                for b in range(r)
            )
            for a in range(r)
        )
        if not any(x for row in correction for x in row):
            continue
        # 1 + C z^j: its constant term is the identity
        window = (_identity_matrix(r),) + (_zero_matrix(r),) * (j - 1) + (correction,)
        step = _bare(GaugeElement, r=r, order=j + 1, _window=window)
        current = _transform(current, step, work)
        total = _compose(step, total, work)
    if not is_untwisted_in_basis(current):
        raise LeadingNotRegular("diagonalization failed to clear the principal part")
    return total, current


def germ_to_json(germ: ConnectionGerm) -> dict:
    def orders(i: int, j: int, lo: int, hi: int) -> list:
        return _vector_to_json([germ.coefficient(i, j, l) for l in range(lo, hi)])

    depth = germ.pole_bound + 1
    return {
        "r": germ.r,
        "pole_bound": germ.pole_bound,
        "precision": germ.precision,
        "entries": [
            [
                {"tail": orders(i, j, -depth, 0), "regular": orders(i, j, 0, germ.precision)}
                for j in range(germ.r)
            ]
            for i in range(germ.r)
        ],
    }


def germ_from_json(data: object) -> ConnectionGerm:
    obj = _as_object(data, ("r", "pole_bound", "precision", "entries"), "connection germ")
    r = _as_int(obj["r"], "matrix size")
    pole_bound = _as_int(obj["pole_bound"], "pole bound")
    precision = _as_int(obj["precision"], "precision")
    if pole_bound < 0 or precision < 1:
        raise MalformedInput("need pole_bound >= 0 and precision >= 1")
    rows = _as_list(obj["entries"], "entries")
    if len(rows) != r:
        raise MalformedInput("entry row count differs from the matrix size")
    entries = []
    for row in rows:
        cells = _as_list(row, "entry row")
        if len(cells) != r:
            raise MalformedInput("entry column count differs from the matrix size")
        out_row = []
        for cell in cells:
            cobj = _as_object(cell, ("tail", "regular"), "germ entry")
            tail = _vector_from_json(cobj["tail"], "tail")
            regular = _vector_from_json(cobj["regular"], "regular part")
            if len(tail) != pole_bound + 1:
                raise MalformedInput("tail length must be pole_bound + 1")
            if len(regular) != precision:
                raise MalformedInput("regular part length must equal the precision")
            out_row.append(tail + regular)
        entries.append(out_row)
    # entries[i][j] lists orders -(k+1) .. N-1 of entry (i, j); regroup them by order
    by_order = dict(zip(range(-(pole_bound + 1), precision), zip(*(zip(*row) for row in entries))))
    return ConnectionGerm.from_order_dict(r, pole_bound, precision, by_order)


def gauge_to_json(g: GaugeElement) -> dict:
    return {
        "r": g.r,
        "precision": g.order,
        "entries": [[_vector_to_json(cell) for cell in row] for row in g.entries],
    }


def gauge_from_json(data: object) -> GaugeElement:
    obj = _as_object(data, ("r", "precision", "entries"), "gauge element")
    r = _as_int(obj["r"], "matrix size")
    precision = _as_int(obj["precision"], "precision")
    rows = _as_list(obj["entries"], "entries")
    if len(rows) != r:
        raise MalformedInput("entry row count differs from the matrix size")
    entries = []
    for row in rows:
        cells = _as_list(row, "entry row")
        if len(cells) != r:
            raise MalformedInput("entry column count differs from the matrix size")
        out_row = []
        for cell in cells:
            coeffs = _vector_from_json(cell, "gauge entry")
            if len(coeffs) != precision:
                raise MalformedInput("gauge entry length must equal the precision")
            out_row.append(coeffs)
        entries.append(out_row)
    return GaugeElement(r, entries)
