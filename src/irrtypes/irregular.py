"""Irregular types with Cartan coefficients, and their root data.

An irregular type of pole bound p at the origin is a sum
A_1 z^{-1} + .. + A_p z^{-p} with each A_j a vector in the complexified
ambient space (Gaussian rationals here).  Pairing with a root alpha
gives a principal part whose pole order is the root order d_alpha; the
vector of all root orders and the associated nested chain of vanishing
sets are the combinatorial shadow used by the stratification.

Every root order comes from one rule, ``_row_order``, in integers: a
coefficient vector is scaled by the lcm of its denominators into an
integer real part and, when nonzero, an integer imaginary part
(``_integer_parts``, by ``scalars._integer_form`` under its bound), and a
root's order is the highest level whose parts its primitive integer row
(``RootSystem._rows``) does not all kill.  Scaling changes no zero
pairing, so the rule asks only what the exact pairing would;
``root_pairing`` is kept for the values themselves.

Moving the pole to infinity changes the coordinate, not the data: a
type at infinity lists the coefficients of z^1 .. z^p and has the same
root orders and filtration.  Its class, ``IrregularTypeAtInfinity``, is
the convention; every function here takes either class.

Families carry polynomial coefficients over a declared affine base and
support the admissibility check: every root order must stay constant
across the base.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import MalformedInput
from .polynomials import MultiPoly, poly_from_json, poly_to_json
from .rootsystems import LeviFiltration, RootSystem, root_system_from_json, root_system_to_json
from .scalars import (
    GaussianRational,
    ScalarLike,
    _as_int,
    _as_list,
    _as_object,
    _as_str,
    _bare,
    _integer_form,
    _Record,
    _set_fields,
    _vector_from_json,
    _vector_to_json,
)
from .series import LaurentTail

CoefficientVector = Tuple[GaussianRational, ...]


def _coerce_vector(rank: int, vector: Sequence[ScalarLike]) -> CoefficientVector:
    vec = tuple(GaussianRational.of(x) for x in vector)
    if len(vec) != rank:
        raise MalformedInput("coefficient vector length differs from the ambient rank")
    return vec


def root_pairing(root, vector: Sequence[GaussianRational]) -> GaussianRational:
    """Evaluate a rational root functional on a Gaussian coefficient vector,
    where the exact value is needed; orders use ``_row_order``."""
    re = im = Fraction(0)
    for a, v in zip(root, vector):
        if a:
            re += a * v.re
            im += a * v.im
    return GaussianRational(re, im)


class IrregularType(_Record):
    """Coefficients A_1 .. A_p of z^{-1} .. z^{-p}; p = 0 means none."""

    __slots__ = __match_args__ = ("rootsystem", "p", "coefficients")

    def __init__(self, rootsystem: RootSystem, p: int, coefficients: Sequence[Sequence[ScalarLike]]):
        if p < 0:
            raise MalformedInput("pole bound must be non-negative")
        coeffs = tuple(_coerce_vector(rootsystem.rank, v) for v in coefficients)
        if len(coeffs) != p:
            raise MalformedInput("need exactly p coefficient vectors")
        _set_fields(self, rootsystem=rootsystem, p=p, coefficients=coeffs)

    @classmethod
    def zero(cls, rootsystem: RootSystem, p: int) -> "IrregularType":
        return cls(rootsystem, p, [[0] * rootsystem.rank] * p)

    def coefficient(self, j: int) -> CoefficientVector:
        """A_j for 1 <= j <= p."""
        if not 1 <= j <= self.p:
            raise MalformedInput(f"no coefficient of index {j}")
        return self.coefficients[j - 1]

    def support(self) -> List[int]:
        """Degrees j with a nonzero coefficient vector."""
        return [j for j in range(1, self.p + 1) if any(self.coefficient(j))]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(p={self.p}, rank={self.rootsystem.rank})"


class IrregularTypeAtInfinity(IrregularType):
    """Coefficients A_1 .. A_p of z^1 .. z^p (pole at infinity).

    The same data as :class:`IrregularType` in the other coordinate, so
    root orders, filtrations and codecs are shared; the class records
    only the convention, so the two never compare equal.
    """

    __slots__ = ()


class RootOrderVector(_Record):
    """Pole order of alpha applied to the type, per root index."""

    __slots__ = __match_args__ = ("rootsystem", "p", "orders")

    def __init__(self, rootsystem: RootSystem, p: int, orders: Sequence[int]):
        if p < 0:
            raise MalformedInput("pole bound must be non-negative")
        tup = tuple(int(d) for d in orders)
        if len(tup) != len(rootsystem):
            raise MalformedInput("order vector length differs from the root count")
        for i, d in enumerate(tup):
            if not 0 <= d <= p:
                raise MalformedInput(f"order {d} at root {i} outside 0..{p}")
            if tup[rootsystem.negation_index(i)] != d:
                raise MalformedInput("order vector must be symmetric under negation")
        _set_fields(self, rootsystem=rootsystem, p=p, orders=tup)

    def max_order(self) -> int:
        return max(self.orders, default=0)

    def __repr__(self) -> str:
        return f"RootOrderVector({list(self.orders)})"


def evaluate_root(q: IrregularType, root_index: int) -> LaurentTail:
    """Principal part of alpha composed with the type, bound p.

    The tail lists c_{-p} .. c_{-1} with c_{-j} the pairing of the root
    with A_j.
    """
    root = q.rootsystem.roots[root_index]
    coeffs = [root_pairing(root, q.coefficient(j)) for j in range(q.p, 0, -1)]
    return LaurentTail(q.p, tuple(coeffs))


def _integer_parts(vector: Sequence[GaussianRational]) -> List[List[int]]:
    """``vector`` times the lcm of its denominators: its integer real part, and
    its imaginary part when that is nonzero.  A real row kills the vector
    exactly when it kills every part."""
    scaled = _integer_form([x.re for x in vector] + [x.im for x in vector])[0]
    re, im = scaled[: len(vector)], scaled[len(vector) :]
    return [re, im] if any(im) else [re]


def _row_order(row: Sequence[int], levels: Sequence[Sequence[Sequence[int]]]) -> int:
    """The one order rule: the highest level i whose integer vectors
    ``levels[i - 1]`` the integer root row does not all kill, else 0."""
    for i in range(len(levels), 0, -1):
        if any(sum(x * y for x, y in zip(row, v)) for v in levels[i - 1]):
            return i
    return 0


def root_order(q: IrregularType, root_index: int) -> int:
    return _row_order(q.rootsystem._rows[root_index], [_integer_parts(v) for v in q.coefficients])


def root_order_vector(q: IrregularType) -> RootOrderVector:
    levels = [_integer_parts(v) for v in q.coefficients]
    orders = tuple(_row_order(row, levels) for row in q.rootsystem._rows)
    return _bare(RootOrderVector, rootsystem=q.rootsystem, p=q.p, orders=orders)


def sublevel_sets(system: RootSystem, p: int, orders: Sequence[int]) -> List[frozenset]:
    """The sets {alpha : d_alpha < i} for i = 1 .. p."""
    return [
        frozenset(a for a, d in enumerate(orders) if d < i) for i in range(1, p + 1)
    ]


def levi_filtration_of(q: IrregularType | RootOrderVector) -> LeviFiltration:
    """Levels: for i = 1 .. p, the roots of order below i, which kill A_i .. A_p.

    Takes a type or its root order vector; given the vector, no root is
    paired again.
    """
    vec = q if isinstance(q, RootOrderVector) else root_order_vector(q)
    return LeviFiltration(vec.rootsystem, sublevel_sets(vec.rootsystem, vec.p, vec.orders))


class FamilyIrregularType(_Record):
    """Irregular type whose coefficients are polynomials on an affine base."""

    __slots__ = __match_args__ = ("rootsystem", "p", "variables", "coefficients")

    def __init__(
        self,
        rootsystem: RootSystem,
        p: int,
        variables: Sequence[str],
        coefficients: Sequence[Sequence[MultiPoly]],
    ):
        if p < 0:
            raise MalformedInput("pole bound must be non-negative")
        vs = tuple(variables)
        coeffs: List[Tuple[MultiPoly, ...]] = []
        if len(coefficients) != p:
            raise MalformedInput("need exactly p coefficient vectors")
        for vector in coefficients:
            vec = tuple(vector)
            if len(vec) != rootsystem.rank:
                raise MalformedInput("coefficient vector length differs from the ambient rank")
            for entry in vec:
                if not isinstance(entry, MultiPoly) or entry.variables != vs:
                    raise MalformedInput("family entries must be polynomials over the base variables")
            coeffs.append(vec)
        _set_fields(self, rootsystem=rootsystem, p=p, variables=vs, coefficients=tuple(coeffs))

    def coefficient(self, j: int) -> Tuple[MultiPoly, ...]:
        if not 1 <= j <= self.p:
            raise MalformedInput(f"no coefficient of index {j}")
        return self.coefficients[j - 1]

    def specialize(self, point: Sequence[ScalarLike]) -> IrregularType:
        """Evaluate every coefficient polynomial at a base point."""
        vectors = [
            [entry.evaluate(point) for entry in self.coefficient(j)]
            for j in range(1, self.p + 1)
        ]
        return IrregularType(self.rootsystem, self.p, vectors)


def _family_pairing(fam: FamilyIrregularType, root, j: int) -> MultiPoly:
    acc = MultiPoly.zero(fam.variables)
    for a, entry in zip(root, fam.coefficient(j)):
        if a:
            acc = acc + entry.scale(a)
    return acc


def _leading_pairing(fam: FamilyIrregularType, root_index: int) -> Tuple[int, MultiPoly]:
    """Largest j whose pairing with A_j is not identically zero, and that
    pairing; ``(0, zero polynomial)`` when every pairing vanishes."""
    root = fam.rootsystem.roots[root_index]
    for j in range(fam.p, 0, -1):
        poly = _family_pairing(fam, root, j)
        if not poly.is_zero:
            return j, poly
    return 0, MultiPoly.zero(fam.variables)


def family_root_order(fam: FamilyIrregularType, root_index: int) -> Tuple[int, bool]:
    """Generic root order and whether it is constant across the base.

    Returns ``(d, constant)`` where d is the largest j with a not
    identically vanishing pairing against A_j (0 if none) and
    ``constant`` says whether the leading pairing is a nonzero constant
    polynomial, i.e. whether the order is the same at every base point.
    """
    d, poly = _leading_pairing(fam, root_index)
    return d, poly.is_constant


def is_admissible(fam: FamilyIrregularType) -> Tuple[bool, Tuple[Tuple[int, MultiPoly], ...]]:
    """Whether every root order is constant; failures carry witnesses.

    Each failure is ``(root_index, leading_polynomial)`` where the
    leading polynomial is nonconstant, hence vanishes somewhere on the
    base (over an algebraically closed field) and drops the order there.
    """
    failures = []
    for i in range(len(fam.rootsystem)):
        _, poly = _leading_pairing(fam, i)
        if not poly.is_constant:
            failures.append((i, poly))
    return (not failures, tuple(failures))


def irregular_type_to_json(q: IrregularType) -> dict:
    return {
        "rootsystem": root_system_to_json(q.rootsystem),
        "p": q.p,
        "coefficients": [_vector_to_json(vec) for vec in q.coefficients],
    }


def _irregular_type_from_json(data: object, cls: type) -> IrregularType:
    """Decode either pole convention; ``cls`` names the convention."""
    obj = _as_object(data, ("rootsystem", "p", "coefficients"), "irregular type")
    return cls(
        root_system_from_json(obj["rootsystem"]),
        _as_int(obj["p"], "pole bound"),
        [
            _vector_from_json(vec, "coefficient vector")
            for vec in _as_list(obj["coefficients"], "coefficients")
        ],
    )


def irregular_type_from_json(data: object) -> IrregularType:
    return _irregular_type_from_json(data, IrregularType)


# Both conventions share one document shape.
atinf_to_json = irregular_type_to_json


def atinf_from_json(data: object) -> IrregularTypeAtInfinity:
    return _irregular_type_from_json(data, IrregularTypeAtInfinity)


def family_to_json(fam: FamilyIrregularType) -> dict:
    return {
        "rootsystem": root_system_to_json(fam.rootsystem),
        "p": fam.p,
        "variables": list(fam.variables),
        "coefficients": [
            [poly_to_json(entry) for entry in vec] for vec in fam.coefficients
        ],
    }


def family_from_json(data: object) -> FamilyIrregularType:
    obj = _as_object(data, ("rootsystem", "p", "variables", "coefficients"), "family")
    variables = tuple(_as_str(v, "variable name") for v in _as_list(obj["variables"], "variables"))
    coefficients = [
        [poly_from_json(entry, variables) for entry in _as_list(vec, "coefficient vector")]
        for vec in _as_list(obj["coefficients"], "coefficients")
    ]
    return FamilyIrregularType(
        root_system_from_json(obj["rootsystem"]),
        _as_int(obj["p"], "pole bound"),
        variables,
        coefficients,
    )


def order_vector_to_json(vec: RootOrderVector) -> dict:
    return {
        "rootsystem": root_system_to_json(vec.rootsystem),
        "p": vec.p,
        "orders": list(vec.orders),
    }


def order_vector_from_json(data: object) -> RootOrderVector:
    obj = _as_object(data, ("rootsystem", "p", "orders"), "order vector")
    return RootOrderVector(
        root_system_from_json(obj["rootsystem"]),
        _as_int(obj["p"], "pole bound"),
        [_as_int(d, "order") for d in _as_list(obj["orders"], "orders")],
    )
