"""Multivariate polynomials over the Gaussian rationals.

Terms are a read-only map from exponent tuples (aligned with a fixed,
ordered variable tuple) to nonzero coefficients.  Zero coefficients are
dropped on construction; the graded lexicographic order fixes the
canonical term order for display and serialization.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import MalformedInput, ShapeMismatch
from .scalars import (
    G_ONE,
    G_ZERO,
    GaussianRational,
    ScalarLike,
    _as_int,
    _as_list,
    _as_object,
    _Record,
    _set_fields,
)

Exponents = Tuple[int, ...]


def _gradlex_key(exps: Exponents) -> tuple:
    # graded first, then lexicographic, largest first in displays
    return (sum(exps), exps)


class MultiPoly(_Record):
    """Polynomial in a fixed tuple of named variables."""

    __slots__ = __match_args__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, ScalarLike]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise MalformedInput("duplicate variable names")
        clean: Dict[Exponents, GaussianRational] = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vs) or any(e < 0 for e in exps):
                raise MalformedInput(f"bad exponent tuple {exps!r} for variables {vs!r}")
            c = GaussianRational.of(coeff)
            if c:
                clean[exps] = c
        _set_fields(self, variables=vs, terms=MappingProxyType(clean))

    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return MultiPoly(variables, {})

    @staticmethod
    def constant(variables: Sequence[str], value: ScalarLike) -> "MultiPoly":
        vs = tuple(variables)
        return MultiPoly(vs, {(0,) * len(vs): GaussianRational.of(value)})

    @staticmethod
    def variable(variables: Sequence[str], name: str) -> "MultiPoly":
        vs = tuple(variables)
        if name not in vs:
            raise MalformedInput(f"unknown variable {name!r}")
        exps = tuple(1 if v == name else 0 for v in vs)
        return MultiPoly(vs, {exps: G_ONE})

    def _check_same(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise ShapeMismatch("polynomials live over different variable tuples")

    # The terms are a read-only view of a dict, so the hash reads them in a
    # fixed order, and copies and pickles pass the constructor a plain dict.
    def __hash__(self) -> int:
        return hash((self.variables, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __reduce__(self):
        return MultiPoly, (self.variables, dict(self.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.terms)

    def constant_value(self) -> GaussianRational:
        zero_exps = (0,) * len(self.variables)
        return self.terms.get(zero_exps, G_ZERO)

    def total_degree(self) -> int:
        # degree of the zero polynomial is reported as 0
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        slot = self.variables.index(name)
        return max((exps[slot] for exps in self.terms), default=0)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_same(other)
        merged = dict(self.terms)
        for exps, c in other.terms.items():
            merged[exps] = merged.get(exps, G_ZERO) + c
        return MultiPoly(self.variables, merged)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_same(other)
        acc: Dict[Exponents, GaussianRational] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                acc[key] = acc.get(key, G_ZERO) + ca * cb
        return MultiPoly(self.variables, acc)

    def scale(self, value: ScalarLike) -> "MultiPoly":
        c = GaussianRational.of(value)
        return MultiPoly(self.variables, {e: k * c for e, k in self.terms.items()})

    def pow_int(self, exponent: int) -> "MultiPoly":
        if exponent < 0:
            raise MalformedInput("negative polynomial power")
        out = MultiPoly.constant(self.variables, 1)
        for _ in range(exponent):
            out = out * self
        return out

    def evaluate(self, point: Sequence[ScalarLike]) -> GaussianRational:
        if len(point) != len(self.variables):
            raise ShapeMismatch("evaluation point has wrong arity")
        vals = [GaussianRational.of(v) for v in point]
        total = G_ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term = term * v ** e
            total = total + term
        return total

    def substitute(self, assignments: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute variables by polynomials.

        All replacement polynomials must share one variable tuple, which
        becomes the variable tuple of the result.  Variables without an
        assignment must exist in the target tuple and map to themselves.
        """
        if assignments:
            target = next(iter(assignments.values())).variables
        else:
            target = self.variables
        images = []
        for name in self.variables:
            if name in assignments:
                img = assignments[name]
                if img.variables != target:
                    raise ShapeMismatch("replacement polynomials disagree on variables")
            else:
                img = MultiPoly.variable(target, name)
            images.append(img)
        out = MultiPoly.zero(target)
        for exps, coeff in self.terms.items():
            term = MultiPoly.constant(target, coeff)
            for img, e in zip(images, exps):
                for _ in range(e):
                    term = term * img
            out = out + term
        return out

    def coeffs_in(self, name: str) -> list:
        """Coefficients as polynomials free of ``name``, degree 0 upward."""
        slot = self.variables.index(name)
        top = self.degree_in(name)
        buckets: list = [dict() for _ in range(top + 1)]
        for exps, coeff in self.terms.items():
            stripped = exps[:slot] + (0,) + exps[slot + 1:]
            buckets[exps[slot]][stripped] = coeff
        return [MultiPoly(self.variables, b) for b in buckets]

    @staticmethod
    def from_coeffs_in(variables: Sequence[str], name: str, coeffs: Iterable["MultiPoly"]) -> "MultiPoly":
        vs = tuple(variables)
        slot = vs.index(name)
        out = MultiPoly.zero(vs)
        for degree, poly in enumerate(coeffs):
            shifted = {}
            for exps, coeff in poly.terms.items():
                key = exps[:slot] + (exps[slot] + degree,) + exps[slot + 1:]
                shifted[key] = coeff
            out = out + MultiPoly(vs, shifted)
        return out

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda item: _gradlex_key(item[0]))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in reversed(self.sorted_terms()):
            factors = [
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, exps)
                if e
            ]
            body = "*".join(factors)
            parts.append(f"{coeff!r}{'*' + body if body else ''}")
        return " + ".join(parts)


def poly_to_json(poly: MultiPoly) -> dict:
    return {
        "terms": [
            {"exponents": list(exps), "coefficient": coeff.to_json()}
            for exps, coeff in poly.sorted_terms()
        ]
    }


def poly_from_json(data: object, variables: Tuple[str, ...]) -> MultiPoly:
    obj = _as_object(data, ("terms",), "polynomial")
    terms = {}
    for item in _as_list(obj["terms"], "term list"):
        term = _as_object(item, ("exponents", "coefficient"), "term")
        exps = tuple(_as_int(e, "exponent") for e in _as_list(term["exponents"], "exponents"))
        if exps in terms:
            raise MalformedInput("duplicate exponent tuple in polynomial")
        terms[exps] = GaussianRational.from_json(term["coefficient"])
    return MultiPoly(variables, terms)
