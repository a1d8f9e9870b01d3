"""JSON encoding and strict decoding for every public object.

Encoders emit plain dict / list / str structures ready for
``json.dumps``; all scalars ride as exact string literals so round
trips are bit exact.  Decoders validate the complete shape: unknown
keys, missing keys, wrong container types, and malformed literals all
raise :class:`MalformedInput`.  Decoding then runs the normal
constructors, so structural invariants (negation closure, span-closed
levels, consistent precision) are re-checked on the way in.

Which CLI requests load this module is listed in the :mod:`irrtypes` docstring.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from . import SCHEMA_VERSION  # noqa: F401  (re-exported)
from .connections import (  # noqa: F401  (re-exported)
    gauge_from_json,
    gauge_to_json,
    germ_from_json,
    germ_to_json,
)
from .errors import MalformedInput
from .irregular import (
    FamilyIrregularType,
    IrregularType,
    IrregularTypeAtInfinity,
    RootOrderVector,
)
from .polynomials import MultiPoly
from .rootsystems import LeviFiltration, LeviSubsystem, RootSystem
from .scalars import (
    GaussianRational,
    _as_int,
    _as_list,
    _as_object,
    _as_str,
    _vector_from_json,
    _vector_to_json,
    rat_from_str,
    rat_to_str,
)
from .strata import StratumDescriptor
from .symmetry import AffineG1, SL2ZElement, TorusG2, UpperHalfPoint


def scalar_to_json(value: GaussianRational) -> dict:
    return GaussianRational.of(value).to_json()


def scalar_from_json(data: object) -> GaussianRational:
    return GaussianRational.from_json(data)


def root_system_to_json(system: RootSystem) -> dict:
    return {
        "rank": system.rank,
        "roots": [[rat_to_str(x) for x in root] for root in system.roots],
        "family": system.family,
    }


def root_system_from_json(data: object) -> RootSystem:
    obj = _as_object(data, ("rank", "roots", "family"), "root system")
    rank = _as_int(obj["rank"], "root system rank")
    roots = []
    for row in _as_list(obj["roots"], "root list"):
        roots.append(tuple(rat_from_str(_as_str(x, "root entry")) for x in _as_list(row, "root")))
    family = obj["family"]
    if family is not None and not isinstance(family, str):
        raise MalformedInput("root system family must be a string or null")
    return RootSystem(rank, roots, family=family)


def _coefficient_block_to_json(coefficients: Sequence[Sequence[GaussianRational]]) -> list:
    return [_vector_to_json(vec) for vec in coefficients]


def _coefficient_block_from_json(data: object) -> List[List[GaussianRational]]:
    return [_vector_from_json(vec, "coefficient vector") for vec in _as_list(data, "coefficients")]


def irregular_type_to_json(q: IrregularType) -> dict:
    return {
        "rootsystem": root_system_to_json(q.rootsystem),
        "p": q.p,
        "coefficients": _coefficient_block_to_json(q.coefficients),
    }


def _irregular_type_from_json(data: object, cls: type) -> IrregularType:
    """Decode either pole convention; ``cls`` names the convention."""
    obj = _as_object(data, ("rootsystem", "p", "coefficients"), "irregular type")
    return cls(
        root_system_from_json(obj["rootsystem"]),
        _as_int(obj["p"], "pole bound"),
        _coefficient_block_from_json(obj["coefficients"]),
    )


def irregular_type_from_json(data: object) -> IrregularType:
    return _irregular_type_from_json(data, IrregularType)


# Both conventions share one document shape.
atinf_to_json = irregular_type_to_json


def atinf_from_json(data: object) -> IrregularTypeAtInfinity:
    return _irregular_type_from_json(data, IrregularTypeAtInfinity)


def poly_to_json(poly: MultiPoly) -> dict:
    return {
        "terms": [
            {"exponents": list(exps), "coefficient": scalar_to_json(coeff)}
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
        terms[exps] = scalar_from_json(term["coefficient"])
    return MultiPoly(variables, terms)


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


def levi_to_json(levi: LeviSubsystem) -> dict:
    return {
        "rootsystem": root_system_to_json(levi.system),
        "members": list(levi.sorted_members()),
    }


def levi_from_json(data: object) -> LeviSubsystem:
    obj = _as_object(data, ("rootsystem", "members"), "Levi subsystem")
    return LeviSubsystem(
        root_system_from_json(obj["rootsystem"]),
        [_as_int(i, "member index") for i in _as_list(obj["members"], "members")],
    )


def filtration_to_json(filt: LeviFiltration) -> dict:
    return {
        "rootsystem": root_system_to_json(filt.system),
        "levels": [sorted(level) for level in filt.levels],
    }


def filtration_from_json(data: object) -> LeviFiltration:
    obj = _as_object(data, ("rootsystem", "levels"), "Levi filtration")
    system = root_system_from_json(obj["rootsystem"])
    levels = [
        [_as_int(i, "level member") for i in _as_list(level, "level")]
        for level in _as_list(obj["levels"], "levels")
    ]
    return LeviFiltration(system, levels)


def stratum_to_json(stratum: StratumDescriptor) -> dict:
    """Light schema: the order list plus levels as root-index lists.

    The root system is context; readers must supply it.
    """
    return {
        "d": list(stratum.orders.orders),
        "levels": [sorted(level) for level in stratum.filtration.levels],
    }


def stratum_from_json(system: RootSystem, p: int, data: object) -> StratumDescriptor:
    obj = _as_object(data, ("d", "levels"), "stratum")
    orders = [_as_int(d, "order") for d in _as_list(obj["d"], "order list")]
    built = StratumDescriptor.from_orders(system, p, orders)
    declared = tuple(
        frozenset(_as_int(i, "level member") for i in _as_list(level, "level"))
        for level in _as_list(obj["levels"], "levels")
    )
    if declared != built.filtration.levels:
        raise MalformedInput("stratum levels disagree with the order vector")
    return built


def pair_to_json(pair: Tuple[IrregularType, IrregularTypeAtInfinity]) -> dict:
    at0, atinf = pair
    return {"at0": irregular_type_to_json(at0), "atinf": atinf_to_json(atinf)}


def pair_from_json(data: object) -> Tuple[IrregularType, IrregularTypeAtInfinity]:
    obj = _as_object(data, ("at0", "atinf"), "type pair")
    return irregular_type_from_json(obj["at0"]), atinf_from_json(obj["atinf"])


def g1_to_json(g: AffineG1) -> dict:
    return {"s": scalar_to_json(g.s), "r": scalar_to_json(g.r)}


def g1_from_json(data: object) -> AffineG1:
    obj = _as_object(data, ("s", "r"), "affine substitution")
    return AffineG1(scalar_from_json(obj["s"]), scalar_from_json(obj["r"]))


def g2_to_json(g: TorusG2) -> dict:
    return {"r": scalar_to_json(g.r)}


def g2_from_json(data: object) -> TorusG2:
    obj = _as_object(data, ("r",), "torus element")
    return TorusG2(scalar_from_json(obj["r"]))


def sl2z_to_json(g: SL2ZElement) -> list:
    return [g.a, g.b, g.c, g.d]


def sl2z_from_json(data: object) -> SL2ZElement:
    arr = _as_list(data, "integral matrix")
    if len(arr) != 4:
        raise MalformedInput("integral matrix must list four entries")
    a, b, c, d = (_as_int(x, "matrix entry") for x in arr)
    return SL2ZElement(a, b, c, d)


def upper_half_to_json(point: UpperHalfPoint) -> dict:
    return {"tau": scalar_to_json(point.tau)}


def upper_half_from_json(data: object) -> UpperHalfPoint:
    obj = _as_object(data, ("tau",), "upper half-plane point")
    return UpperHalfPoint(scalar_from_json(obj["tau"]))
