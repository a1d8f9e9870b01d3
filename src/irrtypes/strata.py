"""Stratification of irregular-type space by root order vectors.

A candidate order vector d is relevant (labels a non-empty stratum)
exactly when it is symmetric under root negation and each sublevel set
{alpha : d_alpha < i} is span-closed; relevant vectors correspond one
to one with nested chains of Levi subsystems of length p.  The stratum
is a product of hyperplane-complement slices inside kernel
intersections, which gives its dimension and an explicit witness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from typing import List, Sequence, Tuple

from .errors import MalformedInput, NotRelevant, OutOfRange, SearchExhausted, ShapeMismatch, TooLarge
from .irregular import IrregularType, RootOrderVector, root_order_vector, sublevel_sets
from .rootsystems import (
    LeviFiltration,
    LeviSubsystem,
    RootSystem,
    enumerate_levi,
    kernel_intersection_dim,
    kernel_lattice_basis,
    span_closure,
)
from .scalars import _as_int, _as_list, _as_object

WITNESS_HEIGHT_CAP = 64
# Largest pole bound an order vector or an enumeration may carry: every
# path through ``_order_tuple`` builds p sublevel sets, and the witness
# search runs one kernel search per level.  p = 1024 on B3 takes about 1 s
# for a dimension and 2 s for a witness on a 2-vCPU machine.
POLE_BOUND_BUDGET = 1024
# Most strata one enumeration may list.  On the 12-24 root systems at
# p <= 16 a stratum costs 76-140 us to build and encode (2-vCPU machine),
# so the budget is about 3 s there: A3 has 14,025 strata at p = 16
# (1.3 s) and 202,581 at p = 40.
STRATA_BUDGET = 20_000
# Largest p x rank^2 a witness may cost: each of the p levels builds a
# kernel basis of up to rank vectors of rank entries, and the witness
# lists p vectors of rank entries.  B3 at p = 1024 costs 9,216; a root
# system of rank 1,000 at p = 1 (10^6, 1.5 s on a 2-vCPU machine) is refused.
WITNESS_BUDGET = 1 << 16


def _check_pole_bound(p: int) -> None:
    if p > POLE_BOUND_BUDGET:
        raise TooLarge(f"pole bound {p} exceeds the budget of {POLE_BOUND_BUDGET}")


def _order_tuple(system: RootSystem, p: int, orders: Sequence[int] | RootOrderVector) -> Tuple[int, ...]:
    _check_pole_bound(p)
    if isinstance(orders, RootOrderVector):
        if orders.rootsystem != system or orders.p != p:
            raise ShapeMismatch("order vector belongs to different data")
        return orders.orders
    tup = tuple(int(d) for d in orders)
    if len(tup) != len(system):
        raise ShapeMismatch("order vector length differs from the root count")
    for d in tup:
        if d < 0 or d > p:
            raise OutOfRange(f"order {d} outside 0..{p}")
    return tup


def is_relevant(system: RootSystem, p: int, orders: Sequence[int] | RootOrderVector) -> bool:
    """Whether the order vector labels a non-empty stratum."""
    tup = _order_tuple(system, p, orders)
    for i, d in enumerate(tup):
        if tup[system.negation_index(i)] != d:
            return False
    for level in sublevel_sets(system, p, tup):
        if span_closure(system, level) != level:
            return False
    return True


def dvector_to_filtration(
    system: RootSystem, p: int, orders: Sequence[int] | RootOrderVector
) -> LeviFiltration:
    tup = _order_tuple(system, p, orders)
    if not is_relevant(system, p, tup):
        raise NotRelevant("order vector does not label a stratum")
    return LeviFiltration(system, sublevel_sets(system, p, tup))


def filtration_to_dvector(filtration: LeviFiltration) -> RootOrderVector:
    """Inverse of ``dvector_to_filtration``: count the missing levels."""
    system = filtration.system
    p = filtration.depth
    orders = [
        sum(1 for level in filtration.levels if i not in level)
        for i in range(len(system))
    ]
    return RootOrderVector(system, p, orders)


class StratumDescriptor:
    """Order vector together with its Levi filtration, kept consistent."""

    __slots__ = ("rootsystem", "p", "orders", "filtration")

    def __init__(self, orders: RootOrderVector, filtration: LeviFiltration):
        if filtration.system != orders.rootsystem or filtration.depth != orders.p:
            raise ShapeMismatch("order vector and filtration disagree on parent data")
        if filtration_to_dvector(filtration) != orders:
            raise ShapeMismatch("order vector and filtration are inconsistent")
        self.rootsystem = orders.rootsystem
        self.p = orders.p
        self.orders = orders
        self.filtration = filtration

    @staticmethod
    def from_orders(system: RootSystem, p: int, orders: Sequence[int]) -> "StratumDescriptor":
        vec = RootOrderVector(system, p, _order_tuple(system, p, orders))
        return StratumDescriptor(vec, dvector_to_filtration(system, p, vec))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StratumDescriptor)
            and self.orders == other.orders
            and self.filtration == other.filtration
        )

    def __hash__(self) -> int:
        return hash((self.orders, self.filtration))

    def __repr__(self) -> str:
        return f"StratumDescriptor(d={list(self.orders.orders)}, p={self.p})"


def _count_chains(levis: Sequence[LeviSubsystem], p: int) -> int:
    """Number of chains L_1 <= .. <= L_p of Levi subsystems, none listed.

    A chain with k distinct members is a strict chain of k Levis spread
    over p positions, which can be done in C(p - 1, k - 1) ways.  The
    strict chains are counted by their top member; ``levis`` is sorted by
    size, so every proper subsystem of a Levi comes before it.
    """
    if p == 0:
        return 1
    members = [levi.members for levi in levis]
    below = [[j for j in range(i) if members[j] < top] for i, top in enumerate(members)]
    ending = [1] * len(members)
    total = 0
    for k in range(1, p + 1):
        total += comb(p - 1, k - 1) * sum(ending)
        ending = [sum(ending[j] for j in lower) for lower in below]
        if not any(ending):
            break
    return total


def enumerate_strata(system: RootSystem, p: int) -> List[StratumDescriptor]:
    """All strata of pole bound p: nested Levi chains of length p.

    Deterministic: levels run through the canonical Levi order at every
    chain position.  p = 0 yields the single empty stratum.
    """
    if p < 0:
        raise OutOfRange("pole bound must be non-negative")
    _check_pole_bound(p)
    levis = enumerate_levi(system)
    count = _count_chains(levis, p)
    if count > STRATA_BUDGET:
        raise TooLarge(f"pole bound {p} gives {count} strata; budget is {STRATA_BUDGET}")
    out = []
    for chain in _chains(levis, p):
        filtration = LeviFiltration(system, chain)
        out.append(StratumDescriptor(filtration_to_dvector(filtration), filtration))
    return out


def _chains(levis: Sequence[LeviSubsystem], p: int) -> List[List[frozenset]]:
    """Every chain L_1 <= .. <= L_p of Levi member sets, lexicographic in
    Levi index position by position.

    Depth first over one shared prefix, so a chain is copied once, when
    it is complete, and not at every position it passes through.  A
    chain that reaches a Levi no other contains (the whole system) stays
    there, so its tail is written at once.
    """
    if p == 0:
        return [[]]
    members = [levi.members for levi in levis]
    above = [[j for j, top in enumerate(members) if low <= top] for low in members]
    chains: List[List[frozenset]] = []
    prefix: List[frozenset] = []
    # pending[d] iterates over the candidates for position d + 1
    pending = [iter(range(len(members)))]
    while pending:
        j = next(pending[-1], None)
        if j is None:
            pending.pop()
            if prefix:
                prefix.pop()
        elif len(prefix) + 1 == p or len(above[j]) == 1:
            chains.append(prefix + [members[j]] * (p - len(prefix)))
        else:
            prefix.append(members[j])
            pending.append(iter(above[j]))
    return chains


def stratum_dimension(system: RootSystem, p: int, orders: Sequence[int] | RootOrderVector) -> int:
    """Sum over levels of the dimension of the level's joint kernel."""
    tup = _order_tuple(system, p, orders)
    if not is_relevant(system, p, tup):
        raise NotRelevant("order vector does not label a stratum")
    return sum(
        kernel_intersection_dim(system, level)
        for level in sublevel_sets(system, p, tup)
    )


def _search_off_hyperplanes(
    basis: List[List[Fraction]], avoid: List[Sequence[Fraction]], dim: int
) -> List[Fraction]:
    """Smallest-height integer combination avoiding every listed kernel.

    Height is the maximum absolute coordinate of the combination; ties
    break lexicographically over the coefficient tuples.  The zero
    combination is admissible when there is nothing to avoid.
    """
    t = len(basis)

    def pairing(root, vec):
        return sum((a * b for a, b in zip(root, vec)), Fraction(0))

    for height in range(WITNESS_HEIGHT_CAP + 1):
        for coeffs in product(range(-height, height + 1), repeat=t):
            if coeffs and max(abs(c) for c in coeffs) != height:
                continue
            vec = [Fraction(0)] * dim
            for c, b in zip(coeffs, basis):
                if c:
                    vec = [x + c * y for x, y in zip(vec, b)]
            if all(pairing(root, vec) for root in avoid):
                return vec
        if t == 0:
            break
    raise SearchExhausted("no lattice vector clears the excluded hyperplanes")


def stratum_witness(system: RootSystem, p: int, orders: Sequence[int] | RootOrderVector) -> IrregularType:
    """Deterministic irregular type lying exactly on the stratum.

    Level by level: pick A_i in the joint kernel of the roots of order
    below i while avoiding the kernels of the roots of order exactly i.
    Relevance makes the search succeed; ``SearchExhausted`` is a bug
    guard, not an expected outcome.  ``TooLarge`` when p x rank^2 exceeds
    ``WITNESS_BUDGET``.
    """
    tup = _order_tuple(system, p, orders)
    if p * system.rank**2 > WITNESS_BUDGET:
        raise TooLarge(
            f"witness of pole bound {p} in rank {system.rank} exceeds the budget of {WITNESS_BUDGET}"
        )
    if not is_relevant(system, p, tup):
        raise NotRelevant("order vector does not label a stratum")
    vectors = []
    for i in range(1, p + 1):
        below = [a for a, d in enumerate(tup) if d < i]
        exact = [a for a, d in enumerate(tup) if d == i]
        basis = kernel_lattice_basis(system, below)
        choice = _search_off_hyperplanes(
            basis, [system.roots[a] for a in exact], system.rank
        )
        vectors.append(choice)
    witness = IrregularType(system, p, vectors)
    if root_order_vector(witness).orders != tup:
        raise SearchExhausted("witness search produced a point off the stratum")
    return witness


def closure_leq(first: RootOrderVector, second: RootOrderVector) -> bool:
    """Pointwise comparison d'_alpha <= d_alpha, same system and bound."""
    if first.rootsystem != second.rootsystem or first.p != second.p:
        raise ShapeMismatch("order vectors belong to different data")
    return all(a <= b for a, b in zip(first.orders, second.orders))


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
