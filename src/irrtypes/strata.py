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
from typing import List, Sequence, Tuple

from .errors import NotRelevant, OutOfRange, SearchExhausted, ShapeMismatch, TooLarge
from .irregular import IrregularType, RootOrderVector, root_order_vector, sublevel_sets
from .rootsystems import (
    LeviFiltration,
    RootSystem,
    enumerate_levi,
    kernel_intersection_dim,
    kernel_lattice_basis,
    span_closure,
)

WITNESS_HEIGHT_CAP = 64
# Largest pole bound an order vector may carry: every path through
# ``_order_tuple`` builds p sublevel sets, and the witness search runs one
# kernel search per level.  p = 1024 on B3 takes about 1 s for a
# dimension and 2 s for a witness on a 2-vCPU machine.
POLE_BOUND_BUDGET = 1024


def _order_tuple(system: RootSystem, p: int, orders: Sequence[int] | RootOrderVector) -> Tuple[int, ...]:
    if p > POLE_BOUND_BUDGET:
        raise TooLarge(f"pole bound {p} exceeds the budget of {POLE_BOUND_BUDGET}")
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


def enumerate_strata(system: RootSystem, p: int) -> List[StratumDescriptor]:
    """All strata of pole bound p: nested Levi chains of length p.

    Deterministic: levels run through the canonical Levi order at every
    chain position.  p = 0 yields the single empty stratum.
    """
    if p < 0:
        raise OutOfRange("pole bound must be non-negative")
    levis = enumerate_levi(system)
    chains: List[List[frozenset]] = [[]]
    for _ in range(p):
        extended = []
        for chain in chains:
            for levi in levis:
                if not chain or chain[-1] <= levi.members:
                    extended.append(chain + [levi.members])
        chains = extended
    out = []
    for chain in chains:
        filtration = LeviFiltration(system, chain)
        out.append(StratumDescriptor(filtration_to_dvector(filtration), filtration))
    return out


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
    guard, not an expected outcome.
    """
    tup = _order_tuple(system, p, orders)
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
