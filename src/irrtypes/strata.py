"""Stratification of irregular-type space by root order vectors.

A candidate order vector d is relevant (labels a non-empty stratum)
exactly when it is symmetric under root negation and each sublevel set
{alpha : d_alpha < i} is span-closed; relevant vectors correspond one
to one with nested chains of Levi subsystems of length p.  The stratum
is a product of hyperplane-complement slices inside kernel
intersections, which gives its dimension and an explicit witness.

Outside input is checked once, by public constructors, decoders and
``_levels``, the one relevance check; what the library computes from
checked parts (strata from Levi chains, the sublevel sets of a relevant
vector) is wrapped with ``scalars._bare``, not validated again.  That is
sound only because every value is an immutable ``scalars._Record``: an
order vector or a root system cannot change after its checks.

A stratum's levels are eliminated in one place, ``_levels``: one
``rootsystems._echelon`` per distinct level (at most rank + 1 of the p
levels are distinct), which the relevance check, the dimension and the
witness search all read.  A witness is checked before it is returned:
every root's order is recomputed from its integer row and the witness's
integer vectors by ``irregular._row_order``, the rule every order
question goes through.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import List, Sequence, Tuple

from .errors import MalformedInput, NotRelevant, OutOfRange, SearchExhausted, ShapeMismatch, TooLarge
from .irregular import IrregularType, RootOrderVector, _row_order, sublevel_sets
from .rootsystems import (
    LeviFiltration,
    LeviSubsystem,
    RootSystem,
    _closure,
    _echelon,
    _kernel_basis,
    _root_work,
    enumerate_levi,
)
from .scalars import _as_int, _as_list, _as_object, _bare, _Record, _set_fields, _Work

WITNESS_HEIGHT_CAP = 64
# Largest pole bound an order vector or an enumeration may carry: every
# path through ``_order_tuple`` builds p sublevel sets, and a witness runs
# one search per level, then pairs each root's integer row with up to p
# coefficients.  On B3 at p = 1024 a dimension takes 2 ms and a witness
# takes 0.03 s with every order 1 and 0.02 s with every order 1024, on a
# 2-vCPU machine.
POLE_BOUND_BUDGET = 1024
# Most strata one enumeration may list.  On the 12-24 root systems at
# p <= 16 a stratum costs 76-140 us to build and encode (2-vCPU machine),
# so the budget is about 3 s there: A3 has 14,025 strata at p = 16
# (1.3 s) and 202,581 at p = 40.
STRATA_BUDGET = 20_000
# Most entries the strata of one enumeration may list, counted with the
# strata before any is listed: per stratum, one order per root plus the
# members of its p levels.  An entry costs 0.3-1.2 us to build and encode
# (2-vCPU machine), so the budget is about 0.6-2.5 s: A1 at p = 1000 (1.0
# million entries, 1.2 s) and the 60 roots +-1..+-30 on one line at p = 256
# (2.0 million, 0.6 s) are answered; that line at p = 263, A2 at p = 80,
# B2 at p = 67 and G2 at p = 52 are the first refused.
STRATA_ENTRY_BUDGET = 1 << 21
# Largest p x rank^2 a witness may cost: each of the p levels reads a
# kernel basis of up to rank vectors of rank entries off its level's
# echelon, and the witness lists p vectors of rank entries.  B3 at p = 1024
# costs 9,216; a root system of rank 1,000 at p = 1 (10^6, 0.1 s on a
# 2-vCPU machine) is refused.
WITNESS_BUDGET = 1 << 16
# Most units the witness searches of one request may spend, summed over
# its levels.  A level with t kernel basis vectors and r root pairs to
# avoid spends t (1 + r) units on each coefficient tuple it enumerates; a
# unit takes 30-90 ns on a 2-vCPU machine.  Generic witnesses (every order
# 1) of A5, D5, B5 and A6 (15.9 million units, 0.45 s) are answered, and
# so is the pair +-(e1 - e2)'s in rank 13 (4.6 million, 0.43 s); A7's, at
# any p, is refused after 0.35 s, and that pair's in rank 256 after 0.7 s.
WITNESS_SEARCH_BUDGET = 1 << 24


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


def _levels(system: RootSystem, p: int, tup: Tuple[int, ...]) -> Tuple[List[frozenset], dict]:
    """Sublevel sets of an ``_order_tuple`` and the ``_echelon`` of each distinct one,
    all on one root work meter; ``NotRelevant`` unless it is symmetric under
    negation and each level span-closed."""
    levels = sublevel_sets(system, p, tup)
    echelons, work = {}, _root_work()
    if any(tup[system.negation_index(i)] != d for i, d in enumerate(tup)) or any(
        _closure(system, level, *echelons.setdefault(level, _echelon(system, level, work))) != level
        for level in dict.fromkeys(levels)
    ):
        raise NotRelevant("order vector does not label a stratum")
    return levels, echelons


def _orders_of(levels: Sequence[frozenset], count: int) -> Tuple[int, ...]:
    """Per root, the number of levels that miss it."""
    return tuple(sum(1 for level in levels if i not in level) for i in range(count))


def is_relevant(system: RootSystem, p: int, orders: Sequence[int] | RootOrderVector) -> bool:
    """Whether the order vector labels a non-empty stratum."""
    try:
        _levels(system, p, _order_tuple(system, p, orders))
    except NotRelevant:
        return False
    return True


def dvector_to_filtration(
    system: RootSystem, p: int, orders: Sequence[int] | RootOrderVector
) -> LeviFiltration:
    levels, _ = _levels(system, p, _order_tuple(system, p, orders))
    return _bare(LeviFiltration, system=system, levels=tuple(levels))


def filtration_to_dvector(filtration: LeviFiltration) -> RootOrderVector:
    """Inverse of ``dvector_to_filtration``: count the missing levels."""
    orders = _orders_of(filtration.levels, len(filtration.system))
    return _bare(RootOrderVector, rootsystem=filtration.system, p=filtration.depth, orders=orders)


class StratumDescriptor(_Record):
    """Order vector together with its Levi filtration, kept consistent."""

    __slots__ = ("rootsystem", "p", "orders", "filtration")
    __match_args__ = ("orders", "filtration")

    def __init__(self, orders: RootOrderVector, filtration: LeviFiltration):
        if filtration.system != orders.rootsystem or filtration.depth != orders.p:
            raise ShapeMismatch("order vector and filtration disagree on parent data")
        if filtration_to_dvector(filtration) != orders:
            raise ShapeMismatch("order vector and filtration are inconsistent")
        _set_fields(self, rootsystem=orders.rootsystem, p=orders.p, orders=orders, filtration=filtration)

    @staticmethod
    def from_orders(system: RootSystem, p: int, orders: Sequence[int]) -> "StratumDescriptor":
        vec = RootOrderVector(system, p, _order_tuple(system, p, orders))
        filtration = dvector_to_filtration(system, p, vec)
        return _bare(StratumDescriptor, rootsystem=system, p=p, orders=vec, filtration=filtration)

    def __repr__(self) -> str:
        return f"StratumDescriptor(d={list(self.orders.orders)}, p={self.p})"


def _count_chains(levis: Sequence[LeviSubsystem], p: int) -> Tuple[int, int]:
    """Number of chains L_1 <= .. <= L_p of Levi subsystems, and of the
    level members they list together, none listed.

    A chain with k distinct members is a strict chain M_1 < .. < M_k of
    Levis spread over p positions, which can be done in C(p - 1, k - 1)
    ways.  Over those spreadings each M_i fills p C(p - 1, k - 1) / k =
    C(p, k) positions, by symmetry, so the strict chain lists C(p, k)
    (|M_1| + .. + |M_k|) members.  The strict chains are counted by their
    top member; ``levis`` is sorted by size, so every proper subsystem of
    a Levi comes before it.
    """
    if p == 0:
        return 1, 0
    members = [levi.members for levi in levis]
    below = [[j for j in range(i) if members[j] < top] for i, top in enumerate(members)]
    # per top member, the strict chains of length k and their summed sizes
    ending = [1] * len(members)
    sizes = [len(top) for top in members]
    total = listed = 0
    for k in range(1, p + 1):
        total += comb(p - 1, k - 1) * sum(ending)
        listed += comb(p, k) * sum(sizes)
        ending = [sum(ending[j] for j in lower) for lower in below]
        sizes = [sum(sizes[j] for j in lower) + n * len(top) for lower, n, top in zip(below, ending, members)]
        if not any(ending):
            break
    return total, listed


def enumerate_strata(system: RootSystem, p: int) -> List[StratumDescriptor]:
    """All strata of pole bound p: nested Levi chains of length p.

    Deterministic: levels run through the canonical Levi order at every
    chain position.  p = 0 yields the single empty stratum.
    """
    if p < 0:
        raise OutOfRange("pole bound must be non-negative")
    _check_pole_bound(p)
    levis = enumerate_levi(system)
    count, listed = _count_chains(levis, p)
    if count > STRATA_BUDGET:
        raise TooLarge(f"pole bound {p} gives {count} strata; budget is {STRATA_BUDGET}")
    entries = count * len(system) + listed
    if entries > STRATA_ENTRY_BUDGET:
        raise TooLarge(f"pole bound {p} gives strata of {entries} entries; budget is {STRATA_ENTRY_BUDGET}")
    out = []
    for chain in _chains(levis, p):
        vec = _bare(RootOrderVector, rootsystem=system, p=p, orders=_orders_of(chain, len(system)))
        filtration = _bare(LeviFiltration, system=system, levels=tuple(chain))
        out.append(_bare(StratumDescriptor, rootsystem=system, p=p, orders=vec, filtration=filtration))
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
    levels, echelons = _levels(system, p, _order_tuple(system, p, orders))
    return sum(system.rank - len(echelons[level][1]) for level in levels)


def _search_off_hyperplanes(
    basis: List[List[int]], avoid: List[Sequence[int]], dim: int, work: _Work
) -> List[int]:
    """Smallest-height integer combination of ``basis`` off every hyperplane
    row . x = 0 of ``avoid``.

    Height is the maximum absolute coefficient; ties break lexicographically
    over the coefficient tuples.  The zero combination is admissible when
    there is nothing to avoid.  Each row is paired with the basis once, so
    tuples are tested in integers and only the one returned is summed.
    Every tuple enumerated, skipped lower-height ones included, costs
    t (1 + len(avoid)) units for t basis vectors, charged to ``work``
    before its test.
    """
    t = len(basis)
    pairings = [[sum(x * y for x, y in zip(row, b)) for b in basis] for row in avoid]
    cost = t * (1 + len(avoid))
    for height in range(WITNESS_HEIGHT_CAP + 1):
        for coeffs in product(range(-height, height + 1), repeat=t):
            work.charge(cost)
            if coeffs and max(abs(c) for c in coeffs) != height:
                continue
            if all(sum(c * w for c, w in zip(coeffs, ws)) for ws in pairings):
                return [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(dim)]
        if t == 0:
            break
    raise SearchExhausted("no lattice vector clears the excluded hyperplanes")


def stratum_witness(system: RootSystem, p: int, orders: Sequence[int] | RootOrderVector) -> IrregularType:
    """Deterministic irregular type lying exactly on the stratum.

    Level by level: pick A_i in the joint kernel of the roots of order
    below i while avoiding the kernels of the root pairs of order exactly i.
    Relevance makes the search succeed; ``SearchExhausted`` is a bug
    guard, not an expected outcome.  ``TooLarge`` when p x rank^2 exceeds
    ``WITNESS_BUDGET``, or the searches of all levels together exceed
    ``WITNESS_SEARCH_BUDGET``.
    """
    tup = _order_tuple(system, p, orders)
    if p * system.rank**2 > WITNESS_BUDGET:
        raise TooLarge(
            f"witness of pole bound {p} in rank {system.rank} exceeds the budget of {WITNESS_BUDGET}"
        )
    levels, echelons = _levels(system, p, tup)
    vectors = []
    work = _Work(WITNESS_SEARCH_BUDGET, f"witness search exceeds the budget of {WITNESS_SEARCH_BUDGET} units")
    for i, below in enumerate(levels, 1):
        avoid = [system._rows[a] for a, d in enumerate(tup) if d == i and a < system.negation_index(a)]
        basis = _kernel_basis(system, *echelons[below])
        vectors.append(_search_off_hyperplanes(basis, avoid, system.rank, work))
    if tuple(_row_order(row, [[v] for v in vectors]) for row in system._rows) != tup:
        raise SearchExhausted("witness search produced a point off the stratum")
    return IrregularType(system, p, vectors)


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
