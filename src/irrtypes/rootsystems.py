"""Rational root system realizations and Levi combinatorics.

A root system here is a concrete finite set of nonzero rational vectors
in an ambient space Q^rank, closed under negation.  The ambient space
plays the role of a Cartan algebra of a reductive group, so the roots
need not span: the orthogonal complement of their span consists of
central directions.  Builders provide the classical families in their
standard integral realizations.

A Levi subsystem is a subset of the form (rational span of the subset)
intersected with the whole system; a Levi filtration is a nested chain
of those.  These index the strata of irregular-type spaces.

Spans, ranks and kernels are read off the library's one elimination,
``scalars._gi_rref``, run on each root's positive multiple that is a
primitive integer row: the same spans, and negation pairs kept.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from .errors import MalformedInput, TooLarge, Unsupported
from .scalars import (
    GInt,
    IMatrix,
    _as_int,
    _as_list,
    _as_object,
    _as_str,
    _bare,
    _gi_rref,
    rat_from_str,
    rat_to_str,
)

RootVector = Tuple[Fraction, ...]

ENUMERATION_GUARD = 60
# Most flats one walk of the flat lattice may find.  The walk goes rank by
# rank, so a larger lattice is refused while its closures are still small:
# 30 orthogonal root pairs (2^30 flats, within the root guard) are refused
# after about 1.5 s on a 2-vCPU machine.  B5 (648 flats) and A6 (877) are
# answered; D6 (2,546) and A7 (4,140) are refused.
FLAT_BUDGET = 1000


class RootSystem:
    """Ordered list of rational roots in a fixed ambient Q^rank.

    Parameters
    ----------
    rank:
        Ambient coordinate dimension (may exceed the span of the roots).
    roots:
        Root vectors; must be nonzero, duplicate-free, and closed under
        negation.  The given order is kept and is the index convention
        for every downstream order vector.
    family:
        Optional label such as ``"A2"`` recording which builder made it.
    """

    __slots__ = ("rank", "roots", "family", "_index", "_negation", "_rows")

    def __init__(self, rank: int, roots: Iterable[Sequence], family: str | None = None):
        if rank < 1:
            raise MalformedInput("ambient rank must be positive")
        vecs: List[RootVector] = []
        for root in roots:
            vec = tuple(Fraction(x) for x in root)
            if len(vec) != rank:
                raise MalformedInput("root length differs from the ambient rank")
            if not any(vec):
                raise MalformedInput("zero vector is not a root")
            vecs.append(vec)
        index = {}
        for i, vec in enumerate(vecs):
            if vec in index:
                raise MalformedInput(f"duplicate root {vec}")
            index[vec] = i
        negation = []
        for vec in vecs:
            neg = tuple(-x for x in vec)
            if neg not in index:
                raise MalformedInput(f"root set not closed under negation at {vec}")
            negation.append(index[neg])
        self.rank = rank
        self.roots = tuple(vecs)
        self.family = family
        self._index = index
        self._negation = tuple(negation)
        self._rows = tuple(_integer_row(vec) for vec in vecs)

    def __len__(self) -> int:
        return len(self.roots)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RootSystem)
            and self.rank == other.rank
            and self.roots == other.roots
            and self.family == other.family
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.roots))

    def __repr__(self) -> str:
        label = self.family or f"{len(self.roots)} roots"
        return f"RootSystem({label}, rank={self.rank})"

    def negation_index(self, index: int) -> int:
        return self._negation[index]

    def index_of(self, vector: Sequence) -> int:
        vec = tuple(Fraction(x) for x in vector)
        if vec not in self._index:
            raise MalformedInput(f"{vec} is not a root of this system")
        return self._index[vec]

    def semisimple_rank(self) -> int:
        return len(_echelon(self, range(len(self)))[1])


def _integer_row(vec: RootVector) -> Tuple[GInt, ...]:
    """``vec`` times a positive rational: a primitive integer row, as (x, 0) pairs."""
    scale = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (scale // x.denominator) for x in vec]
    g = gcd(*ints)
    return tuple((x // g, 0) for x in ints)


def _echelon(system: RootSystem, members: Iterable[int]) -> Tuple[IMatrix, List[int], int]:
    """Pivot rows, pivot columns and p of the chosen roots' fraction-free RREF.

    Row j has p at pivot column j and 0 at the others; entries are (x, 0) pairs.
    """
    rows, pivots, p = _gi_rref([system._rows[i] for i in sorted(members)], system.rank)
    return rows[: len(pivots)], pivots, p[0]


def _in_span(v: Sequence[GInt], rows: IMatrix, pivots: List[int], free: List[int], p: int) -> bool:
    """Whether the nonzero row v lies in the span of an ``_echelon``: p v = sum_j v[pivot_j] r_j.

    The pivot columns agree by construction, so only the free ones are
    compared; a v that is zero at every pivot column is not in the span.
    """
    terms = [(v[b][0], r) for b, r in zip(pivots, rows) if v[b][0]]
    return bool(terms) and all(p * v[c][0] == sum(a * r[c][0] for a, r in terms) for c in free)


def root_count(family: str, rank: int) -> int:
    """Number of roots ``build_root_system(family, rank)`` would build.

    Closed form, without building anything; raises ``Unsupported``
    exactly where the builder does.
    """
    fam = family.upper()
    if fam == "A":
        if rank < 1:
            raise Unsupported("family A needs rank >= 1")
        return rank * (rank + 1)
    if fam in ("B", "C", "D"):
        if rank < 2:
            raise Unsupported(f"family {fam} needs rank >= 2")
        return 2 * rank * (rank - 1) if fam == "D" else 2 * rank * rank
    if fam == "G":
        if rank != 2:
            raise Unsupported("family G exists only in rank 2")
        return 12
    raise Unsupported(f"unknown family {family!r}")


def flat_count(family: str, rank: int) -> int:
    """Number of flats ``enumerate_levi`` finds on ``build_root_system(family, rank)``.

    Closed form: the Bell number B(n + 1) for A_n.  A flat of B_n or C_n
    zeroes j coordinates and splits the rest into signed blocks, T(m) =
    sum_k S(m, k) 2^(m - k) ways (S: Stirling numbers of the second kind),
    so sum_j C(n, j) T(n - j); D_n has no flat with j = 1; G2 has 8.
    Raises ``Unsupported`` where the builder does; costs O(rank^2).
    """
    root_count(family, rank)
    fam = family.upper()
    if fam == "G":
        return 8
    stirling = [[1]]
    for m in range(1, rank + 2):
        prev = stirling[-1] + [0]
        stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, m + 1)])
    if fam == "A":
        return sum(stirling[rank + 1])
    signed = [sum(s << (m - k) for k, s in enumerate(stirling[m])) for m in range(rank + 1)]
    return sum(comb(rank, j) * signed[rank - j] for j in range(rank + 1) if not (fam == "D" and j == 1))


def check_enumeration_guard(roots: int) -> None:
    """Refuse, before any flat is computed, a system ``enumerate_levi`` would refuse."""
    if roots > ENUMERATION_GUARD:
        raise TooLarge(f"root system has {roots} roots; guard is {ENUMERATION_GUARD}")


def build_root_system(family: str, rank: int) -> RootSystem:
    """Standard integral realization of a classical family.

    ``A`` lives in Q^{rank+1} with roots e_i - e_j; ``B``, ``C``, ``D``
    live in Q^rank; ``G`` (rank 2) lives in the sum-zero integral plane
    of Q^3.  Anything else raises ``Unsupported``.
    """
    fam = family.upper()
    root_count(family, rank)  # raises Unsupported for anything but A, B, C, D and G2
    roots: List[Tuple[int, ...]] = []
    if fam == "A":
        dim = rank + 1
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    vec = [0] * dim
                    vec[i], vec[j] = 1, -1
                    roots.append(tuple(vec))
        ambient = dim
    elif fam in ("B", "C", "D"):
        ambient = rank
        for i, j in combinations(range(rank), 2):
            for si in (1, -1):
                for sj in (1, -1):
                    vec = [0] * rank
                    vec[i], vec[j] = si, sj
                    roots.append(tuple(vec))
        if fam != "D":
            scale = 2 if fam == "C" else 1
            for i in range(rank):
                for s in (1, -1):
                    vec = [0] * rank
                    vec[i] = s * scale
                    roots.append(tuple(vec))
    else:
        ambient = 3
        short = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
        long = [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
        for vec in short + long:
            roots.append(vec)
            roots.append(tuple(-x for x in vec))
    ordered = sorted(roots)
    return RootSystem(ambient, ordered, family=f"{fam}{rank}")


def span_closure(system: RootSystem, members: Iterable[int]) -> FrozenSet[int]:
    """Indices of all roots inside the rational span of the given ones."""
    chosen = frozenset(members)
    for i in sorted(chosen):
        if not 0 <= i < len(system):
            raise MalformedInput(f"root index {i} out of range")
    return _closure(system, chosen, *_echelon(system, chosen))


def _closure(system: RootSystem, chosen: frozenset, rows: IMatrix, pivots: List[int], p: int) -> frozenset:
    """``chosen`` and every other root in the span of its ``_echelon``, ``rows, pivots, p``."""
    free = [c for c in range(system.rank) if c not in pivots]
    return chosen | frozenset(
        i for i, v in enumerate(system._rows) if i not in chosen and _in_span(v, rows, pivots, free, p)
    )


class LeviSubsystem:
    """Span-closed subset of a root system."""

    __slots__ = ("system", "members")

    def __init__(self, system: RootSystem, members: Iterable[int]):
        mem = frozenset(members)
        if span_closure(system, mem) != mem:
            raise MalformedInput("member set is not closed under rational spans")
        self.system = system
        self.members = mem

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LeviSubsystem)
            and self.system == other.system
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.system, self.members))

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> Tuple[int, ...]:
        return tuple(sorted(self.members))

    def __repr__(self) -> str:
        return f"LeviSubsystem({sorted(self.members)})"


class LeviFiltration:
    """Nested chain of span-closed subsets, one level per pole order.

    ``levels[i]`` holds the roots whose evaluation has vanished from
    pole order i+1 upward; the chain may repeat and may reach the full
    system before the last level.
    """

    __slots__ = ("system", "levels")

    def __init__(self, system: RootSystem, levels: Sequence[Iterable[int]]):
        frozen = [frozenset(level) for level in levels]
        for earlier, later in zip(frozen, frozen[1:]):
            if not earlier <= later:
                raise MalformedInput("filtration levels must be nested")
        for level in dict.fromkeys(frozen):
            if span_closure(system, level) != level:
                raise MalformedInput("every filtration level must be span-closed")
        self.system = system
        self.levels = tuple(frozen)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LeviFiltration)
            and self.system == other.system
            and self.levels == other.levels
        )

    def __hash__(self) -> int:
        return hash((self.system, self.levels))

    def __repr__(self) -> str:
        return f"LeviFiltration({[sorted(level) for level in self.levels]})"


def enumerate_levi(system: RootSystem) -> List[LeviSubsystem]:
    """All Levi subsystems, ordered by cardinality then member list.

    Walks the flat lattice upward from the empty flat, rank by rank.  The
    lattice is geometric, so for a flat F and a root i outside it the
    closure of F + {i} is a flat covering F, and every flat covers a
    smaller one.  A root already inside a cover of F found while scanning
    F would only give that cover again, so it is skipped: each flat costs
    one closure per cover rather than one per root outside it.  A closure
    is a flat, so each is wrapped as a Levi subsystem, not checked again.
    Raises ``TooLarge`` on finding more than ``FLAT_BUDGET`` flats.
    """
    check_enumeration_guard(len(system))
    seen = {frozenset()}
    frontier = deque([frozenset()])
    while frontier:
        base = frontier.popleft()
        covered = set(base)
        for i in range(len(system)):
            if i in covered:
                continue
            cover = span_closure(system, base | {i})
            covered |= cover
            if cover not in seen:
                if len(seen) == FLAT_BUDGET:
                    raise TooLarge(f"root system has more than {FLAT_BUDGET} flats")
                seen.add(cover)
                frontier.append(cover)
    ordered = sorted(seen, key=lambda s: (len(s), tuple(sorted(s))))
    return [_bare(LeviSubsystem, system=system, members=members) for members in ordered]


def kernel_intersection_dim(system: RootSystem, members: Iterable[int]) -> int:
    """Dimension of the joint kernel of the chosen roots inside Q^rank."""
    return system.rank - len(_echelon(system, set(members))[1])


def kernel_lattice_basis(system: RootSystem, members: Iterable[int]) -> List[List[Fraction]]:
    """Primitive integer basis of the joint kernel, deterministic: for each
    free column f, p at f and -r_j[f] at pivot column j, over its content,
    with its first nonzero entry positive."""
    return [[Fraction(x) for x in v] for v in _kernel_basis(system, *_echelon(system, set(members)))]


def _kernel_basis(system: RootSystem, rows: IMatrix, pivots: List[int], p: int) -> List[List[int]]:
    """``kernel_lattice_basis`` read off an ``_echelon``, in integers."""
    basis = []
    for f in range(system.rank):
        if f in pivots:
            continue
        v = [0] * system.rank
        v[f] = p
        for r, c in zip(rows, pivots):
            v[c] = -r[f][0]
        g = gcd(*v)
        if next(x for x in v if x) < 0:
            g = -g
        basis.append([x // g for x in v])
    return basis


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
