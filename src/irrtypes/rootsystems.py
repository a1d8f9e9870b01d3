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
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from .errors import MalformedInput, TooLarge, Unsupported
from .linalg import clear_denominators, in_row_span, kernel_basis, mat_rank, rref

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

    __slots__ = ("rank", "roots", "family", "_index", "_negation", "_flats")

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
        # Span-closed member sets already produced by ``span_closure``.
        self._flats: Set[FrozenSet[int]] = set()

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
        return mat_rank([list(r) for r in self.roots])


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
    """Indices of all roots inside the rational span of the given ones.

    Every result is a flat of the system and is remembered on it, so
    asking again for a known flat is a set lookup.  Such a set passed the
    index check when its first closure was computed; any other input has
    its indices checked before elimination.  Only results are stored,
    never the sets asked about, so the memo holds at most one entry per
    flat.
    """
    chosen = frozenset(members)
    if chosen in system._flats:
        return chosen
    for i in sorted(chosen):
        if not 0 <= i < len(system):
            raise MalformedInput(f"root index {i} out of range")
    closed = chosen
    if chosen:
        echelon = rref([list(system.roots[i]) for i in sorted(chosen)])
        closed = chosen | frozenset(
            i
            for i, root in enumerate(system.roots)
            if i not in chosen and in_row_span(echelon, list(root))
        )
    system._flats.add(closed)
    return closed


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
        for level in frozen:
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
    one closure per cover rather than one per root outside it.  Raises
    ``TooLarge`` on finding more than ``FLAT_BUDGET`` flats.
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
    return [LeviSubsystem(system, members) for members in ordered]


def kernel_intersection_dim(system: RootSystem, members: Iterable[int]) -> int:
    """Dimension of the joint kernel of the chosen roots inside Q^rank."""
    chosen = sorted(set(members))
    if not chosen:
        return system.rank
    return system.rank - mat_rank([list(system.roots[i]) for i in chosen])


def kernel_lattice_basis(system: RootSystem, members: Iterable[int]) -> List[List[Fraction]]:
    """Primitive integer basis of the joint kernel, deterministic."""
    chosen = sorted(set(members))
    rows = [list(system.roots[i]) for i in chosen]
    basis = kernel_basis(rows, system.rank, Fraction(1), Fraction(0))
    return [clear_denominators(v) for v in basis]
