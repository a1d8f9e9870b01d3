"""Root system realizations and Levi subsystem combinatorics.

The enumeration is cross-checked against a brute-force oracle that
closes every subset of roots under rational spans using its own
elimination code.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from irrtypes import (
    LeviFiltration,
    LeviSubsystem,
    MalformedInput,
    RootSystem,
    TooLarge,
    Unsupported,
    build_root_system,
    enumerate_levi,
    span_closure,
)


def _oracle_rank(vectors):
    """Row rank by plain fraction elimination, independent of the library."""
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _oracle_closure(system, subset):
    """Roots whose addition does not raise the rank of the subset."""
    chosen = [system.roots[i] for i in subset]
    if not chosen:
        return frozenset()
    base = _oracle_rank(chosen)
    return frozenset(
        i
        for i, root in enumerate(system.roots)
        if _oracle_rank(chosen + [root]) == base
    )


def _oracle_levi_sets(system):
    """All span-closed subsets by brute force over generator subsets."""
    out = {frozenset()}
    n = len(system)
    for size in range(1, system.rank + 1):
        for subset in combinations(range(n), size):
            out.add(_oracle_closure(system, subset))
    return out


class TestRealizations:
    def test_a1(self):
        system = build_root_system("A", 1)
        assert system.rank == 2
        assert set(system.roots) == {(Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1))}

    def test_a2_count_and_negation(self):
        system = build_root_system("A", 2)
        assert len(system) == 6
        for i in range(len(system)):
            j = system.negation_index(i)
            assert tuple(-x for x in system.roots[i]) == system.roots[j]

    @pytest.mark.parametrize(
        "family,rank,count",
        [("A", 1, 2), ("A", 2, 6), ("A", 3, 12), ("B", 2, 8), ("C", 2, 8), ("D", 2, 4), ("B", 3, 18), ("G", 2, 12)],
    )
    def test_root_counts(self, family, rank, count):
        assert len(build_root_system(family, rank)) == count

    def test_g2_has_two_lengths(self):
        system = build_root_system("G", 2)
        lengths = {sum(x * x for x in root) for root in system.roots}
        assert len(lengths) == 2

    def test_unsupported(self):
        with pytest.raises(Unsupported):
            build_root_system("E", 8)
        with pytest.raises(Unsupported):
            build_root_system("D", 1)

    def test_constructor_rejects_unpaired(self):
        with pytest.raises(MalformedInput):
            RootSystem(1, [(Fraction(1),)])

    def test_constructor_rejects_zero(self):
        with pytest.raises(MalformedInput):
            RootSystem(1, [(Fraction(0),)])

    def test_nonspanning_system_allowed(self):
        system = RootSystem(3, [(Fraction(1), Fraction(0), Fraction(0)), (Fraction(-1), Fraction(0), Fraction(0))])
        assert system.semisimple_rank() == 1


class TestClosure:
    def test_closure_adds_spanned_root(self):
        system = build_root_system("A", 2)
        # two independent roots span everything in rank 2
        pair = [i for i in range(6) if system.roots[i][0] == 1][:2]
        closed = span_closure(system, pair)
        assert len(closed) == 6

    def test_closure_against_oracle(self):
        for family, rank in [("A", 2), ("B", 2), ("G", 2), ("D", 2)]:
            system = build_root_system(family, rank)
            for size in (1, 2):
                for subset in combinations(range(len(system)), size):
                    assert span_closure(system, subset) == _oracle_closure(system, subset)

    def test_out_of_range(self):
        with pytest.raises(MalformedInput):
            span_closure(build_root_system("A", 1), [7])


class TestEnumeration:
    @pytest.mark.parametrize(
        "family,rank,count",
        [("A", 1, 2), ("A", 2, 5), ("B", 2, 6), ("G", 2, 8), ("D", 2, 4), ("B", 3, 24)]
        # A_n: Bell numbers B(n+1), the set partitions of n+1 coordinates.
        + [("A", 3, 15), ("A", 4, 52), ("A", 5, 203), ("C", 3, 24), ("D", 4, 72)],
    )
    def test_counts(self, family, rank, count):
        assert len(enumerate_levi(build_root_system(family, rank))) == count

    @pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("D", 2), ("B", 3)])
    def test_matches_brute_force(self, family, rank):
        system = build_root_system(family, rank)
        got = {levi.members for levi in enumerate_levi(system)}
        assert got == _oracle_levi_sets(system)

    def test_deterministic_order(self):
        system = build_root_system("B", 2)
        first = [levi.sorted_members() for levi in enumerate_levi(system)]
        second = [levi.sorted_members() for levi in enumerate_levi(system)]
        assert first == second
        assert first == sorted(first, key=lambda m: (len(m), m))

    def test_guard(self):
        with pytest.raises(TooLarge):
            enumerate_levi(build_root_system("A", 8))

    @pytest.mark.parametrize("family,rank", [("B", 3), ("G", 2)])
    def test_permuted_roots_ordered_like_oracle(self, family, rank):
        base = build_root_system(family, rank)
        roots = list(base.roots)
        random.Random(7).shuffle(roots)
        system = RootSystem(base.rank, roots, family=f"{family}{rank}perm")
        got = [levi.sorted_members() for levi in enumerate_levi(system)]
        expected = sorted(
            (tuple(sorted(s)) for s in _oracle_levi_sets(system)),
            key=lambda m: (len(m), m),
        )
        assert got == expected


class TestFlatMemo:
    """Closures remembered by enumeration never weaken validation."""

    @pytest.fixture
    def filled(self):
        system = build_root_system("B", 3)
        return system, enumerate_levi(system)

    def test_out_of_range_still_raises(self, filled):
        system, _ = filled
        with pytest.raises(MalformedInput):
            span_closure(system, [0, len(system)])
        with pytest.raises(MalformedInput):
            span_closure(system, [-1])

    def test_non_closed_sets_still_rejected(self, filled):
        system, levis = filled
        line = next(levi.members for levi in levis if len(levi) == 2)
        partial = {min(line)}
        with pytest.raises(MalformedInput):
            LeviSubsystem(system, partial)
        with pytest.raises(MalformedInput):
            LeviFiltration(system, [set(), partial, set(range(len(system)))])

    def test_known_flats_pass_unchanged(self, filled):
        system, levis = filled
        for levi in levis:
            assert span_closure(system, levi.members) == levi.members
            assert span_closure(system, sorted(levi.members)) == levi.members

    def test_memo_bounded_by_flat_count(self, filled):
        system, levis = filled
        rng = random.Random(3)
        for _ in range(150):
            subset = rng.sample(range(len(system)), rng.randint(0, len(system)))
            assert span_closure(system, subset) == _oracle_closure(system, subset)
        assert len(system._flats) <= len(levis)


class TestFiltration:
    def test_nesting_enforced(self):
        system = build_root_system("A", 1)
        with pytest.raises(MalformedInput):
            LeviFiltration(system, [{0, 1}, set()])

    def test_levels_must_be_closed(self):
        system = build_root_system("A", 2)
        with pytest.raises(MalformedInput):
            LeviFiltration(system, [{0}])

    def test_valid_chain(self):
        system = build_root_system("A", 1)
        filt = LeviFiltration(system, [set(), {0, 1}])
        assert filt.depth == 2

    def test_subsystem_validation(self):
        system = build_root_system("A", 2)
        with pytest.raises(MalformedInput):
            LeviSubsystem(system, {0})
