"""Stratification by root orders: relevance, enumeration, dimension, witnesses."""

import io
import json
from fractions import Fraction
from itertools import product

import pytest
from fraction_oracles import point_counts

from irrtypes import (
    IrregularType,
    MalformedInput,
    NotRelevant,
    OutOfRange,
    RootOrderVector,
    RootSystem,
    SearchExhausted,
    ShapeMismatch,
    StratumDescriptor,
    TooLarge,
    build_root_system,
    closure_leq,
    dvector_to_filtration,
    enumerate_levi,
    enumerate_strata,
    filtration_to_dvector,
    is_relevant,
    root_order_vector,
    stratum_dimension,
    stratum_witness,
    sublevel_sets,
)
from irrtypes import rootsystems, strata
from irrtypes.cli import run
from irrtypes.irregular import irregular_type_to_json
from irrtypes.rootsystems import kernel_lattice_basis

A1 = RootSystem(1, [(Fraction(2),), (Fraction(-2),)], family="A1r1")
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
# On A2 at p = 1: negation maps root 0 to root 5, so this is asymmetric; and
# a vector killing only the pair +-(e1 - e2), whose sublevel set of four
# roots spans everything and so is not span-closed.
ASYMMETRIC = [1, 0, 0, 0, 0, 0]
NOT_CLOSED = [1 if root[2] == 0 else 0 for root in A2.roots]
ORDER_CHECKS = [dvector_to_filtration, stratum_dimension, stratum_witness, StratumDescriptor.from_orders]


class TestRelevance:
    def test_symmetric_and_closed_is_relevant(self):
        assert is_relevant(A1, 2, [2, 2])
        assert is_relevant(A1, 2, [0, 0])

    def test_non_closed_sublevel_fails(self):
        # orders 2,2,0,0,2,2 on A2 would need a span-closed set containing
        # exactly one pair of opposite roots spanning a second pair
        orders = [0] * 6
        for i, root in enumerate(A2.roots):
            if root[2] == 0:
                orders[i] = 0
            else:
                orders[i] = 1
        # kill e1-e2 only: the remaining four roots span everything,
        # so the sublevel set is not span-closed
        bad = [1 if d == 0 else 0 for d in orders]
        assert not is_relevant(A2, 1, bad)

    def test_asymmetric_rejected_via_vector(self):
        with pytest.raises(MalformedInput):
            RootOrderVector(A2, 1, ASYMMETRIC)
        # The descriptor builds its order vector first, so symmetry is a malformed input.
        with pytest.raises(MalformedInput, match="symmetric under negation"):
            StratumDescriptor.from_orders(A2, 1, ASYMMETRIC)
        assert is_relevant(A2, 1, ASYMMETRIC) is False
        for check in (dvector_to_filtration, stratum_dimension, stratum_witness):
            with pytest.raises(NotRelevant):
                check(A2, 1, ASYMMETRIC)

    @pytest.mark.parametrize("check", [is_relevant] + ORDER_CHECKS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "orders, error", [([2] * 6, OutOfRange), ([-1] * 6, OutOfRange), ([0] * 5, ShapeMismatch)]
    )
    def test_range_and_length_come_before_relevance(self, check, orders, error):
        with pytest.raises(error):
            check(A2, 1, orders)

    def test_sublevel_sets_shape(self):
        sets = sublevel_sets(A1, 3, [2, 2])
        assert sets == [frozenset(), frozenset(), frozenset({0, 1})]


class TestFiltrationBijection:
    def test_round_trip_a2(self):
        for s in enumerate_strata(A2, 2):
            filt = dvector_to_filtration(A2, 2, s.orders)
            back = filtration_to_dvector(filt)
            assert back == s.orders

    def test_irrelevant_rejected(self):
        for check in ORDER_CHECKS:
            with pytest.raises(NotRelevant):
                check(A2, 1, NOT_CLOSED)

    def test_descriptor_from_its_own_parts(self):
        for s in enumerate_strata(A2, 2):
            assert StratumDescriptor(s.orders, s.filtration) == s

    def test_descriptor_refuses_other_system_or_depth(self):
        stratum = enumerate_strata(A2, 2)[3]
        other_system = enumerate_strata(B2, 2)[3]
        other_depth = enumerate_strata(A2, 1)[3]
        for filtration in (other_system.filtration, other_depth.filtration):
            with pytest.raises(ShapeMismatch, match="disagree on parent data"):
                StratumDescriptor(stratum.orders, filtration)

    def test_descriptor_refuses_an_inconsistent_pair(self):
        first, second = enumerate_strata(A2, 2)[1:3]
        with pytest.raises(ShapeMismatch, match="inconsistent"):
            StratumDescriptor(first.orders, second.filtration)


class TestEnumeration:
    @pytest.mark.parametrize(
        "system,p,count",
        [(A1, 3, 4), (A2, 1, 5), (A2, 2, 12), (B2, 1, 6), (A1, 0, 1)],
    )
    def test_counts(self, system, p, count):
        assert len(enumerate_strata(system, p)) == count

    @pytest.mark.parametrize(
        "family,rank,p,count",
        [("A", 3, 8, 1989), ("A", 4, 3, 1304), ("D", 4, 3, 1960), ("G", 2, 5, None), ("B", 3, 2, None)],
    )
    def test_counts_against_chain_oracle(self, family, rank, p, count):
        """Chains L_1 <= .. <= L_p of flats, counted one position at a time."""
        system = build_root_system(family, rank)
        flats = [levi.members for levi in enumerate_levi(system)]
        ending = [1] * len(flats)
        for _ in range(p - 1):
            ending = [sum(c for low, c in zip(flats, ending) if low <= top) for top in flats]
        assert len(enumerate_strata(system, p)) == sum(ending)
        assert count is None or sum(ending) == count

    def test_budget_refuses_before_listing(self):
        A3 = build_root_system("A", 3)
        for p, count in ((40, 202581), (1000, 3006504501)):
            with pytest.raises(TooLarge, match=f"^pole bound {p} gives {count} strata; budget is 20000$"):
                enumerate_strata(A3, p)

    def test_budget_counts_exactly(self, monkeypatch):
        monkeypatch.setattr(strata, "STRATA_BUDGET", 12)
        assert len(enumerate_strata(A2, 2)) == 12
        monkeypatch.setattr(strata, "STRATA_BUDGET", 11)
        with pytest.raises(TooLarge):
            enumerate_strata(A2, 2)

    @pytest.mark.parametrize(
        "system,p,entries",
        [
            (A2, 2, 132),
            (build_root_system("D", 4), 3, 88992),
            (RootSystem(1, [[k] for k in range(-30, 31) if k]), 3, 600),
        ],
        ids=["A2", "D4", "line"],
    )
    def test_entry_budget_counts_exactly(self, monkeypatch, system, p, entries):
        """Counted before anything is listed: per stratum, one order per root
        and every member of every level."""
        listed = enumerate_strata(system, p)
        assert sum(len(s.orders.orders) + sum(map(len, s.filtration.levels)) for s in listed) == entries
        monkeypatch.setattr(strata, "STRATA_ENTRY_BUDGET", entries)
        assert enumerate_strata(system, p) == listed
        monkeypatch.setattr(strata, "STRATA_ENTRY_BUDGET", entries - 1)
        message = f"^pole bound {p} gives strata of {entries} entries; budget is {entries - 1}$"
        with pytest.raises(TooLarge, match=message):
            enumerate_strata(system, p)

    def test_pole_bound_budget_holds_without_roots(self):
        # One stratum for every p, so only the pole bound budget stops it.
        empty = RootSystem(1, [])
        assert len(enumerate_strata(empty, 3)) == 1
        with pytest.raises(TooLarge, match="exceeds the budget of 1024"):
            enumerate_strata(empty, 10**9)

    def test_p0_is_empty_chain(self):
        (only,) = enumerate_strata(A2, 0)
        assert only.orders.orders == (0,) * 6
        assert only.filtration.depth == 0

    def test_all_enumerated_are_relevant(self):
        for s in enumerate_strata(B2, 2):
            assert is_relevant(B2, 2, s.orders)

    def test_deterministic(self):
        a = [s.orders.orders for s in enumerate_strata(A2, 2)]
        b = [s.orders.orders for s in enumerate_strata(A2, 2)]
        assert a == b

    def test_a1_long_chains_in_canonical_order(self):
        # Levis of A1: the empty set, then both roots.  Lexicographic order
        # lists the chain with i full levels at the end i-th, so d falls
        # from p to 0.
        listed = enumerate_strata(A1, 1000)
        assert [s.orders.orders for s in listed] == [(d, d) for d in range(1000, -1, -1)]

    @pytest.mark.parametrize("family,rank,p", [("D", 4, 3), ("A", 3, 4), ("G", 2, 4), ("B", 2, 6)])
    def test_order_matches_extending_every_chain_one_position_at_a_time(self, family, rank, p):
        system = build_root_system(family, rank)
        flats = [levi.members for levi in enumerate_levi(system)]
        chains = [[]]
        for _ in range(p):
            chains = [chain + [top] for chain in chains for top in flats if not chain or chain[-1] <= top]
        assert [s.filtration.levels for s in enumerate_strata(system, p)] == [tuple(c) for c in chains]


def _point_counts(system, p):
    """``fraction_oracles.point_counts`` of the strata at p, from the library's flats."""
    dims = {levi.members: len(kernel_lattice_basis(system, levi.members)) for levi in enumerate_levi(system)}
    return point_counts(enumerate_strata(system, p), dims)


def _pair_mod(root, vector, q):
    return sum(r * x for r, x in zip(root, vector)) % q


class TestPointCounts:
    """Over F_q the strata partition (F_q^rank)^p, which pins completeness,
    disjointness and every dimension from the flat lattice alone."""

    @pytest.mark.parametrize(
        "family,rank,p",
        [("A", 1, 3), ("A", 2, 2), ("B", 2, 3), ("G", 2, 2), ("A", 3, 3), ("B", 3, 2)],
    )
    def test_strata_partition_the_whole_space(self, family, rank, p):
        system = build_root_system(family, rank)
        counts = _point_counts(system, p)
        for orders, poly in counts.items():
            degree = max(k for k, c in enumerate(poly) if c)
            assert poly[degree] == 1
            assert degree == stratum_dimension(system, p, orders)
        assert [sum(column) for column in zip(*counts.values())] == [0] * (system.rank * p) + [1]

    def test_a_dropped_stratum_breaks_the_sum(self):
        system = build_root_system("A", 3)
        polys = list(_point_counts(system, 2).values())
        assert [sum(column) for column in zip(*polys)] == [0] * (system.rank * 2) + [1]
        kept = polys[:5] + polys[6:]
        assert [sum(column) for column in zip(*kept)] != [0] * (system.rank * 2) + [1]

    @pytest.mark.parametrize("family,rank,p,q", [("A", 2, 2, 5), ("B", 2, 2, 5), ("G", 2, 1, 7)])
    def test_brute_force_over_a_prime_field(self, family, rank, p, q):
        """Every point of (F_q^rank)^p, sorted into strata by its root orders
        mod q; q avoids the primes 2 and 3 where B2 and G2 reduce badly."""
        system = build_root_system(family, rank)
        roots = [[int(x) for x in root] for root in system.roots]
        seen = {}
        for point in product(product(range(q), repeat=system.rank), repeat=p):
            # the order of a root: the last level it does not vanish on
            orders = tuple(
                max((j for j, a in enumerate(point, 1) if _pair_mod(root, a, q)), default=0)
                for root in roots
            )
            seen[orders] = seen.get(orders, 0) + 1
        expected = {
            orders: sum(c * q**k for k, c in enumerate(poly))
            for orders, poly in _point_counts(system, p).items()
        }
        assert seen == expected


class TestDimension:
    def test_generic_stratum_full_cartan(self):
        # all orders maximal: every level kernel is the whole Cartan
        assert stratum_dimension(A1, 2, [2, 2]) == 2 * 1

    def test_zero_stratum_spanning_system(self):
        # spanning realization: joint kernel of all roots is trivial
        assert stratum_dimension(A1, 2, [0, 0]) == 0
        assert stratum_dimension(B2, 3, [0] * 8) == 0

    def test_zero_stratum_with_center(self):
        # the rank-3 realization of the rank-2 system keeps a center line
        assert stratum_dimension(A2, 2, [0] * 6) == 2 * 1

    def test_intermediate(self):
        # B2: kill the long roots +-e1 +- e2 at level 1... use enumeration data
        total = {s.orders.orders: stratum_dimension(B2, 1, s.orders) for s in enumerate_strata(B2, 1)}
        # full order vector gives dimension 2, zero vector gives 0
        assert total[(1,) * 8] == 2
        assert total[(0,) * 8] == 0
        # every stratum dimension lies between the two
        assert all(0 <= d <= 2 for d in total.values())


class TestWitness:
    @pytest.mark.parametrize("system,p", [(A1, 1), (A1, 3), (A2, 1), (A2, 2), (B2, 2)])
    def test_soundness(self, system, p):
        for s in enumerate_strata(system, p):
            w = stratum_witness(system, p, s.orders)
            assert root_order_vector(w) == s.orders

    def test_witness_deterministic(self):
        s = enumerate_strata(B2, 2)[3]
        w1 = stratum_witness(B2, 2, s.orders)
        w2 = stratum_witness(B2, 2, s.orders)
        assert w1 == w2

    def test_dimension_by_perturbation(self):
        """Kernel directions are exactly the in-stratum deformations.

        Moving one coefficient along a level-kernel vector never raises
        any root order, and for all but finitely many scales it keeps
        the full order vector; the number of independent such directions
        equals the declared stratum dimension.
        """
        from irrtypes.rootsystems import kernel_lattice_basis

        for system, p in [(A1, 2), (A2, 1), (B2, 2)]:
            for s in enumerate_strata(system, p):
                w = stratum_witness(system, p, s.orders)
                directions = 0
                for level in range(1, p + 1):
                    below = [i for i, d in enumerate(s.orders.orders) if d < level]
                    basis = kernel_lattice_basis(system, below)
                    directions += len(basis)
                    for vec in basis:
                        hits = 0
                        for scale_int in range(1, len(system) + 2):
                            scale = Fraction(scale_int)
                            coeffs = [list(c) for c in w.coefficients]
                            coeffs[level - 1] = [
                                c + x * scale for c, x in zip(coeffs[level - 1], vec)
                            ]
                            moved = root_order_vector(IrregularType(system, p, coeffs))
                            for i, d in enumerate(moved.orders):
                                want = s.orders.orders[i]
                                assert d == want or (want == level and d < level)
                            if moved == s.orders:
                                hits += 1
                        # each order-level root forbids at most one scale
                        assert hits >= 1
                assert directions == stratum_dimension(system, p, s.orders)


    def test_self_check_refuses_a_point_off_the_stratum(self, monkeypatch):
        """The closing check recomputes every root order from the integer vectors."""
        def off_stratum(basis, avoid, dim, work):
            return [1] + [0] * (dim - 1)  # e_2 - e_3 vanishes here

        assert stratum_witness(A2, 1, [1] * 6).p == 1
        monkeypatch.setattr(strata, "_search_off_hyperplanes", off_stratum)
        with pytest.raises(SearchExhausted):
            stratum_witness(A2, 1, [1] * 6)


class TestImmutableValues:
    def test_an_order_vector_cannot_change_after_its_checks(self):
        """Strata trust a checked order vector's orders, so they must not change."""
        vec = RootOrderVector(A2, 1, [1] * 6)
        with pytest.raises(AttributeError):
            vec.orders = (7,) * 6
        assert vec.orders == (1,) * 6 and stratum_dimension(A2, 1, vec) == 3
        with pytest.raises(OutOfRange):
            stratum_dimension(A2, 1, [7] * 6)


class TestWitnessSearchBudget:
    def test_budget_counts_exactly(self, monkeypatch):
        """A3 with every order p: the last level needs four distinct coordinates
        (t = 4 basis vectors, 6 root pairs, 28 units a tuple).  It tries 1 tuple
        of height 0, all 81 of height 1 (the zero tuple among them, skipped but
        charged) and 39 of height 2, up to (-2, -1, 0, 1): 3,388 units.  At
        p = 2 the first level takes the zero tuple for 4 more."""
        A3 = build_root_system("A", 3)
        for p, units in ((1, 3388), (2, 3392)):
            monkeypatch.setattr(strata, "WITNESS_SEARCH_BUDGET", units)
            w = stratum_witness(A3, p, [p] * 12)
            assert [x.re for x in w.coefficients[-1]] == [-2, -1, 0, 1]
            monkeypatch.setattr(strata, "WITNESS_SEARCH_BUDGET", units - 1)
            with pytest.raises(TooLarge, match=f"^witness search exceeds the budget of {units - 1} units$"):
                stratum_witness(A3, p, [p] * 12)

    @pytest.mark.parametrize(
        "system",
        [
            build_root_system("A", 5),
            build_root_system("D", 5),
            RootSystem(13, [[1, -1] + [0] * 11, [-1, 1] + [0] * 11]),
        ],
        ids=["A5", "D5", "pair-in-rank-13"],
    )
    def test_generic_witnesses_within_the_budget_are_answered(self, system):
        w = stratum_witness(system, 1, [1] * len(system))
        assert root_order_vector(w).orders == (1,) * len(system)


class TestEliminations:
    """One elimination per distinct level of a stratum, in ``strata._levels``."""

    @staticmethod
    def _count(monkeypatch, call):
        calls = []
        real = rootsystems._gi_rref

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(rootsystems, "_gi_rref", counting)
        call()
        monkeypatch.setattr(rootsystems, "_gi_rref", real)
        return len(calls)

    def test_repeated_levels_are_eliminated_once(self, monkeypatch):
        B3 = build_root_system("B", 3)
        assert self._count(monkeypatch, lambda: stratum_dimension(B3, 1024, [0] * 18)) == 1
        # levels: the empty set, then all 18 roots 1,023 times
        assert self._count(monkeypatch, lambda: stratum_witness(B3, 1024, [1] * 18)) == 2

    def test_dimension_witness_and_classify_share_the_count(self, monkeypatch, capsys):
        D4 = build_root_system("D", 4)
        stratum = next(
            s for s in enumerate_strata(D4, 3) if [len(level) for level in s.filtration.levels] == [2, 4, 6]
        )
        d = stratum.orders
        assert self._count(monkeypatch, lambda: stratum_dimension(D4, 3, d)) == 3
        assert self._count(monkeypatch, lambda: stratum_witness(D4, 3, d)) == 3
        document = json.dumps(irregular_type_to_json(stratum_witness(D4, 3, d)))
        monkeypatch.setattr("sys.stdin", io.StringIO(document))
        assert self._count(monkeypatch, lambda: run(["classify"])) == 3
        result = json.loads(capsys.readouterr().out)
        assert result["d"] == list(d.orders)
        assert result["levels"] == [sorted(level) for level in stratum.filtration.levels]
        assert result["dimension"] == stratum_dimension(D4, 3, d)


class TestClosureOrder:
    def test_pointwise(self):
        a = StratumDescriptor.from_orders(A1, 2, [0, 0]).orders
        b = StratumDescriptor.from_orders(A1, 2, [2, 2]).orders
        assert closure_leq(a, b)
        assert not closure_leq(b, a)
        assert closure_leq(a, a)

    def test_requires_same_context(self):
        a = RootOrderVector(A1, 2, [0, 0])
        c = RootOrderVector(A1, 1, [0, 0])
        with pytest.raises(ShapeMismatch):
            closure_leq(a, c)
