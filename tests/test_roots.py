"""Root system realizations and Levi subsystem combinatorics.

The enumeration is cross-checked against a brute-force oracle that
closes every subset of roots under rational spans using its own
elimination code, and the flat counts against their closed forms.
Ranks, kernels and spans, which the library reads off its fraction-free
Gaussian-integer elimination, are checked against the ``Fraction``
oracles in ``linalg_oracles``.
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
from irrtypes import G_ZERO, gauss, rootsystems
from irrtypes.rootsystems import (
    ENUMERATION_GUARD,
    check_enumeration_guard,
    flat_count,
    kernel_intersection_dim,
    kernel_lattice_basis,
    root_count,
)
from irrtypes.scalars import _gi_rref
from linalg_oracles import clear_denominators, in_row_span, kernel_basis, mat_rank, rref


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
        [("A", 1, 2), ("A", 2, 6), ("A", 3, 12), ("B", 2, 8), ("C", 2, 8), ("D", 2, 4), ("B", 3, 18), ("G", 2, 12),
         ("A", 6, 42), ("C", 3, 18), ("D", 4, 24), ("B", 5, 50), ("D", 5, 40)],
    )
    def test_root_counts(self, family, rank, count):
        # root_count is the closed form the CLI checks before building.
        assert len(build_root_system(family, rank)) == count == root_count(family, rank)

    @pytest.mark.parametrize("family,rank", [("E", 8), ("D", 1), ("B", 1), ("A", 0), ("G", 3), ("x", 2)])
    def test_root_count_refuses_like_the_builder(self, family, rank):
        with pytest.raises(Unsupported) as counted:
            root_count(family, rank)
        with pytest.raises(Unsupported) as flats:
            flat_count(family, rank)
        with pytest.raises(Unsupported) as built:
            build_root_system(family, rank)
        assert str(counted.value) == str(flats.value) == str(built.value)

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

    @pytest.mark.parametrize(
        "family,rank",
        [("A", n) for n in range(1, 6)] + [("B", n) for n in range(2, 5)] + [("C", n) for n in range(2, 5)]
        + [("D", n) for n in range(2, 6)] + [("G", 2)],
    )
    def test_closed_form_flat_count(self, family, rank):
        # flat_count is the closed form the CLI checks before building.
        assert flat_count(family, rank) == len(enumerate_levi(build_root_system(family, rank)))

    def test_closed_form_past_the_walk(self):
        # Bell numbers and the type-B/D Dowling-lattice counts (OEIS A000110,
        # A039755 row sums) past what the budget lets the walk reach.
        assert [flat_count("A", n) for n in (6, 7, 9)] == [877, 4140, 115975]
        assert [flat_count("B", 5), flat_count("C", 5), flat_count("D", 6)] == [648, 648, 2546]

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

    def test_guard_needs_only_the_root_count(self):
        check_enumeration_guard(ENUMERATION_GUARD)
        with pytest.raises(TooLarge, match="^root system has 1000001000000 roots; guard is 60$"):
            check_enumeration_guard(root_count("A", 10**6))

    def test_flat_budget_refuses_only_past_it(self, monkeypatch):
        assert rootsystems.FLAT_BUDGET == 1000
        monkeypatch.setattr(rootsystems, "FLAT_BUDGET", 15)
        assert len(enumerate_levi(build_root_system("A", 3))) == 15
        monkeypatch.setattr(rootsystems, "FLAT_BUDGET", 14)
        with pytest.raises(TooLarge, match="^root system has more than 14 flats$"):
            enumerate_levi(build_root_system("A", 3))

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


def _random_rows(rng, count, rank, rational):
    """``count`` rows in Q^rank spanning at most a random number of
    dimensions: combinations of a few random base vectors."""
    def entry(bound):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 5) if rational else 1)

    base = [[entry(3) for _ in range(rank)] for _ in range(rng.randint(1, rank))]
    rows = []
    for _ in range(count):
        coefs = [entry(2) for _ in base]
        rows.append([sum((a * b[c] for a, b in zip(coefs, base)), Fraction(0)) for c in range(rank)])
    return rows


def _system_of(rows, rank):
    """A root system holding each distinct nonzero row and its negation."""
    roots = []
    for row in map(tuple, rows):
        if any(row) and row not in roots and tuple(-x for x in row) not in roots:
            roots += [row, tuple(-x for x in row)]
    return RootSystem(rank, roots)


class TestOneElimination:
    """Ranks, kernels and spans read off the fraction-free Z[i] elimination
    agree with the ``Fraction`` Gauss-Jordan oracles."""

    @pytest.mark.parametrize("rational", [False, True])
    def test_random_matrices(self, rational):
        rng = random.Random(12 + rational)
        for _ in range(60):
            rank = rng.randint(1, 6)
            system = _system_of(_random_rows(rng, rng.randint(1, 8), rank, rational), rank)
            if not len(system):
                continue
            assert system.semisimple_rank() == mat_rank(system.roots)
            for _ in range(4):
                chosen = sorted(rng.sample(range(len(system)), rng.randint(0, len(system))))
                rows = [system.roots[i] for i in chosen]
                assert kernel_intersection_dim(system, chosen) == rank - mat_rank(rows)
                basis = kernel_lattice_basis(system, chosen)
                assert basis == [clear_denominators(v) for v in kernel_basis(rows, rank, Fraction(1), Fraction(0))]
                for v in basis:
                    assert all(x.denominator == 1 for x in v)
                    assert next(x for x in v if x) > 0
                    assert all(sum(a * b for a, b in zip(v, row)) == 0 for row in rows)
                echelon = rref(rows)
                expected = {i for i, root in enumerate(system.roots) if in_row_span(echelon, root)}
                assert span_closure(system, chosen) == expected

    def test_gaussian_rref_is_the_reduced_echelon_form(self):
        # The germ layer's use: Gaussian-integer entries, pivot rows over p.
        rng = random.Random(5)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            m = [[(rng.randint(-3, 3), rng.randint(-2, 2)) if rng.random() < 0.7 else (0, 0)
                  for _ in range(ncols)] for _ in range(nrows)]
            rows, pivots, p = _gi_rref(m, ncols)
            echelon, oracle_pivots = rref([[gauss(*x) for x in row] for row in m])
            assert pivots == oracle_pivots
            assert [[gauss(*x) / gauss(*p) for x in row] for row in rows[: len(pivots)]] == echelon[: len(pivots)]
            assert all(x == (0, 0) for row in rows[len(pivots):] for x in row)
            assert all(x == G_ZERO for row in echelon[len(pivots):] for x in row)

    def test_kernel_bases_on_every_flat(self):
        # The kernel basis fixes the witness bytes of strata witness.
        flats = 0
        for family, rank in [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4), ("B", 4), ("A", 5)]:
            system = build_root_system(family, rank)
            for levi in enumerate_levi(system):
                rows = [system.roots[i] for i in levi.sorted_members()]
                oracle = kernel_basis(rows, system.rank, Fraction(1), Fraction(0))
                assert kernel_lattice_basis(system, levi.members) == [clear_denominators(v) for v in oracle]
                assert kernel_intersection_dim(system, levi.members) == len(oracle)
                flats += 1
        assert flats == 462

    @pytest.mark.parametrize("family,rank", [("B", 3), ("G", 2)])
    def test_integer_rows_are_scale_free(self, family, rank):
        # Each negation pair scaled by its own positive rational spans the
        # same lines, so everything read off the elimination is unchanged.
        base = build_root_system(family, rank)
        pairs = sorted({min(i, base.negation_index(i)) for i in range(len(base))})
        scale = {rep: (Fraction(1, 3), Fraction(2, 5))[k % 2] for k, rep in enumerate(pairs)}
        system = RootSystem(
            base.rank,
            [tuple(scale[min(i, base.negation_index(i))] * x for x in root) for i, root in enumerate(base.roots)],
        )
        assert system.roots != base.roots
        assert system._rows == base._rows
        flats = [levi.members for levi in enumerate_levi(system)]
        assert flats == [levi.members for levi in enumerate_levi(base)]
        assert system.semisimple_rank() == base.semisimple_rank()
        for flat in flats:
            assert kernel_intersection_dim(system, flat) == kernel_intersection_dim(base, flat)
            assert kernel_lattice_basis(system, flat) == kernel_lattice_basis(base, flat)


def _char_poly(system, flats):
    """chi(t) = sum over flats F of mu(0, F) t^{dim ker F}, as coefficients
    indexed by degree; the Moebius function runs over inclusion of the
    member sets."""
    flats = sorted(flats, key=len)
    mu = {}
    for flat in flats:
        mu[flat] = 1 if not flat else -sum(mu[g] for g in mu if g < flat)
    coeffs = [0] * (system.rank + 1)
    for flat in flats:
        coeffs[kernel_intersection_dim(system, flat)] += mu[flat]
    return coeffs


def _poly_with_zeros(zeros):
    """prod (t - z), as coefficients indexed by degree."""
    coeffs = [1]
    for z in zeros:
        coeffs = [shifted - z * c for shifted, c in zip([0] + coeffs, coeffs + [0])]
    return coeffs


class TestCharacteristicPolynomial:
    """The flat lattice's characteristic polynomial factors over the Weyl
    exponents (Orlik-Terao, Arrangements of Hyperplanes, ch. 6); the
    families A and G2 live in one more dimension than their rank, which
    adds a factor t."""

    @pytest.mark.parametrize(
        "family,rank,zeros",
        [
            ("A", 1, [0, 1]),
            ("B", 2, [1, 3]),
            ("A", 3, [0, 1, 2, 3]),
            ("B", 3, [1, 3, 5]),
            ("C", 3, [1, 3, 5]),
            ("G", 2, [0, 1, 5]),
            ("D", 4, [1, 3, 3, 5]),
            ("A", 4, [0, 1, 2, 3, 4]),
        ],
    )
    def test_matches_the_weyl_exponents(self, family, rank, zeros):
        system = build_root_system(family, rank)
        flats = [levi.members for levi in enumerate_levi(system)]
        assert _char_poly(system, flats) == _poly_with_zeros(zeros)

    def test_a_dropped_flat_changes_it(self):
        system = build_root_system("A", 3)
        flats = [levi.members for levi in enumerate_levi(system)]
        expected = _poly_with_zeros([0, 1, 2, 3])
        proper = [flat for flat in flats if 0 < len(flat) < len(system)]
        assert len(proper) == 13
        for dropped in proper:
            assert _char_poly(system, [f for f in flats if f != dropped]) != expected


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
