"""Symmetry actions on low-genus moduli: laws, slices, stabilizers.

Stabilizer orders are cross-checked against a floating-point brute
force over all points of finite order at most 24 on the unit circle,
deduplicated by reduced fraction of the angle, at tolerance 1e-9.
"""

import cmath
import random
from fractions import Fraction

import pytest

from irrtypes import (
    AffineG1,
    G_I,
    G_ONE,
    G_ZERO,
    IDENTITY_G1,
    INFINITE,
    InfiniteOrder,
    IrregularType,
    IrregularTypeAtInfinity,
    MalformedInput,
    OrderTooLow,
    RootOrderVector,
    RootSystem,
    SL2ZElement,
    ShapeMismatch,
    TooLarge,
    TorusG2,
    UpperHalfPoint,
    ZeroPair,
    build_root_system,
    convention_swap,
    dm_check,
    exchange_map,
    exchange_map_inverse,
    g1_act,
    g1_slice,
    g1_stabilizer_order,
    g2_act,
    g2_stabilizer_order,
    gauss,
    phi_n,
    phi_n_inverse,
    sl2z_act,
    weighted_orbit_equivalent,
)
from irrtypes.irregular import (
    atinf_from_json,
    atinf_to_json,
    irregular_type_from_json,
    irregular_type_to_json,
)
from irrtypes.symmetry import atinf_root_order, atinf_root_order_vector

A1 = RootSystem(1, [(Fraction(2),), (Fraction(-2),)], family="A1r1")
A2 = build_root_system("A", 2)

TOL = 1e-9


def _unit_points(max_order=24):
    """One float per point of finite order <= max_order on the circle."""
    seen = {}
    for k in range(1, max_order + 1):
        for a in range(k):
            f = Fraction(a, k)
            key = (f.numerator, f.denominator)
            if key not in seen:
                seen[key] = cmath.exp(2j * cmath.pi * a / k)
    return list(seen.values())


_POINTS = _unit_points()


def _c(x):
    return float(x.re) + 1j * float(x.im)


def _fixes_atinf(r, q):
    for j in range(1, q.p + 1):
        w = r ** j
        for c in q.coefficient(j):
            z = _c(c)
            if abs(w * z - z) > TOL:
                return False
    return True


def _fixes_pair(r, pair):
    at0, atinf = pair
    for j in range(1, at0.p + 1):
        w = r ** (-j)
        for c in at0.coefficient(j):
            z = _c(c)
            if abs(w * z - z) > TOL:
                return False
    return _fixes_atinf(r, atinf)


def _rand_g1(rng):
    while True:
        r = gauss(rng.randint(-2, 2), rng.randint(-2, 2))
        if r:
            return AffineG1(gauss(rng.randint(-3, 3), rng.randint(-2, 2)), r)


class TestConventionSwap:
    def test_involution(self):
        q = IrregularType(A1, 2, [[1], [3]])
        swapped = convention_swap(q)
        assert isinstance(swapped, IrregularTypeAtInfinity)
        assert swapped.coefficients == q.coefficients
        assert convention_swap(swapped) == q


class TestConventionsStayApart:
    """One class per pole convention: equal data, unequal types."""

    CASES = [
        (A1, 2, [[1], [3]]),
        (A2, 3, [[1, 0, 2], [0, 0, 0], [4, 1, 0]]),
        (A1, 2, [[0], [0]]),
        (A2, 1, [[0, 0, 0]]),
    ]

    def _pairs(self):
        for system, p, coeffs in self.CASES:
            yield IrregularType(system, p, coeffs), IrregularTypeAtInfinity(system, p, coeffs)

    def test_unequal_in_both_directions(self):
        for at0, atinf in self._pairs():
            assert at0.coefficients == atinf.coefficients
            assert at0 != atinf and atinf != at0
            assert not at0 == atinf and not atinf == at0

    def test_zero_types_unequal(self):
        assert IrregularType.zero(A2, 2) != IrregularTypeAtInfinity.zero(A2, 2)
        assert IrregularTypeAtInfinity.zero(A2, 2) != IrregularType.zero(A2, 2)

    def test_distinct_in_a_set(self):
        for at0, atinf in self._pairs():
            same0 = IrregularType(at0.rootsystem, at0.p, at0.coefficients)
            assert len({at0, atinf, same0}) == 2
            assert atinf in {atinf} and atinf not in {at0}

    def test_zero_returns_own_class(self):
        assert type(IrregularTypeAtInfinity.zero(A1, 2)) is IrregularTypeAtInfinity
        assert type(IrregularType.zero(A1, 2)) is IrregularType

    def test_swap_returns_other_class(self):
        for at0, atinf in self._pairs():
            assert type(convention_swap(at0)) is IrregularTypeAtInfinity
            assert type(convention_swap(atinf)) is IrregularType
            assert convention_swap(at0) == atinf
            assert convention_swap(atinf) == at0

    def test_decoders_return_their_own_class(self):
        for at0, atinf in self._pairs():
            doc = irregular_type_to_json(at0)
            assert doc == atinf_to_json(atinf)
            decoded_inf = atinf_from_json(doc)
            decoded0 = irregular_type_from_json(doc)
            assert type(decoded_inf) is IrregularTypeAtInfinity
            assert type(decoded0) is IrregularType
            assert decoded_inf == atinf and decoded0 == at0
            assert decoded_inf != decoded0

    def test_repr_names_the_convention(self):
        assert repr(IrregularType.zero(A1, 2)) == "IrregularType(p=2, rank=1)"
        assert repr(IrregularTypeAtInfinity.zero(A1, 2)) == "IrregularTypeAtInfinity(p=2, rank=1)"


class TestAffineAction:
    def test_identity(self):
        q = IrregularTypeAtInfinity(A2, 3, [[1, 0, 2], [0, 0, 0], [4, 1, 0]])
        assert g1_act(IDENTITY_G1, q) == q

    def test_right_action_law(self):
        rng = random.Random(7)
        for _ in range(40):
            p = rng.randint(1, 4)
            q = IrregularTypeAtInfinity(A1, p, [[rng.randint(-4, 4)] for _ in range(p)])
            g, h = _rand_g1(rng), _rand_g1(rng)
            assert g1_act(h, g1_act(g, q)) == g1_act(g.compose(h), q)

    def test_inverse_undoes(self):
        rng = random.Random(9)
        for _ in range(20):
            q = IrregularTypeAtInfinity(A2, 3, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            g = _rand_g1(rng)
            assert g1_act(g.inverse(), g1_act(g, q)) == q

    def test_translation_preserves_orders(self):
        q = IrregularTypeAtInfinity(A1, 3, [[1], [0], [2]])
        g = AffineG1(gauss(5, -2), G_ONE)
        assert atinf_root_order_vector(g1_act(g, q)) == atinf_root_order_vector(q)

    def test_binomial_transport(self):
        # z^2 under z -> z + s picks up 2 s z; degree 0 is dropped
        q = IrregularTypeAtInfinity(A1, 2, [[0], [1]])
        moved = g1_act(AffineG1(gauss(3), G_ONE), q)
        assert moved.coefficient(2) == (gauss(1),)
        assert moved.coefficient(1) == (gauss(6),)

    def test_degenerate_scaling_rejected(self):
        with pytest.raises(MalformedInput):
            AffineG1(G_ZERO, G_ZERO)


class TestSlice:
    def test_postcondition_random(self):
        rng = random.Random(13)
        checked = 0
        while checked < 60:
            p = rng.randint(2, 5)
            coeffs = [[rng.randint(-4, 4)] for _ in range(p)]
            q = IrregularTypeAtInfinity(A1, p, coeffs)
            d = atinf_root_order(q, 0)
            if d < 2:
                continue
            s, moved = g1_slice(q, 0)
            root = A1.roots[0]
            total = G_ZERO
            for a, c in zip(root, moved.coefficient(d - 1)):
                total = total + c * a
            assert total == G_ZERO
            # slicing again is trivial
            s2, again = g1_slice(moved, 0)
            assert s2 == G_ZERO and again == moved
            checked += 1

    def test_low_order_rejected(self):
        q = IrregularTypeAtInfinity(A1, 2, [[1], [0]])
        with pytest.raises(OrderTooLow):
            g1_slice(q, 0)

    def test_known_value(self):
        # Q = z^2 + z on the root (2): s = -1/(2 * 1) scaled by the pairing
        q = IrregularTypeAtInfinity(A1, 2, [[1], [1]])
        s, moved = g1_slice(q, 0)
        assert s == gauss(Fraction(-1, 2))
        assert moved.coefficient(1) == (G_ZERO,)
        assert moved.coefficient(2) == (gauss(1),)


class TestG1Stabilizer:
    def test_infinite_iff_orders_at_most_one(self):
        assert isinstance(g1_stabilizer_order(IrregularTypeAtInfinity(A1, 1, [[1]])), InfiniteOrder)
        assert g1_stabilizer_order(IrregularTypeAtInfinity.zero(A1, 2)) is INFINITE
        assert not isinstance(
            g1_stabilizer_order(IrregularTypeAtInfinity(A1, 2, [[0], [1]])), InfiniteOrder
        )

    def test_gcd_of_sliced_support(self):
        # support {2, 4} after slicing: order 2
        q = IrregularTypeAtInfinity(A1, 4, [[0], [1], [0], [1]])
        assert g1_stabilizer_order(q) == 2
        # support {3}: order 3
        q = IrregularTypeAtInfinity(A1, 3, [[0], [0], [5]])
        assert g1_stabilizer_order(q) == 3

    def test_matches_numeric_oracle(self):
        rng = random.Random(21)
        finite_seen = 0
        while finite_seen < 60:
            p = rng.randint(2, 6)
            coeffs = [[rng.randint(-3, 3)] for _ in range(p)]
            q = IrregularTypeAtInfinity(A1, p, coeffs)
            order = g1_stabilizer_order(q)
            if isinstance(order, InfiniteOrder):
                assert atinf_root_order_vector(q).max_order() <= 1
                continue
            root_index = next(
                i for i, d in enumerate(atinf_root_order_vector(q).orders) if d >= 2
            )
            _, sliced = g1_slice(q, root_index)
            count = sum(1 for r in _POINTS if _fixes_atinf(r, sliced))
            assert count == order
            finite_seen += 1

    def test_rank_two_system(self):
        rng = random.Random(33)
        for _ in range(20):
            p = rng.randint(2, 5)
            coeffs = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(p)]
            q = IrregularTypeAtInfinity(A2, p, coeffs)
            order = g1_stabilizer_order(q)
            vec = atinf_root_order_vector(q)
            if isinstance(order, InfiniteOrder):
                assert vec.max_order() <= 1
                continue
            root_index = next(i for i, d in enumerate(vec.orders) if d >= 2)
            _, sliced = g1_slice(q, root_index)
            count = sum(1 for r in _POINTS if _fixes_atinf(r, sliced))
            assert count == order


class TestG2:
    def test_action_weights(self):
        at0 = IrregularType(A1, 1, [[1]])
        atinf = IrregularTypeAtInfinity(A1, 2, [[0], [1]])
        g = TorusG2(gauss(2))
        new0, newinf = g2_act(g, (at0, atinf))
        assert new0.coefficient(1) == (gauss(Fraction(1, 2)),)
        assert newinf.coefficient(2) == (gauss(4),)

    def test_stabilizer_gcd(self):
        at0 = IrregularType(A1, 2, [[0], [1]])
        atinf = IrregularTypeAtInfinity(A1, 4, [[0], [0], [0], [1]])
        assert g2_stabilizer_order((at0, atinf)) == 2

    def test_zero_pair_rejected(self):
        with pytest.raises(ZeroPair):
            g2_stabilizer_order((IrregularType.zero(A1, 2), IrregularTypeAtInfinity.zero(A1, 2)))

    def test_matches_numeric_oracle(self):
        rng = random.Random(41)
        checked = 0
        while checked < 60:
            p0, pinf = rng.randint(1, 5), rng.randint(1, 5)
            at0 = IrregularType(A1, p0, [[rng.randint(-2, 2)] for _ in range(p0)])
            atinf = IrregularTypeAtInfinity(A1, pinf, [[rng.randint(-2, 2)] for _ in range(pinf)])
            try:
                order = g2_stabilizer_order((at0, atinf))
            except ZeroPair:
                continue
            count = sum(1 for r in _POINTS if _fixes_pair(r, (at0, atinf)))
            assert count == order
            checked += 1


class TestWeightedOrbits:
    def test_plain_scaling(self):
        assert weighted_orbit_equivalent([[1], [1]], [[4], [16]], [2, 4])

    def test_gcd_combination_needed(self):
        # pairwise power compatibility holds but no single scalar works:
        # r^2 = 1 forces r^4 = 1, never -1
        first = [[1], [1]]
        second = [[1], [-1]]
        assert gauss(1) ** 4 == gauss(-1) ** 2  # naive pairwise check passes
        assert not weighted_orbit_equivalent(first, second, [2, 4])

    def test_witness_outside_field(self):
        # r^2 = i has no Gaussian rational solution but exists in C
        assert weighted_orbit_equivalent([[1]], [[G_I]], [2])

    def test_coprime_weights_solve_exactly(self):
        # r^2 = 4, r^3 = 8 forces r = 2; r = -2 handles (4, -8)
        assert weighted_orbit_equivalent([[1], [1]], [[4], [8]], [2, 3])
        assert weighted_orbit_equivalent([[1], [1]], [[4], [-8]], [2, 3])
        assert not weighted_orbit_equivalent([[1], [1]], [[4], [7]], [2, 3])

    def test_zero_weight_requires_equality(self):
        assert weighted_orbit_equivalent([[5]], [[5]], [0])
        assert not weighted_orbit_equivalent([[5]], [[10]], [0])

    def test_negative_weights(self):
        # r^{-2} = 1/4 with r = 2
        assert weighted_orbit_equivalent([[1], [1]], [[Fraction(1, 4)], [8]], [-2, 3])

    def test_support_mismatch(self):
        assert not weighted_orbit_equivalent([[0], [1]], [[1], [1]], [1, 2])

    def test_proportionality_required(self):
        assert not weighted_orbit_equivalent([[1, 2]], [[2, 5]], [1])
        assert weighted_orbit_equivalent([[1, 2]], [[3, 6]], [1])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            weighted_orbit_equivalent([[1]], [[1], [2]], [1])
        with pytest.raises(ShapeMismatch):
            weighted_orbit_equivalent([[1]], [[1, 2]], [1])

    def test_empty_support_both_sides(self):
        assert weighted_orbit_equivalent([[0]], [[0]], [3])

    def test_exponent_budget(self):
        with pytest.raises(TooLarge):
            weighted_orbit_equivalent([[1], [1]], [[2], [2]], [1000000007, 1000000009])
        # A large common factor is divided out before any power is taken.
        assert weighted_orbit_equivalent([[1], [1]], [[4], [16]], [2 * 10**9, 4 * 10**9])


class TestDMCheck:
    def test_boundary_cases(self):
        one = RootOrderVector(A1, 1, [1, 1])
        zero = RootOrderVector(A1, 1, [0, 0])
        # genus 0, one point, top order 1: bound exactly zero
        assert dm_check(0, 1, [one]) == (True, False)
        # genus 0, two points, both orders zero
        assert dm_check(0, 2, [zero, zero]) == (True, False)
        # genus 1, one point, order zero
        assert dm_check(1, 1, [zero]) == (True, True)
        # genus 0, one point, top order 2
        two = RootOrderVector(A1, 2, [2, 2])
        assert dm_check(0, 1, [two]) == (True, True)

    def test_relevance_flag(self):
        not_closed = RootOrderVector(A2, 1, [1 if root[2] == 0 else 0 for root in A2.roots])
        relevant, dm = dm_check(1, 1, [not_closed])
        assert not relevant
        assert dm  # the numeric bound is independent of relevance

    def test_marking_count_enforced(self):
        zero = RootOrderVector(A1, 1, [0, 0])
        with pytest.raises(ShapeMismatch):
            dm_check(0, 2, [zero])


class TestExchange:
    def test_round_trip_and_values(self):
        b = [gauss(1), gauss(-3), gauss(2)]
        x = phi_n(b)
        assert x == (gauss(-4), gauss(1))
        assert phi_n_inverse(x) == tuple(b)

    def test_rejects_nonzero_sum(self):
        with pytest.raises(Exception):
            phi_n([gauss(1), gauss(1)])

    def test_rejects_repeats(self):
        from irrtypes import NotRegular

        with pytest.raises(NotRegular):
            phi_n([gauss(1), gauss(1), gauss(-2)])

    def test_inverse_rejects_zero_or_repeat(self):
        from irrtypes import NotInXn

        with pytest.raises(NotInXn):
            phi_n_inverse([gauss(0)])
        with pytest.raises(NotInXn):
            phi_n_inverse([gauss(2), gauss(2)])

    def test_equivariance(self):
        rng = random.Random(55)
        for _ in range(30):
            n = rng.randint(1, 3)
            while True:
                vals = [gauss(rng.randint(-6, 6), rng.randint(-3, 3)) for _ in range(n)]
                tail = vals + [G_ZERO - sum(vals, G_ZERO)]
                if len({(v.re, v.im) for v in tail}) == n + 1:
                    break
            b = tail
            while True:
                alpha = gauss(rng.randint(-3, 3), rng.randint(-3, 3))
                if alpha:
                    break
            scaled = [alpha * v for v in b]
            assert phi_n(scaled) == tuple(alpha * x for x in phi_n(b))

    def test_exchange_pair(self):
        regular = [gauss(1), gauss(-1)]
        config = [gauss(2), gauss(-1)]
        out_conf, out_reg = exchange_map(regular, config)
        back_reg, back_conf = exchange_map_inverse(out_conf, out_reg)
        assert back_reg == tuple(regular)
        assert back_conf == tuple(config)
        assert phi_n_inverse(out_conf) == tuple(regular)
        assert phi_n(out_reg) == tuple(config)


class TestSL2Z:
    def test_determinant_enforced(self):
        with pytest.raises(MalformedInput):
            SL2ZElement(1, 1, 1, 1)

    def test_upper_half_enforced(self):
        with pytest.raises(MalformedInput):
            UpperHalfPoint(gauss(1, -1))
        with pytest.raises(MalformedInput):
            UpperHalfPoint(gauss(1))

    def test_inversion_at_i(self):
        gamma = SL2ZElement(0, -1, 1, 0)
        point = UpperHalfPoint(G_I)
        q = IrregularType(A1, 1, [[1]])
        new_point, new_q = sl2z_act(gamma, point, q)
        assert new_point.tau == G_I
        assert new_q.coefficient(1) == (gauss(0, -1),)

    def test_translation(self):
        gamma = SL2ZElement(1, 1, 0, 1)
        point = UpperHalfPoint(gauss(Fraction(1, 2), 3))
        q = IrregularType(A1, 2, [[1], [5]])
        new_point, new_q = sl2z_act(gamma, point, q)
        assert new_point.tau == gauss(Fraction(3, 2), 3)
        assert new_q == q  # c = 0, d = 1: no rescaling

    def test_left_action_law(self):
        rng = random.Random(61)

        def rand_gamma():
            # random word in the two standard generators
            s = SL2ZElement(0, -1, 1, 0)
            t = SL2ZElement(1, 1, 0, 1)
            tinv = SL2ZElement(1, -1, 0, 1)
            out = SL2ZElement(1, 0, 0, 1)
            for _ in range(rng.randint(1, 6)):
                out = out.compose(rng.choice([s, t, tinv]))
            return out

        for _ in range(30):
            g1, g2 = rand_gamma(), rand_gamma()
            point = UpperHalfPoint(gauss(rng.randint(-3, 3), rng.randint(1, 4)))
            p = rng.randint(0, 3)
            q = IrregularType(A1, p, [[rng.randint(-4, 4)] for _ in range(p)])
            mid_point, mid_q = sl2z_act(g1, point, q)
            left_point, left_q = sl2z_act(g2, mid_point, mid_q)
            direct_point, direct_q = sl2z_act(g2.compose(g1), point, q)
            assert left_point == direct_point
            assert left_q == direct_q

    def test_positivity_preserved(self):
        rng = random.Random(67)
        s = SL2ZElement(0, -1, 1, 0)
        point = UpperHalfPoint(gauss(Fraction(7, 3), Fraction(1, 5)))
        q = IrregularType(A1, 0, [])
        new_point, _ = sl2z_act(s, point, q)
        assert new_point.tau.im > 0
