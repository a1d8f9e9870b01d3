"""Irregular types, root orders, induced filtrations, and families."""

import random
from fractions import Fraction

import pytest

from irrtypes import (
    FamilyIrregularType,
    IrregularType,
    MalformedInput,
    MultiPoly,
    RootOrderVector,
    RootSystem,
    build_root_system,
    evaluate_root,
    family_root_order,
    gauss,
    is_admissible,
    levi_filtration_of,
    root_order,
    root_order_vector,
)


A1 = RootSystem(1, [(Fraction(2),), (Fraction(-2),)], family="A1r1")
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)


class TestConstruction:
    def test_coefficient_count_enforced(self):
        with pytest.raises(MalformedInput):
            IrregularType(A1, 2, [[1]])

    def test_vector_arity_enforced(self):
        with pytest.raises(MalformedInput):
            IrregularType(A1, 1, [[1, 2]])

    def test_zero(self):
        q = IrregularType.zero(A2, 3)
        assert all(not any(q.coefficient(j)) for j in (1, 2, 3))


class TestRootOrders:
    def test_orders_read_top_down(self):
        # Q = A1/z + A3/z^3 with the root blind to A3
        q = IrregularType(A1, 3, [[1], [0], [0]])
        assert root_order(q, 0) == 1
        q = IrregularType(A1, 3, [[1], [0], [5]])
        assert root_order(q, 0) == 3

    def test_zero_type_orders(self):
        q = IrregularType.zero(A2, 2)
        assert root_order_vector(q).orders == (0,) * 6

    def test_negation_symmetry(self):
        q = IrregularType(A2, 2, [[1, 2, 0], [0, 1, 1]])
        vec = root_order_vector(q)
        for i in range(6):
            assert vec.orders[i] == vec.orders[A2.negation_index(i)]

    def test_evaluate_root_gives_tail(self):
        q = IrregularType(A1, 2, [[Fraction(1, 2)], [3]])
        tail = evaluate_root(q, 0)
        # root (2) against A_2 = (3) at z^{-2}, and A_1 = (1/2) at z^{-1}
        assert tail.coefficient(-2) == gauss(6)
        assert tail.coefficient(-1) == gauss(1)

    def test_max_order_and_vector_validation(self):
        with pytest.raises(MalformedInput):
            RootOrderVector(A1, 1, [1])  # wrong length
        with pytest.raises(MalformedInput):
            RootOrderVector(A1, 1, [1, 0])  # breaks negation symmetry
        with pytest.raises(MalformedInput):
            RootOrderVector(A1, 1, [2, 2])  # exceeds p


class TestInducedFiltration:
    def test_zero_type_gives_full_levels(self):
        q = IrregularType.zero(A2, 2)
        filt = levi_filtration_of(q)
        assert filt.depth == 2
        assert all(level == frozenset(range(6)) for level in filt.levels)

    def test_generic_type_gives_empty_levels(self):
        # distinct diagonal entries: every root pairs nonzero with A_2
        q = IrregularType(A2, 2, [[0, 0, 0], [1, 2, 4]])
        filt = levi_filtration_of(q)
        assert filt.levels[0] == frozenset()
        assert filt.levels[1] == frozenset()

    def test_partial_degeneration(self):
        # A_1 = 0 and A_2 kills the roots living on the first two coordinates,
        # so those roots have order 0 and sit in both levels
        q = IrregularType(A2, 2, [[0, 0, 0], [1, 1, 0]])
        filt = levi_filtration_of(q)
        killed = frozenset(i for i, root in enumerate(A2.roots) if root[2] == 0)
        assert filt.levels[0] == killed
        assert filt.levels[1] == killed

    def test_levels_count_orders(self):
        q = IrregularType(A2, 3, [[1, 0, 0], [0, 0, 1], [0, 0, 0]])
        vec = root_order_vector(q)
        filt = levi_filtration_of(q)
        for i, d in enumerate(vec.orders):
            assert d == sum(1 for level in filt.levels if i not in level)

    def test_levels_are_the_common_kernels(self):
        """Level i holds the roots vanishing on A_i .. A_p, paired here directly."""
        rng = random.Random(17)
        for system in (A2, B2, build_root_system("C", 3)):
            for _ in range(20):
                p = rng.randint(0, 3)
                coeffs = [
                    [gauss(rng.choice([0, 0, 1, -1, 2])) for _ in range(system.rank)]
                    for _ in range(p)
                ]
                q = IrregularType(system, p, coeffs)
                expected = tuple(
                    frozenset(
                        a for a, root in enumerate(system.roots)
                        if all(not sum((x * c for x, c in zip(root, coeffs[j - 1])), gauss(0)) for j in range(i, p + 1))
                    )
                    for i in range(1, p + 1)
                )
                vec = root_order_vector(q)
                assert levi_filtration_of(q).levels == expected
                assert levi_filtration_of(vec) == levi_filtration_of(q)


def _family(coeff_polys, p, variables=("t",), system=A1):
    return FamilyIrregularType(system, p, variables, coeff_polys)


class TestFamilies:
    def test_specialize(self):
        t = MultiPoly.variable(("t",), "t")
        fam = _family([[t], [MultiPoly.constant(("t",), 2)]], 2)
        q = fam.specialize([gauss(5)])
        assert q.coefficient(1) == (gauss(5),)
        assert q.coefficient(2) == (gauss(2),)

    def test_constant_leading_is_admissible(self):
        t = MultiPoly.variable(("t",), "t")
        # A_2 constant nonzero, A_1 varies: order stays 2 everywhere
        fam = _family([[t], [MultiPoly.constant(("t",), 1)]], 2)
        ok, failures = is_admissible(fam)
        assert ok and failures == ()
        assert family_root_order(fam, 0) == (2, True)

    def test_vanishing_leading_fails(self):
        t = MultiPoly.variable(("t",), "t")
        # A_2 = t vanishes at t = 0 and the order drops there
        fam = _family([[MultiPoly.constant(("t",), 1)], [t]], 2)
        ok, failures = is_admissible(fam)
        assert not ok
        assert [i for i, _ in failures] == [0, 1]
        witness_poly = failures[0][1]
        assert not witness_poly.is_constant

    def test_family_order_of_zero_family(self):
        zero = MultiPoly.zero(("t",))
        fam = _family([[zero]], 1)
        assert family_root_order(fam, 0) == (0, True)
        ok, failures = is_admissible(fam)
        assert ok and failures == ()


def _random_entry(rng, variables, kind):
    """A polynomial of the given kind: zero, constant or linear."""
    if kind == "zero":
        return MultiPoly.zero(variables)
    poly = MultiPoly.constant(variables, rng.randint(-3, 3))
    if kind == "linear":
        for name in variables:
            poly = poly + MultiPoly.variable(variables, name).scale(rng.choice([-2, -1, 1, 2]))
    return poly


def _random_vector(rng, system, variables):
    """One coefficient vector; the "ray" kind is f times an integer vector,
    so every root orthogonal to that vector pairs to zero with it."""
    kind = rng.choice(["zero", "constant", "linear", "ray", "ray"])
    if kind != "ray":
        return [_random_entry(rng, variables, rng.choice([kind, kind, "zero"])) for _ in range(system.rank)]
    f = _random_entry(rng, variables, rng.choice(["constant", "linear"]))
    direction = rng.choice([[1] * system.rank, [rng.randint(-1, 1) for _ in range(system.rank)]])
    return [f.scale(c) for c in direction]


def _pairing(root, vector, variables):
    total = MultiPoly.zero(variables)
    for a, entry in zip(root, vector):
        total = total + entry.scale(a)
    return total


def test_admissibility_scan_matches_family_root_order():
    rng = random.Random(20240611)
    seen = {"constant": 0, "linear": 0, "vanishing": 0}
    for _ in range(300):
        system = rng.choice([A1, A2, B2])
        p = rng.randint(1, 3)
        variables = ("t",) if rng.random() < 0.5 else ("s", "t")
        coeffs = [_random_vector(rng, system, variables) for _ in range(p)]
        fam = FamilyIrregularType(system, p, variables, coeffs)
        ok, failures = is_admissible(fam)
        orders = [family_root_order(fam, i) for i in range(len(system))]
        assert {i for i, _ in failures} == {i for i, (_, constant) in enumerate(orders) if not constant}
        assert ok == (not failures)
        assert [i for i, _ in failures] == sorted(i for i, _ in failures)
        for i, witness in failures:
            d = orders[i][0]
            assert d >= 1
            assert witness == _pairing(system.roots[i], fam.coefficient(d), variables)
        for i, root in enumerate(system.roots):
            d = orders[i][0]
            top = [_pairing(root, fam.coefficient(j), variables) for j in range(p, 0, -1)]
            seen["vanishing"] += top[0].is_zero
            if d:
                lead = top[p - d]
                assert not lead.is_zero and all(poly.is_zero for poly in top[: p - d])
                seen["constant" if lead.is_constant else "linear"] += 1
            else:
                assert all(poly.is_zero for poly in top)
    assert min(seen.values()) >= 50, seen
