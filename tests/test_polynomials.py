"""Multivariate polynomial ring over the Gaussian rationals."""

import copy
import pickle
from fractions import Fraction

import pytest

from irrtypes import G_ONE, G_ZERO, MalformedInput, MultiPoly, ShapeMismatch, gauss


V = ("x", "z")


def x():
    return MultiPoly.variable(V, "x")


def z():
    return MultiPoly.variable(V, "z")


def const(c):
    return MultiPoly.constant(V, c)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = MultiPoly(V, {(1, 0): G_ZERO, (0, 1): G_ONE})
        assert p == z()

    def test_terms_cannot_change_after_the_checks(self):
        """The terms are read-only: a set keeps finding the polynomial, and no
        zero term gets past the constructor, on copies and pickles too."""
        p = MultiPoly(("x",), {(1,): gauss(2)})
        held = {p}
        for value in (p, copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            with pytest.raises(TypeError):
                value.terms[(1,)] = gauss(0)
            with pytest.raises(TypeError):
                del value.terms[(1,)]
            assert value in held and value == p and hash(value) == hash(p)
            assert repr(value) == "2*x" and value.terms[(1,)] == gauss(2) and value.terms.get((0,)) is None

    def test_duplicate_variables_rejected(self):
        with pytest.raises(MalformedInput):
            MultiPoly(("x", "x"), {})

    def test_negative_exponents_rejected(self):
        with pytest.raises(MalformedInput):
            MultiPoly(V, {(-1, 0): G_ONE})

    def test_wrong_arity_rejected(self):
        with pytest.raises(MalformedInput):
            MultiPoly(V, {(1,): G_ONE})


class TestRingOps:
    def test_arithmetic(self):
        p = (x() + z()) * (x() - z())
        assert p == x() * x() - z() * z()

    def test_mixed_tuples_rejected(self):
        with pytest.raises(ShapeMismatch):
            x() + MultiPoly.variable(("y",), "y")

    def test_pow(self):
        p = (x() + const(1)).pow_int(3)
        expected = x() * x() * x() + const(3) * x() * x() + const(3) * x() + const(1)
        assert p == expected

    def test_degrees(self):
        p = x() * x() * z() + z()
        assert p.total_degree() == 3
        assert p.degree_in("x") == 2
        assert p.degree_in("z") == 1

    def test_evaluate(self):
        p = x() * x() + z().scale(2)
        value = p.evaluate([gauss(0, 1), gauss(Fraction(1, 2))])
        assert value == gauss(-1) + gauss(1)

    def test_substitute(self):
        p = x() * z()
        q = p.substitute({"z": x() + const(1)})
        assert q == x() * x() + x()


class TestCoefficientViews:
    def test_coeffs_in_and_back(self):
        p = z() * z() * x() + z().scale(3) + const(5)
        cs = p.coeffs_in("z")
        assert len(cs) == 3
        assert cs[0] == MultiPoly.constant(V, 5)
        assert cs[1] == MultiPoly.constant(V, 3)
        assert cs[2] == x()
        assert MultiPoly.from_coeffs_in(V, "z", cs) == p

    def test_coeffs_of_zero(self):
        assert MultiPoly.zero(V).coeffs_in("z") == [MultiPoly.zero(V)]

    def test_sorted_terms_deterministic(self):
        p = x() + z() + x() * z()
        terms = p.sorted_terms()
        assert [e for e, _ in terms] == [(0, 1), (1, 0), (1, 1)]
