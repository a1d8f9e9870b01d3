"""Exact linear algebra over the rationals and Gaussian rationals.

These tests check the test-side oracles in ``fraction_oracles`` that other
tests rely on: the ``Fraction`` elimination the root layer is compared
with, and the inverse, characteristic polynomial and products the germ
layer is compared with.
"""

from fractions import Fraction

import pytest

from irrtypes import G_ONE, G_ZERO, NotAUnit, gauss
from fraction_oracles import (
    char_poly,
    clear_denominators,
    in_row_span,
    kernel_basis,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_vec,
    rref,
)


F = Fraction


class TestElimination:
    def test_rank(self):
        assert mat_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
        assert mat_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
        assert mat_rank([]) == 0

    def test_row_span(self):
        rows = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
        assert in_row_span(rows, [F(1), F(2), F(1)])
        assert not in_row_span(rows, [F(0), F(0), F(1)])

    def test_precomputed_echelon_matches(self):
        rows = [[F(2), F(4)], [F(1), F(3)]]
        echelon = rref(rows)
        assert in_row_span(echelon, [F(5), F(11)])  # 2 * row1 + row2

    def test_kernel_dimension(self):
        rows = [[F(1), F(1), F(1)]]
        basis = kernel_basis(rows, 3, F(1), F(0))
        assert len(basis) == 2
        for v in basis:
            assert sum(v, F(0)) == 0

    def test_kernel_of_full_rank(self):
        rows = [[F(1), F(0)], [F(0), F(1)]]
        assert kernel_basis(rows, 2, F(1), F(0)) == []

    def test_kernel_over_gaussian(self):
        rows = [[G_ONE, gauss(0, 1)]]  # x + i y = 0
        basis = kernel_basis(rows, 2, G_ONE, G_ZERO)
        assert len(basis) == 1
        x, y = basis[0]
        assert x + gauss(0, 1) * y == G_ZERO


class TestInverse:
    def test_round_trip(self):
        m = [[gauss(1), gauss(2)], [gauss(3), gauss(5)]]
        inv = mat_inverse(m, G_ONE, G_ZERO)
        assert mat_mul(m, inv) == mat_identity(2, G_ONE, G_ZERO)

    def test_singular(self):
        with pytest.raises(NotAUnit):
            mat_inverse([[gauss(1), gauss(2)], [gauss(2), gauss(4)]], G_ONE, G_ZERO)


class TestCharPoly:
    def test_companion(self):
        # x^2 - 5x + 6 has companion matrix [[0, -6], [1, 5]]
        m = [[gauss(0), gauss(-6)], [gauss(1), gauss(5)]]
        assert char_poly(m, G_ONE, G_ZERO) == [G_ONE, gauss(-5), gauss(6)]

    def test_diagonal(self):
        m = [[gauss(2), gauss(0)], [gauss(0), gauss(3)]]
        # (x - 2)(x - 3) = x^2 - 5x + 6
        assert char_poly(m, G_ONE, G_ZERO) == [G_ONE, gauss(-5), gauss(6)]

    def test_cayley_hamilton(self):
        m = [[gauss(1), gauss(2), gauss(0)], [gauss(0, 1), gauss(0), gauss(1)], [gauss(3), gauss(1), gauss(-2)]]
        coeffs = char_poly(m, G_ONE, G_ZERO)
        acc = [[G_ZERO] * 3 for _ in range(3)]
        power = mat_identity(3, G_ONE, G_ZERO)
        for c in reversed(coeffs):
            acc = [[acc[i][j] + power[i][j] * c for j in range(3)] for i in range(3)]
            power = mat_mul(m, power)
        assert acc == [[G_ZERO] * 3 for _ in range(3)]


class TestClearDenominators:
    def test_primitive_integer_output(self):
        v = clear_denominators([F(1, 2), F(-1, 3), F(0)])
        assert v == [F(3), F(-2), F(0)]

    def test_sign_normalization(self):
        v = clear_denominators([F(-1, 2), F(1, 4)])
        assert v[0] > 0


def test_mat_vec():
    m = [[gauss(1), gauss(2)], [gauss(0), gauss(1)]]
    assert mat_vec(m, [gauss(3), gauss(4)]) == [gauss(11), gauss(4)]
