"""Exact scalar arithmetic and its textual formats."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from irrtypes import G_I, G_ONE, G_ZERO, GaussianRational, MalformedInput, NotAUnit, TooLarge, gauss
from irrtypes.scalars import LITERAL_DIGIT_BUDGET, rat_from_str, rat_to_str


small_rat = st.fractions(min_value=-50, max_value=50, max_denominator=50)


class TestRationalFormat:
    def test_integer_form(self):
        assert rat_to_str(Fraction(7)) == "7"
        assert rat_to_str(Fraction(-3)) == "-3"
        assert rat_to_str(Fraction(0)) == "0"

    def test_fraction_form_is_reduced(self):
        assert rat_to_str(Fraction(2, 4)) == "1/2"
        assert rat_to_str(Fraction(-6, 4)) == "-3/2"

    def test_parse(self):
        assert rat_from_str("7") == Fraction(7)
        assert rat_from_str("-3/2") == Fraction(-3, 2)
        assert rat_from_str("+5/10") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["", "1.5", "1/2/3", "a", "1 / 2", "1/-2", None, 3])
    def test_rejects_noise(self, bad):
        with pytest.raises(MalformedInput):
            rat_from_str(bad)

    def test_zero_denominator(self):
        with pytest.raises(MalformedInput):
            rat_from_str("1/0")

    def test_digit_budget(self):
        at_budget = "9" * LITERAL_DIGIT_BUDGET
        assert rat_from_str(f"-{at_budget}/7") == Fraction(-int(at_budget), 7)
        for text in ("9" * 5000, f"1/{'9' * 5000}", "-" + "0" * 5000 + "1"):
            with pytest.raises(TooLarge):
                rat_from_str(text)
        assert rat_to_str(Fraction(-int(at_budget), 7)) == f"-{at_budget}/7"
        for value in (Fraction(10**LITERAL_DIGIT_BUDGET), Fraction(1, -(10**LITERAL_DIGIT_BUDGET))):
            with pytest.raises(TooLarge):
                rat_to_str(value)

    @given(small_rat)
    def test_round_trip(self, q):
        assert rat_from_str(rat_to_str(q)) == q


class TestGaussianField:
    def test_coercion(self):
        assert GaussianRational.of(3) == gauss(3)
        assert GaussianRational.of(Fraction(1, 2)) == gauss(Fraction(1, 2))
        assert GaussianRational.of(G_I) is G_I

    def test_i_squared(self):
        assert G_I * G_I == gauss(-1)

    def test_division(self):
        a = gauss(1, 2)
        b = gauss(3, -1)
        assert (a / b) * b == a

    def test_inverse_of_zero(self):
        with pytest.raises(NotAUnit):
            G_ZERO.inverse()

    def test_pow_negative(self):
        a = gauss(2, 1)
        assert a ** -2 == (a * a).inverse()
        assert a ** 0 == G_ONE

    def test_truthiness(self):
        assert not G_ZERO
        assert G_I
        assert gauss(0, Fraction(1, 7))

    def test_conjugate_norm(self):
        a = gauss(3, 4)
        assert a * a.conjugate() == gauss(a.norm_sq())

    @given(small_rat, small_rat, small_rat, small_rat)
    def test_field_axioms_sample(self, p, q, r, s):
        a, b = gauss(p, q), gauss(r, s)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (a + b) == a * a + a * b
        if b:
            assert (a / b) * b == a

    def test_json_round_trip(self):
        a = gauss(Fraction(-7, 3), Fraction(1, 2))
        assert GaussianRational.from_json(a.to_json()) == a

    def test_json_rejects_extra_keys(self):
        with pytest.raises(MalformedInput):
            GaussianRational.from_json({"re": "1", "im": "0", "hint": "x"})

    def test_json_rejects_non_strings(self):
        with pytest.raises(MalformedInput):
            GaussianRational.from_json({"re": 1, "im": "0"})
