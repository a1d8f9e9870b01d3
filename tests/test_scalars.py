"""Exact scalar arithmetic and its textual formats."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from irrtypes import (
    G_I,
    G_ONE,
    G_ZERO,
    AffineG1,
    GaussianRational,
    LaurentTail,
    MalformedInput,
    NotAUnit,
    SL2ZElement,
    TooLarge,
    TorusG2,
    TruncatedSeries,
    UpperHalfPoint,
    gauss,
)
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


class TestValueSemantics:
    @pytest.mark.parametrize("field", ["re", "im"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        a = gauss(1, 2)
        with pytest.raises(AttributeError):
            setattr(a, field, Fraction(5))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == gauss(1, 2)

    def test_hash_is_the_hash_of_the_parts(self):
        a = gauss(Fraction(-7, 3), Fraction(1, 2))
        assert hash(a) == hash((a.re, a.im))
        assert hash(G_ONE) == hash((Fraction(1), Fraction(0)))

    @pytest.mark.parametrize("other", [1, Fraction(1), (Fraction(1), Fraction(0)), "1", None])
    def test_comparison_with_another_type_is_not_implemented(self, other):
        assert gauss(1).__eq__(other) is NotImplemented
        assert (gauss(1) == other) is False
        assert gauss(1) != other

    def test_instances_have_no_dict(self):
        assert not hasattr(gauss(1, 2), "__dict__")

    def test_copy_and_pickle_round_trip(self):
        a = gauss(Fraction(-7, 3), Fraction(1, 2))
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b == a and type(b.re) is Fraction

    @pytest.mark.parametrize(
        "value, text",
        [
            (gauss(3), "3"),
            (gauss(Fraction(-1, 2)), "-1/2"),
            (gauss(1, 2), "(1+2i)"),
            (gauss(Fraction(1, 3), Fraction(-5, 7)), "(1/3-5/7i)"),
            (G_I, "(0+1i)"),
        ],
    )
    def test_repr(self, value, text):
        assert repr(value) == text


# The library's other immutable records: a factory, another value of the
# same class, the repr the frozen dataclasses they replaced printed, and
# one constructor call per check they run.
_RECORDS = [
    pytest.param(
        lambda: TruncatedSeries(2, (gauss(1), gauss(Fraction(1, 2), -3))),
        TruncatedSeries(2, (gauss(1), gauss(0))),
        "TruncatedSeries(order=2, coeffs=(1, (1/2-3i)))",
        [lambda: TruncatedSeries(0, ()), lambda: TruncatedSeries(2, [1]),
         lambda: TruncatedSeries(1, ["1"])],
        id="TruncatedSeries",
    ),
    pytest.param(
        lambda: LaurentTail(3, [gauss(0, 1), 0, Fraction(-2, 7)]),
        LaurentTail(0, ()),
        "LaurentTail(pole_order_bound=3, coeffs=((0+1i), 0, -2/7))",
        [lambda: LaurentTail(-1, ()), lambda: LaurentTail(1, ())],
        id="LaurentTail",
    ),
    pytest.param(
        lambda: AffineG1(gauss(Fraction(1, 2), 1), gauss(0, -1)),
        AffineG1(G_ZERO, G_ONE),
        "AffineG1(s=(1/2+1i), r=(0-1i))",
        [lambda: AffineG1(1, 0)],
        id="AffineG1",
    ),
    pytest.param(
        lambda: TorusG2(gauss(3, 4)),
        TorusG2(gauss(3, -4)),
        "TorusG2(r=(3+4i))",
        [lambda: TorusG2(G_ZERO)],
        id="TorusG2",
    ),
    pytest.param(
        lambda: UpperHalfPoint(gauss(Fraction(-1, 3), Fraction(2, 5))),
        UpperHalfPoint(G_I),
        "UpperHalfPoint(tau=(-1/3+2/5i))",
        [lambda: UpperHalfPoint(gauss(1)), lambda: UpperHalfPoint(gauss(1, -1))],
        id="UpperHalfPoint",
    ),
    pytest.param(
        lambda: SL2ZElement(2, 1, 1, 1),
        SL2ZElement(0, -1, 1, 0),
        "SL2ZElement(a=2, b=1, c=1, d=1)",
        [lambda: SL2ZElement(1, 1, 1, 1), lambda: SL2ZElement(Fraction(1), 0, 0, 1)],
        id="SL2ZElement",
    ),
]


@pytest.mark.parametrize("make, other, text, invalid", _RECORDS)
def test_record_semantics(make, other, text, invalid):
    a, b = make(), make()
    fields = tuple(getattr(a, name) for name in type(a).__match_args__)
    assert a == b and a is not b and hash(a) == hash(b) == hash(fields)
    assert a != other and hash(other) != hash(a)
    assert a.__eq__(fields) is NotImplemented and a != fields
    assert type(a)(*fields) == a
    assert repr(a) == text
    for name in type(a).__match_args__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and not hasattr(a, "__dict__")
    for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(c) is type(a) and c == a and repr(c) == text
    for build in invalid:
        with pytest.raises(MalformedInput):
            build()
