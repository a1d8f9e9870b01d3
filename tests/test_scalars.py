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
    ConnectionGerm,
    FamilyIrregularType,
    GaugeElement,
    GaussianRational,
    IrregularType,
    IrregularTypeAtInfinity,
    LaurentTail,
    LeviFiltration,
    LeviSubsystem,
    MalformedInput,
    MultiPoly,
    NotAUnit,
    RootOrderVector,
    RootSystem,
    ShapeMismatch,
    SL2ZElement,
    StratumDescriptor,
    TooLarge,
    TorusG2,
    TruncatedSeries,
    UpperHalfPoint,
    build_root_system,
    enumerate_levi,
    enumerate_strata,
    filtration_to_dvector,
    gauge_compose,
    gauge_transform,
    gauss,
    stratum_witness,
)
from irrtypes import connections, root_order_vector, scalars
from irrtypes.scalars import LITERAL_DIGIT_BUDGET, _bare, rat_from_str, rat_to_str


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


class TestIntegerFormBudget:
    def test_budget_counts_exactly(self, monkeypatch):
        """The integer form of a vector holds its length times the bits of its
        common denominator.  The root (1/7, 1/8) scales by 56, of 6 bits, so
        its form holds 12 bits.  The coefficient vector (1/3, i/5) has four
        parts over 15, of 4 bits, so its form holds 16."""
        roots = [(Fraction(1, 7), Fraction(1, 8)), (Fraction(-1, 7), Fraction(-1, 8))]
        monkeypatch.setattr(scalars, "INTEGER_FORM_BUDGET", 12)
        system = RootSystem(2, roots)
        assert system._rows == ((8, 7), (-8, -7))
        monkeypatch.setattr(scalars, "INTEGER_FORM_BUDGET", 11)
        with pytest.raises(TooLarge, match="^common denominator exceeds 5 bits$"):
            RootSystem(2, roots)
        q = IrregularType(system, 1, [[gauss(Fraction(1, 3)), gauss(0, Fraction(1, 5))]])
        monkeypatch.setattr(scalars, "INTEGER_FORM_BUDGET", 16)
        assert root_order_vector(q).orders == (1, 1)
        monkeypatch.setattr(scalars, "INTEGER_FORM_BUDGET", 15)
        with pytest.raises(TooLarge, match="^common denominator exceeds 3 bits$"):
            root_order_vector(q)


class TestRootIntegerFormAllowance:
    def test_pairs_share_one_allowance_and_negations_cost_nothing(self, monkeypatch):
        """(1/7, 1/8) holds 12 bits and (1/3, 1/5) 8: their negations reuse the
        rows, so the system holds 20.  At 19 the second vector may use
        (19 - 12) // 2 = 3 bits."""
        roots = [(Fraction(1, 7), Fraction(1, 8)), (Fraction(1, 3), Fraction(1, 5))]
        roots += [tuple(-x for x in v) for v in roots]
        monkeypatch.setattr(scalars, "INTEGER_FORM_BUDGET", 20)
        assert RootSystem(2, roots)._rows == ((8, 7), (5, 3), (-8, -7), (-5, -3))
        monkeypatch.setattr(scalars, "INTEGER_FORM_BUDGET", 19)
        with pytest.raises(TooLarge, match="^common denominator exceeds 3 bits$"):
            RootSystem(2, roots)


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


_A1 = build_root_system("A", 1)
_A2 = build_root_system("A", 2)
_X = MultiPoly.variable(("x",), "x")
_GAUGE = GaugeElement(2, [[[1, 1], [0, 2]], [[0, 1], [1, 3]]])
_GERM = ConnectionGerm.from_order_dict(2, 1, 2, {-2: [[1, 0], [0, 2]], -1: [[gauss(0, 1), 0], [0, 3]]})


# The library's other immutable records: a factory, another value of the
# same class, the repr it prints, and one constructor call per check it
# runs, each raising ``MalformedInput`` unless paired with its error.
# Factories that compute their value (``enumerate_levi``,
# ``enumerate_strata``, ``filtration_to_dvector``, ``gauge_compose``)
# wrap it with ``_bare``, so its copies are its first checked build.
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
    pytest.param(
        lambda: build_root_system("A", 2),
        RootSystem(1, [(1,), (-1,)]),
        "RootSystem(A2, rank=3)",
        [lambda: RootSystem(0, []), lambda: RootSystem(1, [(1,)]), lambda: RootSystem(1, [(0,)]),
         lambda: RootSystem(1, [(1,), (1,), (-1,)]), lambda: RootSystem(2, [(1,), (-1,)])],
        id="RootSystem",
    ),
    pytest.param(
        lambda: enumerate_levi(_A2)[1],
        enumerate_levi(_A2)[2],
        "LeviSubsystem([0, 5])",
        [lambda: LeviSubsystem(_A2, [0, 1])],
        id="LeviSubsystem",
    ),
    pytest.param(
        lambda: enumerate_strata(_A2, 2)[3].filtration,
        LeviFiltration(_A2, [[], []]),
        "LeviFiltration([[], [2, 3]])",
        [lambda: LeviFiltration(_A2, [[2, 3], []]), lambda: LeviFiltration(_A2, [[0]])],
        id="LeviFiltration",
    ),
    pytest.param(
        lambda: stratum_witness(_A2, 1, [1] * 6),
        IrregularType.zero(_A2, 1),
        "IrregularType(p=1, rank=3)",
        [lambda: IrregularType(_A2, -1, []), lambda: IrregularType(_A2, 1, []),
         lambda: IrregularType(_A2, 1, [[1]])],
        id="IrregularType",
    ),
    pytest.param(
        lambda: IrregularTypeAtInfinity(_A1, 2, [[1, gauss(0, 1)], [0, Fraction(1, 2)]]),
        IrregularTypeAtInfinity.zero(_A1, 2),
        "IrregularTypeAtInfinity(p=2, rank=2)",
        [lambda: IrregularTypeAtInfinity(_A1, 1, [[1, 2], [3, 4]])],
        id="IrregularTypeAtInfinity",
    ),
    pytest.param(
        lambda: filtration_to_dvector(enumerate_strata(_A2, 2)[3].filtration),
        RootOrderVector(_A2, 2, [2] * 6),
        "RootOrderVector([2, 2, 1, 1, 2, 2])",
        [lambda: RootOrderVector(_A2, 1, [2] * 6), lambda: RootOrderVector(_A2, 1, [1] + [0] * 5),
         lambda: RootOrderVector(_A2, 1, [1])],
        id="RootOrderVector",
    ),
    pytest.param(
        lambda: FamilyIrregularType(_A1, 1, ("x",), [[_X, MultiPoly.zero(("x",))]]),
        FamilyIrregularType(_A1, 0, ("x",), []),
        "FamilyIrregularType(rootsystem=RootSystem(A1, rank=2), p=1, variables=('x',), "
        "coefficients=((1*x, 0),))",
        [lambda: FamilyIrregularType(_A1, -1, ("x",), []),
         lambda: FamilyIrregularType(_A1, 1, ("y",), [[_X, _X]])],
        id="FamilyIrregularType",
    ),
    pytest.param(
        lambda: enumerate_strata(_A2, 2)[3],
        enumerate_strata(_A2, 2)[0],
        "StratumDescriptor(d=[2, 2, 1, 1, 2, 2], p=2)",
        [(ShapeMismatch, lambda: StratumDescriptor(RootOrderVector(_A2, 2, [2] * 6), LeviFiltration(_A2, [[]]))),
         (ShapeMismatch,
          lambda: StratumDescriptor(RootOrderVector(_A2, 1, [1] * 6), LeviFiltration(_A2, [[0, 5]])))],
        id="StratumDescriptor",
    ),
    pytest.param(
        lambda: gauge_compose(_GAUGE, _GAUGE),
        GaugeElement.identity(2),
        "GaugeElement(r=2, order=3)",
        [lambda: GaugeElement(0, []), lambda: GaugeElement(1, [[[1], [1]]]),
         (NotAUnit, lambda: GaugeElement.from_constant([[1, 2], [2, 4]]))],
        id="GaugeElement",
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
        error, build = build if isinstance(build, tuple) else (MalformedInput, build)
        with pytest.raises(error):
            build()


def test_polynomials_and_germs_are_records_with_their_own_hash_rules():
    """``MultiPoly`` hashes its term dict in a fixed order; ``ConnectionGerm``
    is unhashable and copies through ``from_order_dict``."""
    poly = MultiPoly(("x", "y"), {(1, 0): gauss(2), (0, 2): gauss(0, 1)})
    germ = gauge_transform(_GERM, _GAUGE)
    assert hash(poly) == hash(MultiPoly(("x", "y"), {(0, 2): gauss(0, 1), (1, 0): gauss(2)}))
    with pytest.raises(TypeError):
        hash(germ)
    assert poly != poly.terms and germ != germ._lau
    germ_fields = ("r", "pole_bound", "precision", "_lau")
    for value, fields in ((poly, ("variables", "terms")), (germ, germ_fields)):
        for name in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
        for c in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(c) is type(value) and c == value and repr(c) == repr(value)


@pytest.mark.parametrize(
    "bad",
    [
        _bare(LeviSubsystem, system=_A2, members=frozenset({0, 1})),
        _bare(RootOrderVector, rootsystem=_A2, p=1, orders=(7,) * 6),
        # a germ of window -1 .. 0 holding a coefficient at order -5
        _bare(ConnectionGerm, r=1, pole_bound=0, precision=1, _lau=connections._Lau(1, {-5: [[(1, 0)]]}, 1, 1, -5)),
    ],
    ids=["LeviSubsystem", "RootOrderVector", "ConnectionGerm"],
)
def test_copies_rerun_the_constructor_checks(bad):
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(MalformedInput):
            clone(bad)
