"""Round trips and strict-input rejection for the JSON codecs."""

import json
from fractions import Fraction

import pytest

from irrtypes import (
    AffineG1,
    ConnectionGerm,
    FamilyIrregularType,
    G_I,
    GaugeElement,
    GaussianRational,
    IrregularType,
    IrregularTypeAtInfinity,
    LaurentTail,
    LeviFiltration,
    MalformedInput,
    MultiPoly,
    RootOrderVector,
    RootSystem,
    SL2ZElement,
    TorusG2,
    TruncatedSeries,
    UpperHalfPoint,
    build_root_system,
    enumerate_levi,
    enumerate_strata,
    gauss,
)
from irrtypes.connections import gauge_from_json, gauge_to_json, germ_from_json, germ_to_json
from irrtypes.irregular import (
    atinf_from_json,
    atinf_to_json,
    family_from_json,
    family_to_json,
    irregular_type_from_json,
    irregular_type_to_json,
    order_vector_from_json,
    order_vector_to_json,
)
from irrtypes.polynomials import poly_from_json, poly_to_json
from irrtypes.rootsystems import (
    filtration_from_json,
    filtration_to_json,
    levi_from_json,
    levi_to_json,
    root_system_from_json,
    root_system_to_json,
)
from irrtypes.strata import stratum_from_json, stratum_to_json
from irrtypes.symmetry import (
    g1_from_json,
    g1_to_json,
    g2_from_json,
    g2_to_json,
    pair_from_json,
    pair_to_json,
    sl2z_from_json,
    sl2z_to_json,
    upper_half_from_json,
    upper_half_to_json,
)

A1 = RootSystem(1, [(Fraction(2),), (Fraction(-2),)], family="A1r1")
A2 = build_root_system("A", 2)


def _json_clean(payload):
    """Force through an actual JSON encode/decode cycle."""
    return json.loads(json.dumps(payload))


class TestScalarCodec:
    def test_round_trip(self):
        x = gauss(Fraction(3, 7), Fraction(-1, 2))
        assert GaussianRational.from_json(_json_clean(GaussianRational.to_json(x))) == x

    def test_rejects_extra_key(self):
        with pytest.raises(MalformedInput):
            GaussianRational.from_json({"re": "1", "im": "0", "extra": 1})

    def test_rejects_missing_key(self):
        with pytest.raises(MalformedInput):
            GaussianRational.from_json({"re": "1"})

    def test_rejects_bad_fraction(self):
        with pytest.raises(MalformedInput):
            GaussianRational.from_json({"re": "1/0", "im": "0"})
        with pytest.raises(MalformedInput):
            GaussianRational.from_json({"re": 1, "im": "0"})


class TestRootSystemCodec:
    def test_round_trip_named(self):
        data = _json_clean(root_system_to_json(A2))
        back = root_system_from_json(data)
        assert back == A2
        assert back.family == A2.family

    def test_round_trip_custom(self):
        system = RootSystem(2, [(Fraction(1), Fraction(1)), (Fraction(-1), Fraction(-1))])
        assert root_system_from_json(_json_clean(root_system_to_json(system))) == system

    def test_rejects_wrong_arity(self):
        data = root_system_to_json(A1)
        data["rank"] = True
        with pytest.raises(MalformedInput):
            root_system_from_json(data)


class TestTypeCodecs:
    def test_irregular_round_trip(self):
        q = IrregularType(A2, 2, [[1, G_I, 0], [0, 2, gauss(Fraction(1, 3))]])
        assert irregular_type_from_json(_json_clean(irregular_type_to_json(q))) == q

    def test_atinf_round_trip(self):
        q = IrregularTypeAtInfinity(A1, 3, [[1], [0], [G_I]])
        assert atinf_from_json(_json_clean(atinf_to_json(q))) == q

    def test_rejects_ragged_block(self):
        data = irregular_type_to_json(IrregularType(A1, 1, [[1]]))
        data["coefficients"] = [[gauss(1).to_json(), gauss(2).to_json()]]
        with pytest.raises(MalformedInput):
            irregular_type_from_json(data)


class TestPolyAndFamily:
    def test_poly_round_trip(self):
        poly = MultiPoly(
            ("x", "t"),
            {(2, 0): gauss(1), (0, 1): gauss(Fraction(-1, 2)), (1, 1): G_I},
        )
        data = _json_clean(poly_to_json(poly))
        assert poly_from_json(data, ("x", "t")) == poly

    def test_poly_rejects_duplicate_exponents(self):
        data = {
            "terms": [
                {"exponents": [1], "coefficient": gauss(1).to_json()},
                {"exponents": [1], "coefficient": gauss(2).to_json()},
            ]
        }
        with pytest.raises(MalformedInput):
            poly_from_json(data, ("x",))

    def test_family_round_trip(self):
        t = MultiPoly(("t",), {(1,): gauss(1)})
        one = MultiPoly(("t",), {(0,): gauss(1)})
        fam = FamilyIrregularType(A1, 2, ("t",), [[t], [one]])
        back = family_from_json(_json_clean(family_to_json(fam)))
        assert back.rootsystem == fam.rootsystem
        assert back.p == fam.p
        assert back.variables == fam.variables
        assert back.coefficients == fam.coefficients


class TestCombinatorialCodecs:
    def test_order_vector_round_trip(self):
        vec = RootOrderVector(A1, 2, [2, 2])
        assert order_vector_from_json(_json_clean(order_vector_to_json(vec))) == vec

    def test_levi_round_trip(self):
        for levi in enumerate_levi(A2):
            assert levi_from_json(_json_clean(levi_to_json(levi))) == levi

    def test_filtration_round_trip(self):
        filt = LeviFiltration(A1, [[0, 1], [0, 1]])
        assert filtration_from_json(_json_clean(filtration_to_json(filt))) == filt

    def test_stratum_round_trip(self):
        for stratum in enumerate_strata(A2, 2):
            data = _json_clean(stratum_to_json(stratum))
            assert stratum_from_json(A2, 2, data) == stratum

    def test_stratum_rejects_mismatched_levels(self):
        stratum = enumerate_strata(A1, 2)[0]
        data = stratum_to_json(stratum)
        other = next(
            s for s in enumerate_strata(A1, 2) if s.orders != stratum.orders
        )
        data["levels"] = stratum_to_json(other)["levels"]
        with pytest.raises(MalformedInput):
            stratum_from_json(A1, 2, data)


class TestConnectionCodecs:
    def _germ(self):
        def cell(tail, reg):
            return (LaurentTail(3, tail), TruncatedSeries(2, reg))

        zero = cell([0, 0, 0], [0, 0])
        return ConnectionGerm(
            2,
            2,
            [
                [cell([4, 0, 1], [5, 0]), zero],
                [zero, cell([-6, 0, 0], [0, Fraction(1, 2)])],
            ],
        )

    def test_germ_round_trip(self):
        germ = self._germ()
        assert germ_from_json(_json_clean(germ_to_json(germ))) == germ

    def test_germ_rejects_wrong_tail_length(self):
        data = germ_to_json(self._germ())
        data["entries"][0][0]["tail"] = data["entries"][0][0]["tail"][:-1]
        with pytest.raises(MalformedInput):
            germ_from_json(data)

    def test_gauge_round_trip(self):
        g = GaugeElement(
            2,
            [
                [[1, 0, 2], [0, 1, 0]],
                [[0, 0, 0], [1, 1, 0]],
            ],
        )
        assert gauge_from_json(_json_clean(gauge_to_json(g))) == g

    def test_gauge_rejects_short_cell(self):
        data = gauge_to_json(GaugeElement(1, [[[1, 0]]]))
        data["entries"][0][0] = data["entries"][0][0][:1]
        with pytest.raises(MalformedInput):
            gauge_from_json(data)


class TestSymmetryCodecs:
    def test_pair_round_trip(self):
        pair = (
            IrregularType(A1, 1, [[1]]),
            IrregularTypeAtInfinity(A1, 2, [[0], [G_I]]),
        )
        assert pair_from_json(_json_clean(pair_to_json(pair))) == pair

    def test_g1_round_trip(self):
        g = AffineG1(gauss(Fraction(1, 2), 1), gauss(0, -1))
        assert g1_from_json(_json_clean(g1_to_json(g))) == g

    def test_g2_round_trip(self):
        g = TorusG2(gauss(3, 4))
        assert g2_from_json(_json_clean(g2_to_json(g))) == g

    def test_sl2z_round_trip(self):
        g = SL2ZElement(2, 1, 1, 1)
        assert sl2z_from_json(_json_clean(sl2z_to_json(g))) == g

    def test_sl2z_rejects_bad_shapes(self):
        with pytest.raises(MalformedInput):
            sl2z_from_json([1, 0, 0])
        with pytest.raises(MalformedInput):
            sl2z_from_json([1, 0, 0, True])
        with pytest.raises(MalformedInput):
            sl2z_from_json([2, 0, 0, 1])

    def test_upper_half_round_trip(self):
        point = UpperHalfPoint(gauss(Fraction(-1, 3), Fraction(2, 5)))
        assert upper_half_from_json(_json_clean(upper_half_to_json(point))) == point

    def test_upper_half_rejects_lower(self):
        with pytest.raises(MalformedInput):
            upper_half_from_json({"tau": gauss(0, -1).to_json()})
