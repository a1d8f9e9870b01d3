"""The package namespace: what ``from irrtypes import *`` binds."""

from types import ModuleType

import irrtypes

PUBLIC_NAMES = {
    "AffineG1", "BadModulus", "ConnectionGerm", "EXIT_CODES", "FamilyIrregularType",
    "G_I", "G_ONE", "G_ZERO", "GaugeElement", "GaussianRational", "IDENTITY_G1",
    "INFINITE", "InfiniteOrder", "IrrTypesError", "IrregularType",
    "IrregularTypeAtInfinity", "LaurentTail", "LeadingNotRegular", "LeviFiltration",
    "LeviSubsystem", "MalformedInput", "MultiPoly", "NotAUnit", "NotInXn", "NotRegular",
    "NotRelevant", "NotSplitOverField", "OrderTooLow", "OutOfRange", "PrecisionExhausted",
    "RootOrderVector", "RootSystem", "SL2ZElement", "SearchExhausted", "ShapeMismatch",
    "StratumDescriptor", "TooLarge", "TorusG2", "TruncatedSeries", "Twisted",
    "Unsupported", "UpperHalfPoint", "ZeroPair", "atinf_root_order",
    "atinf_root_order_vector", "build_root_system", "closure_leq", "convention_swap",
    "dm_check", "dvector_to_filtration", "enumerate_levi", "enumerate_strata",
    "evaluate_root", "exchange_map", "exchange_map_inverse", "exit_code_for",
    "extract_irregular_type", "family_root_order", "filtration_to_dvector", "g1_act",
    "g1_slice", "g1_stabilizer_order", "g2_act", "g2_stabilizer_order", "gauge_compose",
    "gauge_transform", "gauss", "gl_cartan_system", "is_admissible", "is_relevant",
    "is_untwisted_in_basis", "leading_regular_diagonalize", "levi_filtration_of", "phi_n",
    "phi_n_inverse", "rat_from_str", "rat_to_str", "root_order", "root_order_vector",
    "section_basis_decompose", "section_basis_reconstruct", "series_derivative",
    "series_inverse", "sl2z_act", "span_closure", "stratum_dimension", "stratum_witness",
    "sublevel_sets", "verify_framing_invariance", "weighted_orbit_equivalent",
}


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 90
    assert len(irrtypes.__all__) == len(set(irrtypes.__all__))
    assert set(irrtypes.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves_and_is_no_module():
    for name in irrtypes.__all__:
        value = getattr(irrtypes, name)
        assert not isinstance(value, ModuleType), name


def test_star_import_leaves_submodule_names_alone():
    namespace = {"errors": "mine", "series": "mine"}
    exec("from irrtypes import *", namespace)
    assert namespace["errors"] == "mine" and namespace["series"] == "mine"
    assert namespace["IrregularTypeAtInfinity"] is irrtypes.IrregularTypeAtInfinity
