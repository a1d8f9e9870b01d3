"""Exact computation with untwisted irregular types on Riemann surfaces.

The library works over the Gaussian rationals throughout: root systems
realized in rational ambient space, irregular types as principal-part
coefficient tuples, stratification of the coefficient space by root
orders with Levi-filtration combinatorics, pole-order analysis of
families, irregular-type extraction from framed formal connection
germs, and the symmetry groups acting on low-genus moduli together
with their stabilizers.  Every answer is exact; floating point appears
nowhere.

Importing the package runs no submodule.  Each submodule is bound here
and placed in ``sys.modules`` at once, but its body runs on the first
attribute access, such as ``irrtypes.strata.enumerate_strata``.  A
public name such as ``irrtypes.enumerate_strata`` loads its submodule
the same way.  On Python 3.10 and 3.11 that first load takes no lock, so
the first touch of a submodule must not race across threads.

Each type's JSON codec (``root_system_to_json``, ``germ_from_json``, ...)
lives in the submodule that defines the type, and the shape checks they
share live in ``scalars``.  So a CLI request loads ``errors``, the
modules of the types it decodes or encodes, and what those modules
import; ``version``, ``--help``, usage errors and documents that do not
parse load only ``errors``.  No request loads ``dataclasses`` or
``inspect``: the records are hand-written slotted classes.
"""

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"
SCHEMA_VERSION = 1

# Public name -> the submodule that defines it.  ``__getattr__`` reads
# this table; ``__all__`` below lists the same names.
_SOURCES = {
    **dict.fromkeys((
        "BadModulus", "EXIT_CODES", "IrrTypesError", "LeadingNotRegular", "MalformedInput",
        "NotAUnit", "NotInXn", "NotRegular", "NotRelevant", "NotSplitOverField", "OrderTooLow",
        "OutOfRange", "PrecisionExhausted", "SearchExhausted", "ShapeMismatch", "TooLarge",
        "Twisted", "Unsupported", "ZeroPair", "exit_code_for",
    ), "errors"),
    **dict.fromkeys((
        "G_I", "G_ONE", "G_ZERO", "GaussianRational", "gauss", "rat_from_str", "rat_to_str",
    ), "scalars"),
    "MultiPoly": "polynomials",
    **dict.fromkeys((
        "LaurentTail", "TruncatedSeries", "section_basis_decompose", "section_basis_reconstruct",
        "series_derivative", "series_inverse",
    ), "series"),
    **dict.fromkeys((
        "LeviFiltration", "LeviSubsystem", "RootSystem", "build_root_system", "enumerate_levi",
        "span_closure",
    ), "rootsystems"),
    **dict.fromkeys((
        "FamilyIrregularType", "IrregularType", "IrregularTypeAtInfinity", "RootOrderVector",
        "evaluate_root", "family_root_order", "is_admissible", "levi_filtration_of",
        "root_order", "root_order_vector", "sublevel_sets",
    ), "irregular"),
    **dict.fromkeys((
        "StratumDescriptor", "closure_leq", "dvector_to_filtration", "enumerate_strata",
        "filtration_to_dvector", "is_relevant", "stratum_dimension", "stratum_witness",
    ), "strata"),
    **dict.fromkeys((
        "ConnectionGerm", "GaugeElement", "extract_irregular_type", "gauge_compose",
        "gauge_transform", "gl_cartan_system", "is_untwisted_in_basis",
        "leading_regular_diagonalize", "verify_framing_invariance",
    ), "connections"),
    **dict.fromkeys((
        "AffineG1", "IDENTITY_G1", "INFINITE", "InfiniteOrder", "SL2ZElement", "TorusG2",
        "UpperHalfPoint", "atinf_root_order", "atinf_root_order_vector", "convention_swap",
        "dm_check", "exchange_map", "exchange_map_inverse", "g1_act", "g1_slice",
        "g1_stabilizer_order", "g2_act", "g2_stabilizer_order", "phi_n", "phi_n_inverse",
        "sl2z_act", "weighted_orbit_equivalent",
    ), "symmetry"),
}

# Public names only: submodules stay out, so ``from irrtypes import *``
# cannot shadow a caller's ``errors`` or ``series``.  Written out, not
# derived from the table, so that static tools can read it.
__all__ = [
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
]


def _register_lazily(name: str):
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Every submodule but ``cli``: ``python -m irrtypes.cli`` warns when its
# module is in ``sys.modules`` before it runs.  The order is the order of
# first import, each submodule after those it imports.
for _name in (
    "errors", "scalars", "polynomials", "series", "rootsystems", "irregular",
    "strata", "connections", "symmetry",
):
    globals()[_name] = _register_lazily(_name)
del _name


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_SOURCES[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCES))
