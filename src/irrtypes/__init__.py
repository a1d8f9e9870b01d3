"""Exact computation with untwisted irregular types on Riemann surfaces.

The library works over the Gaussian rationals throughout: root systems
realized in rational ambient space, irregular types as principal-part
coefficient tuples, stratification of the coefficient space by root
orders with Levi-filtration combinatorics, pole-order analysis of
families, irregular-type extraction from framed formal connection
germs, and the symmetry groups acting on low-genus moduli together
with their stabilizers.  Every answer is exact; floating point appears
nowhere.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BadModulus,
    EXIT_CODES,
    IrrTypesError,
    LeadingNotRegular,
    MalformedInput,
    NotAUnit,
    NotInXn,
    NotRegular,
    NotRelevant,
    NotSplitOverField,
    OrderTooLow,
    OutOfRange,
    PrecisionExhausted,
    SearchExhausted,
    ShapeMismatch,
    TooLarge,
    Twisted,
    Unsupported,
    ZeroPair,
    exit_code_for,
)
from .scalars import G_I, G_ONE, G_ZERO, GaussianRational, gauss, rat_from_str, rat_to_str
from .polynomials import MultiPoly
from .series import (
    LaurentTail,
    TruncatedSeries,
    section_basis_decompose,
    section_basis_reconstruct,
    series_derivative,
    series_inverse,
)
from .rootsystems import (
    LeviFiltration,
    LeviSubsystem,
    RootSystem,
    build_root_system,
    enumerate_levi,
    span_closure,
)
from .irregular import (
    FamilyIrregularType,
    IrregularType,
    IrregularTypeAtInfinity,
    RootOrderVector,
    evaluate_root,
    family_root_order,
    is_admissible,
    levi_filtration_of,
    root_order,
    root_order_vector,
    sublevel_sets,
)
from .strata import (
    StratumDescriptor,
    closure_leq,
    dvector_to_filtration,
    enumerate_strata,
    filtration_to_dvector,
    is_relevant,
    stratum_dimension,
    stratum_witness,
)
from .connections import (
    ConnectionGerm,
    GaugeElement,
    extract_irregular_type,
    gauge_compose,
    gauge_transform,
    gl_cartan_system,
    is_untwisted_in_basis,
    leading_regular_diagonalize,
    verify_framing_invariance,
)
from .symmetry import (
    AffineG1,
    IDENTITY_G1,
    INFINITE,
    InfiniteOrder,
    SL2ZElement,
    TorusG2,
    UpperHalfPoint,
    atinf_root_order,
    atinf_root_order_vector,
    convention_swap,
    dm_check,
    exchange_map,
    exchange_map_inverse,
    g1_act,
    g1_slice,
    g1_stabilizer_order,
    g2_act,
    g2_stabilizer_order,
    phi_n,
    phi_n_inverse,
    sl2z_act,
    weighted_orbit_equivalent,
)

__version__ = "0.1.0"

# Public names only: the submodules bound by the imports above stay out,
# so ``from irrtypes import *`` cannot shadow a caller's ``errors`` or
# ``series``.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
