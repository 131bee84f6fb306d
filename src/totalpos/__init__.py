"""Exact total-positivity toolkit: planar networks, minor scans, and the
general-position certificates for the three-block polynomial family."""

from __future__ import annotations

__version__ = "1.0.0"

from .errors import (
    EnumerationBudgetError,
    ScanBudgetError,
    SearchExhaustedError,
)
from .families import (
    PositiveMinorReport,
    binomial_block_matrix,
    block_determinants,
    coefficient_matrix,
    family_polys,
    general_position,
    positive_minor_scan,
    sign_factorization_check,
    sign_factorization_matrices,
    verify_network_equals_block_matrix,
)
from .matrices import (
    ExactMatrix,
    GeneralPositionReport,
    MinorQuery,
    MinorWitness,
    ScanVerdict,
    TPCertificate,
    determinant,
    diagonal,
    is_totally_nonnegative,
    is_totally_positive,
    maximal_minor_scan,
    minor,
)
from .networks import (
    PathCollection,
    PlanarNetwork,
    export_dot,
    export_json,
    find_positive_collection,
    lgv_oracle_minor,
    weight_matrix,
)
from .poly import Polynomial
from .scalars import (
    Rational,
    SaalschuetzCheck,
    binomial,
    format_rational,
    pochhammer,
    saalschuetz_check,
)
from .surface import (
    ExtPolynomial,
    ExtScalar,
    FamilyConstants,
    SearchResult,
    WeierstrassData,
    ext_i,
    ext_rational,
    ext_sigma,
    extended_family,
    hyperplane_coefficients,
    search_constants,
    verify_extended_general_position,
    weierstrass_h,
    wronskian,
)
from .three_section import (
    LemmaPathReport,
    PairCheck,
    SectionWeights,
    build_three_section,
    closed_form_entry,
    closed_form_matrix,
    lemma_path_report,
    standard_weights,
    w_ab_formula,
    w_ab_oracle,
    weight_key_set,
)

__all__ = [
    "__version__",
    # errors
    "EnumerationBudgetError",
    "ScanBudgetError",
    "SearchExhaustedError",
    # scalars
    "Rational",
    "SaalschuetzCheck",
    "binomial",
    "format_rational",
    "pochhammer",
    "saalschuetz_check",
    # matrices
    "ExactMatrix",
    "GeneralPositionReport",
    "MinorQuery",
    "MinorWitness",
    "ScanVerdict",
    "TPCertificate",
    "determinant",
    "diagonal",
    "is_totally_nonnegative",
    "is_totally_positive",
    "maximal_minor_scan",
    "minor",
    # polynomials
    "Polynomial",
    # networks
    "PathCollection",
    "PlanarNetwork",
    "export_dot",
    "export_json",
    "find_positive_collection",
    "lgv_oracle_minor",
    "weight_matrix",
    # three-section network
    "LemmaPathReport",
    "PairCheck",
    "SectionWeights",
    "build_three_section",
    "closed_form_entry",
    "closed_form_matrix",
    "lemma_path_report",
    "standard_weights",
    "w_ab_formula",
    "w_ab_oracle",
    "weight_key_set",
    # polynomial family
    "PositiveMinorReport",
    "binomial_block_matrix",
    "block_determinants",
    "coefficient_matrix",
    "family_polys",
    "general_position",
    "positive_minor_scan",
    "sign_factorization_check",
    "sign_factorization_matrices",
    "verify_network_equals_block_matrix",
    # extended families
    "ExtPolynomial",
    "ExtScalar",
    "FamilyConstants",
    "SearchResult",
    "WeierstrassData",
    "ext_i",
    "ext_rational",
    "ext_sigma",
    "extended_family",
    "hyperplane_coefficients",
    "search_constants",
    "verify_extended_general_position",
    "weierstrass_h",
    "wronskian",
]
