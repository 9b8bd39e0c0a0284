"""Matching polynomials, spectral radius, and matching energy of
r-uniform supertrees, with constructors and verification suites for the
classical cospectral families."""

from .hypergraph import (
    HypergraphError,
    UniformHypergraph,
    are_isomorphic,
    clear_polynomial_cache,
    disjoint_union,
)
from .polynomial import PolynomialShapeError, SparsePolynomial
from .families import (
    Anchored,
    attach_pendant,
    bridge,
    coalesce,
    coalesce_mixed,
    coalesce_power,
    family_q,
    family_r,
    family_t,
    family_w,
    family_z,
    loose_path,
    power,
    random_supertree,
)
from .matching import (
    ReducedPolynomial,
    matching_counts,
    matching_polynomial,
    matching_polynomial_oracle,
    reduce_polynomial,
)
from .spectra import (
    DEFAULT_TOL,
    RootFindingError,
    SpectralSummary,
    default_tol,
    largest_real_root,
    matching_energy,
    roots,
    spectral_radius,
    spectral_summary,
    tree_char_poly,
)
from .suites import (
    SuiteReport,
    check_cospectral,
    run_suite,
    suite_bridge,
    suite_coalesce,
    suite_path_w,
)

__version__ = "0.1.0"

__all__ = [
    "Anchored",
    "DEFAULT_TOL",
    "HypergraphError",
    "PolynomialShapeError",
    "ReducedPolynomial",
    "RootFindingError",
    "SparsePolynomial",
    "SpectralSummary",
    "SuiteReport",
    "UniformHypergraph",
    "are_isomorphic",
    "attach_pendant",
    "bridge",
    "check_cospectral",
    "clear_polynomial_cache",
    "coalesce",
    "coalesce_mixed",
    "coalesce_power",
    "default_tol",
    "disjoint_union",
    "family_q",
    "family_r",
    "family_t",
    "family_w",
    "family_z",
    "largest_real_root",
    "loose_path",
    "matching_counts",
    "matching_energy",
    "matching_polynomial",
    "matching_polynomial_oracle",
    "power",
    "random_supertree",
    "reduce_polynomial",
    "roots",
    "run_suite",
    "spectral_radius",
    "spectral_summary",
    "suite_bridge",
    "suite_coalesce",
    "suite_path_w",
    "tree_char_poly",
]
