"""Hermite-spectral toolkit for the quantum harmonic oscillator.

Evaluation kernels for the normalized eigenbasis, singular-weight quadrature,
antiderivative expansions with closed-form norms, the level forms and
level spectra the time-averaged functionals reduce to, and a verification
harness that scans every identity and smoothing bound the library claims.
"""

from .antideriv import (
    merge_identity_holds,
    norm_sq_quadrature_all,
    norm_sq_routes_all,
    partial_binomial_numerators,
)
from .errors import CapabilityError
from .hermite import (
    binom_reflection_holds,
    eval_laguerre,
    gamma_duplication_residual,
    hermite_functions,
    laguerre_exp_integral,
    laguerre_hermite_bridge_residual,
)
from .quadrature import (
    gauss_legendre_panels,
    gauss_rule,
    radial_rule_panels,
    truncation_radius,
)
from .spectral import (
    check_admissible,
    enumerate_multiindices,
    kernel_diagonals,
    level_spectrum,
    level_tops,
    sobolev_ladder_form,
    sobolev_twisted_form,
)
from .verify import (
    CHECKS,
    EstimateReport,
    RunManifest,
    ScanConfig,
    check_antideriv_norms,
    check_appendix_identities,
    check_even_3d,
    check_hermite_sobolev,
    check_kato,
    check_kernel_bound,
    check_morawetz_2d,
    check_odd_identity,
    check_operator_norms,
    check_collapse_9d,
    check_radial_3d_identity,
    clear_caches,
    emit_table,
    manifest_from_json_bytes,
    manifest_to_json_bytes,
    negative_control_divergence,
)

__version__ = "0.4.0"

__all__ = [
    "CHECKS",
    "CapabilityError",
    "EstimateReport",
    "RunManifest",
    "ScanConfig",
    "binom_reflection_holds",
    "check_admissible",
    "check_antideriv_norms",
    "check_appendix_identities",
    "check_collapse_9d",
    "check_even_3d",
    "check_hermite_sobolev",
    "check_kato",
    "check_kernel_bound",
    "check_morawetz_2d",
    "check_odd_identity",
    "check_operator_norms",
    "check_radial_3d_identity",
    "clear_caches",
    "emit_table",
    "enumerate_multiindices",
    "eval_laguerre",
    "gamma_duplication_residual",
    "gauss_legendre_panels",
    "gauss_rule",
    "hermite_functions",
    "kernel_diagonals",
    "laguerre_exp_integral",
    "laguerre_hermite_bridge_residual",
    "level_spectrum",
    "level_tops",
    "manifest_from_json_bytes",
    "manifest_to_json_bytes",
    "merge_identity_holds",
    "negative_control_divergence",
    "norm_sq_quadrature_all",
    "norm_sq_routes_all",
    "partial_binomial_numerators",
    "radial_rule_panels",
    "sobolev_ladder_form",
    "sobolev_twisted_form",
    "truncation_radius",
]
