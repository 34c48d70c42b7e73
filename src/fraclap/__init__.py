"""Fractional powers of the discrete half-line Laplacian.

Matrix entries and finite sections, Green kernels with uniform bounds,
Hardy weights and admissibility checks, the squared operator's single-site
bound states, and finite-section spectral probes of the criticality
transition.
"""

from .bilaplacian import (
    JoukowskiPair,
    joukowski_pair,
    lambda_asymptotic,
    lambda_bound_state,
    lambda_site1_closed,
)
from .bilaplacian import green_entry as bilap_green_entry
from .green import (
    AdmissibilityResult,
    Potential,
    admissibility_threshold,
    g_weight,
    g_weight_bound,
    g_weight_values,
    green_entry,
    power_hardy_weight,
    reflected_bound_const,
    rough_bound_const,
    theorem2_check,
    uniform_bound_refined,
    uniform_bound_rough,
    weighted_sq_integral,
    weighted_sq_integral_quad,
)
from .operators import (
    UnsupportedExponentError,
    assemble,
    assemble_reflected,
    entry,
    entry_oracle,
)
from .probes import (
    ConvergenceSeries,
    ProbeResult,
    ScanRecord,
    criticality_scan,
    hardy_witness,
    kpp_witness,
    min_eig,
    reflected_witness,
    solve_bs_lambda,
)
from .quadrature import QuadratureError

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityResult",
    "ConvergenceSeries",
    "JoukowskiPair",
    "Potential",
    "ProbeResult",
    "QuadratureError",
    "ScanRecord",
    "UnsupportedExponentError",
    "admissibility_threshold",
    "assemble",
    "assemble_reflected",
    "bilap_green_entry",
    "criticality_scan",
    "entry",
    "entry_oracle",
    "g_weight",
    "g_weight_bound",
    "g_weight_values",
    "green_entry",
    "hardy_witness",
    "joukowski_pair",
    "kpp_witness",
    "lambda_asymptotic",
    "lambda_bound_state",
    "lambda_site1_closed",
    "min_eig",
    "power_hardy_weight",
    "reflected_bound_const",
    "reflected_witness",
    "rough_bound_const",
    "solve_bs_lambda",
    "theorem2_check",
    "uniform_bound_refined",
    "uniform_bound_rough",
    "weighted_sq_integral",
    "weighted_sq_integral_quad",
]
