"""Fractional powers of the discrete half-line Laplacian.

Matrix entries and finite sections, Green kernels with uniform bounds,
Hardy weights and admissibility checks, the squared operator's single-site
bound states, and finite-section spectral probes of the criticality
transition.

The names below load their submodule on first access (PEP 562), so that
``import fraclap`` alone imports neither a submodule nor scipy or mpmath.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the names it exports under their own name
_NAMES = {
    "bilaplacian": (
        "JoukowskiPair",
        "joukowski_pair",
        "lambda_asymptotic",
        "lambda_bound_state",
        "lambda_site1_closed",
    ),
    "green": (
        "AdmissibilityResult",
        "Potential",
        "admissibility_threshold",
        "g_weight",
        "g_weight_bound",
        "g_weight_values",
        "green_entry",
        "power_hardy_weight",
        "reflected_bound_const",
        "rough_bound_const",
        "theorem2_check",
        "uniform_bound_refined",
        "uniform_bound_rough",
        "weighted_sq_integral",
        "weighted_sq_integral_quad",
    ),
    "operators": (
        "UnsupportedExponentError",
        "assemble",
        "assemble_reflected",
        "entry",
        "entry_oracle",
    ),
    "probes": (
        "ConvergenceSeries",
        "ProbeResult",
        "ScanRecord",
        "criticality_scan",
        "hardy_witness",
        "kpp_witness",
        "min_eig",
        "reflected_witness",
        "solve_bs_lambda",
    ),
    "quadrature": ("QuadratureError",),
}

#: public name -> (submodule, attribute in it)
_EXPORTS = {name: (module, name) for module, names in _NAMES.items() for name in names}
_EXPORTS["bilap_green_entry"] = ("bilaplacian", "green_entry")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # any other name, a submodule's included, is left to the import system
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _EXPORTS[name]
    return getattr(importlib.import_module(f"{__name__}.{module}"), attr)


def __dir__():
    return sorted(set(globals()) | set(__all__))
