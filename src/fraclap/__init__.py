"""Fractional powers of the discrete half-line Laplacian.

Matrix entries and finite sections, Green kernels with uniform bounds,
Hardy weights and admissibility checks, the squared operator's single-site
bound states, and finite-section spectral probes of the criticality
transition.  The API is the submodules; ``import fraclap`` alone imports
none of them.
"""

__version__ = "0.1.0"
