"""Formula-vs-oracle verification suites.

Each suite cross-checks a family of closed forms against an independent
evaluation (quadrature oracle, padded matrix product, scalar bound-state
equation) and reports its worst deviation.  The CLI selftest runs all of
them; the test suite reuses them one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bilaplacian, green, operators

ENTRY_ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5)
IN_ALPHAS = (0.25, 0.5 - 1e-7, 0.5 + 1e-7, 0.75, 1.0 - 1e-7, 1.0 + 1e-7, 1.25, 1.4)
BOUND_ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.4)
BOUND_LAMBDAS = (-1e-4, -1e-2, -1.0, -1e2)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""


def suite_entry_oracle() -> SuiteResult:
    """Closed-form matrix entries against the angular quadrature oracle."""
    worst = 0.0
    m, n = np.triu_indices(30)
    for alpha in ENTRY_ALPHAS:
        section = operators.assemble(alpha, 30)
        oracle = operators.entry_oracle(alpha, m + 1, n + 1, tol=1e-11)
        worst = max(worst, float(np.max(np.abs(section[m, n] - oracle))))
    return SuiteResult("entry_vs_oracle", worst <= 1e-9, worst, 1e-9)


def suite_base_cases() -> SuiteResult:
    """First power tridiagonal, squared power as padded product, inverse as min."""
    worst, size = 0.0, 50
    first = operators.assemble(1.0, size)
    expected = 2.0 * np.eye(size) - np.eye(size, k=1) - np.eye(size, k=-1)
    exact_first = bool(np.array_equal(first, expected))

    padded = operators.assemble(1.0, size + 2)
    squared = (padded @ padded)[:size, :size]
    worst = max(worst, float(np.max(np.abs(operators.assemble(2.0, size) - squared))))

    idx = np.arange(1, size + 1)
    inverse = operators.assemble(-1.0, size)
    exact_inverse = bool(np.array_equal(inverse, np.minimum.outer(idx, idx).astype(float)))

    passed = exact_first and exact_inverse and worst <= 1e-10
    detail = "" if exact_first and exact_inverse else "exact base case mismatch"
    return SuiteResult("base_cases", passed, worst, 1e-10, detail)


def suite_in_identity() -> SuiteResult:
    """Closed form of the weighted Chebyshev moment against quadrature."""
    worst = 0.0
    n = np.arange(1, 21)
    for alpha in IN_ALPHAS:
        closed = green.weighted_sq_integral(alpha, n)
        quad = green.weighted_sq_integral_quad(alpha, n, tol=1e-11)
        worst = max(worst, float(np.max(np.abs(closed - quad))))
    return SuiteResult("in_identity", worst <= 1e-9, worst, 1e-9)


def suite_green_bounds() -> SuiteResult:
    """Resolvent entries dominated by both uniform bounds; C_1 = 1."""
    worst = 0.0  # most positive excess of |entry| over the smaller bound
    m, n = np.triu_indices(10)
    m, n = m + 1, n + 1
    for alpha in BOUND_ALPHAS:
        cap = np.minimum(green.uniform_bound_rough(alpha, m, n), green.uniform_bound_refined(alpha, m, n))
        for lam in BOUND_LAMBDAS:
            val = np.abs(green.green_entry(alpha, m, n, lam, tol=1e-11))
            worst = max(worst, float(np.max(val - cap)))
    c1_err = abs(green.rough_bound_const(1.0) - 1.0)
    passed = worst <= 1e-10 and c1_err <= 1e-10
    return SuiteResult(
        "green_bounds", passed, max(worst, c1_err), 1e-10, f"C_1 error {c1_err:.3e}"
    )


def suite_bilap_site1() -> SuiteResult:
    """Implicit bound state at site 1 against the rational closed form."""
    worst = 0.0
    for c in np.logspace(-3.0, 3.0, 50):
        exact = bilaplacian.lambda_site1_closed(float(c))
        solved = bilaplacian.lambda_bound_state(1, float(c))
        worst = max(worst, abs(solved / exact - 1.0))
    return SuiteResult("bilap_site1_closed", worst <= 1e-12, worst, 1e-12)


def suite_bilap_bs() -> SuiteResult:
    """Bound-state residual of the scalar Birman-Schwinger equation."""
    worst = 0.0
    for site in range(1, 11):
        for c in (0.5, 2.0):
            lam = bilaplacian.lambda_bound_state(site, c)
            worst = max(worst, abs(-c * bilaplacian.green_entry(site, site, lam) + 1.0))
    return SuiteResult("bilap_birman_schwinger", worst <= 1e-9, worst, 1e-9)


def suite_threshold() -> SuiteResult:
    """Single-site admissibility boundary at the first power."""
    at_one = green.theorem2_check(1.0, green.Potential.delta(1, 1.0))
    above = green.theorem2_check(1.0, green.Potential.delta(1, 1.0 + 1e-9))
    passed = at_one.decision == "admissible" and above.decision == "inconclusive"
    detail = f"c=1 -> {at_one.decision}, c=1+1e-9 -> {above.decision}"
    return SuiteResult("single_site_threshold", passed, 0.0, 0.0, detail)


ALL_SUITES = (
    suite_entry_oracle,
    suite_base_cases,
    suite_in_identity,
    suite_green_bounds,
    suite_bilap_site1,
    suite_bilap_bs,
    suite_threshold,
)


def run_all() -> list[SuiteResult]:
    return [suite() for suite in ALL_SUITES]
