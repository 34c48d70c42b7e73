"""End-to-end acceptance checks.

One test per published guarantee, each printing a single pass/fail line
(visible with -s; pytest -v reports the same per-test verdict).  The
heavy finite-section scans live here rather than in the unit files.
"""

import subprocess
import sys
import time

import numpy as np

from fraclap import bilaplacian, green, probes, selfcheck


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")


def _suite(num: int, name: str, result: selfcheck.SuiteResult) -> None:
    _report(num, name, result.passed, f"worst={result.worst:.3e} tol={result.tolerance:.1e}")
    assert result.passed, result


def test_01_entries_match_quadrature_oracle():
    _suite(1, "matrix entries vs quadrature oracle", selfcheck.suite_entry_oracle())


def test_02_integer_power_base_cases():
    _suite(2, "integer-power base cases", selfcheck.suite_base_cases())


def test_03_weighted_moment_identity():
    _suite(3, "weighted Chebyshev moment identity", selfcheck.suite_in_identity())


def test_04_uniform_green_bounds():
    _suite(4, "uniform resolvent bounds", selfcheck.suite_green_bounds())


def test_05_criticality_dichotomy():
    site, c = 1, 1e-2
    failures = []
    details = []
    for alpha in (1.5, 1.75, 2.0):
        (rec,) = probes.criticality_scan(alpha, site, [c])
        tol = probes.probe_tol(alpha)
        strictly = rec.verdict == "negative" and any(r.min_eigenvalue < -tol for r in rec.schedule)
        certified = rec.verdict == "negative_beyond_resolution" and rec.bs_lambda is not None
        details.append(f"a={alpha}:{rec.verdict}")
        if not (strictly or certified):
            failures.append(f"alpha={alpha} verdict={rec.verdict}")
    for alpha in (0.5, 1.0, 1.4):
        (rec,) = probes.criticality_scan(alpha, site, [c])
        tol = probes.probe_tol(alpha)
        details.append(f"a={alpha}:{rec.verdict}")
        if not all(r.min_eigenvalue >= -tol for r in rec.schedule):
            failures.append(f"alpha={alpha} dipped below -{tol:.1e}")
    _report(5, "criticality dichotomy at the 3/2 threshold", not failures, "; ".join(details))
    assert not failures, failures


def test_06_hardy_weight_witnesses():
    schedule = (250, 500, 1000, 2000)
    cases = [
        (1.0, green.Potential.classical_hardy()),
        (1.0, green.Potential.kpp()),
    ]
    for alpha, eps in ((0.25, 1.0), (0.5, 0.5), (1.0, 1.0), (1.25, 0.25)):
        cases.append((alpha, green.power_hardy_weight(alpha, eps)))
    failures = []
    for alpha, pot in cases:
        tol = probes.probe_tol(alpha)
        for n in schedule:
            res = probes.min_eig(alpha, n, pot)
            if res.min_eigenvalue < -tol:
                failures.append(
                    f"alpha={alpha} {pot.describe()} N={n}: {res.min_eigenvalue:.3e}"
                )
    _report(6, "Hardy weights keep sections non-negative", not failures)
    assert not failures, failures


def test_07a_squared_operator_green_closed_form():
    worst = 0.0
    for lam in (-1e-2, -1.0, -1e2):
        for m in range(1, 9):
            for n in range(m, 9):
                closed = bilaplacian.green_entry(m, n, lam)
                quad = green.green_entry(2.0, m, n, lam, tol=1e-11)
                worst = max(worst, abs(closed - quad))
    ok = worst <= 1e-9
    _report(7, "squared-operator Green kernel (a: closed form)", ok, f"worst={worst:.3e}")
    assert ok, worst


def test_07b_site1_bound_state_closed_form():
    _suite(7, "squared-operator bound state (b: site-1 closed form)", selfcheck.suite_bilap_site1())


def test_07c_birman_schwinger_residual():
    _suite(7, "squared-operator bound state (c: scalar residual)", selfcheck.suite_bilap_bs())


def test_07d_finite_sections_converge_to_bound_state():
    worst = 0.0
    for site in (1, 2, 3):
        for c in (0.5, 1.0, 2.0):
            exact = bilaplacian.lambda_bound_state(site, c)
            res = probes.min_eig(2.0, 4000, green.Potential.delta(site, c))
            worst = max(worst, abs(res.min_eigenvalue - exact))
    ok = worst <= 1e-6
    _report(7, "squared-operator bound state (d: finite sections)", ok, f"worst={worst:.3e}")
    assert ok, worst


def test_08_bound_state_asymptotics():
    failures = []
    # small coupling: remainder of the bracketed expansion shrinks like c^2
    for site in (2, 3):
        b_coeff = 2.0 * site * (4.0 * site**2 - 1.0) / 3.0
        errs = []
        for c in (1e-1, 1e-2, 1e-3):
            lam = bilaplacian.lambda_bound_state(site, c)
            leading = -(site**8) * c**4 / 4.0
            errs.append(abs(lam / leading - (1.0 - b_coeff * c)))
        if not (errs[0] > errs[1] > errs[2]):
            failures.append(f"site {site}: remainders not decreasing {errs}")
        ratios = [e / c**2 for e, c in zip(errs, (1e-1, 1e-2, 1e-3))]
        if max(ratios) > 1e2 * min(ratios):
            failures.append(f"site {site}: remainder not O(c^2): {ratios}")
    # large coupling: offsets 6 (interior sites) and 5 (boundary site)
    for site, offset in ((2, 6.0), (3, 6.0)):
        errs = [abs(bilaplacian.lambda_bound_state(site, c) + c - offset) for c in (1e2, 1e3, 1e4)]
        if not (errs[0] > errs[1] > errs[2] and errs[2] < 1e-2):
            failures.append(f"site {site} large-c offset errors {errs}")
    errs = [abs(bilaplacian.lambda_site1_closed(c) + c - 5.0) for c in (1e2, 1e3, 1e4)]
    if not (errs[0] > errs[1] > errs[2] and errs[2] < 1e-2):
        failures.append(f"site 1 large-c offset errors {errs}")
    _report(8, "bound-state asymptotics in the coupling", not failures)
    assert not failures, failures


def test_09_single_site_admissibility_threshold():
    _suite(9, "single-site admissibility threshold", selfcheck.suite_threshold())


def test_10_cli_selftest():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "fraclap.cli", "selftest"],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - start
    ok = proc.returncode == 0 and elapsed < 300.0
    _report(10, "CLI selftest", ok, f"exit={proc.returncode} elapsed={elapsed:.1f}s")
    assert ok, proc.stdout + proc.stderr
