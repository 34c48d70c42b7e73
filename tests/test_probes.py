"""Finite-section probes: eigenvalue accuracy, extrapolation, verdicts."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from fraclap import cli, green, operators, probes
from fraclap.bilaplacian import lambda_site1_closed
from fraclap.probes import (
    ConvergenceSeries,
    criticality_scan,
    hardy_witness,
    kpp_witness,
    min_eig,
    probe_tol,
    reflected_witness,
    solve_bs_lambda,
)

SMALL_SCHEDULE = (50, 100, 200)


class TestMinEig:
    def test_matches_exact_laplacian_spectrum(self):
        # the N-section of the first power is tridiagonal with eigenvalues
        # 2 - 2 cos(k pi / (N+1)); the probe must hit the smallest exactly
        for n in (10, 57, 200):
            res = min_eig(1.0, n, green.Potential.zero())
            exact = 2.0 - 2.0 * math.cos(math.pi / (n + 1))
            assert res.min_eigenvalue == pytest.approx(exact, rel=1e-12)
            assert res.converged
            assert res.size == n

    def test_banded_and_dense_paths_agree(self):
        # integer powers go through the banded solver; force the dense one
        # by offsetting alpha below integrality at negligible magnitude
        banded = min_eig(2.0, 80, green.Potential.zero())
        dense = min_eig(2.0 + 1e-13, 80, green.Potential.zero())
        assert banded.min_eigenvalue == pytest.approx(dense.min_eigenvalue, abs=1e-10)

    def test_nested_sections_monotone(self):
        # larger sections relax the implicit Dirichlet truncation, so the
        # smallest eigenvalue can only move down
        vals = [min_eig(0.75, n, green.Potential.zero()).min_eigenvalue for n in (20, 40, 80)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_delta_well_bilaplacian_value(self):
        # a single-site well on the squared operator has the closed-form
        # eigenvalue -1/18 at unit coupling; sections converge onto it
        res = min_eig(2.0, 400, green.Potential.delta(1, 1.0))
        assert res.min_eigenvalue == pytest.approx(-1.0 / 18.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            min_eig(0.0, 10, green.Potential.zero())
        with pytest.raises(ValueError):
            min_eig(1.0, 0, green.Potential.zero())

    def test_non_integer_size_refused(self):
        with pytest.raises(ValueError, match="integer >= 1"):
            min_eig(1.5, 1.5, green.Potential.zero())
        with pytest.raises(ValueError, match="integer >= 1"):
            hardy_witness(0.5, 0.5, (50, 100.5))


class TestIntegerBandPath:
    """Integer powers are solved in band storage, never as dense sections."""

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.sampled_from([1.0, 2.0, 3.0]),
        size=st.one_of(st.integers(1, 5), st.integers(1, 400)),
        site=st.integers(1, 5),
        c=st.floats(0.0, 4.0),
    )
    def test_matches_dense_eigh(self, alpha, size, site, c):
        pot = green.Potential.delta(site, c)
        res = min_eig(alpha, size, pot)
        dense = operators.assemble(alpha, size) - np.diag(pot.values(size))
        exact = np.linalg.eigvalsh(dense)[0]
        assert abs(res.min_eigenvalue - exact) <= 1e-12 * (1.0 + 4.0**alpha)
        assert res.converged

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.sampled_from([1.0, 2.0]),
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=3),
        site=st.integers(1, 5),
        c=st.floats(0.0, 4.0),
    )
    def test_reflected_matches_dense_eigh(self, alpha, sizes, site, c):
        rec = reflected_witness(alpha, c, site, schedule=tuple(sizes))
        for n, res in zip(sizes, rec.schedule):
            dense = operators.assemble_reflected(alpha, n)
            dense = dense - np.diag(green.Potential.delta(site, c).values(n))
            exact = np.linalg.eigvalsh(dense)[0]
            assert abs(res.min_eigenvalue - exact) <= 1e-12 * (1.0 + 4.0**alpha)
            assert res.converged

    def test_never_dense(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense section on the integer-power path")

        monkeypatch.setattr(operators, "assemble", refuse)
        monkeypatch.setattr(operators, "assemble_reflected", refuse)
        monkeypatch.setattr(probes, "eigh", refuse)
        assert min_eig(2.0, 500, green.Potential.delta(2, 0.7)).converged
        assert kpp_witness((50, 100)).verdict == "nonnegative"
        rec = reflected_witness(2.0, 0.5, 1, (50, 100))
        assert rec.verdict == "nonnegative"
        assert all(r.converged for r in rec.schedule)


def _dense_min(alpha, size, pot, reflected=False):
    assemble = operators.assemble_reflected if reflected else operators.assemble
    return np.linalg.eigvalsh(assemble(alpha, size) - np.diag(pot.values(size)))[0]


class TestTauLowrankPath:
    """Non-integer sections as a sine transform plus a low-rank correction."""

    GRID_ALPHAS = (0.25, 0.5, 0.75, 1.25, 1.4, 1.5, 1.75, 2.5)

    @pytest.mark.parametrize("alpha", GRID_ALPHAS)
    def test_gate_grid_matches_eigh(self, monkeypatch, alpha):
        # the crossover lowered below the size, so the whole grid stays fast
        size = 150
        monkeypatch.setattr(probes, "TAU_LOWRANK_MIN_SIZE", size)
        for site in (1, 2, 3):
            for c in (1e-3, 1e-2, 0.5):
                pot = green.Potential.delta(site, c)
                for reflected in (False, True):
                    res = probes._section_probe(alpha, size, pot, "", reflected)
                    exact = _dense_min(alpha, size, pot, reflected)
                    assert abs(res.min_eigenvalue - exact) <= 1e-14 * (1.0 + 4.0**alpha)
                    assert res.converged and res.solver == "tau_lowrank" and res.rank > 0

    @pytest.mark.parametrize(
        "alpha, size, site, c, reflected",
        [(1.75, 1000, 3, 1e-3, False), (0.25, 1000, 1, 0.5, True), (1.4, 2000, 2, 1e-2, True)],
    )
    def test_large_sections_match_eigh(self, alpha, size, site, c, reflected):
        pot = green.Potential.delta(site, c)
        if reflected:
            (res,) = reflected_witness(alpha, c, site, schedule=(size,)).schedule
        else:
            res = min_eig(alpha, size, pot)
        assert res.solver == "tau_lowrank"
        exact = _dense_min(alpha, size, pot, reflected)
        assert abs(res.min_eigenvalue - exact) <= 1e-14 * (1.0 + 4.0**alpha)
        assert res.converged

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.1, 3.0).filter(lambda a: not float(a).is_integer()),
        size=st.integers(50, 400),
        site=st.integers(1, 3),
        c=st.floats(0.0, 2.0),
        reflected=st.booleans(),
    )
    def test_model_matches_eigh(self, alpha, size, site, c, reflected):
        pot = green.Potential.delta(site, c)
        with pytest.MonkeyPatch.context() as mp:  # the low-rank path at every drawn size
            mp.setattr(probes, "TAU_LOWRANK_MIN_SIZE", size)
            res = probes._section_probe(alpha, size, pot, "", reflected)
        exact = _dense_min(alpha, size, pot, reflected)
        assert abs(res.min_eigenvalue - exact) <= 1e-14 * (1.0 + 4.0**alpha)
        assert res.converged and res.solver == "tau_lowrank" and res.rank > 0

    def test_explicit_finite_potential(self, capsys):
        pot = green.Potential.explicit([0.3, 0.0, 0.7, 0.05], finitely_supported=True)
        res = min_eig(0.75, 500, pot)
        assert res.solver == "tau_lowrank"
        assert abs(res.min_eigenvalue - _dense_min(0.75, 500, pot)) <= 1e-14 * (1.0 + 4.0**0.75)
        code = cli.main(
            ["probe-min-eig", "--alpha", "0.75", "--N", "500", "--potential", "explicit:0.3,0,0.7,0.05:finite"]
        )
        assert code == 0
        printed = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        assert float(printed["min_eig"]) == res.min_eigenvalue

    @staticmethod
    def _count_small_eigh(monkeypatch):
        calls = []
        eigh = probes.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(probes.linalg, "eigh", counted)
        return calls

    def test_model_eigenvalue_counts_signs_right(self, monkeypatch):
        # D + W diag(signs) W^T with mixed signs, lambda_min below, at and
        # above the smallest pole: a wrong sign in the inertia count picks
        # another eigenvalue of the secular matrix
        calls = self._count_small_eigh(monkeypatch)
        rng = np.random.default_rng(5)
        for trial in range(40):
            n, r = 60, int(rng.integers(1, 6))
            d = np.sort(rng.uniform(0.0, 4.0, n))
            w = rng.standard_normal((n, r)) * 10.0 ** rng.uniform(-4, 0)
            signs = rng.choice([-1.0, 1.0], r)
            calls.clear()
            lam, x = probes._model_min_eigenpair(d, w, signs, 4.0 + float((w**2).sum()))
            assert len(calls) <= 12, trial  # root steps; restarting a converged root took up to 45
            h = np.diag(d) + (w * signs) @ w.T
            exact = np.linalg.eigvalsh(h)[0]
            assert abs(lam - exact) <= 1e-13 * (1.0 + np.abs(h).sum(axis=1).max()), trial
            assert np.linalg.norm(h @ x - lam * x) <= 1e-10

    def test_converged_root_is_not_restarted(self, monkeypatch):
        # Newton reaches nu = 0 on this root; bisecting from there took 61 eigh calls
        calls = self._count_small_eigh(monkeypatch)
        pot = green.Potential.delta(1, 0.05)
        res = min_eig(1.25, 500, pot)
        assert len(calls) <= 10
        assert abs(res.min_eigenvalue - _dense_min(1.25, 500, pot)) <= 1e-14 * (1.0 + 4.0**1.25)

    @pytest.mark.parametrize("size", [50, 150])
    @pytest.mark.parametrize(
        "alpha", [0.01, 0.25, 0.75, 0.999, 1.001, 1.5, 1.99, 2.01, 2.5, 3.3, 6.31]
    )
    def test_closed_form_matches_dense_correction(self, alpha, size):
        # S E_N S = S A_N S - diag(f) formed dense with the sine matrix (its
        # angles k j pi/(N+1) reduced mod 2 pi), against the quadrature's
        # columns and the border's exact rows
        k = np.arange(1, size + 1)
        theta = k * (math.pi / (size + 1))
        f = (2.0 * np.sin(0.5 * theta)) ** (2.0 * alpha)
        turns = np.outer(k, k) % (2 * size + 2)
        sine = math.sqrt(2.0 / (size + 1)) * np.sin(turns * (math.pi / (size + 1)))
        dense = sine @ operators.assemble(alpha, size) @ sine - np.diag(f)
        e = operators.section_coefficients(alpha, size) - probes._tau_coefficients(f)
        tol = probes._LOWRANK_TOL * 4.0**alpha
        w, signs = probes._correction_columns(alpha, size, e, tol)
        assert 0 < signs.size < 50 and set(signs.tolist()) <= {-1.0, 1.0}
        assert np.linalg.norm(dense - (w * signs) @ w.T, 2) <= probes._LOWRANK_ACCEPT * tol
        assert probes._correction_estimate(e, w, signs) <= probes._LOWRANK_ACCEPT * tol

    @pytest.mark.parametrize("alpha, size", [(0.25, 500), (0.25, 1000), (0.75, 1000)])
    def test_deep_well_within_rounding_of_eigh(self, alpha, size):
        # c = 3 outweighs 4^alpha: the secular root, stopped within a few
        # rounding units of 4^alpha + c, was up to 4.2 units of
        # 4 eps (1 + 4^alpha) off; the Rayleigh quotient against the true
        # section is not
        pot = green.Potential.delta(1, 3.0)
        res = min_eig(alpha, size, pot)
        assert res.solver == "tau_lowrank"
        budget = 4.0 * np.finfo(float).eps * (1.0 + 4.0**alpha)
        assert abs(res.min_eigenvalue - _dense_min(alpha, size, pot)) <= budget

    def test_probe_takes_one_product_per_test_column_and_the_residual(self, monkeypatch):
        widths = []
        section_product = operators.section_product

        def counted(coeffs):
            product = section_product(coeffs)

            def apply(v):
                widths.append(1 if v.ndim == 1 else v.shape[1])
                return product(v)

            return apply

        monkeypatch.setattr(operators, "section_product", counted)
        assert min_eig(1.5, 1000, green.Potential.delta(1, 0.05)).solver == "tau_lowrank"
        assert sum(widths) == probes._LOWRANK_PROBES + 1

    @pytest.mark.parametrize("reflected", [False, True])
    def test_failed_estimate_falls_back_to_eigh(self, monkeypatch, reflected):
        alpha, size, pot = 1.25, probes.TAU_LOWRANK_MIN_SIZE, green.Potential.delta(2, 0.3)
        monkeypatch.setattr(probes, "_LOWRANK_ACCEPT", 0.0)
        res = probes._section_probe(alpha, size, pot, "", reflected)
        assert res.solver == "dense" and res.rank == 0 and res.converged
        section = probes._dense_section(alpha, size, pot.values(size), reflected)
        assert res.min_eigenvalue == probes._probe_dense(section)[0]

    def test_large_alpha_raises_no_warning(self):
        # 4^alpha ~ 2e24 and a border of 20 sites: t^(-alpha) and t^L are
        # combined in logarithms, so nothing overflows or underflows to log(0)
        alpha, size, pot = 40.5, probes.TAU_LOWRANK_MIN_SIZE, green.Potential.delta(3, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for reflected in (False, True):
                res = probes._section_probe(alpha, size, pot, "", reflected)
                assert res.solver == "tau_lowrank" and res.converged
                exact = _dense_min(alpha, size, pot, reflected)
                assert abs(res.min_eigenvalue - exact) <= 1e-14 * (1.0 + 4.0**alpha)

    def test_dispatch(self):
        above, below = probes.TAU_LOWRANK_MIN_SIZE, probes.TAU_LOWRANK_MIN_SIZE - 1
        assert 200 < above <= 1000
        delta = green.Potential.delta(1, 0.05)
        assert min_eig(1.5, above, delta).solver == "tau_lowrank"
        assert min_eig(1.5, below, delta).solver == "dense"
        assert min_eig(1.5, above, green.power_hardy_weight(1.25, 0.5)).solver == "shift_invert"
        assert min_eig(1.5, below, green.power_hardy_weight(1.25, 0.5)).solver == "dense"
        assert min_eig(2.0, above, delta).solver == "band"
        assert min_eig(1.5, below, delta).rank == 0

    def test_probe_critical_never_calls_eigh(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigh above the crossover")

        monkeypatch.setattr(probes, "eigh", refuse)
        n = probes.TAU_LOWRANK_MIN_SIZE
        schedule = f"{n},{2 * n},{4 * n}"
        for alpha in ("0.75", "1.5"):
            argv = ["probe-critical", "--alpha", alpha, "--c", "0.02,0.5", "--schedule", schedule]
            assert cli.main(argv + ["--format", "json"]) == 0
        assert capsys.readouterr().err == ""

    def test_dense_memory_guard(self, monkeypatch, capsys):
        # a small section against a pretended 1 MiB of memory: no large allocation
        monkeypatch.setattr(operators, "_physical_memory", lambda: 2**20)
        with pytest.raises(ValueError, match="physical memory"):
            min_eig(1.5, 300, green.Potential.power(0.1, 2.0))
        code = cli.main(["probe-min-eig", "--alpha", "1.5", "--N", "300", "--potential", "power:0.1:2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: a dense 300 x 300 section needs about")
        assert captured.err.count("\n") == 1
        # the low-rank path checks its O(N) working set the same way
        with pytest.raises(ValueError, match="physical memory"):
            min_eig(1.5, probes.TAU_LOWRANK_MIN_SIZE, green.Potential.delta(1, 0.1))


class TestShiftInvertPath:
    """Sections with a potential on many sites, from the crossover up, by Cholesky shift-invert."""

    @pytest.mark.parametrize(
        "alpha, size", [(0.25, 400), (0.5, 2000), (0.75, 1000), (1.25, 400), (1.4, 1000)]
    )
    def test_grid_matches_eigvalsh(self, alpha, size):
        budget = 4.0 * np.finfo(float).eps * (1.0 + 4.0**alpha)
        cases = [
            (green.power_hardy_weight(alpha, 0.5), False),
            (green.Potential.power(0.01, 3.0), False),
            (green.Potential.power(0.01, 2.0), True),
        ]
        for pot, reflected in cases:
            assert np.count_nonzero(pot.values(size)) > probes._LOWRANK_MAX_SUPPORT
            res = probes._section_probe(alpha, size, pot, "", reflected=reflected)
            assert res.solver == "shift_invert" and res.size == size
            assert abs(res.min_eigenvalue - _dense_min(alpha, size, pot, reflected)) <= budget
            assert res.converged

    @pytest.mark.parametrize("size", [50, 400])
    def test_cholesky_inverse_matches_cho_solve(self, size):
        rng = np.random.default_rng(size)
        a = rng.standard_normal((size, size))
        spd = a @ a.T + np.eye(size)
        shifted = spd + 0.5 * np.eye(size)
        q = rng.standard_normal(size)
        ref = linalg.cho_solve(linalg.cho_factor(shifted), q)
        solve = probes._cholesky_inverse(spd, 0.5)  # factors spd in place
        start = q.copy()
        x = solve(q)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.array_equal(q, start)  # the Lanczos basis keeps q
        assert probes._cholesky_inverse(-shifted, 0.5) is None

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.25])
    def test_hardy_sections_within_measured_steps(self, monkeypatch, alpha):
        # 20-21, 15 and 10 steps were measured at these alphas: a less
        # accurate inverse would need more, and fall back to eigh
        monkeypatch.setattr(probes, "_LANCZOS_STEPS", 22)
        pot = green.power_hardy_weight(alpha, 0.5)
        for size in (500, 1000):
            assert probes._section_probe(alpha, size, pot, "").solver == "shift_invert"

    def test_holds_one_section_array(self):
        # the factor overwrites the section, and the Rayleigh quotient and
        # residual go through the FFT product
        alpha, size, pot = 0.75, 600, green.power_hardy_weight(0.75, 0.5)
        min_eig(alpha, size, pot)  # imports and first-call allocations outside the trace
        tracemalloc.start()
        try:
            res = min_eig(alpha, size, pot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.solver == "shift_invert"
        assert peak < 1.5 * 8 * size * size

    def test_negative_section_falls_back_to_eigh(self):
        # a deep well: the factorization of B - V + tol*I fails
        alpha, size, pot = 0.75, 500, green.Potential.power(5.0, 2.0)
        res = min_eig(alpha, size, pot)
        exact = _dense_min(alpha, size, pot)
        assert res.min_eigenvalue < 0.0 and res.solver == "dense" and res.converged
        assert abs(res.min_eigenvalue - exact) <= 4.0 * np.finfo(float).eps * (1.0 + 4.0**alpha)

    def test_step_cap_falls_back_to_eigh(self, monkeypatch):
        monkeypatch.setattr(probes, "_LANCZOS_STEPS", 2)
        alpha, size, pot = 0.5, 600, green.power_hardy_weight(0.5, 0.5)
        res = min_eig(alpha, size, pot)
        assert res.solver == "dense" and res.converged
        assert abs(res.min_eigenvalue - _dense_min(alpha, size, pot)) <= 1e-14 * (1.0 + 4.0**alpha)

    def test_probe_hardy_never_calls_eigh(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigh above the crossover")

        monkeypatch.setattr(probes, "eigh", refuse)
        n = probes.TAU_LOWRANK_MIN_SIZE
        schedule = f"{n},{2 * n},{4 * n}"
        for alpha in ("0.25", "0.5", "1.25"):
            argv = ["probe-hardy", "--alpha", alpha, "--epsilon", "0.5", "--schedule", schedule]
            assert cli.main(argv + ["--format", "json"]) == 0
            captured = capsys.readouterr()
            assert json.loads(captured.out)["verdict"] == "nonnegative" and captured.err == ""


class TestConvergenceSeries:
    def test_geometric_extrapolation_exact(self):
        limit, amp, rho = -0.125, 0.5, 0.4
        pts = [(50 * 2**k, limit + amp * rho**k) for k in range(4)]
        series = ConvergenceSeries.from_points(pts)
        assert series.extrapolated == pytest.approx(limit, abs=1e-12)
        assert series.error_bar >= abs(series.extrapolated - pts[-1][1])
        assert series.monotone

    def test_non_contracting_falls_back_to_last(self):
        pts = [(10, 1.0), (20, 0.9), (40, 0.85), (80, 0.95)]
        series = ConvergenceSeries.from_points(pts)
        assert series.extrapolated == pytest.approx(0.95)
        assert not series.monotone

    def test_flat_series(self):
        pts = [(10, 2.0), (20, 2.0), (40, 2.0)]
        series = ConvergenceSeries.from_points(pts)
        assert series.extrapolated == 2.0
        assert series.monotone

    def test_keeps_no_points(self):
        # the scan record holds the sections; the series keeps only what it derives
        series = ConvergenceSeries.from_points([(10, 2.0), (20, 1.5), (40, 1.25)])
        assert not hasattr(series, "points")


class TestBirmanSchwinger:
    def test_subcritical_small_coupling_has_no_bound_state(self):
        assert solve_bs_lambda(1.0, 1, 0.01) is None

    def test_subcritical_large_coupling_binds(self):
        lam = solve_bs_lambda(1.0, 1, 4.0)
        assert lam is not None and lam < 0.0

    def test_matches_squared_operator_closed_form(self):
        for c in (0.5, 1.0, 2.0):
            lam = solve_bs_lambda(2.0, 1, c)
            assert lam == pytest.approx(lambda_site1_closed(c), rel=1e-6)

    def test_supercritical_tiny_coupling_still_binds(self):
        # at the critical exponent any coupling produces a bound state,
        # exponentially small in 1/c
        lam = solve_bs_lambda(1.5, 1, 0.05)
        assert lam is not None
        assert -1.0 < lam < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_bs_lambda(1.0, 1, 0.0)

    def test_non_integer_site_and_non_finite_coupling_refused(self):
        with pytest.raises(ValueError, match="integer >= 1"):
            solve_bs_lambda(1.5, 1.5, 0.1)
        for c in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                solve_bs_lambda(1.5, 1, c)


class TestScans:
    def test_subcritical_scan_nonnegative(self):
        (rec,) = criticality_scan(1.0, 1, [0.01], schedule=SMALL_SCHEDULE)
        assert rec.verdict == "nonnegative"
        assert rec.bs_lambda is None
        assert all(r.min_eigenvalue >= -probe_tol(1.0) for r in rec.schedule)

    def test_supercritical_scan_negative(self):
        (rec,) = criticality_scan(2.0, 1, [1.0], schedule=SMALL_SCHEDULE)
        assert rec.verdict == "negative"
        assert rec.bs_lambda == pytest.approx(-1.0 / 18.0, rel=1e-6)
        assert rec.series.extrapolated < 0.0

    def test_critical_tiny_coupling_beyond_resolution(self):
        (rec,) = criticality_scan(1.5, 1, [0.01], schedule=SMALL_SCHEDULE)
        assert rec.verdict == "negative_beyond_resolution"
        assert rec.bs_lambda is not None
        assert rec.bs_lambda < 0.0

    def test_hardy_witness_nonnegative(self):
        rec = hardy_witness(1.0, 1.0, schedule=SMALL_SCHEDULE)
        assert rec.verdict == "nonnegative"

    def test_reflected_witness(self):
        rec = reflected_witness(0.75, 0.0, 1, schedule=SMALL_SCHEDULE)
        assert rec.verdict == "nonnegative"
        threshold = rec.extra["coupling_threshold"]
        assert threshold > 0.0
        below = reflected_witness(0.75, 0.5 * threshold, 1, schedule=SMALL_SCHEDULE)
        assert below.verdict == "nonnegative"

    def test_kpp_witness(self):
        rec = kpp_witness(schedule=SMALL_SCHEDULE)
        assert rec.verdict == "nonnegative"
        assert rec.extra["dominates_classical"] is True
        ratios = rec.extra["ratio_to_classical"]
        assert all(r > 1.0 for r in ratios)
        assert ratios[0] > ratios[1] > ratios[2]  # decays toward 1

    def test_extrapolation_decides_no_verdict(self, monkeypatch):
        # a limit far below zero with no error bar: the sections and the root still decide
        def below_zero(cls, points):
            return cls(-1.0, 0.0, True)

        monkeypatch.setattr(ConvergenceSeries, "from_points", classmethod(below_zero))
        (rec,) = criticality_scan(1.0, 1, [0.01], schedule=SMALL_SCHEDULE)
        assert rec.series.extrapolated == -1.0
        assert rec.bs_lambda is None
        assert rec.verdict == "nonnegative"

    @pytest.mark.parametrize(
        "scan",
        [
            lambda schedule: criticality_scan(1.0, 1, [0.1], schedule),
            lambda schedule: hardy_witness(0.5, 0.5, schedule),
            lambda schedule: reflected_witness(0.75, 0.1, 1, schedule),
            kpp_witness,
        ],
        ids=["critical", "hardy", "reflected", "kpp"],
    )
    def test_empty_schedule_refused(self, scan):
        with pytest.raises(ValueError, match="at least one section size"):
            scan(())

    def test_kpp_witness_weighs_the_sections_and_four_sites(self, monkeypatch):
        # n^2 V_n falls to 1/4, so domination up to 10^6 is one comparison at 10^6
        sites = []
        kpp_values = green._kpp_values

        def counted(n):
            sites.append(n.size)
            return kpp_values(n)

        monkeypatch.setattr(green, "_kpp_values", counted)
        schedule = (125, 250, 500, 1000)
        rec = kpp_witness(schedule)
        assert rec.verdict == "nonnegative" and rec.extra["dominates_classical"] is True
        assert sum(sites) <= sum(schedule) + 4

    def test_kpp_witness_without_domination_is_negative(self, monkeypatch):
        # the classical weight made equal to the improved one: no strict domination
        monkeypatch.setattr(green.Potential, "classical_hardy", classmethod(lambda cls: cls.kpp()))
        rec = kpp_witness(schedule=SMALL_SCHEDULE)
        assert rec.extra["dominates_classical"] is False
        assert all(r.min_eigenvalue >= -probe_tol(1.0) for r in rec.schedule)
        assert rec.verdict == "negative"


class TestSerialization:
    """Scan records as the CLI prints them."""

    def _printed(self, capsys, fmt, couplings="0.01,4"):
        argv = ["probe-critical", "--alpha", "1", "--c", couplings, "--schedule", "20,40,80"]
        assert cli.main(argv + ["--format", fmt]) == 0
        return capsys.readouterr().out

    def test_json_round_trip(self, capsys):
        payload = json.loads(self._printed(capsys, "json"))
        assert isinstance(payload, list) and len(payload) == 2
        for entry in payload:
            assert {"alpha", "potential", "schedule", "verdict", "bs_lambda"} <= set(entry)
            assert len(entry["schedule"]) == 3

    def test_json_single_record_is_object(self, capsys):
        payload = json.loads(self._printed(capsys, "json", couplings="0.01"))
        assert isinstance(payload, dict)

    def test_csv_shape(self, capsys):
        text = self._printed(capsys, "csv")
        lines = text.strip().split("\n")
        assert lines[0].startswith("alpha,potential,N,min_eig")
        assert len(lines) == 1 + 2 * 3

    def test_csv_values_full_precision(self, capsys):
        import csv
        import io

        text = self._printed(capsys, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        val = float(rows[1][3])
        assert val == min_eig(1.0, 20, green.Potential.delta(1, 0.01)).min_eigenvalue


class TestTolerance:
    def test_probe_tol_scales_with_norm(self):
        assert probe_tol(1.0) == pytest.approx(5e-10)
        assert probe_tol(2.0) > probe_tol(1.0)
