"""Quadrature oracle: exact integrals, weights, and convergence behavior."""

import itertools
import math

import numpy as np
import pytest

from fraclap import green, operators, probes, quadrature, selfcheck
from fraclap.quadrature import QuadratureError, integrate_theta


class TestIntegrateTheta:
    def test_sine(self):
        val = integrate_theta(np.sin)
        assert val == pytest.approx(2.0, abs=1e-13)

    def test_constant(self):
        val = integrate_theta(lambda t: np.ones_like(t))
        assert val == pytest.approx(math.pi, abs=1e-13)

    def test_sin_squared(self):
        val = integrate_theta(lambda t: np.sin(t) ** 2)
        assert val == pytest.approx(math.pi / 2.0, abs=1e-13)

    def test_endpoint_singularity(self):
        # int_0^pi theta^(-1/2) dtheta = 2 sqrt(pi)
        val = integrate_theta(lambda t: t**-0.5)
        assert val == pytest.approx(2.0 * math.sqrt(math.pi), abs=1e-12)

    def test_complex_integrand(self):
        val = integrate_theta(lambda t: np.exp(1j * t))
        assert val.real == pytest.approx(0.0, abs=1e-13)
        assert val.imag == pytest.approx(2.0, abs=1e-13)

    def test_relative_tolerance_mode(self):
        # large-magnitude integrand converges under a relative criterion
        scale = 1e20
        val = integrate_theta(lambda t: scale * np.sin(t), tol=1e-12, rel=1e-11)
        assert val == pytest.approx(2.0 * scale, rel=1e-9)


class TestSemicircleWeight:
    def test_chebyshev_orthonormality(self):
        # int_{-1}^{1} U_m U_n sqrt(1-x^2) dx = (pi/2) delta_mn, with x = cos(theta)
        def chebyshev_u(n, theta):
            return np.sin((n + 1) * theta) / np.sin(theta)  # U_n(cos theta)

        for m in range(6):
            for n in range(m, 6):
                val = integrate_theta(
                    lambda t, m=m, n=n: chebyshev_u(m, t) * chebyshev_u(n, t) * np.sin(t) ** 2
                )
                expected = math.pi / 2.0 if m == n else 0.0
                assert val == pytest.approx(expected, abs=1e-12)

    def test_nonconvergence_raises(self):
        # a discontinuous oscillator at absurd tolerance cannot converge
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(1_000_000)

        def f(theta):
            idx = (np.abs(theta) * 1e6).astype(int) % len(noise)
            return noise[idx]

        with pytest.raises(QuadratureError):
            integrate_theta(f, tol=1e-15)

    def test_non_finite_estimate_raises_at_once(self):
        # a pole at the midpoint gives an infinite level-0 estimate
        calls = []

        def pole(theta):
            calls.append(theta.size)
            with np.errstate(divide="ignore"):
                return 1.0 / np.abs(theta - 0.5 * math.pi)

        with pytest.raises(QuadratureError, match="inf at level 0"):
            integrate_theta(pole, tol=1e-12)
        assert len(calls) == 3

    @pytest.mark.parametrize("rel", [-1.0, math.nan, math.inf])
    def test_rejects_bad_relative_tolerance(self, rel):
        # bad absolute tolerances are covered through the CLI's --tol
        with pytest.raises(ValueError, match="rel"):
            integrate_theta(np.sin, tol=1e-12, rel=rel)



def _levels(g, tol=1e-12):
    """Refinement levels one scalar integration runs, counted through g."""
    calls = []
    integrate_theta(lambda t: calls.append(t.size) or g(t), tol)
    return (len(calls) - 1) // 2


def _per_row_loop(g, tol=1e-12):
    """Reference: each row of g's family integrated alone, one np.dot per side and level."""
    mid = np.ravel(g(np.array([0.5 * math.pi])))
    results = []
    for i in range(mid.size):
        total = np.float64(0.5 * math.pi) * mid[i]
        for level in range(15):
            c, left, right = quadrature._level_nodes(level)
            total = total + np.dot(c, np.reshape(g(left), (-1, c.size))[i])
            total = total + np.dot(c, np.reshape(g(right), (-1, c.size))[i])
            estimate = 0.5 * math.pi / 2**level * total
            if level >= 4 and abs(estimate - prev) < 0.5 * tol:
                break
            prev = estimate
        results.append(estimate)
    return results


class TestIntegrandFamilies:
    ROWS = (
        np.sin,
        lambda t: np.sin(17 * t) ** 2,
        lambda t: t**-0.5,
        lambda t: np.exp(np.cos(t)) * np.sin(3 * t),
    )

    def test_rows_equal_scalar_calls(self):
        vals = integrate_theta(lambda t: np.stack([f(t) for f in self.ROWS]))
        assert vals.shape == (len(self.ROWS),)
        for val, f in zip(vals, self.ROWS):
            assert val == integrate_theta(f)
        # the rows stop at different levels, each where its scalar call stops
        assert len({_levels(f) for f in self.ROWS}) > 1

    def test_rows_equal_the_per_row_loop(self):
        rows = [np.sin, lambda t: np.sin(40 * t) ** 2, lambda t: np.exp(2j * t) / (2.5 - np.cos(t))]
        family = lambda t: np.stack([f(t) for f in rows])
        assert integrate_theta(family).tolist() == _per_row_loop(family)

    def test_rows_turning_complex_after_the_midpoint(self):
        # emath.power is real at the midpoint, where cos > 0, and complex beyond it
        family = lambda t: np.stack([np.emath.power(np.cos(t), 4), np.sin(t)])
        vals = integrate_theta(family)
        assert vals.dtype == complex and vals.tolist() == _per_row_loop(family)

    def test_complex_rows_equal_scalar_calls(self):
        rows = [lambda t, k=k: np.exp(1j * k * t) / (2.5 - np.cos(t)) for k in range(1, 6)]
        vals = integrate_theta(lambda t: np.stack([f(t) for f in rows]), tol=1e-11)
        assert vals.dtype == complex
        for val, f in zip(vals, rows):
            assert val == integrate_theta(f, tol=1e-11)

    def test_one_row_family_is_the_scalar_call(self):
        vals = integrate_theta(lambda t: np.sin(t)[None, :])
        assert vals.shape == (1,) and vals[0] == integrate_theta(np.sin)

    def test_rows_stopping_at_five_levels_equal_scalar_calls(self):
        rows = [np.sin] + [lambda t, k=k: np.sin(k * t) ** 2 for k in (17, 40, 80)]
        rows.append(lambda t: np.exp(np.cos(t)) * np.sin(3 * t))
        assert sorted(_levels(f) for f in rows) == [5, 6, 7, 8, 9]
        vals = integrate_theta(lambda t: np.stack([f(t) for f in rows]))
        assert vals.tolist() == [integrate_theta(f) for f in rows]

    def test_row_going_non_finite_after_it_stopped_does_not_raise(self):
        # sin stops at level 5, after 11 evaluations; then only its row turns nan
        slow = lambda t: np.sin(80 * t) ** 2
        calls = []

        def family(theta):
            calls.append(theta.size)
            first = np.sin(theta) if len(calls) <= 11 else np.full(theta.shape, np.nan)
            return np.stack([first, slow(theta)])

        vals = integrate_theta(family)
        assert vals.tolist() == [integrate_theta(np.sin), integrate_theta(slow)]
        assert len(calls) == 2 * _levels(slow) + 1

    def test_integrand_cannot_write_into_shared_nodes(self):
        before = integrate_theta(np.sin)

        def writes(theta):
            theta *= 2.0
            return np.sin(theta)

        with pytest.raises(ValueError, match="read-only"):
            integrate_theta(writes)
        assert integrate_theta(np.sin) == before

    def test_one_unconverged_row_raises(self):
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(1_000_000)

        def family(theta):
            idx = (np.abs(theta) * 1e6).astype(int) % len(noise)
            return np.stack([np.sin(theta), noise[idx]])

        with pytest.raises(QuadratureError):
            integrate_theta(family, tol=1e-13)


class TestBatchedOracles:
    """Index arrays give one quadrature pass whose entries equal the scalar calls."""

    @pytest.mark.parametrize("alpha", selfcheck.ENTRY_ALPHAS + (-0.5, -1.0, -1.4))
    def test_entry_oracle(self, alpha):
        size = 30 if alpha > 0.0 else 12
        m, n = np.triu_indices(size)
        vals = operators.entry_oracle(alpha, m + 1, n + 1, tol=1e-11)
        assert vals.shape == m.shape
        for i, j, val in zip(m.tolist(), n.tolist(), vals):
            assert val == operators.entry_oracle(alpha, i + 1, j + 1, tol=1e-11)

    def test_entry_oracle_broadcasts(self):
        m = np.arange(1, 5)[:, None]
        vals = operators.entry_oracle(0.75, m, np.arange(1, 4))
        assert vals.shape == (4, 3)
        assert vals[3, 1] == operators.entry_oracle(0.75, 4, 2)

    @pytest.mark.parametrize("alpha", selfcheck.BOUND_ALPHAS)
    def test_green_entry(self, alpha):
        m, n = np.triu_indices(10)
        for lam, rel in itertools.product(selfcheck.BOUND_LAMBDAS, (0.0, 1e-10)):
            vals = green.green_entry(alpha, m + 1, n + 1, lam, tol=1e-11, rel=rel)
            for i, j, val in zip(m.tolist(), n.tolist(), vals):
                assert val == green.green_entry(alpha, i + 1, j + 1, lam, tol=1e-11, rel=rel)

    @pytest.mark.parametrize("lam", [1.0 + 1.0j, -1.0 - 1.0j, 20.0 - 0.5j])
    def test_green_entry_complex(self, lam):
        m, n = np.meshgrid(np.arange(1, 7), np.arange(1, 7))
        vals = green.green_entry(0.75, m, n, lam)
        assert vals.dtype == complex and vals.shape == (6, 6)
        for i, j, val in zip(m.ravel().tolist(), n.ravel().tolist(), vals.ravel()):
            assert val == green.green_entry(0.75, i, j, lam)

    @pytest.mark.parametrize("alpha", selfcheck.IN_ALPHAS)
    def test_weighted_sq_integral_quad(self, alpha):
        n = np.arange(1, 21)
        for rel in (0.0, 1e-11):
            vals = green.weighted_sq_integral_quad(alpha, n, tol=1e-11, rel=rel)
            for k, val in zip(n.tolist(), vals):
                assert val == green.weighted_sq_integral_quad(alpha, k, tol=1e-11, rel=rel)

    def test_scalar_values_recorded(self):
        # printed with repr (exact round trip) by the one-integral-per-call oracles
        assert operators.entry_oracle(1.5, 2, 3, tol=1e-11) == -2.0405751851153484
        assert operators.entry_oracle(2.5, 30, 29, tol=1e-11) == -7.760698176525514
        assert operators.entry_oracle(-1.4, 3, 5) == 37.42485452458721
        assert green.weighted_sq_integral_quad(0.5 + 1e-7, 20, tol=1e-11) == 3.996862771605495
        assert green.green_entry(1.4, 10, 10, -1e-4, tol=1e-11) == 47.732812513609375
        assert green.green_entry(0.75, 2, 3, -1 - 1j) == 0.06423965789482758 - 0.08123774766192374j
        # oracles that are one call of the batched ones: the rough constant (the
        # n = 1 moment), the Birman-Schwinger diagonal and its root; and power
        # Hardy weights in three regimes of the g_n majorant
        assert green.rough_bound_const_quad(0.75) == 0.862964161901407
        assert probes._green_diag(1.75, 1, -1e-6) == 8.399812842032432
        assert probes.solve_bs_lambda(1.75, 1, 0.05) == -3.7171929734767376e-09
        coeffs = [green.power_hardy_weight(a, 0.5).coeff for a in (0.25, 0.75, 1.25)]
        assert coeffs == [0.32430756369688063, 0.26718517631237043, 0.0586807420847169]

    def test_scalar_return_types(self):
        assert type(operators.entry_oracle(1.5, 2, 3)) is float
        assert type(operators.entry_oracle(-0.5, np.int64(2), 3)) is float
        assert type(green.weighted_sq_integral_quad(0.75, 3)) is float
        assert type(green.green_entry(0.75, 1, 2, -1.0)) is float
        assert type(green.green_entry(0.75, 1, 2, 1.0 + 1.0j)) is complex

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="1-based"):
            operators.entry_oracle(1.5, np.array([1, 0]), 2)
        with pytest.raises(ValueError, match="1-based"):
            green.green_entry(0.75, 1, np.array([3, -1]), -1.0)
