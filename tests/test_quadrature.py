"""Quadrature oracle: exact integrals, weights, and convergence behavior."""

import math

import numpy as np
import pytest

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

    @pytest.mark.parametrize("rel", [-1.0, math.nan, math.inf])
    def test_rejects_bad_relative_tolerance(self, rel):
        # bad absolute tolerances are covered through the CLI's --tol
        with pytest.raises(ValueError, match="rel"):
            integrate_theta(np.sin, tol=1e-12, rel=rel)

