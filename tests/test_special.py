"""Special-function layer: values, identities, and independent oracles."""

import math

import numpy as np
import pytest

from fraclap.special import chebyshev_u, log_pochhammer, zeta_and_derivative


def pochhammer(a: float, k: int) -> float:
    """(a)_k rebuilt from log_pochhammer's sign and log magnitude."""
    sign, log_abs = log_pochhammer(a, k)
    return sign * math.exp(log_abs)


class TestPochhammer:
    def test_base_cases(self):
        assert pochhammer(2.5, 0) == 1.0
        assert pochhammer(3.0, 1) == pytest.approx(3.0, rel=1e-14)
        assert pochhammer(1.0, 5) == pytest.approx(120.0, rel=1e-14)

    def test_zero_factor(self):
        assert pochhammer(-3.0, 5) == 0.0
        sign, _ = log_pochhammer(0.0, 2)
        assert sign == 0.0

    def test_negative_integer_start_within_range(self):
        # (-3)(-2)(-1) = -6
        assert pochhammer(-3.0, 3) == pytest.approx(-6.0, rel=1e-14)

    def test_matches_direct_product(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = float(rng.uniform(-6.0, 6.0))
            if a == math.floor(a):
                continue
            k = int(rng.integers(0, 12))
            direct = 1.0
            for j in range(k):
                direct *= a + j
            assert pochhammer(a, k) == pytest.approx(direct, rel=1e-11, abs=1e-13)

    def test_large_k_no_overflow(self):
        sign, log_abs = log_pochhammer(0.75, 1_000_000)
        assert sign == 1.0
        assert math.isfinite(log_abs)
        sign, log_abs = log_pochhammer(-0.25, 1_000_000)
        assert sign == -1.0
        assert math.isfinite(log_abs)


class TestChebyshevU:
    def test_low_degrees(self):
        x = np.linspace(-1.0, 1.0, 21)
        assert np.allclose(chebyshev_u(0, x), np.ones_like(x), atol=1e-14)
        assert np.allclose(chebyshev_u(1, x), 2.0 * x, atol=1e-13)
        assert np.allclose(chebyshev_u(2, x), 4.0 * x**2 - 1.0, atol=1e-12)

    def test_endpoint_values(self):
        for n in (0, 1, 5, 20):
            assert chebyshev_u(n, 1.0) == pytest.approx(n + 1.0, rel=1e-12)
            assert chebyshev_u(n, -1.0) == pytest.approx((-1.0) ** n * (n + 1.0), rel=1e-12)

    def test_trig_identity(self):
        theta = np.linspace(0.1, math.pi - 0.1, 50)
        for n in (3, 8, 15):
            vals = chebyshev_u(n, np.cos(theta))
            expected = np.sin((n + 1) * theta) / np.sin(theta)
            assert np.allclose(vals, expected, rtol=1e-11, atol=1e-11)

    def test_recurrence(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-2.0, 2.0, 30)
        for n in range(2, 12):
            lhs = chebyshev_u(n, x)
            rhs = 2.0 * x * chebyshev_u(n - 1, x) - chebyshev_u(n - 2, x)
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_bounded_on_interval(self):
        x = np.linspace(-1.0, 1.0, 1001)
        for n in (4, 9, 25):
            assert np.all(np.abs(chebyshev_u(n, x)) <= n + 1.0 + 1e-9)

    def test_scalar_in_scalar_out(self):
        val = chebyshev_u(3, 0.5)
        assert isinstance(val, float)
        assert val == pytest.approx(-1.0, abs=1e-12)

    def test_outside_interval(self):
        # U_2(2) = 4*4 - 1 = 15
        assert chebyshev_u(2, 2.0) == pytest.approx(15.0, rel=1e-13)
        assert chebyshev_u(3, -1.5) == pytest.approx(-(8 * 1.5**3 - 4 * 1.5), rel=1e-12)


def _zeta_oracle(s: float, terms: int = 2000):
    """Euler-Maclaurin zeta and derivative, independent of the library path."""
    ns = np.arange(1, terms, dtype=float)
    logs = np.log(ns)
    head = float(np.sum(ns**-s))
    head_d = float(-np.sum(logs * ns**-s))
    n = float(terms)
    ln = math.log(n)
    z = head + n ** (1 - s) / (s - 1) + 0.5 * n**-s + s * n ** (-s - 1) / 12.0
    zd = (
        head_d
        - ln * n ** (1 - s) / (s - 1)
        - n ** (1 - s) / (s - 1) ** 2
        - 0.5 * ln * n**-s
        + (1.0 - s * ln) * n ** (-s - 1) / 12.0
    )
    return z, zd


class TestZeta:
    def test_known_value(self):
        z, _ = zeta_and_derivative(2.0)
        assert z == pytest.approx(math.pi**2 / 6.0, rel=1e-13)

    def test_against_euler_maclaurin(self):
        for s in (1.5, 2.0, 3.0, 4.5):
            z, zd = zeta_and_derivative(s)
            oz, ozd = _zeta_oracle(s)
            assert z == pytest.approx(oz, rel=1e-10)
            assert zd == pytest.approx(ozd, rel=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            zeta_and_derivative(1.0)
        with pytest.raises(ValueError):
            zeta_and_derivative(0.5)
