"""Quadrature oracle: exact integrals, weights, and convergence behavior."""

import itertools
import math

import numpy as np
import pytest

from fraclap import bilaplacian, green, operators, probes, quadrature, selfcheck
from fraclap.quadrature import QuadratureError, brent_root, integrate_theta


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


def _brentq_and_brent_root(f, a, b, **tolerances):
    """(brentq's root, its calls of f) and (brent_root's, its calls plus the ends' two).

    Where brentq does not converge, its root is its last iterate, which
    brent_root names in the QuadratureError it raises.
    """
    from scipy.optimize import brentq

    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    reference, info = brentq(f, a, b, full_output=True, disp=False, **tolerances)
    try:
        root = brent_root(counted, a, b, f(a), f(b), **tolerances).hex()
    except QuadratureError as exc:
        assert not info.converged
        root = float(str(exc).rpartition("x=")[2]).hex()
    else:
        assert info.converged
    return (reference.hex(), info.function_calls), (root, len(calls) + 2)


#: the bound-state grid: sites, and 61 log-spaced couplings with both ends of float64's reach
_BOUND_SITES = (1, 2, 3, 5, 10)
_BOUND_COUPLINGS = [float(c) for c in np.logspace(-3, 6, 61)] + [1e-310, 1e300]


class TestBrentRoot:
    """The package's root finder against scipy.optimize.brentq, bit for bit and call for call."""

    @pytest.mark.parametrize("site", _BOUND_SITES)
    def test_bound_state_condition(self, site):
        rtol = 4.0 * math.ulp(1.0) * (1.0 + 1e-14)
        branches = {"s": 0, "u": 0, "floor": 0}
        for c in _BOUND_COUPLINGS:

            def f(s):
                return c * bilaplacian._coupling_inverse(s, 1.0 - s, site) - 1.0

            def f_u(u):
                return c * bilaplacian._coupling_inverse(1.0 - u, u, site) - 1.0

            if f(0.5) > 0.0:
                tiny, branch = math.ulp(0.0), "u"
                expected, got = _brentq_and_brent_root(f_u, tiny, 0.5, xtol=tiny, rtol=rtol, maxiter=1200)
                u = float.fromhex(got[0])
                lam = -((1.0 - u) ** 4) / (u * (1.0 + u) ** 2)
            elif f(1e-300) > 0.0:
                branch = "s"
                expected, got = _brentq_and_brent_root(f, 1e-300, 0.5, xtol=1e-300, rtol=rtol, maxiter=1200)
                s = float.fromhex(got[0])
                lam = -(s**4) / ((1.0 - s) * (2.0 - s) ** 2)
            else:
                branch, expected, got, lam = "floor", None, None, -0.0
            branches[branch] += 1
            assert got == expected, (site, c)
            assert bilaplacian.lambda_bound_state(site, c).hex() == lam.hex()
        # c = 1e300 takes the u-branch, c = 1e-310 the -0.0 floor
        assert branches["floor"] == 1 and branches["s"] >= 15 and branches["u"] >= 40

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: 2.0 * x - 1.0, 0.0, 3.0),
            (lambda x: 1.0 - 3.0 * x, -2.0, 1.0),
            (lambda x: 1e-3 * (x - math.pi), 0.0, 10.0),
            (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
            (lambda x: math.cos(x) - x, 0.0, 1.0),
            (lambda x: math.exp(x) - 10.0, -5.0, 5.0),
            (lambda x: (x - 1.0) ** 5, 0.0, 3.0),  # a quintuple root: many bisections
            (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 4.0),  # flat ends
            (lambda x: -1.0 if x < 0.7 else 2.0, 0.0, 1.0),  # a jump, no root
            (lambda x: x * x - 1e-200, 0.0, 1.0),  # a root far below the bracket's scale
            (lambda x: math.atan(x - 1e6), 0.0, 1e12),
            (lambda x: 1.0 / (x - 3.0) + 2.0, 0.0, 2.9),
            # at xtol = 5e-324, steps of zero length next to the subnormals: brentq's 0/0
            (lambda x: x**3 - 1e-320, 0.0, 1.0),
            (lambda x: -1.0 if x < 3e-321 else 2.0, 0.0, 1.0),
            (lambda x: math.sqrt(x) - 1e-160, 0.0, 1.0),  # a subnormal root
        ],
    )
    @pytest.mark.parametrize(
        "tolerances",
        [
            {},
            {"xtol": 1e-8},
            {"xtol": 1e-3, "rtol": 1e-6},
            {"xtol": 5e-324},
            {"xtol": 5e-324, "maxiter": 1200},
            {"maxiter": 1200},
            {"maxiter": 3},
        ],
    )
    def test_functions(self, f, a, b, tolerances):
        tolerances = {"xtol": 2e-12, **tolerances}
        expected, got = _brentq_and_brent_root(f, a, b, **tolerances)
        assert got == expected
        expected, got = _brentq_and_brent_root(f, b, a, **tolerances)  # a reversed bracket
        assert got == expected

    @pytest.mark.parametrize(
        "f, a, b, tolerances",
        [
            # each case tells brentq from a copy with one comparison or rounding changed:
            # the step test's "- delta"
            (lambda x: x ** (1.0 / 3.0) - 0.3 ** (1.0 / 3.0), 0.0, 1.0, {"xtol": 0.5, "rtol": 1e-6, "maxiter": 3}),
            # a short step taken only below the bound, not at it
            (lambda x: 1.0 + 2.0 * x - 2.0 * x * x, 0.5, -1.0, {"xtol": 5e-324, "rtol": 0.125, "maxiter": 1200}),
            # delta halved after the sum, which rounds differently among the subnormals
            (
                lambda x: math.copysign(math.sqrt(abs(x)), x) - math.sqrt(1e-320),
                -1.0,
                1.0,
                {"xtol": 5e-324, "rtol": 0.125, "maxiter": 1200},
            ),
            # the stopping rule |sbis| < delta, strict
            (
                lambda x: (-1.0, 1.0, 1.0, -1.0)[sum(x >= j for j in (-1.625, -0.625, 2.0))],
                -3.25,
                1.75,
                {"xtol": 1.0, "rtol": 0.125, "maxiter": 100},
            ),
        ],
    )
    def test_ties(self, f, a, b, tolerances):
        expected, got = _brentq_and_brent_root(f, a, b, **tolerances)
        assert got == expected

    def test_an_end_where_f_is_zero_is_returned_as_is(self):
        def f(x):
            raise AssertionError("f is not called")

        for a, b, fa, fb, root in [(-1, 2.0, 0.0, 1.0, -1.0), (-1.0, 2, -1.0, -0.0, 2.0), (1.0, 3.0, 0.0, 0.0, 1.0)]:
            found = brent_root(f, a, b, fa, fb, xtol=1e-8)
            assert type(found) is float and found.hex() == root.hex()
        expected, got = _brentq_and_brent_root(lambda x: x - 0.25, 0.25, 1.0, xtol=1e-8)
        assert got == expected == ((0.25).hex(), 2)

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            brent_root(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0, -1.0, 1.0, xtol=1e-8)
        with pytest.raises(ValueError, match="NaN"):
            brent_root(lambda x: x, -1.0, 1.0, math.nan, 1.0, xtol=1e-8)

    def test_ends_of_one_sign_raise(self):
        with pytest.raises(ValueError, match="different signs"):
            brent_root(lambda x: x, 1.0, 2.0, 1.0, 2.0, xtol=1e-8)

    def test_no_convergence_raises(self):
        # brentq raises RuntimeError; QuadratureError is one, and the CLI exits 2 on it
        with pytest.raises(QuadratureError, match="3 steps"):
            brent_root(lambda x: (x - 1.0) ** 5, 0.0, 3.0, -1.0, 32.0, xtol=1e-15, maxiter=3)
