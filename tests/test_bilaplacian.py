"""Squared-operator Green kernel and single-site bound states."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import green as green_mod
from fraclap.bilaplacian import (
    _big_root,
    _coupling_inverse,
    _pair_with_gaps,
    green_entry,
    lambda_asymptotic,
    lambda_bound_state,
    lambda_site1_closed,
)


def _pair(lam):
    xi, eta, _, _ = _pair_with_gaps(lam)
    return xi, eta


class TestJoukowskiParameters:
    def test_known_real_point(self):
        # lam = 25: sqrt = 5, xi solves z + 1/z = -3 -> (-3 + sqrt 5)/2
        xi, eta = _pair(25.0)
        assert xi == pytest.approx((-3.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)
        assert eta == pytest.approx((7.0 - math.sqrt(45.0)) / 2.0, rel=1e-14)

    def test_inside_unit_disk(self):
        for lam in (-1e-6, -1.0, -1e4, 17.0, 100.0, 2.0 + 3.0j, -5.0 + 0.001j):
            xi, eta = _pair(lam)
            assert abs(xi) < 1.0
            assert abs(eta) < 1.0

    def test_reconstruction(self):
        # xi + 1/xi = 2 - sqrt(lam) and eta + 1/eta = 2 + sqrt(lam)
        for lam in (-0.5, -100.0, 20.0, 3.0 - 2.0j):
            xi, eta = _pair(lam)
            root = 0.5 * ((eta + 1.0 / eta) - (xi + 1.0 / xi))
            assert root * root == pytest.approx(complex(lam), rel=1e-12)

    def test_conjugate_symmetry(self):
        # negative lam: the two parameters are complex conjugates
        for lam in (-1e-3, -1.0, -50.0):
            xi, eta = _pair(lam)
            assert xi == pytest.approx(np.conj(eta), rel=1e-13)

    def test_branch_independence(self):
        # swapping the square root branch only swaps xi and eta
        lam = -2.0
        root = cmath.sqrt(complex(lam))
        xi, eta = _pair(lam)
        swapped = (1.0 / _big_root(2.0 + root, root)[0], 1.0 / _big_root(2.0 - root, -root)[0])
        assert xi == pytest.approx(swapped[1], rel=1e-14)
        assert eta == pytest.approx(swapped[0], rel=1e-14)

    def test_spectrum_rejected(self):
        for lam in (0.0, 1.0, 16.0, 8.5):
            with pytest.raises(ValueError):
                _pair_with_gaps(lam)


class TestGreenEntry:
    @pytest.mark.parametrize("lam", [-1e-2, -1.0, -1e2])
    def test_against_quadrature(self, lam):
        for m in range(1, 6):
            for n in range(m, 6):
                closed = green_entry(m, n, lam)
                quad = green_mod.green_entry(2.0, m, n, lam)
                assert closed == pytest.approx(quad, abs=1e-10)

    @pytest.mark.parametrize("lam", [20.0, 1e3, 1e10, 1e20, 1e30])
    def test_against_quadrature_far_above_spectrum(self, lam):
        # both parameters near 0: xi - eta taken directly, not from two gaps near 1
        top = green_mod.green_entry(2.0, 1, 1, lam, tol=1e-300, rel=1e-13)
        m, n = np.meshgrid(np.arange(1, 6), np.arange(1, 6), indexing="ij")
        quad = green_mod.green_entry(2.0, m, n, lam, tol=1e-14 * abs(top))
        closed = np.array([[green_entry(i, j, lam) for j in range(1, 6)] for i in range(1, 6)])
        assert np.all(np.abs(np.diag(closed) - np.diag(quad)) <= 1e-12 * np.abs(np.diag(quad)))
        assert np.all(np.abs(closed - quad) <= 1e-12 * abs(top))

    @pytest.mark.parametrize("lam", [1e40, 1e308, -1e300, 5 - 1e40j])
    def test_diagonal_at_huge_lambda(self, lam):
        # G_11 = -1/lam (1 + O(1/sqrt|lam|)), and no underflow of an intermediate
        val = green_entry(1, 1, lam)
        assert val == pytest.approx(-1.0 / lam, rel=1e-13, abs=0.0)
        assert green_entry(2, 1, lam) == pytest.approx(0.0, abs=1e-13 * abs(val))

    def test_symmetry(self):
        assert green_entry(2, 7, -3.0) == green_entry(7, 2, -3.0)

    def test_real_for_real_lambda(self):
        val = green_entry(3, 4, -0.5)
        assert isinstance(val, float)

    def test_complex_conjugate_symmetry(self):
        up = green_entry(1, 2, 1.0 + 1.0j)
        down = green_entry(1, 2, 1.0 - 1.0j)
        assert abs(up - np.conj(down)) < 1e-13

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 200),
        n=st.integers(1, 200),
        re=st.floats(-50.0, 50.0),
        im=st.floats(1e-12, 20.0),
    )
    def test_conjugate_and_index_symmetry_exact(self, m, n, re, im):
        lam = complex(re, im)
        val = green_entry(m, n, lam)
        assert green_entry(m, n, lam.conjugate()) == val.conjugate()
        assert green_entry(n, m, lam) == val

    def test_deep_spectral_edge_frozen_values(self):
        # values frozen from a 60-digit evaluation of the closed form;
        # they cover the generic branch, the confluent branch, and the
        # stabilized kernel rewrite near z = 1
        frozen = {
            (2, 3, -1e-12): 4232.648995618786,
            (2, 3, -1e-36): 4242640677.119285,
            (1, 1, -1e-80): 7.0710678118654755e19,
            (4, 7, -1e-20): 1979790.9894259758,
        }
        for (m, n, lam), want in frozen.items():
            assert green_entry(m, n, lam) == pytest.approx(want, rel=1e-9)

    def test_edge_divergence_rate(self):
        # on the diagonal the kernel blows up like |lam|^(-1/4) as lam -> 0-
        vals = [green_entry(3, 3, -(10.0 ** (-4 * k))) for k in range(4, 9)]
        errs = [abs(b / a - 10.0) for a, b in zip(vals, vals[1:])]
        assert all(e2 < 0.11 * e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < 1e-5

    def test_positive_on_diagonal_below_spectrum(self):
        for n in (1, 2, 5):
            assert green_entry(n, n, -0.25) > 0.0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            green_entry(0, 1, -1.0)


def _bound_state_reference(site: int, c: float) -> float:
    """The bound state from 1/c(s) = c^-1 in 45 digits, bisected in log s or log(1 - s)."""
    with mpmath.workdps(45):
        mc, half = mpmath.mpf(c), mpmath.mpf(0.5)

        def excess(s, r2):  # c / c(s) - 1, decreasing in s
            theta = mpmath.atan2(s, 2 * mpmath.sqrt(r2))
            acc = mpmath.fsum(r2**j * mpmath.sin((2 * j + 1) * theta) / mpmath.sin(theta) for j in range(site))
            return mc * r2 / s * acc - 1

        upper = excess(half, half) > 0  # the root lies in s > 1/2
        lo, hi = mpmath.log(mpmath.mpf(10) ** -330), mpmath.log(half)
        for _ in range(170):
            mid = (lo + hi) / 2
            x = mpmath.exp(mid)
            if (excess(1 - x, x) < 0) if upper else (excess(x, 1 - x) > 0):
                lo = mid
            else:
                hi = mid
        x = mpmath.exp((lo + hi) / 2)
        if upper:
            return float(-((1 - x) ** 4) / (x * (1 + x) ** 2))
        return float(-(x**4) / ((1 - x) * (2 - x) ** 2))


class TestBoundState:
    def test_site1_closed_form_value(self):
        assert lambda_site1_closed(1.0) == pytest.approx(-1.0 / 18.0, rel=1e-15)
        assert lambda_site1_closed(2.0) == pytest.approx(-16.0 / 48.0, rel=1e-15)

    def test_site1_implicit_matches_closed(self):
        for c in np.logspace(-3, 3, 25):
            exact = lambda_site1_closed(float(c))
            solved = lambda_bound_state(1, float(c))
            assert solved == pytest.approx(exact, rel=1e-12)

    def test_birman_schwinger_residual(self):
        for site in range(1, 11):
            for c in (0.5, 2.0):
                lam = lambda_bound_state(site, c)
                assert -c * green_entry(site, site, lam) + 1.0 == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_coupling(self):
        vals = [lambda_bound_state(2, c) for c in (0.1, 0.5, 1.0, 5.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_uniqueness_sign_change(self):
        # the coupling curve 1/c(s) is strictly decreasing: exactly one
        # crossing for any positive coupling
        for site in (1, 3, 5):
            s = np.linspace(1e-6, 1.0 - 1e-6, 500)
            vals = np.array([_coupling_inverse(v, 1.0 - v, site) for v in s])
            assert np.all(np.diff(vals) < 0.0)

    @pytest.mark.parametrize("s", [1e-300, 1e-12, 1e-7, 1e-3, 0.5, 1.0 - 1e-9])
    def test_coupling_inverse_against_chebyu(self, s):
        # r2/s * sum_j r2^j U_2j(x), with r2 = 1 - s and x = 2 sqrt(r2)/(2 - s)
        # exact in s, in 40 digits
        with mpmath.workdps(40):
            r2 = 1 - mpmath.mpf(s)
            x = 2 * mpmath.sqrt(r2) / (2 - mpmath.mpf(s))
            for site in range(1, 13):
                acc = mpmath.fsum(r2**j * mpmath.chebyu(2 * j, x) for j in range(site))
                exact = float(r2 / mpmath.mpf(s) * acc)
                assert _coupling_inverse(s, 1.0 - s, site) == pytest.approx(exact, rel=1e-13)

    def test_tiny_coupling_underflow_safe(self):
        # the eigenvalue scales like c^4 and stays accurate deep underflow-free
        lam = lambda_bound_state(1, 1e-60)
        exact = lambda_site1_closed(1e-60)
        assert lam == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("c", [1e-301, 1e-310])
    def test_root_below_smallest_bracket(self, c):
        # s < 1e-300, so lambda ~ -s^4/4 underflows to -0.0, as in the closed form
        for site in range(1, 6):
            lam = lambda_bound_state(site, c)
            assert lam == 0.0 and math.copysign(1.0, lam) == -1.0
        assert math.copysign(1.0, lambda_site1_closed(c)) == -1.0

    @pytest.mark.parametrize("c", [1e4, 1e6, 1e10, 1e14, 1e16, 1e100, 1e300])
    def test_site1_at_large_coupling(self, c):
        # lam = -c + 5 + O(1/c): the root in u = 1 - s keeps it to rounding, and the
        # closed form keeps it where c^4 overflows
        with mpmath.workdps(40):
            mc = mpmath.mpf(c)
            exact = float(-(mc**4) / ((mc + 1) * (mc + 2) ** 2))
        assert lambda_bound_state(1, c) == pytest.approx(exact, rel=1e-15)
        assert lambda_site1_closed(c) == pytest.approx(exact, rel=1e-15)

    @pytest.mark.parametrize("site", [2, 3, 4, 5])
    def test_large_coupling_roots(self, site):
        couplings = (1e4, 1e10, 1e16)
        lams = [lambda_bound_state(site, c) for c in couplings]
        assert lams[0] > lams[1] > lams[2]
        for c, lam in zip(couplings, lams):
            assert abs(1.0 - c * green_entry(site, site, lam)) <= 1e-9

    @pytest.mark.parametrize("site", [1, 2, 3])
    def test_roots_to_rounding(self, site):
        # one sign test at s = 1/2 picks s or u = 1 - s, and either keeps its
        # relative accuracy: within 4e-15 of 45-digit roots from c = 1e-3 to 1e6
        for c in np.logspace(-3.0, 6.0, 24):
            exact = _bound_state_reference(site, float(c))
            assert abs(lambda_bound_state(site, float(c)) / exact - 1.0) <= 4e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_bound_state(0, 1.0)
        with pytest.raises(ValueError, match="integer"):
            lambda_bound_state(1.5, 1.0)
        with pytest.raises(ValueError):
            lambda_bound_state(1, 0.0)
        with pytest.raises(ValueError):
            lambda_site1_closed(-1.0)


class TestAsymptotics:
    def test_small_c_remainder_order(self):
        # |implicit/leading - bracket| = O(c^2) with a stable constant
        for site, cap in ((2, 400.0), (3, 4000.0)):
            b_coeff = 2.0 * site * (4.0 * site * site - 1.0) / 3.0
            errs = []
            for c in (1e-2, 1e-3, 1e-4):
                lam = lambda_bound_state(site, c)
                leading = -(site**8) * c**4 / 4.0
                errs.append(abs(lam / leading - (1.0 - b_coeff * c)))
            assert errs[0] > errs[1] > errs[2]
            for c, e in zip((1e-2, 1e-3, 1e-4), errs):
                assert e <= cap * c * c

    def test_small_c_formula_at_site1_consistent(self):
        # the general expansion reduces to the closed form's own expansion
        c = 1e-4
        asym = lambda_asymptotic(1, c, "small_c")
        assert asym == pytest.approx(lambda_site1_closed(c), rel=1e-7)

    def test_large_c_offsets(self):
        prev = {2: math.inf, 3: math.inf}
        for c in (1e2, 1e3, 1e4):
            for site in (2, 3):
                err = abs(lambda_bound_state(site, c) + c - 6.0)
                assert err < prev[site]
                prev[site] = err
        assert prev[2] < 4e-3 and prev[3] < 4e-3

    def test_large_c_site1_contrast(self):
        errs = [abs(lambda_site1_closed(c) + c - 5.0) for c in (1e2, 1e3, 1e4)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 2e-3

    def test_asymptotic_api(self):
        assert lambda_asymptotic(2, 1e3, "large_c") == pytest.approx(-994.0)
        assert lambda_asymptotic(1, 1e3, "large_c") == pytest.approx(-995.0)
        with pytest.raises(ValueError):
            lambda_asymptotic(2, 1.0, "medium_c")
