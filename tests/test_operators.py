"""Matrix entries of the operator powers against structure and oracles."""

import io
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import cli, operators
from fraclap.operators import (
    UnsupportedExponentError,
    _check_indices,
    assemble,
    assemble_band,
    assemble_reflected,
    entry,
    entry_oracle,
    section_coefficients,
    section_product,
    sine_indices,
)


class TestExponent:
    def test_rejects_unsupported(self):
        for bad in (0.0, -0.25, -2.0, -1.5, math.inf, math.nan):
            with pytest.raises(UnsupportedExponentError):
                entry(bad, 1, 1)
            with pytest.raises(UnsupportedExponentError):
                assemble(bad, 3)


class TestFirstPower:
    def test_tridiagonal_exact(self):
        mat = assemble(1.0, 40)
        expected = 2.0 * np.eye(40) - np.eye(40, k=1) - np.eye(40, k=-1)
        assert np.array_equal(mat, expected)

    def test_entry_values(self):
        assert entry(1.0, 1, 1) == 2.0
        assert entry(1.0, 1, 2) == -1.0
        assert entry(1.0, 3, 7) == 0.0


class TestIntegerPowers:
    @pytest.mark.parametrize("power", [2, 3])
    def test_padded_product_consistency(self, power):
        size = 30
        first = assemble(1.0, size + power)
        product = np.linalg.matrix_power(first, power)[:size, :size]
        direct = assemble(float(power), size)
        assert np.max(np.abs(direct - product)) <= 1e-10

    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_band_storage_matches_dense_bit_for_bit(self, power):
        for size in (1, 2, 3, 4, 5, 9, 40):
            ab = assemble_band(float(power), size)
            assert ab.shape == (min(power, size - 1) + 1, size)
            dense = assemble(float(power), size)
            for d in range(ab.shape[0]):
                assert np.array_equal(ab[d, : size - d], np.diagonal(dense, -d))
                assert not np.any(ab[d, size - d :])

    def test_band_storage_needs_integer_power(self):
        for bad in (1.5, -1.0):
            with pytest.raises(UnsupportedExponentError):
                assemble_band(bad, 10)
        with pytest.raises(ValueError):
            assemble_band(2.0, 0)

    def test_band_structure(self):
        mat = assemble(3.0, 20)
        for m in range(20):
            for n in range(20):
                if abs(m - n) > 3:
                    assert mat[m, n] == 0.0


class TestNegativePowers:
    def test_inverse_is_min(self):
        mat = assemble(-1.0, 25)
        idx = np.arange(1, 26)
        assert np.array_equal(mat, np.minimum.outer(idx, idx).astype(float))

    def test_inverse_against_oracle(self):
        for m, n in ((1, 1), (2, 5), (4, 4), (7, 3)):
            assert entry(-1.0, m, n) == pytest.approx(entry_oracle(-1.0, m, n), abs=1e-9)

    def test_half_inverse_against_oracle(self):
        for m, n in ((1, 1), (1, 2), (3, 3), (2, 6), (5, 8)):
            assert entry(-0.5, m, n) == pytest.approx(entry_oracle(-0.5, m, n), abs=1e-10)

    def test_half_inverse_squares_to_inverse(self):
        # the square of the -1/2 section converges (slowly, ~1/N) to min(m,n)
        idx = np.arange(1, 9)
        target = np.minimum.outer(idx, idx).astype(float)
        errs = []
        for size in (200, 400, 800):
            half = assemble(-0.5, size)
            errs.append(np.max(np.abs((half @ half)[:8, :8] - target)))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] <= 0.04
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.3)

    def test_half_power_times_half_inverse(self):
        # A(1/2) A(-1/2) ~ identity in the interior, fast truncation decay
        plus = assemble(0.5, 400)
        minus = assemble(-0.5, 400)
        prod = plus @ minus
        assert np.max(np.abs(prod[:8, :8] - np.eye(400)[:8, :8])) <= 1e-6

    def test_functional_inverse(self):
        # A(1) A(-1) = I up to the boundary row at the truncation edge
        lap = assemble(1.0, 60)
        inv = assemble(-1.0, 60)
        prod = lap @ inv
        assert np.max(np.abs(prod[:59, :59] - np.eye(59))) <= 1e-12


class TestFractionalEntries:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.25, 1.5, 2.5])
    def test_against_oracle_sample(self, alpha):
        for m, n in ((1, 1), (1, 2), (2, 2), (3, 6), (5, 5), (8, 2)):
            closed = entry(alpha, m, n)
            oracle = entry_oracle(alpha, m, n)
            assert closed == pytest.approx(oracle, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.one_of(
            st.sampled_from([-1.0, -0.5, 1.0, 2.0, 3.0]),
            st.floats(0.05, 3.0, exclude_min=True),
        ),
        m=st.integers(1, 40),
        n=st.integers(1, 40),
    )
    def test_entry_matches_oracle_property(self, alpha, m, n):
        assert entry(alpha, m, n) == pytest.approx(entry_oracle(alpha, m, n), abs=1e-9)

    def test_entry_is_the_assembled_entry(self):
        # entries and sections read c[k] through one path, so they agree bit for bit
        rng = random.Random(1)
        alphas = [-0.5 if rng.random() < 0.1 else rng.uniform(0.01, 8.0) for _ in range(300)]
        mismatches = []
        for alpha in alphas + [-1.0, 1.0, 2.0, 3.0, 7.0]:
            mat = assemble(alpha, 60)
            for _ in range(20):
                m, n = rng.randint(1, 60), rng.randint(1, 60)
                if entry(alpha, m, n) != mat[m - 1, n - 1]:
                    mismatches.append((alpha, m, n))
        assert mismatches == []

    def test_symmetry(self):
        for alpha in (0.5, 1.3, 2.2):
            mat = assemble(alpha, 30)
            assert np.max(np.abs(mat - mat.T)) == 0.0

    def test_row_decay(self):
        # first-row decay: the difference of two Toeplitz coefficients of
        # order |m-n|^(-1-2a) gains one extra order, giving ~ n^(-2-2a)
        alpha = 0.75
        vals = [abs(entry(alpha, 1, n)) for n in (10, 20, 40, 80)]
        for a, b in zip(vals, vals[1:]):
            assert b < a
        rate = math.log(vals[0] / vals[-1]) / math.log(8.0)
        assert rate == pytest.approx(2.0 + 2.0 * alpha, abs=0.2)

    def test_spectral_containment(self):
        # eigenvalues of any section lie in [0, 4^alpha]
        for alpha in (0.5, 1.0, 1.75):
            w = np.linalg.eigvalsh(assemble(alpha, 200))
            assert w[0] >= -1e-10
            assert w[-1] <= 4.0**alpha + 1e-10

    def test_index_validation(self):
        with pytest.raises(ValueError):
            entry(1.0, 0, 1)
        with pytest.raises(ValueError):
            assemble(1.0, 0)
        # m + n must stay below 2^52, where float64 still holds it exactly
        assert entry(-1.0, 2**51, 2**51 - 1) == 2**51 - 1
        for alpha in (-1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="2\\*\\*52"):
                entry(alpha, 2**51, 2**51)
        with pytest.raises(ValueError, match="2\\*\\*52"):
            entry_oracle(0.75, 10**20, 1)

    ONE_BASED = "indices are 1-based: m, n >= 1"
    EXACT = "indices need m + n < 2**52, the range float64 holds exactly"
    INTEGER = "indices must be integers"

    @pytest.mark.parametrize(
        "m, n, message",
        [
            (1, 1, None),
            (np.int64(3), 7, None),
            (2**52 - 2, 1, None),
            (np.array([[1], [2]]), np.array([1, 2**51]), None),
            (np.array([10**30], dtype=object), 1, EXACT),
            (0, 1, ONE_BASED),
            (1, -2, ONE_BASED),
            (np.array([1, 0]), 2, ONE_BASED),
            (0, 10**400, ONE_BASED),  # the first check wins
            (2**52 - 1, 1, EXACT),
            (10**400, 1, EXACT),  # a Python int beyond int64, as entry gets it
            (1, np.array([1, 2**52]), EXACT),
            (2.0, np.array([3.0, 2.0**51]), None),
            (1.5, 2, INTEGER),
            (2, 1.5, INTEGER),
            (np.array([1.0, 2.5]), 1, INTEGER),
            (float("nan"), 1, INTEGER),
            (1, float("inf"), EXACT),
        ],
    )
    def test_index_checks_accept_and_reject(self, m, n, message):
        # entry checks its scalar indices as given, the oracles after broadcasting
        checks = [lambda: _check_indices(m, n), lambda: sine_indices(m, n)]
        if np.ndim(m) == np.ndim(n) == 0:
            checks.append(lambda: entry(-1.0, m, n))
        for check in checks:
            if message is None:
                check()
            else:
                with pytest.raises(ValueError) as caught:
                    check()
                assert str(caught.value) == message


class TestReflected:
    def test_definition(self):
        alpha = 1.5
        base = assemble(alpha, 25)
        refl = assemble_reflected(alpha, 25)
        assert np.max(np.abs(refl - (4.0**alpha * np.eye(25) - base))) == 0.0

    def test_positive_spectrum(self):
        refl = assemble_reflected(2.0, 150)
        w = np.linalg.eigvalsh(refl)
        assert w[0] >= -1e-10

    def test_requires_positive_power(self):
        with pytest.raises(UnsupportedExponentError):
            assemble_reflected(-1.0, 10)


class TestSerialization:
    def test_csv_round_trip(self, capsys):
        op = assemble(1.25, 12)
        assert cli.main(["matrix", "--alpha", "1.25", "--N", "12", "--format", "csv"]) == 0
        back = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",", ndmin=2)
        assert np.array_equal(back, op)

    def test_sections_fresh_and_writable(self):
        # callers shift and factor sections in place: no call may see another's writes
        for build, alpha in ((assemble, 1.0), (assemble, 0.75), (assemble_reflected, 1.5)):
            mat = build(alpha, 5)
            expected = mat.copy()
            mat[0, 0] = 99.0
            assert np.array_equal(build(alpha, 5), expected)


class TestSectionProduct:
    """The FFT Toeplitz-minus-Hankel product against the assembled section."""

    @pytest.mark.parametrize("alpha", [0.25, 0.75, 1.5, 2.5, 3.0])
    @pytest.mark.parametrize("size", [1, 2, 3, 17, 300])
    def test_matches_assembled_section(self, alpha, size):
        x = np.random.default_rng(size).standard_normal((size, 3))
        mat = assemble(alpha, size)
        product = section_product(section_coefficients(alpha, size))
        scale = 4.0**alpha * np.abs(x).sum(axis=0).max()
        assert np.abs(product(x) - mat @ x).max() <= 1e-15 * scale * max(1.0, math.log2(size))
        assert np.abs(product(x[:, 0]) - mat @ x[:, 0]).max() <= 1e-15 * scale * max(1.0, math.log2(size))

    def test_coefficients_are_the_assembled_ones(self):
        c = section_coefficients(1.25, 40)
        mat = assemble(1.25, 40)
        assert c.shape == (81,)
        assert c[0] - c[2] == mat[0, 0]
        assert c[5] - c[40 + 35] == mat[39, 34]


#: indices of the coefficient grid: the whole head, and far into the Stirling tail
_COEFF_KS = list(range(101)) + [10**3, 4001, 10**5, 10**7, 10**9]


def _coefficient_errors(alpha: float) -> list[float]:
    """Relative errors of c[k] against 50-digit binomials."""
    coeffs = operators._signed_coeff(alpha, np.array(_COEFF_KS, dtype=float))
    errors = []
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        for k, x in zip(_COEFF_KS, coeffs):
            exact = (-1) ** k * mpmath.binomial(2 * a, a + k)
            if abs(exact) > 1e-300:  # c[k] underflows past that, as it should
                errors.append(float(abs(x - exact) / abs(exact)))
    return errors


class TestCoefficients:
    """c[k] of non-integer powers and of alpha = -1/2 from the one Stirling kernel."""

    @pytest.mark.parametrize(
        "alpha", [0.25, 0.5 - 1e-9, 0.5 + 1e-9, 0.75, 1 - 1e-9, 1 + 1e-9, 1.5, 2 - 1e-9, 2.5, 4 - 1e-9, 7.5]
    )
    def test_against_mpmath_binomials(self, alpha):
        assert max(_coefficient_errors(alpha)) <= 1e-14 * (1.0 + alpha)

    def test_large_power(self):
        # the log-Gamma differences this replaced were 1.5e-12 off at k = 4001
        assert max(_coefficient_errors(50.5)) <= 1e-12

    @pytest.mark.parametrize("alpha", [170.5, 200.25, 300.5, 400.75, 514.5])
    def test_large_power_diagonal_within_two_ulps(self, alpha):
        # from alpha = 170 on, Gamma(alpha + 1/2)/Gamma(alpha + 1) comes from the Stirling kernel
        c0 = operators._signed_coeff(alpha, np.zeros(1))[0]
        with mpmath.workdps(50):
            exact = mpmath.binomial(2 * mpmath.mpf(alpha), mpmath.mpf(alpha))
            assert abs(c0 - exact) <= 2 * math.ulp(float(exact))

    def test_half_inverse_against_digamma(self):
        # c[k] = -psi(k + 1/2)/pi, with psi within 1e-15 max(1, |psi|)
        ks = list(range(200)) + [10**3, 4001, 10**5, 10**7, 10**9, 10**12, 10**15]
        coeffs = operators._signed_coeff(-0.5, np.array(ks, dtype=float))
        with mpmath.workdps(40):
            for k, x in zip(ks, coeffs):
                psi = mpmath.digamma(k + mpmath.mpf(0.5))
                exact = -psi / mpmath.pi
                assert abs(x - exact) <= 1e-15 * max(1, abs(psi)) / math.pi

    def test_overflowing_power_refused(self):
        assert math.isfinite(entry(514.5, 1, 1))
        with pytest.raises(ValueError, match="overflow"):
            entry(600.5, 1, 1)

    def test_bernoulli_and_stirling_tables(self):
        # the literals against the recurrence sum_{j<=m} C(m+1, j) B_j = 0
        b = [Fraction(1)]
        for m in range(1, 17):
            b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
        assert [Fraction(*pair) for pair in operators._BERNOULLI] == b[::2]
        half = [(Fraction(2) ** (1 - j) - 1) * bj for j, bj in enumerate(b)]  # B_j(1/2)
        rows = [
            [float(2 * math.comb(m + 1, p) * half[m + 1 - p] / (m * (m + 1))) for p in range(1, m + 2, 2)]
            for m in range(2, 13, 2)
        ]
        assert operators._STIRLING == rows
