"""Green kernels, uniform bounds, weight sequence, and admissibility."""

import math
import random
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import green, operators
from fraclap.green import (
    _BLOCK,
    _K,
    _MAX_TERMS,
    Potential,
    _block_fsum,
    _majorant,
    _power_tail_bound,
    _series_parts,
    admissibility_threshold,
    g_weight,
    green_entry,
    power_hardy_weight,
    reflected_bound_const,
    rough_bound_const,
    site_blocks,
    theorem2_check,
    uniform_bound_refined,
    uniform_bound_rough,
    weighted_sq_integral,
    weighted_sq_integral_quad,
    zeta_and_derivative,
)


def _g_oracle(alpha: float, n: int) -> float:
    """g_n from 60-digit log-Gamma values, with the limits at 1/2 and 1."""
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha)
        if a == 1:
            return float(2 * mpmath.pi * n)
        if a == 0.5:
            return float(2 / mpmath.pi * (mpmath.digamma(2 * n + a) - mpmath.digamma(a)))
        # for a > 1, Gamma(1 - a) < 0 and its loggamma carries i*pi
        log_ratio = mpmath.loggamma(a + 2 * n) - mpmath.loggamma(a)
        log_ratio -= mpmath.loggamma(1 - a + 2 * n) - mpmath.loggamma(1 - a)
        return float((1 - mpmath.re(mpmath.exp(log_ratio))) * mpmath.tan(mpmath.pi * a))


def weight_majorant(alpha: float, n: int) -> float:
    """The majorant of g_n that the package reads: the exact 2 pi n at 1, (2/pi)(3 + ln n)
    at 1/2, the integrand of _power_tail_bound there, and _majorant's A n^beta elsewhere."""
    if alpha == 1.0:
        return 2.0 * math.pi * n
    if alpha == 0.5:
        return 2.0 / math.pi * (3.0 + math.log(n))
    coeff, beta = _majorant(alpha)
    return coeff * float(n) ** beta


class TestWeightSequence:
    def test_first_power_values(self):
        for n in (1, 2, 5, 40):
            assert g_weight(1.0, n) == pytest.approx(2.0 * math.pi * n, rel=1e-15)

    def test_half_power_values(self):
        # odd harmonic sums: n=1 -> (4/pi)(1 + 1/3)
        assert g_weight(0.5, 1) == pytest.approx(16.0 / (3.0 * math.pi), rel=1e-14)
        expected = 4.0 / math.pi * (1.0 + 1.0 / 3.0 + 1.0 / 5.0 + 1.0 / 7.0)
        assert g_weight(0.5, 2) == pytest.approx(expected, rel=1e-14)

    def test_quarter_power_value(self):
        # hand evaluation of the factorial-ratio formula
        assert g_weight(0.25, 1) == pytest.approx(16.0 / 21.0, rel=1e-13)

    def test_matches_direct_product(self):
        # (1 - (a)_{2n}/(1-a)_{2n}) tan(pi a) from the factors themselves; for
        # a > 1 the first factor of (1-a)_{2n} is the only negative one
        rng = np.random.default_rng(7)
        for alpha in rng.uniform(0.01, 1.49, 50):
            for n in (1, 2, 6):
                ratio = math.prod((alpha + j) / (1.0 - alpha + j) for j in range(2 * n))
                direct = (1.0 - ratio) * math.tan(math.pi * alpha)
                assert g_weight(float(alpha), n) == pytest.approx(direct, rel=1e-10)

    def test_matches_mpmath(self):
        # relative error against 60 digits: at and around the removable points
        # 1/2 and 1, across (0, 3/2), and on both sides of the series anchor
        offsets = (0.0, 1e-9, 1e-6, 1e-4, 1e-2)
        alphas = {c + s * o for c in (0.5, 1.0) for o in offsets for s in (1.0, -1.0)}
        alphas |= {1e-4, 0.25, 0.75, 1.25, 1.5 - 1e-4}
        ns = (1, 2, _K, _K + 1, 100, 10**5, 10**7)
        for alpha in sorted(alphas):
            got = g_weight(alpha, np.array(ns))
            for n, value in zip(ns, got.tolist()):
                exact = _g_oracle(alpha, n)
                assert abs(value - exact) <= 1e-14 * abs(exact), (alpha, n)

    def test_array_matches_scalar(self):
        for alpha in (1e-4, 0.25, 0.5, 0.5 + 1e-7, 0.75, 0.8, 1.0, 1.0 - 1e-7, 1.3, 1.4999):
            vec = g_weight(alpha, np.arange(1, 51))
            assert vec.tolist() == [g_weight(alpha, n) for n in range(1, 51)]
            # unsorted and 2-D indices on both sides of the head end _K
            grid = np.array([[17, _K, 10**7], [_K + 1, 1, 2 * _K]])
            assert g_weight(alpha, grid).tolist() == [[g_weight(alpha, n) for n in row] for row in grid.tolist()]
            assert g_weight(alpha, grid[1]).tolist() == [g_weight(alpha, n) for n in grid[1].tolist()]
        assert g_weight(0.75, np.array([[1, 2], [3, 4]])).shape == (2, 2)

    def test_half_power_at_huge_index(self):
        # the odd harmonic sum of 2 * 10^18 terms, through the digamma function
        n = 10**18
        with mpmath.workdps(30):
            exact = float(2 / mpmath.pi * (mpmath.digamma(2 * n + mpmath.mpf(0.5)) - mpmath.digamma(0.5)))
        assert g_weight(0.5, n) == pytest.approx(exact, rel=1e-14)

    def test_positive(self):
        for alpha in (0.1, 0.5, 0.9, 1.0, 1.1, 1.45):
            assert g_weight(alpha, 1) > 0.0
            assert g_weight(alpha, 100) > 0.0
            # factorial ratios of length 10^6 stay in log space: no overflow
            assert 0.0 < g_weight(alpha, 500_000) < math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            g_weight(1.5, 1)
        with pytest.raises(ValueError):
            g_weight(0.0, 1)
        with pytest.raises(ValueError):
            g_weight(1.0, 0)
        with pytest.raises(ValueError):
            g_weight(0.75, np.array([3, 0]))
        with pytest.raises(OverflowError):
            g_weight(1.4, 10**300)

    def test_upper_bound_dominates(self):
        for alpha in (0.25, 0.5, 0.75, 1.0, 1.25, 1.4):
            vals = g_weight(alpha, np.arange(1, 10_001))
            bounds = np.array([weight_majorant(alpha, n) for n in range(1, 10_001)])
            assert np.all(vals <= bounds * (1.0 + 1e-12))

    def test_bound_limit_value(self):
        # below 1/2 the weight is bounded by tan(pi alpha)
        coeff, beta = _majorant(0.25)
        assert (coeff, beta) == (pytest.approx(1.0, rel=1e-14), 0.0)

    def test_growth_regimes(self):
        # bounded for a < 1/2; ~ (2/pi) ln n at 1/2; ~ n^(2a-1) above
        lo = [g_weight(0.25, n) for n in (100, 1000, 10_000)]
        assert max(lo) <= 1.0  # tan(pi/4)
        assert lo[2] - lo[1] < lo[1] - lo[0]

        mid = [g_weight(0.5, n) - 2.0 / math.pi * math.log(n) for n in (100, 1000, 10_000)]
        assert abs(mid[2] - mid[1]) < abs(mid[1] - mid[0])
        assert abs(mid[2] - mid[1]) < 1e-3

        hi = [g_weight(1.25, n) / n**1.5 for n in (100, 1000, 10_000)]
        assert abs(hi[2] - hi[1]) < abs(hi[1] - hi[0])
        assert abs(hi[2] - hi[1]) < 1e-3


class TestWeightedMoment:
    def test_first_power(self):
        for n in (1, 3, 10):
            assert weighted_sq_integral(1.0, n) == pytest.approx(math.pi * n, rel=1e-14)

    def test_half_power(self):
        assert weighted_sq_integral(0.5, 1) == pytest.approx(math.sqrt(2.0) * 4.0 / 3.0, rel=1e-13)

    def test_against_quadrature(self):
        for alpha in (0.25, 0.75, 1.25, 1.4):
            for n in (1, 4, 12):
                closed = weighted_sq_integral(alpha, n)
                quad = weighted_sq_integral_quad(alpha, n)
                assert closed == pytest.approx(quad, abs=1e-10, rel=1e-10)

    def test_removable_windows_against_quadrature(self):
        for alpha in (0.5 - 1e-7, 0.5 + 1e-7, 1.0 - 1e-7, 1.0 + 1e-7):
            for n in (1, 5):
                closed = weighted_sq_integral(alpha, n)
                quad = weighted_sq_integral_quad(alpha, n)
                assert closed == pytest.approx(quad, abs=1e-9)

    def test_quadrature_indices(self):
        # one pass over unsorted, repeated indices equals the scalar calls bit for bit
        ns = np.array([[5, 1], [5, 3]])
        vals = weighted_sq_integral_quad(0.75, ns)
        assert vals.tolist() == [[weighted_sq_integral_quad(0.75, n) for n in row] for row in ns.tolist()]
        for bad in (0, np.array([1, 0]), 2**52):
            with pytest.raises(ValueError):
                weighted_sq_integral_quad(0.75, bad)


class TestGreenEntry:
    def test_first_power_against_linear_solve(self):
        size = 2000
        tri = operators.assemble(1.0, size)
        lam = -1.0
        col = np.linalg.solve(tri - lam * np.eye(size), np.eye(size, 1)[:, 0])
        assert green_entry(1.0, 1, 1, lam) == pytest.approx(col[0], abs=1e-12)
        assert green_entry(1.0, 1, 2, lam) == pytest.approx(col[1], abs=1e-12)
        assert green_entry(1.0, 1, 5, lam) == pytest.approx(col[4], abs=1e-12)

    def test_resolvent_decay(self):
        for alpha in (0.5, 1.0, 2.0):
            assert abs(green_entry(alpha, 1, 2, -1e6)) < 2e-6

    def test_monotone_in_lambda(self):
        vals = [green_entry(0.75, 3, 3, lam) for lam in (-10.0, -1.0, -0.1, -0.01)]
        assert all(v > 0.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_spectrum_rejected(self):
        with pytest.raises(ValueError):
            green_entry(1.0, 1, 1, 2.0)
        with pytest.raises(ValueError):
            green_entry(1.0, 1, 1, 0.0)
        with pytest.raises(ValueError, match=r"^lam=\(2\+0j\) lies in the spectrum \[0, 4\.0\]$"):
            green_entry(1.0, 1, 1, 2.0 + 0.0j)
        with pytest.raises(ValueError, match=r"^lam=4 lies in the spectrum \[0, 4\.0\]$"):
            green_entry(1.0, 1, 1, 4)
        green_entry(1.0, 1, 1, 4.0**1.0 + 0.5)  # above the spectrum: fine
        green_entry(1.0, 1, 1, 2.0 + 1.0j)  # off the real axis: fine

    def test_complex_lambda(self):
        val = green_entry(1.0, 1, 1, 1.0 + 1.0j)
        # resolvent symmetry: conjugate argument gives conjugate value
        conj = green_entry(1.0, 1, 1, 1.0 - 1.0j)
        assert val == pytest.approx(np.conj(conj), abs=1e-12)

    def test_criticality_signature(self):
        # along lam = -10^-k the diagonal entry diverges at and above 3/2
        # and converges below; the ratio of successive increments separates
        # the two regimes cleanly (it tends to 10^(1 - 3/(2 alpha)))
        lams = [-(10.0**-k) for k in range(1, 9)]
        for alpha in (1.5, 2.0, 3.0):
            seq = [green_entry(alpha, 1, 1, lam) for lam in lams]
            assert all(b > a for a, b in zip(seq, seq[1:]))
            inc = [b - a for a, b in zip(seq, seq[1:])]
            assert inc[-1] / inc[-2] > 0.98  # increments do not die off
        for alpha in (0.5, 1.0, 1.4):
            seq = [green_entry(alpha, 1, 1, lam) for lam in lams]
            inc = [b - a for a, b in zip(seq, seq[1:])]
            assert inc[-1] / inc[-2] < 0.9  # geometric convergence
            # and the sequence respects the uniform bound
            assert seq[-1] <= uniform_bound_rough(alpha, 1, 1) + 1e-10


class TestUniformBounds:
    def test_rough_constant_at_first_power(self):
        assert rough_bound_const(1.0) == pytest.approx(1.0, abs=1e-10)

    def test_rough_constant_blows_up_toward_critical(self):
        consts = [rough_bound_const(a) for a in (1.4, 1.45, 1.49)]
        assert consts[0] < consts[1] < consts[2]

    def test_rough_constant_against_quadrature(self):
        from fraclap.green import rough_bound_const_quad

        for alpha in (0.25, 0.5, 0.75, 1.0, 1.25, 1.4, 1.45):
            assert rough_bound_const(alpha) == pytest.approx(
                rough_bound_const_quad(alpha), rel=1e-10
            )

    def test_refined_substitutions(self):
        assert uniform_bound_refined(1.0, 1, 1) == pytest.approx(1.0, rel=1e-12)
        assert uniform_bound_refined(1.0, 1, 4) == pytest.approx(2.0, rel=1e-12)

    def test_bound_dominance_sample(self):
        for alpha in (0.5, 1.0, 1.4):
            for lam in (-1e-3, -1.0, -1e3):
                for m, n in ((1, 1), (2, 5), (7, 7)):
                    val = abs(green_entry(alpha, m, n, lam))
                    assert val <= uniform_bound_rough(alpha, m, n) + 1e-10
                    assert val <= uniform_bound_refined(alpha, m, n) + 1e-10

    def test_reflected_constant_finite_beyond_critical(self):
        # the reflected bound exists for every positive power
        for alpha in (0.5, 1.5, 2.0, 3.0):
            c = reflected_bound_const(alpha)
            assert math.isfinite(c) and c > 0.0


class TestPotentials:
    def test_classical_hardy_values(self):
        vals = Potential.classical_hardy().values(4)
        assert np.allclose(vals, [0.25, 1.0 / 16.0, 1.0 / 36.0, 1.0 / 64.0], rtol=1e-15)

    def test_kpp_first_value(self):
        vals = Potential.kpp().values(1)
        assert vals[0] == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)

    def test_kpp_naive_agreement_small_n(self):
        n = np.arange(1.0, 101.0)
        naive = 2.0 - np.sqrt((n - 1.0) / n) - np.sqrt((n + 1.0) / n)
        assert np.allclose(Potential.kpp().values(100), naive, rtol=1e-11)

    def test_kpp_dominates_classical_everywhere(self):
        big = 1_000_000
        assert np.all(Potential.kpp().values(big) > Potential.classical_hardy().values(big))

    def test_delta(self):
        pot = Potential.delta(3, 0.7)
        vals = pot.values(5)
        assert vals[2] == 0.7
        assert np.sum(vals != 0.0) == 1

    def test_nonnegativity_enforced(self):
        with pytest.raises(ValueError):
            Potential.explicit([0.1, -0.2])
        with pytest.raises(ValueError):
            Potential.delta(1, -1.0)
        with pytest.raises(ValueError):
            Potential.power(-0.5, 2.0)

    def test_delta_site_is_an_integer(self):
        # a site of 1.5 matches no site: every section would see V = 0
        for site in (1.5, 0, 2.0):
            with pytest.raises(ValueError, match="integer >= 1"):
                Potential.delta(site, 0.1)

    def test_finiteness_enforced(self):
        # NaN slips past a plain "coeff < 0" test
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                Potential.delta(1, bad)
            with pytest.raises(ValueError, match="finite"):
                Potential.power(bad, 2.0)
            with pytest.raises(ValueError, match="finite"):
                Potential.power(1.0, bad)
            with pytest.raises(ValueError, match="finite"):
                Potential.explicit([0.1, bad])

    def test_values_at_sites_match_leading_values(self):
        sites = np.arange(5.0, 9.0)
        for pot in (
            Potential.classical_hardy(),
            Potential.kpp(),
            Potential.power(0.3, 2.5),
            Potential.delta(6, 0.7),
            Potential.explicit([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        ):
            assert np.array_equal(pot.at(sites), pot.values(8)[4:])


class TestAdmissibility:
    def test_threshold_at_first_power(self):
        assert admissibility_threshold(1.0) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_zero_potential_admissible(self):
        assert theorem2_check(1.0, Potential.zero()).decision == "admissible"

    def test_single_site_boundary(self):
        assert theorem2_check(1.0, Potential.delta(1, 1.0)).decision == "admissible"
        assert theorem2_check(1.0, Potential.delta(1, 1.0 + 1e-9)).decision == "inconclusive"

    def test_single_site_other_sites(self):
        # site n threshold is 1/n at the first power (g_n = 2 pi n)
        assert theorem2_check(1.0, Potential.delta(4, 0.25)).decision == "admissible"
        assert theorem2_check(1.0, Potential.delta(4, 0.2500001)).decision == "inconclusive"

    def test_power_weight_closure(self):
        for alpha, eps in ((0.25, 1.0), (0.5, 0.5), (1.0, 1.0), (1.25, 0.25), (1.4, 0.2)):
            pot = power_hardy_weight(alpha, eps)
            res = theorem2_check(alpha, pot)
            assert res.decision == "admissible"
            assert math.isfinite(res.tail_bound)

    def test_first_power_tail_is_an_upper_bound(self):
        # sum_{n > 10^5} 2 pi n * coeff / n^p = 2 pi coeff zeta(p - 1, 10^5 + 1)
        for p in (2.5, 3.0, 4.5):
            tail = theorem2_check(1.0, Potential.power(0.01, p)).tail_bound
            with mpmath.workdps(60):
                exact = 2 * mpmath.pi * mpmath.mpf(0.01) * mpmath.zeta(p - 1, 100_001)
                assert tail >= exact
                assert tail <= exact * (1 + 1e-15)

    def test_power_weight_first_power_coefficient(self):
        pot = power_hardy_weight(1.0, 1.0)
        assert pot.exponent == 3.0
        assert pot.coeff == pytest.approx(6.0 / math.pi**2, rel=1e-12)

    def test_explicit_without_annotation_inconclusive(self):
        pot = Potential.explicit([0.0] * 10)
        res = theorem2_check(1.0, pot)
        assert res.decision == "inconclusive"
        assert math.isinf(res.tail_bound)

    def test_explicit_finitely_supported(self):
        pot = Potential.explicit([0.1, 0.05], finitely_supported=True)
        res = theorem2_check(1.0, pot)
        assert res.decision == "admissible"
        assert res.tail_bound == 0.0

    def test_never_inadmissible(self):
        res = theorem2_check(1.0, Potential.delta(1, 100.0))
        assert res.decision in ("admissible", "inconclusive")
        assert res.decision == "inconclusive"

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            power_hardy_weight(1.0, 0.0)


def _fsum_outcome(total):
    """total() as a value, or the type of the exception it raises."""
    try:
        return total()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _same(a, b) -> bool:
    """a and b are the same float, sign of zero and nan included, or the same exception."""
    if isinstance(a, float) and isinstance(b, float):
        return (a != a and b != b) or (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    return a == b


def _counted(values: np.ndarray):
    """The value function of the sites 1..values.size, counting its calls."""
    calls = []

    def at(n):
        calls.append(n.size)
        return values[n.astype(np.intp) - 1]

    return at, calls


_RNG = random.Random(15)
#: a random alpha grid with 1/2 +- 1e-7 and 1, counts at and around a block
#: and the default, and random counts
_SERIES_ALPHAS = [0.5 - 1e-7, 0.5 + 1e-7, 1.0] + [_RNG.uniform(0.01, 1.49) for _ in range(5)]
_SERIES_COUNTS = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 100_000, 100_001] + [_RNG.randint(2, 60_000) for _ in range(3)]
_SERIES_POTENTIALS = [
    Potential.power(0.01, 2.0),
    Potential.power(_RNG.uniform(0.0, 3.0), _RNG.uniform(0.0, 5.0)),
    Potential.classical_hardy(),
    Potential.kpp(),
    Potential.explicit([_RNG.random() for _ in range(_BLOCK + 40)]),
]


#: four values with a finite support, more than a block of values without one, and none
_EXPLICIT_POTENTIALS = [
    Potential.explicit([0.5, 0.25, 0.125, 0.0625], finitely_supported=True),
    Potential.explicit([random.Random(25).random() for _ in range(_BLOCK + 40)]),
    Potential.zero(),
]


class TestSeriesSum:
    """The admissibility series is math.fsum of g_n V_n, bit for bit."""

    @pytest.mark.parametrize("alpha", _SERIES_ALPHAS)
    @pytest.mark.parametrize("pot", _SERIES_POTENTIALS, ids=lambda pot: pot.kind)
    def test_partial_sum_is_fsum_of_the_products(self, alpha, pot):
        for terms in _SERIES_COUNTS:
            n = np.arange(1.0, terms + 1.0)
            products = g_weight(alpha, n) * pot.at(n)
            assert _same(_series_parts(alpha, pot, terms)[0], math.fsum(products.tolist()))

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 2.0**-53],  # exact half-ulp ties, to even
            [1.0 + 2.0**-52, 2.0**-53],
            [1.0] + [2.0**-53] * (_BLOCK + 3),
            [1.0] + [2.0**-60] * 30_000,  # one large term, then many below its ulp
            [2.0**-60] * 20_000 + [1.0],
            [3.0, 1e-17, 1e-17, 1e-17, 1e-300, 2.0**-1074],
            [0.0] * (2 * _BLOCK + 5),  # zeros
            [0.0] * _BLOCK + [0.1, 0.0, 0.2],
            [-0.0] * 3,
            [5e-324] * (_BLOCK + 9),  # subnormals
            [2.2250738585072014e-308, 5e-324, -1e-310, 3e-320] * 3000,
            [1.7976931348623157e308, 1e308],  # near overflow
            [1.7976931348623157e308, -1e308, 1.0],
            [2.0**979] * (_BLOCK + 1),
            [1e308, 1e308, -1e308],
            [1.0, math.inf, 2.0],  # inf
            [math.inf] * 2 + [1.0] * _BLOCK + [-math.inf],
            [1.0, math.nan],
            [1e16, 1.0, -1e16],  # cancellation, in a general sum
            [-1.0] * _BLOCK + [1.0] * _BLOCK + [2.0**-80],
        ],
        ids=lambda values: f"{len(values)}-terms-from-{values[0]!r}",
    )
    def test_sum_helper_on_adversarial_values(self, values):
        values = np.array(values)
        at, _ = _counted(values)
        expected = _fsum_outcome(lambda: math.fsum(values.tolist()))
        assert _same(_fsum_outcome(lambda: _block_fsum(at, values.size)), expected)

    def test_sum_helper_on_random_values(self):
        rng = np.random.default_rng(15)
        for size in (1, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17):
            for values in (
                rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size),
                rng.random(size) ** 40,
                np.ldexp(rng.random(size), rng.integers(-1074, 900, size)),
            ):
                at, _ = _counted(values)
                assert _same(_block_fsum(at, size), math.fsum(values.tolist()))

    def test_failed_certificate_falls_back_to_fsum(self):
        # 1 + 2^-53 is a tie, and 2^-120 below both extractions decides it
        values = np.array([1.0, 2.0**-53, 2.0**-120])
        at, calls = _counted(values)
        assert _block_fsum(at, values.size) == math.fsum(values.tolist()) == 1.0 + 2.0**-52
        assert calls == [3, 3]  # the block, then fsum over all values
        at, calls = _counted(np.array([1.0, 2.0**-53, 2.0**-60]))
        assert _block_fsum(at, 3) == 1.0 + 2.0**-52
        assert calls == [3]

    def test_blocks_cover_the_sites(self):
        for count in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5 * _BLOCK + 3):
            blocks = list(site_blocks(count))
            assert max(b.size for b in blocks) <= _BLOCK
            assert np.array_equal(np.concatenate(blocks), np.arange(1.0, count + 1.0))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("pot", _EXPLICIT_POTENTIALS, ids=lambda pot: f"{len(pot.data)}-values")
    def test_explicit_series_is_fsum_over_every_term(self, alpha, pot):
        # V_n is 0 past the data, so summing the data's sites alone keeps every bit
        size = len(pot.data)
        for terms in sorted({1, max(size - 1, 1), max(size, 1), size + 1, 100_000}):
            n = np.arange(1.0, terms + 1.0)
            res = theorem2_check(alpha, pot, terms)
            assert _same(res.partial_sum, math.fsum((g_weight(alpha, n) * pot.at(n)).tolist()))
            assert _same(res.tail_bound, 0.0 if pot.finitely_supported and size <= terms else math.inf)

    def test_explicit_series_weighs_only_its_data(self, monkeypatch):
        sites = []

        def counted(alpha, n):
            sites.append(np.size(n))
            return g_weight(alpha, n)

        monkeypatch.setattr(green, "g_weight", counted)
        for pot in _EXPLICIT_POTENTIALS:
            for terms in (1, 3, 100_000):
                sites.clear()
                theorem2_check(0.75, pot, terms)
                assert sum(sites) <= min(terms, len(pot.data))

    def test_refuses_too_long_a_series(self):
        with pytest.raises(ValueError, match="at most"):
            _series_parts(0.75, Potential.kpp(), _MAX_TERMS + 1)

    def test_refuses_terms_beyond_float64(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pot in (Potential.power(1e300, -400.0), Potential.explicit([1e308] * 2), Potential.delta(1, 1e308)):
                with pytest.raises(ValueError, match="overflows float64"):
                    theorem2_check(0.75, pot)
            # V_n underflowing to 0 is its value; a zero coefficient gives zeros
            assert Potential.power(1.0, 400.0).at(np.array([5.0, 6.0])).tolist() == [1.0 / 5.0**400, 0.0]
            assert Potential.power(0.0, -400.0).at(np.arange(1.0, 9.0)).tolist() == [0.0] * 8
            # a growing V_n within float64, though n^65 and n^-65 leave it
            grown = Potential.power(1e-300, -65.0).at(np.array([1.0, 1e5]))
            np.testing.assert_allclose(grown, [1e-300, 1e25], rtol=1e-12)

    def test_peak_memory_does_not_grow_with_terms(self):
        pot = Potential.power(0.01, 2.0)
        theorem2_check(0.75, pot, 10**5)
        peaks = []
        for terms in (10**5, 10**6):
            tracemalloc.start()
            try:
                theorem2_check(0.75, pot, terms)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestHilbertSchmidtBound:
    """(partial + tail)/threshold, the Hilbert-Schmidt norm bound of the
    Birman-Schwinger operator; values <= 1 certify A(alpha) >= V."""

    @staticmethod
    def _ratio(alpha, pot):
        res = theorem2_check(alpha, pot)
        return (res.partial_sum + res.tail_bound) / res.threshold

    def test_zero(self):
        assert self._ratio(1.0, Potential.zero()) == 0.0

    def test_single_site_value(self):
        assert self._ratio(1.0, Potential.delta(1, 0.5)) == pytest.approx(0.5, rel=1e-12)

    def test_divergent_series_reported_inf(self):
        # classical Hardy at the first power: sum (2 pi n)/(4 n^2) diverges
        assert math.isinf(self._ratio(1.0, Potential.classical_hardy()))

    def test_certificate_below_one(self):
        val = self._ratio(1.0, power_hardy_weight(1.0, 1.0))
        assert val <= 1.0 + 1e-12


def _hurwitz_oracle(s: float, q: int):
    """(zeta(s, q), d/ds) in 50 digits: Euler-Maclaurin with 30 Bernoulli terms from
    M = q + 60 + 2s on.  mpmath.zeta(s, q) itself reads high at large q (by 4e-10
    relative at s = 399, q = 8193), so it is no reference here."""
    with mpmath.workdps(50):
        s = mpmath.mpf(s)
        big = q + 60 + int(2 * s)
        ns = [mpmath.mpf(n) for n in range(q, big)]
        z = mpmath.fsum(n**-s for n in ns)
        dz = -mpmath.fsum(mpmath.log(n) * n**-s for n in ns)
        big = mpmath.mpf(big)
        log_big = mpmath.log(big)
        z += big ** (1 - s) / (s - 1) + big**-s / 2
        dz -= log_big * big ** (1 - s) / (s - 1) + big ** (1 - s) / (s - 1) ** 2 + log_big * big**-s / 2
        rising, harmonic = s, 1 / s
        for k in range(1, 31):
            if k > 1:
                rising *= (s + 2 * k - 3) * (s + 2 * k - 2)
                harmonic += 1 / (s + 2 * k - 3) + 1 / (s + 2 * k - 2)
            term = mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * rising * big ** (1 - s - 2 * k)
            z += term
            dz += term * (harmonic - log_big)
        return z, dz


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

    @pytest.mark.parametrize(
        "s", [1 + 1e-12, 1 + 1e-9, 1 + 1e-6, 1.001, 1.1, 1.5, 2.0, 2.5, 3.7, 7.5, 13.3, 50.0, 99.0, 250.5, 400.0]
    )
    def test_within_rounding(self, s):
        z, zd = zeta_and_derivative(s)
        with mpmath.workdps(50):
            assert abs(z - mpmath.zeta(s)) <= 1e-15 * mpmath.zeta(s)
            assert abs(zd - mpmath.zeta(s, derivative=1)) <= 1e-15 * abs(mpmath.zeta(s, derivative=1))

    def test_hurwitz_against_euler_maclaurin(self):
        # q just above s + 12: with N = max(q, 12 + ceil(s)) the Bernoulli terms left
        # 2.4e-15 out at (89.74, 102) and 2.6e-15 at (120.3, 133)
        cases = [(s, q) for s in (1 + 1e-9, 2.0, 10.0, 89.7) for q in (2, 12, 101, 8193)]
        for s, q in cases + [(89.74, 102), (120.3, 133)]:
            z, zd = zeta_and_derivative(s, q)
            exact, exact_d = _hurwitz_oracle(s, q)
            if exact < 1e-300:  # (89.7, 8193) underflows float64
                continue
            assert abs(z - exact) <= 1e-15 * exact
            assert abs(zd - exact_d) <= 1e-15 * abs(exact_d)


class TestFirstPowerTail:
    """sum_{n > start} 2 pi n * coeff / n^p = 2 pi coeff zeta(p - 1, start + 1), rounded up."""

    @pytest.mark.parametrize("s", [1 + 1e-9, 1.5, 2.0, 3.5, 10.0, 50.0, 399.0])
    @pytest.mark.parametrize("start", [1, 11, 8192, 10**5, 2**30])
    def test_upper_bound_within_1e13(self, s, start):
        tail = _power_tail_bound(1.0, 0.01, s + 1.0, start)
        with mpmath.workdps(50):
            exact = 2 * mpmath.pi * mpmath.mpf(0.01) * _hurwitz_oracle(s, start + 1)[0]
            assert tail >= exact
            # an exact tail below float64 reads as its smallest positive value
            assert tail <= max(float(exact * (1 + mpmath.mpf(1e-13))), math.ulp(0.0))

    @pytest.mark.parametrize("s, start, coeff", [(7.54, 8192, 0.5), (7.68, 10**6, 0.5), (1.05, 10**6, 0.3)])
    def test_margin_covers_rounding(self, s, start, coeff):
        # here 2 pi coeff zeta, even one ulp up, lies below the exact tail
        tail = _power_tail_bound(1.0, coeff, s + 1.0, start)
        with mpmath.workdps(50):
            exact = 2 * mpmath.pi * mpmath.mpf(coeff) * _hurwitz_oracle(s, start + 1)[0]
            assert exact <= tail <= exact * (1 + mpmath.mpf(1e-13))

    @pytest.mark.parametrize(
        "coeff, p, start", [(1e300, 300.0, 10), (1e300, 64.0, 10**5), (1e200, 40.0, 2**30 - 1)]
    )
    def test_upper_bound_where_zeta_is_subnormal(self, coeff, p, start):
        # zeta(p - 1, start + 1) leaves the normal range while the tail does not
        tail = _power_tail_bound(1.0, coeff, p, start)
        with mpmath.workdps(50):
            exact = 2 * mpmath.pi * mpmath.mpf(coeff) * _hurwitz_oracle(p - 1.0, start + 1)[0]
            assert exact <= tail <= 1.1 * exact


#: subcritical powers, with the removable points 1/2 and 1 and their
#: close neighbours drawn on purpose
SUBCRITICAL = st.one_of(
    st.floats(0.0, 1.5, exclude_min=True, exclude_max=True),
    st.sampled_from([0.5, 1.0]),
    st.builds(lambda a, d: a + d, st.sampled_from([0.5, 1.0]), st.floats(-2e-6, 2e-6)),
)


class TestBoundProperties:
    @settings(max_examples=200, deadline=None)
    @given(alpha=SUBCRITICAL, n=st.integers(1, 10**6))
    def test_weight_below_its_bound(self, alpha, n):
        assert g_weight(alpha, n) <= weight_majorant(alpha, n)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.01, 1.49),
        m=st.integers(1, 40),
        n=st.integers(1, 40),
        lam=st.floats(1e-8, 1e3).map(lambda x: -x),
    )
    def test_green_entry_below_both_uniform_bounds(self, alpha, m, n, lam):
        bound = min(uniform_bound_rough(alpha, m, n), uniform_bound_refined(alpha, m, n))
        # the quadrature meets an absolute tolerance of 1e-12
        assert abs(green_entry(alpha, m, n, lam)) <= bound + 1e-12

