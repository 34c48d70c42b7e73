"""Green kernels, uniform resolvent bounds, and Hardy weights.

Covers the resolvent entries of the fractional operator, the rough and
refined uniform bounds valid for 0 < alpha < 3/2, the weight sequence
g_weight that drives both the refined bound and the sufficient
admissibility condition, and explicit power-law Hardy weights.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import operators, quadrature

#: half-width of the interval around alpha = 1/2 and alpha = 1 inside which
#: the generic formula for g_weight is evaluated in extended precision (the
#: tangent and the factorial ratio individually blow up there).
REMOVABLE_WINDOW = 1e-6

#: multiplicative slack for threshold comparisons; absorbs last-ulp rounding
#: so that exact-equality cases certify, while anything genuinely above the
#: threshold by more than ~1e-12 relative stays inconclusive.
_THRESHOLD_SLACK = 1e-12

#: terms converted to Python floats at a time by the admissibility series
_FSUM_CHUNK = 4096


def _check_subcritical_range(alpha: float) -> None:
    if not 0.0 < alpha < 1.5:
        raise ValueError(f"alpha={alpha} outside the subcritical range (0, 3/2)")


def _tanpi(alpha: float) -> float:
    # period-pi reduction keeps the argument small
    return math.tan(math.pi * (alpha - 1.0)) if alpha > 0.75 else math.tan(math.pi * alpha)


# ---------------------------------------------------------------------------
# weight sequence


def _odd_harmonic(k: int) -> float:
    return math.fsum(1.0 / (2 * j - 1) for j in range(1, k + 1))


def g_weight(alpha: float, n: int) -> float:
    """The weight sequence (1 - (a)_{2n}/(1-a)_{2n}) tan(pi a), a = alpha.

    Removable singularities: at alpha = 1 the limit is 2*pi*n; at
    alpha = 1/2 the limit is (4/pi) * sum_{j=1}^{2n} 1/(2j-1).
    """
    _check_subcritical_range(alpha)
    if n < 1:
        raise ValueError("n >= 1 required")
    if alpha == 1.0:
        return 2.0 * math.pi * n
    if alpha == 0.5:
        return 4.0 / math.pi * _odd_harmonic(2 * n)
    if min(abs(alpha - 0.5), abs(alpha - 1.0)) < REMOVABLE_WINDOW:
        import mpmath

        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            ratio = mpmath.rf(a, 2 * n) / mpmath.rf(1 - a, 2 * n)
            return float((1 - ratio) * mpmath.tan(mpmath.pi * a))
    # ln of the Pochhammer symbols (alpha)_k and |(a)_k|, k = 2n, a = 1 - alpha
    k = 2 * n
    l_num = math.lgamma(alpha + k) - math.lgamma(alpha)
    a = 1.0 - alpha
    if a > 0.0:
        sign = 1.0
        l_den = math.lgamma(a + k) - math.lgamma(a)
    else:
        # a in (-1/2, 0): only the first factor is negative, |a| = Gamma(1-a)/Gamma(-a)
        sign = -1.0
        l_den = math.lgamma(1.0 - a) - math.lgamma(1.0 - a - 1)
        l_den += math.lgamma(a + k) - math.lgamma(a + 1)
    ratio = sign * math.exp(l_num - l_den)
    return (1.0 - ratio) * _tanpi(alpha)


def g_weight_values(alpha: float, count: int) -> np.ndarray:
    """g_weight(alpha, n) for n = 1..count, vectorized for sweeps."""
    _check_subcritical_range(alpha)
    n = np.arange(1, count + 1)
    if alpha == 1.0:
        return 2.0 * math.pi * n.astype(float)
    if alpha == 0.5:
        odd = 1.0 / (2.0 * np.arange(1, 2 * count + 1) - 1.0)
        return 4.0 / math.pi * np.cumsum(odd)[2 * n - 1]
    if min(abs(alpha - 0.5), abs(alpha - 1.0)) < REMOVABLE_WINDOW:
        # g_weight's 50-digit ratio (a)_2n/(1-a)_2n, as one running product
        import mpmath

        with mpmath.workdps(50):
            a = mpmath.mpf(alpha)
            b = 1 - a
            tan, ratio, out = mpmath.tan(mpmath.pi * a), mpmath.mpf(1), []
            for k in range(0, 2 * count, 2):
                ratio = ratio * ((a + k) * (a + (k + 1))) / ((b + k) * (b + (k + 1)))
                out.append(float((1 - ratio) * tan))
        return np.array(out)
    from scipy import special as sp

    l_num = sp.gammaln(alpha + 2 * n) - sp.gammaln(alpha)
    if alpha < 1.0:
        sign = 1.0
        l_den = sp.gammaln(1.0 - alpha + 2 * n) - sp.gammaln(1.0 - alpha)
    else:
        sign = -1.0
        l_den = math.log(alpha - 1.0) + sp.gammaln(1.0 - alpha + 2 * n) - sp.gammaln(2.0 - alpha)
    ratio = sign * np.exp(l_num - l_den)
    return (1.0 - ratio) * _tanpi(alpha)


def _majorant(alpha: float) -> tuple[float, float]:
    """(A, beta) with g_weight(alpha, n) <= A * n^beta for all n >= 1, alpha != 1/2."""
    if alpha < 0.5:
        return _tanpi(alpha), 0.0
    if alpha == 1.0:
        return 4.0 * math.pi, 1.0
    chi = 1.0 if alpha > 1.0 else 0.0
    coeff = alpha * (1.0 + alpha) * 2.0 ** (2.0 * alpha - 1.0) / (
        (alpha - 1.0) * (2.0 - alpha) ** (2.0 * alpha)
    )
    return (chi + coeff) * _tanpi(alpha), 2.0 * alpha - 1.0


def g_weight_bound(alpha: float, n: int) -> float:
    """Rigorous upper bound on g_weight, piecewise in alpha.

    For alpha = 1/2 the bound is (6 + 2 ln n)/pi, i.e. twice the odd
    harmonic estimate sum_{j<=2n} 1/(2j-1) <= (3 + ln n)/2 scaled by 4/pi.
    """
    _check_subcritical_range(alpha)
    if alpha == 0.5:
        return (6.0 + 2.0 * math.log(n)) / math.pi
    coeff, beta = _majorant(alpha)
    return coeff * float(n) ** beta


# ---------------------------------------------------------------------------
# closed form of the weighted Chebyshev moment


def _gamma_ratio(alpha: float) -> float:
    """Gamma(alpha)^2 / Gamma(2*alpha); about 2/alpha, beyond float64 below alpha ~ 1e-308."""
    try:
        return math.exp(2.0 * math.lgamma(alpha) - math.lgamma(2.0 * alpha))
    except OverflowError:
        raise ValueError(f"alpha={alpha!r}: Gamma(alpha)^2/Gamma(2 alpha) overflows float64") from None


def weighted_sq_integral(alpha: float, n: int) -> float:
    """Closed form of int U_{n-1}^2(x) (1-x)^(-alpha) sqrt(1-x^2) dx.

    Equals 2^(alpha-2) Gamma(alpha)^2/Gamma(2 alpha) * g_weight(alpha, n);
    at alpha = 1 this is pi*n, at alpha = 1/2 it is sqrt(2) times the odd
    harmonic sum.
    """
    return 2.0 ** (alpha - 2.0) * _gamma_ratio(alpha) * g_weight(alpha, n)


def weighted_sq_integral_quad(alpha: float, n, tol: float = 1e-12, rel: float = 0.0):
    """Direct quadrature of the same moment (independent oracle).

    The integrand is exponentiated from log space: its two factors
    individually overflow/underflow near theta = 0 at the deepest
    tanh-sinh nodes even though their product (order theta^(2-2*alpha))
    stays representable.  An integer array n gives an array of moments
    from one quadrature pass; a scalar n returns a float.
    """
    _check_subcritical_range(alpha)
    shape = np.shape(n)
    ks, ni = np.unique(np.ravel(n), return_inverse=True)

    def g(theta):
        with np.errstate(divide="ignore"):
            log_sq = 2.0 * np.log(np.abs(np.sin(ks[:, None] * theta)))
            logs = log_sq[ni] - alpha * np.log(2.0 * np.sin(0.5 * theta) ** 2)
        return np.exp(logs)

    val = quadrature.integrate_theta(g, tol, rel)
    return val.reshape(shape) if shape else float(val[0])


# ---------------------------------------------------------------------------
# Green kernel and uniform bounds


def green_entry(alpha: float, m, n, lam, tol: float = 1e-12, rel: float = 0.0):
    """Resolvent entry (A(alpha) - lam)^(-1)_{m,n} by angular quadrature.

    lam may be any real number outside [0, 4^alpha] or a complex number off
    that segment.  Returns a float for real lam, complex otherwise.  Integer
    arrays m and n (broadcast together) give an array of entries from one
    quadrature pass, each equal to its scalar call bit for bit.
    """
    operators.check_positive_power(alpha)
    shape, ks, mi, ni = operators.sine_indices(m, n)
    if not cmath.isfinite(lam):
        raise ValueError(f"lam={lam} must be finite")
    top = 4.0**alpha
    is_real = not isinstance(lam, complex)
    if is_real:
        if 0.0 <= lam <= top:
            raise ValueError(f"lam={lam} lies in the spectrum [0, {top}]")
    elif lam.imag == 0.0 and 0.0 <= lam.real <= top:
        raise ValueError(f"lam={lam} lies in the spectrum [0, {top}]")

    def g(theta):
        s = np.sin(ks[:, None] * theta)
        denom = (4.0 * np.sin(0.5 * theta) ** 2) ** alpha - lam
        return s[mi] * s[ni] / denom

    val = quadrature.integrate_theta(g, tol, rel) * 2.0 / math.pi
    if is_real:
        val = np.real(val)
    if shape:
        return val.reshape(shape)
    return float(val[0]) if is_real else complex(val[0])


def rough_bound_const(alpha: float) -> float:
    """The constant C with |resolvent entry| <= C*m*n for all lam < 0.

    The defining integral reduces exactly to a Beta function,

        C = 2^(3-2a) Gamma(3/2-a) Gamma(3/2) / (pi Gamma(3-a)),

    which stays accurate arbitrarily close to a = 3/2 where direct
    quadrature of the near-non-integrable endpoint stalls (see
    rough_bound_const_quad, the oracle used in the tests).
    """
    _check_subcritical_range(alpha)
    return (
        2.0 ** (3.0 - 2.0 * alpha)
        * math.gamma(1.5 - alpha)
        * math.gamma(1.5)
        / (math.pi * math.gamma(3.0 - alpha))
    )


def rough_bound_const_quad(alpha: float, tol: float = 1e-12) -> float:
    """The same constant from the n = 1 weighted moment's quadrature (independent oracle).

    Loses accuracy for alpha within ~0.03 of 3/2 (endpoint exponent
    approaches -1); the closed form above has no such restriction.
    """
    return weighted_sq_integral_quad(alpha, 1, tol, rel=tol) / (2.0 ** (alpha - 1.0) * math.pi)


def uniform_bound_rough(alpha: float, m: int, n: int) -> float:
    return rough_bound_const(alpha) * m * n


def uniform_bound_refined(alpha: float, m: int, n: int) -> float:
    """Bound (1/2pi) Gamma(alpha)^2/Gamma(2 alpha) sqrt(g_m g_n)."""
    _check_subcritical_range(alpha)
    return (
        _gamma_ratio(alpha)
        / (2.0 * math.pi)
        * math.sqrt(g_weight(alpha, m) * g_weight(alpha, n))
    )


def reflected_bound_const(alpha: float) -> float:
    """Uniform constant for the spectrum-reflected operator; finite for all alpha > 0.

    The integrand is written in the variable phi = pi - theta so the
    cancellation 4^alpha - (4 cos^2(phi/2))^alpha is evaluated through
    expm1/log1p at full accuracy.
    """
    operators.check_positive_power(alpha)
    top = 4.0**alpha

    def g(phi):
        denom = -top * np.expm1(2.0 * alpha * np.log1p(-2.0 * np.sin(0.25 * phi) ** 2))
        # denom underflows to 0 near phi = 0 for tiny alpha: non-convergence, not a warning
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sin(phi) ** 2 / denom

    return float(quadrature.integrate_theta(g, 1e-13)) * 2.0 / math.pi


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class Potential:
    """A non-negative diagonal perturbation, closed-form or explicit."""

    kind: str
    coeff: float = 0.0
    exponent: float = 0.0
    site: int = 0
    data: tuple[float, ...] = ()
    finitely_supported: bool = False

    @classmethod
    def zero(cls) -> "Potential":
        return cls(kind="explicit", data=(), finitely_supported=True)

    @classmethod
    def classical_hardy(cls) -> "Potential":
        return cls(kind="classical_hardy")

    @classmethod
    def kpp(cls) -> "Potential":
        return cls(kind="kpp")

    @classmethod
    def power(cls, coeff: float, exponent: float) -> "Potential":
        _check_coeff(coeff)
        if not math.isfinite(exponent):
            raise ValueError("potential exponent must be finite")
        return cls(kind="power", coeff=coeff, exponent=exponent)

    @classmethod
    def delta(cls, site: int, coeff: float) -> "Potential":
        if site < 1:
            raise ValueError("site >= 1 required")
        _check_coeff(coeff)
        return cls(kind="delta", coeff=coeff, site=site)

    @classmethod
    def explicit(cls, values, finitely_supported: bool = False) -> "Potential":
        vals = tuple(float(v) for v in values)
        for v in vals:
            _check_coeff(v)
        return cls(kind="explicit", data=vals, finitely_supported=finitely_supported)

    def values(self, count: int) -> np.ndarray:
        return self.at(np.arange(1, count + 1, dtype=float))

    def at(self, n: np.ndarray) -> np.ndarray:
        """V_n at the sites n, a float array of positive integers."""
        if self.kind == "classical_hardy":
            return 1.0 / (4.0 * n**2)
        if self.kind == "kpp":
            return _kpp_values(n)
        if self.kind == "power":
            return self.coeff / n**self.exponent
        if self.kind == "delta":
            return np.where(n == self.site, self.coeff, 0.0)
        data = np.asarray(self.data, dtype=float)
        inside = n <= data.size
        out = np.zeros(n.shape)
        out[inside] = data[n[inside].astype(int) - 1]
        return out

    def describe(self) -> str:
        if self.kind == "power":
            return f"power(coeff={self.coeff:.17g}, exponent={self.exponent:.17g})"
        if self.kind == "delta":
            return f"delta(site={self.site}, coeff={self.coeff:.17g})"
        if self.kind == "explicit":
            return f"explicit({len(self.data)} values)"
        return self.kind


def _check_coeff(value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"potential values must be finite, got {value!r}")
    if value < 0.0:
        raise ValueError("potential must be non-negative")


def _kpp_values(n: np.ndarray) -> np.ndarray:
    """2 - sqrt((n-1)/n) - sqrt((n+1)/n), rationalized so no cancellation occurs.

    Algebraically equal to 2 a^2 / ((1 + sqrt(1-a^2))(2 + sqrt(1-a) + sqrt(1+a)))
    with a = 1/n; the naive form loses all accuracy past n ~ 1e4.
    """
    a = 1.0 / n
    s_lo = np.sqrt(1.0 - a)
    s_hi = np.sqrt(1.0 + a)
    return 2.0 * a**2 / ((1.0 + s_lo * s_hi) * (2.0 + s_lo + s_hi))


# ---------------------------------------------------------------------------
# admissibility


def admissibility_threshold(alpha: float) -> float:
    """2*pi*Gamma(2 alpha)/Gamma(alpha)^2, the admissible-weight budget."""
    _check_subcritical_range(alpha)
    return 2.0 * math.pi * math.exp(math.lgamma(2.0 * alpha) - 2.0 * math.lgamma(alpha))


def zeta_and_derivative(s: float) -> tuple[float, float]:
    """(zeta(s), zeta'(s)) for s > 1."""
    if s <= 1.0:
        raise ValueError(f"zeta_and_derivative requires s > 1, got {s}")
    import mpmath

    with mpmath.workdps(30):
        z = mpmath.zeta(s)
        zp = mpmath.zeta(s, derivative=1)
    return float(z), float(zp)


def _power_tail_bound(alpha: float, coeff: float, p: float, start: int) -> float:
    """Upper bound on sum_{n > start} g_weight(alpha, n) * coeff / n^p.

    Majorizes g_weight by g_weight_bound and the remaining sum by the
    integral of the (decreasing) majorant; at alpha = 1 the weight is
    exactly 2*pi*n and the tail is evaluated through the zeta function.
    """
    if coeff == 0.0:
        return 0.0
    t = float(start)
    if alpha == 1.0:
        if p <= 2.0:
            return math.inf
        z, _ = zeta_and_derivative(p - 1.0)
        head = math.fsum(float(k) ** (1.0 - p) for k in range(1, start + 1))
        return 2.0 * math.pi * coeff * max(z - head, 0.0)
    if alpha == 0.5:
        if p <= 1.0:
            return math.inf
        s = p - 1.0
        integral = t**-s * ((3.0 + math.log(t)) / s + 1.0 / s**2)
        return 2.0 / math.pi * coeff * integral
    growth, beta = _majorant(alpha)
    q = p - beta
    if q <= 1.0:
        return math.inf
    return growth * coeff * t ** (1.0 - q) / (q - 1.0)


@lru_cache(maxsize=8)
def _kpp_quadratic_coeff() -> float:
    n = np.arange(1.0, 10001.0)
    return float(np.max(n**2 * _kpp_values(n))) * (1.0 + 1e-12)


def _series_parts(alpha: float, pot: Potential, terms: int) -> tuple[float, float]:
    """(partial sum, tail upper bound) of sum g_weight(alpha, n) V_n."""
    if terms < 1:
        raise ValueError(f"the series needs terms >= 1, got {terms}")
    if pot.kind == "delta":
        return pot.coeff * g_weight(alpha, pot.site), 0.0
    # the values, the weights and their temporaries: up to 64 bytes a term
    # were traced (alpha = 1/2), so 10 float64 a term bound them
    operators.check_memory(10 * 8 * terms, f"an admissibility series of {terms} terms")
    vals = pot.values(terms)
    products = g_weight_values(alpha, terms) * vals
    # fsum is correctly rounded, so any grouping gives the same sum; it reads
    # Python floats (tolist) faster than numpy scalars, and chunks keep only
    # _FSUM_CHUNK of them alive, not 10^5 (3 MB) at once
    chunks = (products[i : i + _FSUM_CHUNK].tolist() for i in range(0, terms, _FSUM_CHUNK))
    partial = math.fsum(itertools.chain.from_iterable(chunks))
    if pot.kind == "power":
        tail = _power_tail_bound(alpha, pot.coeff, pot.exponent, terms)
    elif pot.kind == "classical_hardy":
        tail = _power_tail_bound(alpha, 0.25, 2.0, terms)
    elif pot.kind == "kpp":
        tail = _power_tail_bound(alpha, _kpp_quadratic_coeff(), 2.0, terms)
    elif pot.finitely_supported:
        tail = 0.0 if len(pot.data) <= terms else math.inf
    else:
        tail = math.inf
    return partial, tail


@dataclass(frozen=True)
class AdmissibilityResult:
    decision: str  # "admissible" or "inconclusive"
    partial_sum: float
    tail_bound: float
    threshold: float


def theorem2_check(alpha: float, pot: Potential, tail_terms: int = 100_000) -> AdmissibilityResult:
    """Sufficient admissibility test: sum g_n V_n against the budget.

    Returns "admissible" when the partial sum plus a rigorous tail bound
    stays within the threshold, "inconclusive" otherwise (the condition is
    sufficient only, so no potential is ever declared inadmissible).
    """
    _check_subcritical_range(alpha)
    partial, tail = _series_parts(alpha, pot, tail_terms)
    thr = admissibility_threshold(alpha)
    ok = partial + tail <= thr * (1.0 + _THRESHOLD_SLACK)
    return AdmissibilityResult(
        decision="admissible" if ok else "inconclusive",
        partial_sum=partial,
        tail_bound=tail,
        threshold=thr,
    )


def power_hardy_weight(alpha: float, epsilon: float) -> Potential:
    """Explicit admissible power weight coeff / n^(max(1, 2 alpha) + epsilon).

    The coefficient follows the three admissibility regimes of the weight
    sequence bound; at alpha = 1 the sharper value 1/zeta(1+epsilon) is
    used (the weight sequence is exactly 2*pi*n there, so the full series
    meets the budget with equality).
    """
    _check_subcritical_range(alpha)
    if not (epsilon > 0.0 and 1.0 + epsilon > 1.0):
        raise ValueError(f"epsilon={epsilon!r} must be > 0 with 1 + epsilon > 1")
    p = max(1.0, 2.0 * alpha) + epsilon
    z, zp = zeta_and_derivative(1.0 + epsilon)
    thr = admissibility_threshold(alpha)
    if alpha == 0.5:
        gamma = thr / (2.0 / math.pi * (3.0 * z - zp))
    elif alpha == 1.0:
        gamma = 1.0 / z
    else:
        gamma = thr / (_majorant(alpha)[0] * z)
    return Potential.power(gamma, p)
