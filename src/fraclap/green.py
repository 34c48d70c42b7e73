"""Green kernels, uniform resolvent bounds, and Hardy weights.

Covers the resolvent entries of the fractional operator, the rough and
refined uniform bounds valid for 0 < alpha < 3/2, the weight sequence
g_weight that drives both the refined bound and the sufficient
admissibility condition, and explicit power-law Hardy weights.

g_weight reads F(2n) - F(1) through operators' one Stirling evaluator, as c[k] does (1e-14 relative
at every alpha and n), and zeta, zeta' and the alpha = 1 series tail its Bernoulli numbers.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import operators, quadrature

#: multiplicative slack for threshold comparisons; absorbs last-ulp rounding
#: so that exact-equality cases certify, while anything genuinely above the
#: threshold by more than ~1e-12 relative stays inconclusive.
_THRESHOLD_SLACK = 1e-12

#: sites per block of the admissibility series: a float64 temporary of 2^13
#: values (64 KiB) stays below glibc's 128 KiB mmap threshold, so blocks reuse
#: heap pages instead of faulting in fresh ones, and it stays in L2
_BLOCK = 1 << 13

#: longest admissibility series, under a minute of CPU time
_MAX_TERMS = 1 << 30

#: terms below this size keep every sum of at most _MAX_TERMS of them, or of
#: their extracted parts, at most 2^1011: none of them overflows
_MAX_EXTRACTED = 2.0**980


def _check_subcritical_range(alpha: float) -> None:
    if not 0.0 < alpha < 1.5:
        raise ValueError(f"alpha={alpha} outside the subcritical range (0, 3/2)")


def _tanpi(x: float) -> float:
    """tan(pi x) from the exact offset r of x to the nearest half-integer h/2."""
    h = math.ceil(2.0 * x - 0.5)
    r = math.pi * (x - 0.5 * h)
    return math.tan(r) if h % 2 == 0 else -1.0 / math.tan(r)


# ---------------------------------------------------------------------------
# weight sequence

_K = 8  # L' is a running sum up to n = _K, and six Stirling terms in z = 2n > 2 _K beyond


def _log_ratio(alpha: float, n, slope: bool = False):
    """L'(alpha, n) = ln prod_{j=1}^{2n-1} (alpha+j)/(1-alpha+j) at a float64 scalar or array n >= 1.

    L'(n) = F(2n) - F(1), F(z) = lnGamma(z+1/2+d) - lnGamma(z+1/2-d), d = alpha - 1/2, read
    through operators' Stirling evaluator: up to z = 2 _K the running sum of the logs of the
    factors 1 + 2d/(j + 1/2 - d), the Stirling tail beyond.  slope gives dL'/d(alpha) at d = 0.
    """
    d = alpha - 0.5
    if slope:
        terms = [2.0 / (j + 0.5) for j in range(1, 2 * _K)]
        lead, coeffs = 2.0, operators._STIRLING_SLOPE
    else:
        terms = [math.log1p(2.0 * d / (j + 0.5 - d)) for j in range(1, 2 * _K)]
        lead, coeffs = 2.0 * d, operators._stirling_coeffs(d)
    return operators._log_gamma_ratio(2.0 * n, 1, [0.0, *itertools.accumulate(terms)], lead, coeffs)


def g_weight(alpha: float, n):
    """The weight sequence (1 - (a)_{2n}/(1-a)_{2n}) tan(pi a), a = alpha.

    n is an integer >= 1, or an integer array whose entries are bit-equal to
    their scalar calls.  With the ratio (a/e) exp(L'), e = 1 - a, t = tan(pi a):
    g = -expm1(log1p(2d/e) + L') t near 1/2, t - a exp(L') t/e elsewhere, with
    the limits 2 pi n at alpha = 1 and (4 + dL'/da)/pi = (4/pi) sum_{j<=2n} 1/(2j-1)
    at alpha = 1/2.  Relative error at most 1e-14 against mpmath up to n = 1e7.
    """
    _check_subcritical_range(alpha)
    nf = np.asarray(n, dtype=float)[()]  # numpy scalars keep a scalar call cheap
    if np.count_nonzero(nf < 1.0):
        raise ValueError("n >= 1 required")
    d, e = alpha - 0.5, 1.0 - alpha
    try:
        with np.errstate(over="raise"):
            if d == 0.0:
                g = (4.0 + _log_ratio(alpha, nf, slope=True)) / math.pi
            elif abs(d) < 0.25:
                g = -np.expm1(math.log1p(2.0 * d / e) + _log_ratio(alpha, nf)) * _tanpi(alpha)
            elif e == 0.0:
                g = 2.0 * math.pi * nf
            else:
                t = _tanpi(alpha)
                g = t - alpha * (t / e) * np.exp(_log_ratio(alpha, nf))
    except FloatingPointError:
        raise OverflowError(f"g_n at alpha={alpha!r} overflows float64") from None
    return g if np.ndim(g) else float(g)


def _majorant(alpha: float) -> tuple[float, float]:
    """(A, beta) with g_weight(alpha, n) <= A * n^beta for all n >= 1, alpha not 1/2 or 1."""
    if alpha < 0.5:
        return _tanpi(alpha), 0.0
    chi = 1.0 if alpha > 1.0 else 0.0
    coeff = alpha * (1.0 + alpha) * 2.0 ** (2.0 * alpha - 1.0) / (
        (alpha - 1.0) * (2.0 - alpha) ** (2.0 * alpha)
    )
    return (chi + coeff) * _tanpi(alpha), 2.0 * alpha - 1.0


# ---------------------------------------------------------------------------
# closed form of the weighted Chebyshev moment


def _gamma_ratio(alpha: float) -> float:
    """Gamma(alpha)^2 / Gamma(2*alpha); about 2/alpha, beyond float64 below alpha ~ 1e-308."""
    try:
        return math.exp(2.0 * math.lgamma(alpha) - math.lgamma(2.0 * alpha))
    except OverflowError:
        raise ValueError(f"alpha={alpha!r}: Gamma(alpha)^2/Gamma(2 alpha) overflows float64") from None


def weighted_sq_integral(alpha: float, n):
    """Closed form of int U_{n-1}^2(x) (1-x)^(-alpha) sqrt(1-x^2) dx.

    Equals 2^(alpha-2) Gamma(alpha)^2/Gamma(2 alpha) * g_weight(alpha, n);
    at alpha = 1 this is pi*n, at alpha = 1/2 it is sqrt(2) times the odd
    harmonic sum.  Takes an integer or an integer array n, as g_weight does.
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
    shape, ks, _, ni = operators.sine_indices(n, n)

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
    point = complex(lam)
    if point.imag == 0.0 and 0.0 <= point.real <= top:
        raise ValueError(f"lam={lam} lies in the spectrum [0, {top}]")
    is_real = not isinstance(lam, complex)

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


def uniform_bound_rough(alpha: float, m, n):
    return rough_bound_const(alpha) * m * n


def uniform_bound_refined(alpha: float, m, n):
    """Bound (1/2pi) Gamma(alpha)^2/Gamma(2 alpha) sqrt(g_m g_n); m and n may be integer arrays."""
    _check_subcritical_range(alpha)
    bound = _gamma_ratio(alpha) / (2.0 * math.pi) * np.sqrt(g_weight(alpha, m) * g_weight(alpha, n))
    return bound if np.ndim(bound) else float(bound)


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
        operators.check_count(site, "site")
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
            if not self.coeff:
                return np.zeros(n.shape)
            # n**exponent out of range: V_n is 0, its value, or inf, which the series refuses
            with np.errstate(over="ignore", divide="ignore"):
                if self.exponent < 0.0:
                    # a growing V_n: n**exponent underflows and n**-exponent overflows
                    # long before coeff * n**-exponent does
                    return np.exp(math.log(self.coeff) - self.exponent * np.log(n))
                return self.coeff / n**self.exponent
        if self.kind == "delta":
            return np.where(n == self.site, self.coeff, 0.0)
        inside = n <= self._data.size
        out = np.zeros(n.shape)
        out[inside] = self._data[n[inside].astype(int) - 1]
        return out

    @cached_property
    def _data(self) -> np.ndarray:
        """data as a float array, converted once for the many blocks of a series."""
        return np.asarray(self.data, dtype=float)

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
    with a = 1/n; the naive form loses all accuracy past n ~ 1e4.  So n^2 V_n =
    2/((1 + sqrt(1-a^2))(2 + sqrt(1-a) + sqrt(1+a))) falls monotonically to 1/4:
    both factors of the denominator grow as a falls.
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


#: B_2k / (2k)!, k = 1, ..., 8, the Euler-Maclaurin weights of zeta_and_derivative
_EULER_MACLAURIN = [num / (den * math.factorial(2 * k))
                    for k, (num, den) in enumerate(operators._BERNOULLI[1:], 1)]


def zeta_and_derivative(s: float, q: int = 1) -> tuple[float, float]:
    """(zeta(s, q), d zeta(s, q)/ds) for s > 1 and an integer q >= 1, by Euler-Maclaurin.

    sum_{q <= n < N} n^-s + N^(1-s)/(s-1) + N^-s/2 + sum_{k=1}^{8} B_2k/(2k)! (s)_(2k-1)
    N^(1-s-2k) with N = max(q, 12 + 2 ceil(s)), whose first omitted term is below 1e-3 eps,
    and its s-derivative, each by math.fsum; the loop ends at the first n^-s that underflows.
    """
    if not s > 1.0:
        raise ValueError(f"zeta_and_derivative requires s > 1, got {s}")
    big = max(q, 12 + 2 * math.ceil(s))
    log_big, top = math.log(big), big**-s
    lead = big ** (1.0 - s) / (s - 1.0)
    z, dz = [lead, 0.5 * top], [-lead * (log_big + 1.0 / (s - 1.0)), -0.5 * log_big * top]
    rising, harmonic = s / big, 1.0 / s  # (s)_(2k-1) / N^(2k-1) and d ln (s)_(2k-1) / ds
    for k, weight in enumerate(_EULER_MACLAURIN, 1):
        z.append(weight * rising * top)
        dz.append(z[-1] * (harmonic - log_big))
        rising *= (s + 2 * k - 1) / big * ((s + 2 * k) / big)
        harmonic += 1.0 / (s + 2 * k - 1) + 1.0 / (s + 2 * k)
    for n in range(q, big):
        if (term := n**-s) == 0.0:
            break
        z.append(term)
        dz.append(-math.log(n) * term)
    return math.fsum(z), math.fsum(dz)


def _power_tail_bound(alpha: float, coeff: float, p: float, start: int) -> float:
    """Upper bound on sum_{n > start} g_weight(alpha, n) * coeff / n^p.

    Majorizes g_weight by _majorant's A n^beta, or by (2/pi)(3 + ln n) at
    alpha = 1/2, and the remaining sum by the integral of the (decreasing)
    majorant; at alpha = 1 the weight is exactly 2*pi*n and the tail is
    2 pi coeff zeta(p - 1, start + 1), raised by 2 eps (its rounding came to
    at most 1.4 eps against 50-digit sums over 6000 (s, q)) and one ulp;
    below 2^-900, where zeta's terms may be subnormal, it is bounded by
    q^-s (1 + q/(s-1)), q = start + 1, in logarithms.
    """
    if coeff == 0.0:
        return 0.0
    t = float(start)
    if alpha == 1.0:
        if p <= 2.0:
            return math.inf
        s, q = p - 1.0, start + 1
        z = zeta_and_derivative(s, q)[0]
        if z >= 2.0**-900:
            return math.nextafter(2.0 * math.pi * coeff * z * (1.0 + 2.0 * math.ulp(1.0)), math.inf)
        decay = s * math.log(q)  # the exponent below is rounded up past its rounding
        log_tail = math.log(2.0 * math.pi * coeff) - decay + math.log1p(q / (s - 1.0))
        return math.nextafter(math.exp(log_tail + 8.0 * math.ulp(1.0) * (decay + 750.0)), math.inf)
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


def site_blocks(count: int):
    """The sites 1, ..., count as float arrays of at most _BLOCK consecutive sites."""
    for start in range(1, count + 1, _BLOCK):
        yield np.arange(start, min(start + _BLOCK, count + 1), dtype=float)


def _block_fsum(values, count: int) -> float:
    """math.fsum of values(n) over the sites n of site_blocks(count), bit for bit.

    Two extractions q = (sigma + p) - sigma split each block exactly as p = q1 +
    q2 + r (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008).  sigma is a
    power of two at least _BLOCK max|p|, so the q of a block are multiples of
    ulp(sigma)/2 no larger than sigma/_BLOCK, and float64 sums them exactly in
    any order.  The exact total is then T + R, T the sum of the block sums of
    q and |R| <= E = sum of _BLOCK max|r|.  Rounding is monotone, so when fsum
    rounds T - E and T + E to one float, fsum of all values is that float.
    Otherwise (a total within E of a rounding boundary, a zero total, whose
    sign fsum decides, or a term that is not finite or exceeds _MAX_EXTRACTED),
    fsum runs over all values.
    """
    parts, slack = [], []
    for n in site_blocks(count):
        p = values(n)
        top = float(np.max(np.abs(p)))
        if not top < _MAX_EXTRACTED:
            break
        for _ in range(2):
            if top == 0.0:
                break
            sigma = _BLOCK * math.ldexp(1.0, math.frexp(top)[1])
            q = (sigma + p) - sigma
            parts.append(float(np.sum(q)))
            p = p - q
            top = float(np.max(np.abs(p)))
        slack.append(_BLOCK * top)
    else:
        hi = math.fsum(parts + slack)
        if hi == math.fsum(parts + [-e for e in slack]) != 0.0:
            return hi
    return math.fsum(x for n in site_blocks(count) for x in values(n).tolist())


def _series_parts(alpha: float, pot: Potential, terms: int) -> tuple[float, float]:
    """(partial sum, tail upper bound) of sum g_weight(alpha, n) V_n."""
    if terms < 1:
        raise ValueError(f"the series needs terms >= 1, got {terms}")
    if pot.kind == "delta":
        return pot.coeff * g_weight(alpha, pot.site), 0.0
    if terms > _MAX_TERMS:
        raise ValueError(f"the series takes at most {_MAX_TERMS} terms, got {terms}")
    # g_n V_n is formed and summed one block at a time, so its memory does not
    # grow with terms; the sum is math.fsum's correctly rounded one.  An explicit
    # V_n is 0 past its data, and fsum is unchanged by exact zeros
    count = min(terms, len(pot.data)) if pot.kind == "explicit" else terms
    with np.errstate(over="ignore"):  # an inf term is refused by theorem2_check
        partial = _block_fsum(lambda n: g_weight(alpha, n) * pot.at(n), count)
    if pot.kind == "power":
        tail = _power_tail_bound(alpha, pot.coeff, pot.exponent, terms)
    elif pot.kind == "classical_hardy":
        tail = _power_tail_bound(alpha, 0.25, 2.0, terms)
    elif pot.kind == "kpp":  # n^2 V_n is largest at n = 1 (_kpp_values)
        top = float(_kpp_values(np.ones(1))[0])
        tail = _power_tail_bound(alpha, top * (1.0 + 1e-12), 2.0, terms)
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
    if not math.isfinite(partial):
        raise ValueError("a term g_n V_n of the admissibility series overflows float64")
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
    if not (math.isfinite(epsilon) and epsilon > 0.0 and 1.0 + epsilon > 1.0):
        raise ValueError(f"epsilon={epsilon!r} must be finite and > 0 with 1 + epsilon > 1")
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
