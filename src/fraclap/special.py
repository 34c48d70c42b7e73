"""Scalar special functions shared by all modules.

Pochhammer symbols with sign/log bookkeeping, Chebyshev polynomials of
the second kind, and the Riemann zeta function with its first
derivative.  All functions are pure.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np


def _sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction (accurate for large |x|)."""
    r = x - round(x)
    s = math.sin(math.pi * r)
    return -s if round(x) % 2 else s


def log_pochhammer(a: float, k: int) -> tuple[float, float]:
    """(sign, ln|(a)_k|) of the ascending factorial a(a+1)...(a+k-1).

    Overflow-safe for k up to at least 10^6.  sign is 0.0 when a factor
    is exactly zero.
    """
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    if k == 0:
        return 1.0, 0.0
    if a > 0.0:
        return 1.0, math.lgamma(a + k) - math.lgamma(a)
    if a == math.floor(a):  # non-positive integer start
        if a + k > 0:
            return 0.0, -math.inf  # the factor 0 occurs
        # all factors are negative integers
        sign = -1.0 if k % 2 else 1.0
        return sign, math.lgamma(1.0 - a) - math.lgamma(1.0 - a - k)
    # a < 0, non-integer: the first m factors are negative
    m = min(k, math.ceil(-a))
    sign = -1.0 if m % 2 else 1.0
    # |a(a+1)...(a+m-1)| = Gamma(1-a)/Gamma(1-a-m)
    log_abs = math.lgamma(1.0 - a) - math.lgamma(1.0 - a - m)
    if m < k:
        log_abs += math.lgamma(a + k) - math.lgamma(a + m)
    return sign, log_abs


def chebyshev_u(n: int, x):
    """Chebyshev polynomial of the second kind U_n evaluated at x.

    Uses sin((n+1)theta)/sin(theta) on [-1,1] away from the endpoints,
    the three-term recurrence where |sin theta| < 1e-6 (the trig form
    loses all relative accuracy there), and the hyperbolic analogue for
    |x| > 1.  Accepts scalars or numpy arrays.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)

    inside = np.abs(x) <= 1.0
    if np.any(inside):
        xi = x[inside]
        theta = np.arccos(xi)
        s = np.sin(theta)
        vals = np.empty_like(xi)
        trig = s >= 1e-6
        if np.any(trig):
            vals[trig] = np.sin((n + 1) * theta[trig]) / s[trig]
        if np.any(~trig):
            vals[~trig] = _u_recurrence(n, xi[~trig])
        out[inside] = vals
    if np.any(~inside):
        xo = x[~inside]
        sgn = np.where(xo > 1.0, 1.0, (-1.0) ** n)
        ax = np.abs(xo)
        t = np.arccosh(ax)
        small = t < 1e-6
        vals = np.empty_like(ax)
        if np.any(~small):
            ts = t[~small]
            vals[~small] = np.sinh((n + 1) * ts) / np.sinh(ts)
        if np.any(small):
            vals[small] = _u_recurrence(n, ax[small])
        out[~inside] = sgn * vals
    return float(out) if scalar else out


def _u_recurrence(n: int, x: np.ndarray) -> np.ndarray:
    u_prev = np.ones_like(x)
    if n == 0:
        return u_prev
    u = 2.0 * x
    for _ in range(n - 1):
        u_prev, u = u, 2.0 * x * u - u_prev
    return u


def zeta_and_derivative(s: float) -> tuple[float, float]:
    """(zeta(s), zeta'(s)) for s > 1."""
    if s <= 1.0:
        raise ValueError(f"zeta_and_derivative requires s > 1, got {s}")
    with mpmath.workdps(30):
        z = mpmath.zeta(s)
        zp = mpmath.zeta(s, derivative=1)
    return float(z), float(zp)
