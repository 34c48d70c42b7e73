"""Numerical integration oracle.

Every closed form in the package is cross-checked against integrals over
(-1,1) with the semicircle weight sqrt(1-x^2).  The oracle substitutes
x = cos(theta) and applies tanh-sinh (double exponential) quadrature with
adaptive level refinement, which handles the algebraic endpoint factors
uniformly.

An integrand may return a family of integrands, one per row, evaluated at
shared nodes: the oracles integrate all the entries, kernels or moments of
one exponent in a single pass, and each row, summed by its own BLAS dot,
still stops at its own level with the value its own call would give.

The package's one root finder, :func:`brent_root`, lives here too: Brent's
method on a bracket, in Python floats.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

_U_MAX = 5.4  # trapezoid cutoff; endpoint distances stay above ~1e-150*pi
_MAX_LEVEL = 14

#: scipy.optimize.brentq's default and least relative root tolerance
_BRENT_RTOL = 4.0 * math.ulp(1.0)


class QuadratureError(RuntimeError):
    """Raised when refinement or a root search fails to meet the requested tolerance."""


@lru_cache(maxsize=32)
def _level_nodes(level: int) -> np.ndarray:
    """Rows c, pi - pi*q, pi*q for the nodes new at this level, read-only.

    q is the fractional distance of each node from its nearer endpoint, c
    the corresponding trapezoid coefficient (without the step factor h).
    Level 0 leaves out its midpoint, theta = pi/2 with c = pi/2.
    """
    h = 1.0 / 2**level
    if level == 0:
        ks = np.arange(0, int(_U_MAX / h) + 1)
    else:
        ks = np.arange(1, int(_U_MAX / h) + 1, 2)  # odd multiples only
    u = ks * h
    w = 0.5 * math.pi * np.sinh(u)
    q = 1.0 / (1.0 + np.exp(2.0 * w))  # distance fraction from the endpoint
    c = 0.5 * math.pi * np.cosh(u) * 4.0 * q * (1.0 - q)
    if level == 0:
        q, c = q[1:], c[1:]
    nodes = np.stack([c, math.pi - math.pi * q, math.pi * q])
    nodes.flags.writeable = False
    return nodes


def integrate_theta(
    g: Callable[[np.ndarray], np.ndarray], tol: float = 1e-12, rel: float = 0.0
):
    """Integral of g(theta) over (0, pi) by adaptive tanh-sinh refinement.

    g must accept read-only numpy arrays; complex values are allowed.
    Endpoints are never evaluated.  Convergence requires the level-to-level
    change to drop below tol/2 + rel*|estimate|/2 (rel defaults to 0:
    absolute), so tol must be finite and > 0, and rel finite and >= 0.

    g may also return a family of k integrands as a (k, len(theta)) array;
    then one pass shares every node among them and the result is an array
    of k integrals.  Each row's estimate is taken at the first level where
    that row meets the stopping rule, and equals what a call with that row
    alone returns, bit for bit: a 1-d g is the family with k = 1, and each
    row's sum over one side of a level is one BLAS dot, as in a lone call.  A
    non-finite estimate, from a pole or an overflow at a node, raises
    QuadratureError at once, since no later level could converge.
    """
    if not (math.isfinite(tol) and tol > 0.0 and math.isfinite(rel) and rel >= 0.0):
        raise ValueError(
            f"quadrature needs finite tol > 0 and rel >= 0, got tol={tol!r}, rel={rel!r}"
        )
    mid = g(np.array([0.5 * math.pi]))
    total = np.float64(0.5 * math.pi) * np.ravel(mid)  # the midpoint's c, in float64
    rows, result = np.arange(total.size), np.empty(total.size)  # rows still running
    for level in range(_MAX_LEVEL + 1):
        c, *sides = _level_nodes(level)
        for theta in sides:
            # one dot per contiguous row: a matrix-vector product sums in another order
            values = np.ascontiguousarray(g(theta)).reshape(-1, c.size)
            total = total + np.vecdot(c, values if rows.size == len(values) else values[rows])
            del values  # freed before g runs again
        estimate = 0.5 * math.pi / 2**level * total
        finite = np.isfinite(estimate)
        if np.count_nonzero(finite) < finite.size:
            raise QuadratureError(f"tanh-sinh estimate is {estimate[~finite][0]} at level {level}")
        if level >= 4:
            done = np.abs(estimate - prev) < 0.5 * (tol + rel * np.abs(estimate))
            if np.count_nonzero(done):  # the stopped rows leave the running arrays
                # widened to complex when a row turns complex after the midpoint
                result = result.astype(np.result_type(result, estimate), copy=False)
                result[rows[done]] = estimate[done]
                rows, total, estimate = rows[~done], total[~done], estimate[~done]
        if not rows.size:
            return result if np.ndim(mid) == 2 else result[0]
        prev = estimate
    raise QuadratureError(f"tanh-sinh failed to reach tol={tol} within {_MAX_LEVEL} levels")


def _not_nan(x: float, fx) -> float:
    fx = float(fx)
    if math.isnan(fx):
        raise ValueError(f"the function value at x={x} is NaN; the root finder cannot continue")
    return fx


def brent_root(f, a, b, fa, fb, xtol, rtol=_BRENT_RTOL, maxiter=100):
    """A root of f in the bracket [a, b], given fa = f(a) and fb = f(b).

    Brent's method (Brent 1973, Algorithms for Minimization without
    Derivatives, ch. 4) written out step for step as scipy.optimize.brentq
    runs it, so it returns brentq's float, bit for bit, with brentq's
    stopping rule |step| < (xtol + rtol*|x|)/2; f is not called at a or b.
    An end where f is 0 is returned as is.  A NaN value raises ValueError,
    and a bracket still wider than the tolerance after maxiter steps raises
    QuadratureError.
    """
    xpre, xcur, fpre, fcur = float(a), float(b), _not_nan(a, fa), _not_nan(b, fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):  # a new bracket end
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the end where |f| is least
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an inf or NaN step in brentq's C arithmetic: it bisects
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = _not_nan(xcur, f(xcur))
    raise QuadratureError(f"Brent's method did not converge in {maxiter} steps, last x={xcur}")
