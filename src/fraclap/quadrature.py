"""Numerical integration oracle.

Every closed form in the package is cross-checked against integrals over
(-1,1) with the semicircle weight sqrt(1-x^2).  The oracle substitutes
x = cos(theta) and applies tanh-sinh (double exponential) quadrature with
adaptive level refinement, which handles the algebraic endpoint factors
uniformly.

An integrand may return a family of integrands, one per row, evaluated at
shared nodes: the oracles integrate all the entries, kernels or moments of
one exponent in a single pass, and each row still stops at its own level
with the value its own call would give.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Callable

import numpy as np

_U_MAX = 5.4  # trapezoid cutoff; endpoint distances stay above ~1e-150*pi
_MAX_LEVEL = 14


class QuadratureError(RuntimeError):
    """Raised when refinement fails to meet the requested tolerance."""


@lru_cache(maxsize=32)
def _level_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, c) for the nodes new at this refinement level on (0,1) coordinates.

    q is the fractional distance of each node from its nearer endpoint,
    c the corresponding trapezoid coefficient (without the step factor h).
    The q values are symmetric: each positive-u node is mirrored.
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
    return q, c


def _row_dots(c: np.ndarray, values: np.ndarray, rows) -> dict:
    """np.dot(c, row) for the listed rows of a 1-d or (k, len(c)) array."""
    values = np.ascontiguousarray(values).reshape(-1, c.size)
    return {i: np.dot(c, values[i]) for i in rows}


def integrate_theta(
    g: Callable[[np.ndarray], np.ndarray], tol: float = 1e-12, rel: float = 0.0
):
    """Integral of g(theta) over (0, pi) by adaptive tanh-sinh refinement.

    g must accept numpy arrays; complex values are allowed.  Endpoints are
    never evaluated.  Convergence requires the level-to-level change to
    drop below tol/2 + rel*|estimate|/2 (rel defaults to 0: absolute), so
    tol must be finite and > 0, and rel finite and >= 0.

    g may also return a family of k integrands as a (k, len(theta)) array;
    then one pass shares every node among them and the result is an array
    of k integrals.  Each row's estimate is taken at the first level where
    that row meets the stopping rule, and equals what a call with that row
    alone returns, bit for bit: a 1-d g is the family with k = 1.  A
    non-finite estimate, from a pole or an overflow at a node, raises
    QuadratureError at once, since no later level could converge.
    """
    if not (math.isfinite(tol) and tol > 0.0 and math.isfinite(rel) and rel >= 0.0):
        raise ValueError(
            f"quadrature needs finite tol > 0 and rel >= 0, got tol={tol!r}, rel={rel!r}"
        )
    for level in range(_MAX_LEVEL + 1):
        q, c = _level_nodes(level)
        if level == 0:
            # k = 0 node sits at the midpoint; treat it separately
            mid = g(np.array([0.5 * math.pi]))
            family = np.ndim(mid) == 2
            total = [c[0] * v for v in np.ravel(mid)]
            prev, result = [None] * len(total), [None] * len(total)
            running = range(len(total))
            q, c = q[1:], c[1:]
        # one dot per contiguous row: a matrix-vector product sums in another
        # order; each side is reduced before the next is evaluated
        left = _row_dots(c, g(math.pi - math.pi * q), running)
        right = _row_dots(c, g(math.pi * q), running)
        h = 1.0 / 2**level
        for i in running:
            total[i] = total[i] + left[i] + right[i]
            estimate = 0.5 * math.pi * h * total[i]
            if not cmath.isfinite(estimate):
                raise QuadratureError(f"tanh-sinh estimate is {estimate} at level {level}")
            if level >= 4 and abs(estimate - prev[i]) < 0.5 * (tol + rel * abs(estimate)):
                result[i] = estimate
            prev[i] = estimate
        running = [i for i in running if result[i] is None]
        if not running:
            return np.array(result) if family else result[0]
    raise QuadratureError(
        f"tanh-sinh failed to reach tol={tol} within {_MAX_LEVEL} levels"
    )
