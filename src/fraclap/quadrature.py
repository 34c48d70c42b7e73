"""Numerical integration oracle.

Every closed form in the package is cross-checked against integrals over
(-1,1) with the semicircle weight sqrt(1-x^2).  The oracle substitutes
x = cos(theta) and applies tanh-sinh (double exponential) quadrature with
adaptive level refinement, which handles the algebraic endpoint factors
uniformly.
"""

from __future__ import annotations

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


def integrate_theta(
    g: Callable[[np.ndarray], np.ndarray], tol: float = 1e-12, rel: float = 0.0
):
    """Integral of g(theta) over (0, pi) by adaptive tanh-sinh refinement.

    g must accept numpy arrays; complex values are allowed.  Endpoints are
    never evaluated.  Convergence requires the level-to-level change to
    drop below tol/2 + rel*|estimate|/2 (rel defaults to 0: absolute), so
    tol must be finite and > 0, and rel finite and >= 0.
    """
    if not (math.isfinite(tol) and tol > 0.0 and math.isfinite(rel) and rel >= 0.0):
        raise ValueError(
            f"quadrature needs finite tol > 0 and rel >= 0, got tol={tol!r}, rel={rel!r}"
        )
    total = 0.0
    prev = None
    for level in range(_MAX_LEVEL + 1):
        q, c = _level_nodes(level)
        if level == 0:
            # k = 0 node sits at the midpoint; treat it separately
            total = c[0] * np.sum(g(np.array([0.5 * math.pi])))
            q, c = q[1:], c[1:]
        total = total + np.dot(c, g(math.pi - math.pi * q)) + np.dot(c, g(math.pi * q))
        h = 1.0 / 2**level
        estimate = 0.5 * math.pi * h * total
        if (
            prev is not None
            and level >= 4
            and abs(estimate - prev) < 0.5 * (tol + rel * abs(estimate))
        ):
            return estimate
        prev = estimate
    raise QuadratureError(
        f"tanh-sinh failed to reach tol={tol} within {_MAX_LEVEL} levels"
    )
