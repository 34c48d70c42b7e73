"""Matrix entries and finite sections of powers of the discrete Laplacian.

The operator acts on square-summable sequences over {1,2,...} with the
Dirichlet convention u_0 = 0.  Every supported power (finite alpha > 0, or
alpha in {-1/2, -1}) is Toeplitz-minus-Hankel, A(alpha)_{m,n} = c[|m-n|] -
c[m+n], with one coefficient sequence c per power: (-1)^k C(2a, a+k) for
a = alpha > 0 (C the generalized binomial), -k/2 for alpha = -1 (so that
A = min(m, n)), and -(psi(1/2+k) + psi(1/2-k)) / (2 pi) for alpha = -1/2.
Entries, sections, band storage and the FFT product all read that sequence.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import quadrature


class UnsupportedExponentError(ValueError):
    """alpha outside the supported set: alpha > 0 or alpha in {-1/2, -1}."""


def _check_exponent(alpha: float) -> None:
    """Reject alpha unless it is a finite positive power, -1/2 or -1."""
    if not ((math.isfinite(alpha) and alpha > 0.0) or alpha in (-0.5, -1.0)):
        raise UnsupportedExponentError(
            f"alpha={alpha}: only finite positive powers and the special values "
            f"-1/2 and -1 are supported"
        )


def check_positive_power(alpha: float) -> None:
    """Reject alpha unless it is a finite positive power."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise UnsupportedExponentError(f"alpha={alpha!r} must be finite and > 0")


def check_count(value, name: str) -> None:
    """Reject value unless it is an integer >= 1: a site or a section size."""
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"{name}={value!r} must be an integer >= 1")


def _check_indices(m, n) -> None:
    """Reject indices unless they are integers with 1 <= m, n and m + n < 2^52, below which
    float64 holds m + n."""
    # count_nonzero takes Python and numpy scalars alike, without np.any's dispatch
    if np.count_nonzero(m < 1) or np.count_nonzero(n < 1):
        raise ValueError("indices are 1-based: m, n >= 1")
    if np.count_nonzero(m >= 2**52 - n):
        raise ValueError("indices need m + n < 2**52, the range float64 holds exactly")
    # in range, so finite or nan; x % 1 is 0 exactly at the integers, nan at nan
    if np.count_nonzero(m % 1) or np.count_nonzero(n % 1):
        raise ValueError("indices must be integers")


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(nbytes: int, what: str) -> None:
    """Refuse a working set larger than physical memory with a ValueError."""
    have = _physical_memory()
    if nbytes > have:
        raise ValueError(
            f"{what} needs about {nbytes / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def is_banded(alpha: float) -> bool:
    """Whether A(alpha) is banded: exactly the positive integer powers.

    Their entries vanish beyond the alpha-th diagonal, so sections are
    stored, assembled and solved as bands (:func:`assemble_band`).
    """
    return alpha > 0.0 and float(alpha).is_integer()


#: B_0, B_2, ..., B_16 as exact (numerator, denominator); the odd ones past B_1 vanish
_BERNOULLI = ((1, 1), (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510))

#: row m/2 - 1 holds the coefficients of d, d^3, ..., d^(m+1) in 2 B_{m+1}(1/2 + d) / (m (m+1)),
#: m = 2, ..., 12, that of d^(m+1-j) from B_j(1/2) = (2^(1-j) - 1) B_j, exact and rounded once
_STIRLING = [
    [2 * math.comb(m + 1, j) * (2 - 2**j) * num / (2**j * den * m * (m + 1))
     for j in range(m, -1, -2) for num, den in [_BERNOULLI[j // 2]]]
    for m in range(2, 13, 2)
]

#: the same coefficients of dF/dd at d = 0, where F = 2 psi(z + 1/2)
_STIRLING_SLOPE = [row[0] for row in _STIRLING]

#: 1/sqrt(pi), 1/(2 pi) and c[0] = -psi(1/2)/pi at alpha = -1/2, each correctly rounded
_INV_SQRT_PI, _INV_TWO_PI = 0.5641895835477563, 0.15915494309189535
_HALF_INVERSE_DIAGONAL = 0.6250046529036112


def _horner(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):  # in place on an array: no fresh array a step
        acc *= x
        acc += c
    return acc


def _stirling_coeffs(d: float) -> list:
    """F's Stirling coefficients at d, d * _horner(_STIRLING[i], d^2): accurate as d -> 0."""
    return [d * _horner(row, d * d) for row in _STIRLING]


def _stirling_tail(head: float, z0: float, z, lead: float, coeffs):
    """head + F(z) - F(z0) at a float or array z >= z0, F(z) = lnGamma(z+1/2+d) - lnGamma(z+1/2-d)
    = 2d ln z - sum_{m=2,4,..} 2 B_{m+1}(1/2+d) / (m (m+1) z^m) (DLMF 5.11.8), whose six terms are
    within rounding from z0 = 12 |d| + 16 on.  lead is 2d and coeffs _stirling_coeffs(d);
    2 and _STIRLING_SLOPE give dF/dd at 0."""
    v, v0 = 1.0 / z, 1.0 / z0
    v, v0 = v * v, v0 * v0  # 1/z itself is freed before the other temporaries
    return head + v0 * _horner(coeffs, v0) + lead * np.log(z / z0) - v * _horner(coeffs, v)


def _log_gamma_ratio(k, start: int, head: list, lead: float, coeffs):
    """F(k) - F(start) at integers k held as a float64 scalar or an array of any order and shape:
    head[k - start] up to the head's end, the Stirling tail beyond; k below start reads head[0]."""
    end, last = start + len(head) - 1, head[-1]
    if not k.ndim:
        return head[max(int(k) - start, 0)] if k <= end else _stirling_tail(last, end, k, lead, coeffs)
    beyond = k > end
    count = np.count_nonzero(beyond)
    if count == k.size:  # every block of a long series after the first
        return _stirling_tail(last, end, k, lead, coeffs)
    # any tail before the look-ups: one block-sized array fewer is live while it runs
    tail = _stirling_tail(last, end, np.maximum(k, end), lead, coeffs) if count else None
    inside = np.take(head, (k - start).astype(np.intp), mode="clip")
    return np.where(beyond, tail, inside) if count else inside


def _binomial_coeffs(alpha: float, k):
    """(-1)^k C(2 alpha, alpha + k) for a non-integer alpha > 0, at an ascending array of integers k.

    c[0] by the duplication formula, its Gamma ratio from the Stirling kernel at d = -1/4 from
    alpha = 170 on, then the exact ratio c[j+1] = c[j] (j - alpha)/(j + alpha + 1)
    up to j0 = floor(alpha) + 1; beyond, every ratio is positive and c[k] = c[j0] exp(F(j0) - F(k)),
    F(z) = lnGamma(z + 1 + alpha) - lnGamma(z - alpha) (d = alpha + 1/2): a running sum of
    log1p((2 alpha + 1)/(j - alpha)) up to max(j0, 16) + 12 d, the Stirling tail beyond.
    A ValueError refuses an alpha whose c[0] overflows float64.
    """
    # c[0] = 4^alpha Gamma(alpha + 1/2) / (sqrt(pi) Gamma(alpha + 1)), 4^alpha scaled by ldexp:
    # Gamma leaves float64 past alpha = 171, c[0] itself near alpha = 514.6.  From 170 on the
    # ratio is exp(F(z)) at d = -1/4, exp(-v sum coeffs v^i) / sqrt(z), z = alpha + 1/4, v = 1/z^2
    if alpha < 170.0:
        gammas = math.gamma(alpha + 0.5) / math.gamma(alpha + 1.0)
    else:
        v = (alpha + 0.25) ** -2
        gammas = math.exp(-v * _horner(_stirling_coeffs(-0.25), v)) / math.sqrt(alpha + 0.25)
    twice = math.floor(2.0 * alpha)
    try:
        c0 = math.ldexp(2.0 ** (2.0 * alpha - twice) * _INV_SQRT_PI * gammas, twice)
    except OverflowError:
        raise ValueError(f"alpha={alpha!r}: the entries of A(alpha) overflow float64") from None
    j0 = math.floor(alpha) + 1
    low = list(itertools.accumulate(range(j0), lambda c, j: c * ((j - alpha) / (j + alpha + 1.0)),
                                    initial=c0))
    lead = 2.0 * alpha + 1.0
    end = min(int(k[-1]), max(j0, 16) + math.ceil(12.0 * (alpha + 0.5)))
    steps = itertools.accumulate(math.log1p(lead / (j - alpha)) for j in range(j0, end))
    ratio = _log_gamma_ratio(k, j0, [0.0, *steps], lead, _stirling_coeffs(alpha + 0.5))
    return np.where(k > j0, low[-1] * np.exp(-ratio), np.take(low, np.minimum(k, j0).astype(np.intp)))


def _signed_coeff(alpha: float, k):
    """c[k] with A(alpha)_{m,n} = c[|m-n|] - c[m+n] at an ascending array of integers k >= 0:
    the sequences of the module docstring, exact binomials at integer powers, and at
    alpha = -1/2, since psi(1/2 - k) = psi(1/2 + k), c[0] - (psi(k + 1/2) - psi(1/2))/pi
    from F' = 2 psi(z + 1/2), the slope of F at d = 0."""
    if not is_banded(alpha) and alpha > 0.0:
        return _binomial_coeffs(alpha, k)
    if alpha == -0.5:
        steps = itertools.accumulate(2.0 / (j + 0.5) for j in range(min(int(k[-1]), 16)))
        slope = _log_gamma_ratio(k, 0, [0.0, *steps], 2.0, _STIRLING_SLOPE)
        return _HALF_INVERSE_DIAGONAL - _INV_TWO_PI * slope
    if alpha == -1.0:
        return -0.5 * k
    a = int(alpha)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    binom = np.array([float(math.comb(2 * a, a + j)) for j in range(a + 1)] + [0.0])
    return sign * binom[np.minimum(k, a + 1).astype(int)]


def entry(alpha: float, m: int, n: int) -> float:
    """Matrix entry A(alpha)_{m,n} for m, n >= 1 with m + n < 2^52.

    It reads c[|m-n|] and c[m+n] as the sections do, so it equals the
    entry of :func:`assemble` bit for bit.  Integer powers and alpha = -1
    are exact.  Otherwise the entry is accurate in absolute terms only, to
    a few ulps of |c[|m-n|]|: far off the diagonal it is the small
    difference c[|m-n|] - c[m+n] of two nearly equal coefficients, and it
    loses its relative accuracy and possibly its sign.  Measured against
    50-digit mpmath values:

    ==========================  ========================  =======================
    call                        returns                   exact value
    ==========================  ========================  =======================
    ``entry(-0.5, 10**15, 1)``  0.0                       6.3661977236758134e-16
    ``entry(-0.5, 10**9, 1)``   6.366205340668785e-10     6.3661977236758134e-10
    ``entry(0.75, 10**4, 1)``   -1.4960336055011963e-14   -1.4960336055028352e-14
    ``entry(0.75, 10**9, 1)``   -4.7308772257777037e-32   -4.7308734787878001e-32
    ==========================  ========================  =======================
    """
    _check_exponent(alpha)
    _check_indices(m, n)
    c = _signed_coeff(alpha, np.array([abs(m - n), m + n], dtype=float))
    return float(c[0] - c[1])


def assemble(alpha: float, size: int) -> np.ndarray:
    """The leading size x size section of A(alpha), a fresh writable array.

    T - H from two strided views of the coefficients: row i of T is a
    window of c[N-1..1], c[0..N-1] read backwards, row i of H one of
    c[2..2N].  The subtraction is the only N x N allocation, so callers
    may shift or factor the result in place.
    """
    _check_exponent(alpha)
    if size < 1:
        raise ValueError("size must be >= 1")
    check_memory(8 * size * size, f"a dense {size} x {size} section")
    c = section_coefficients(alpha, size)
    mirrored = np.concatenate([c[size - 1 : 0 : -1], c[:size]])
    return sliding_window_view(mirrored, size)[::-1] - sliding_window_view(c[2:], size)


def section_coefficients(alpha: float, size: int) -> np.ndarray:
    """c[0..2N] with A(alpha)_{m,n} = c[|m-n|] - c[m+n] on the size x size section."""
    return _signed_coeff(alpha, np.arange(0, 2 * size + 1))


def section_product(coeffs: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map X -> (T - H) X, with T_{m,n} = coeffs[|m-n|], H_{m,n} = coeffs[m+n].

    The matrix is N x N with N = (coeffs.size - 1) // 2 and 1-based m, n;
    :func:`section_coefficients` makes it the section of A(alpha).  T - H
    is the Toeplitz operator coeffs[|m-n|] restricted to odd sequences
    (u_{-n} = -u_n, u_0 = 0), so (T - H) X is one circular convolution of
    the odd extension of each column with coeffs[|d|], d in [1-N, 2N].  A
    circular length L >= 3N + 1 keeps those 3N lags apart, so nothing
    aliases.  Each column costs O(L log L); no N x N array is formed.
    """
    from scipy import fft as sfft

    size = (coeffs.size - 1) // 2
    length = sfft.next_fast_len(3 * size + 1, real=True)
    kernel = np.zeros(length)
    kernel[: 2 * size + 1] = coeffs
    kernel[length - size + 1 :] = coeffs[size - 1 : 0 : -1]
    kernel_hat = sfft.rfft(kernel)

    def product(x: np.ndarray) -> np.ndarray:
        cols = x.reshape(size, -1)
        odd = np.zeros((length, cols.shape[1]))
        odd[1 : size + 1] = cols
        odd[length - size :] = -cols[::-1]
        spectrum = sfft.rfft(odd, axis=0) * kernel_hat[:, None]
        return sfft.irfft(spectrum, length, axis=0)[1 : size + 1].reshape(x.shape)

    return product


def assemble_band(alpha: float, size: int) -> np.ndarray:
    """Lower band storage of the size x size section of an integer power.

    Row d holds the d-th subdiagonal, ``ab[d, j] = A[j+d, j] = c[d] -
    c[2j+d+2]``, zero padded at the end; there are min(alpha, size-1) + 1
    rows.  c vanishes beyond alpha, so the Hankel term only touches the
    top-left corner.  The entries equal those of :func:`assemble` bit for
    bit, without an N x N allocation.
    """
    if not is_banded(alpha):
        raise UnsupportedExponentError("band storage needs a positive integer power")
    if size < 1:
        raise ValueError("size must be >= 1")
    c = section_coefficients(alpha, size)
    ab = np.zeros((min(int(alpha), size - 1) + 1, size))
    for d in range(ab.shape[0]):
        ab[d, : size - d] = c[d] - c[d + 2 : 2 * size - d + 1 : 2]
    return ab


def assemble_reflected(alpha: float, size: int) -> np.ndarray:
    """Section of 4^alpha * I - A(alpha), a fresh writable array; requires a positive power.

    Negated in place and shifted on the diagonal, so the section of A(alpha)
    is the only N x N allocation.  0 - A rather than -A keeps +0.0 where an
    entry vanishes, so the values equal those of 4^alpha * I - A bit for bit.
    """
    check_positive_power(alpha)
    mat = assemble(alpha, size)
    np.subtract(0.0, mat, out=mat)
    mat[np.diag_indices(size)] += 4.0**alpha
    return mat


def sine_indices(m, n):
    """Broadcast shape of m and n, their distinct indices k, and where each
    m and n sits among them.

    The oracles below evaluate sin(k*theta) once per distinct k and pick
    the rows of each (m, n) pair from that table.
    """
    m, n = np.broadcast_arrays(m, n)
    _check_indices(m, n)
    shape, m, n = m.shape, m.ravel(), n.ravel()
    ks = np.unique(np.concatenate([m, n]))
    # a side that lists every k in order picks by a slice: a view, not a copy
    mi, ni = (slice(None) if np.array_equal(s, ks) else np.searchsorted(ks, s) for s in (m, n))
    return shape, ks, mi, ni


def entry_oracle(alpha: float, m, n, tol: float = 1e-12):
    """Independent quadrature evaluation of the entry, valid for alpha > -3/2.

    Integrates (2^(alpha+1)/pi) * (2 sin^2(theta/2))^alpha sin(m theta)
    sin(n theta) over (0, pi); the angular form keeps full accuracy at the
    endpoint singularity for negative alpha.

    m and n may be integer arrays (broadcast together): one quadrature pass
    then serves every entry, each equal to its scalar call bit for bit.
    Scalar indices return a float.
    """
    if alpha <= -1.5:
        raise ValueError("quadrature representation requires alpha > -3/2")
    shape, ks, mi, ni = sine_indices(m, n)

    if alpha >= 0.0:
        def g(theta):
            s = np.sin(ks[:, None] * theta)
            base = 2.0 * np.sin(0.5 * theta) ** 2
            return base**alpha * s[mi] * s[ni]
    else:
        # negative power: the base factor alone overflows at the deepest
        # quadrature nodes; assemble the product in log space instead
        def g(theta):
            s = np.sin(ks[:, None] * theta)
            with np.errstate(divide="ignore"):
                log_s = np.log(np.abs(s))
                logs = alpha * np.log(2.0 * np.sin(0.5 * theta) ** 2) + log_s[mi] + log_s[ni]
            sign = np.sign(s)
            return sign[mi] * sign[ni] * np.exp(logs)

    val = 2.0 ** (alpha + 1.0) / math.pi * quadrature.integrate_theta(g, tol)
    return val.reshape(shape) if shape else float(val[0])
