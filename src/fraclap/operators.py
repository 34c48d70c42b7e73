"""Matrix entries and finite sections of powers of the discrete Laplacian.

The operator acts on square-summable sequences over {1,2,...} with the
Dirichlet convention u_0 = 0.  For positive powers the entries follow the
closed form

    A(alpha)_{m,n} = (-1)^{m+n} [ C(2a, a+m-n) - C(2a, a+m+n) ],  a = alpha,

with C the generalized binomial; the two negative powers -1/2 and -1
have their own closed forms (digamma expression and min(m,n)).  Entries
are Toeplitz-minus-Hankel in (m-n, m+n), which the assembler exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Callable

import numpy as np
from scipy import fft as sfft
from scipy import special as sp
from scipy.linalg import hankel, toeplitz

from . import quadrature

SPECIAL_NEGATIVE = (-0.5, -1.0)

#: columns per FFT pass of :func:`section_product`: its length-3N work
#: arrays then stay small next to the N x columns input and output
_PRODUCT_BLOCK = 8


class UnsupportedExponentError(ValueError):
    """alpha outside the supported set: alpha > 0 or alpha in {-1/2, -1}."""


@dataclass(frozen=True)
class Exponent:
    """A validated power of the Laplacian with its regime classification."""

    alpha: float

    def __post_init__(self):
        a = self.alpha
        if not ((math.isfinite(a) and a > 0.0) or a in SPECIAL_NEGATIVE):
            raise UnsupportedExponentError(
                f"alpha={a}: only finite positive powers and the special values "
                f"-1/2 and -1 are supported"
            )

    @property
    def special_negative(self) -> bool:
        return self.alpha in SPECIAL_NEGATIVE

    @property
    def regime(self) -> str:
        if self.special_negative:
            return "special_negative"
        return "critical" if self.alpha >= 1.5 else "subcritical"


@dataclass(frozen=True)
class TruncatedOperator:
    """A dense symmetric finite section, immutable once assembled."""

    size: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.entries.setflags(write=False)


def check_positive_power(alpha: float) -> None:
    """Reject alpha unless it is a finite positive power."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise UnsupportedExponentError(f"alpha={alpha!r} must be finite and > 0")


def is_banded(alpha: float) -> bool:
    """Whether A(alpha) is banded: exactly the positive integer powers.

    Their entries vanish beyond the alpha-th diagonal, so sections are
    stored, assembled and solved as bands (:func:`assemble_band`).
    """
    return alpha > 0.0 and float(alpha).is_integer()


def _sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction (accurate for large |x|)."""
    r = x - round(x)
    s = math.sin(math.pi * r)
    return -s if round(x) % 2 else s


def _signed_coeff(alpha: float, k: np.ndarray) -> np.ndarray:
    """(-1)^k C(2*alpha, alpha+k) for integer k >= 0, vectorized.

    Computed in log-Gamma space; for k > alpha the reflection formula
    turns the Gamma at the negative argument alpha-k+1 into
    (-1)^(k+1) sin(pi*alpha) Gamma(k-alpha) / pi, so no overflow occurs
    for any section size.
    """
    k = np.asarray(k, dtype=float)
    out = np.empty_like(k)
    if is_banded(alpha):
        # integer power: plain binomials, exact in floats (no log round trip)
        a = int(alpha)
        for i, kf in enumerate(k.ravel()):
            ki = int(kf)
            val = float(math.comb(2 * a, a + ki)) if ki <= a else 0.0
            out.ravel()[i] = -val if ki % 2 else val
        return out
    lg_top = math.lgamma(2.0 * alpha + 1.0)
    direct = alpha - k + 1.0 > 0.0
    if np.any(direct):
        kd = k[direct]
        sign = np.where(kd.astype(int) % 2 == 0, 1.0, -1.0)
        out[direct] = sign * np.exp(
            lg_top - sp.gammaln(alpha + kd + 1.0) - sp.gammaln(alpha - kd + 1.0)
        )
    rest = ~direct
    if np.any(rest):
        kr = k[rest]
        out[rest] = -(_sinpi(alpha) / math.pi) * np.exp(
            lg_top + sp.gammaln(kr - alpha) - sp.gammaln(alpha + kr + 1.0)
        )
    return out


def _entry_neg_half_diag(k: np.ndarray) -> np.ndarray:
    """T(k) = [psi(1/2+k) + psi(1/2-k)] / [Gamma(1/2+k) Gamma(1/2-k)].

    The Gamma product equals (-1)^k pi exactly (reflection at half
    integers), which keeps the expression stable for large k.
    """
    k = np.asarray(k, dtype=float)
    psum = sp.psi(0.5 + k) + sp.psi(0.5 - k)
    sign = np.where(k.astype(int) % 2 == 0, 1.0, -1.0)
    return sign * psum / math.pi


def entry(alpha: float | Exponent, m: int, n: int) -> float:
    """Matrix entry A(alpha)_{m,n} for m, n >= 1."""
    exp_ = alpha if isinstance(alpha, Exponent) else Exponent(alpha)
    if m < 1 or n < 1:
        raise ValueError("indices are 1-based: m, n >= 1")
    a = exp_.alpha
    if a == -1.0:
        return float(min(m, n))
    if a == -0.5:
        t = _entry_neg_half_diag(np.array([m + n, m - n]))
        sign = 1.0 if (m + n) % 2 == 0 else -1.0
        return float(0.5 * sign * (t[0] - t[1]))
    c = _signed_coeff(a, np.array([abs(m - n), m + n]))
    return float(c[0] - c[1])


def assemble(alpha: float | Exponent, size: int) -> TruncatedOperator:
    """The leading size x size section of A(alpha), symmetric by construction."""
    exp_ = alpha if isinstance(alpha, Exponent) else Exponent(alpha)
    if size < 1:
        raise ValueError("size must be >= 1")
    a = exp_.alpha
    if a == -1.0:
        idx = np.arange(1, size + 1)
        mat = np.minimum.outer(idx, idx).astype(float)
    elif a == -0.5:
        t = _entry_neg_half_diag(np.arange(0, 2 * size + 1))
        idx = np.arange(1, size + 1)
        parity = np.where(np.add.outer(idx, idx) % 2 == 0, 1.0, -1.0)
        t_sum = hankel(t[2 : size + 2], t[size + 1 : 2 * size + 1])
        t_diff = toeplitz(t[:size])
        mat = 0.5 * parity * (t_sum - t_diff)
    else:
        c = section_coefficients(a, size)
        mat = toeplitz(c[:size]) - hankel(c[2 : size + 2], c[size + 1 : 2 * size + 1])
    return TruncatedOperator(size=size, entries=mat)


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
    size = (coeffs.size - 1) // 2
    length = sfft.next_fast_len(3 * size + 1, real=True)
    kernel = np.zeros(length)
    kernel[: 2 * size + 1] = coeffs
    kernel[length - size + 1 :] = coeffs[size - 1 : 0 : -1]
    kernel_hat = sfft.rfft(kernel)

    def product(x: np.ndarray) -> np.ndarray:
        cols = x.reshape(size, -1)
        out = np.empty_like(cols)
        for j in range(0, cols.shape[1], _PRODUCT_BLOCK):
            block = cols[:, j : j + _PRODUCT_BLOCK]
            odd = np.zeros((length, block.shape[1]))
            odd[1 : size + 1] = block
            odd[length - size :] = -block[::-1]
            spectrum = sfft.rfft(odd, axis=0) * kernel_hat[:, None]
            out[:, j : j + _PRODUCT_BLOCK] = sfft.irfft(spectrum, length, axis=0)[1 : size + 1]
        return out.reshape(x.shape)

    return product


def assemble_band(alpha: float | Exponent, size: int) -> np.ndarray:
    """Lower band storage of the size x size section of an integer power.

    Row d holds the d-th subdiagonal, ``ab[d, j] = A[j+d, j]``, zero padded
    at the end; there are min(alpha, size-1) + 1 rows.  The entries are the
    Toeplitz diagonals c[d] minus the Hankel corner c[m+n] (1-based
    m >= n, m + n <= alpha), the only nonzero Hankel terms, since c[k]
    vanishes for k > alpha.  They equal those of :func:`assemble` bit for
    bit, without an N x N allocation.
    """
    exp_ = alpha if isinstance(alpha, Exponent) else Exponent(alpha)
    a = exp_.alpha
    if not is_banded(a):
        raise UnsupportedExponentError("band storage needs a positive integer power")
    if size < 1:
        raise ValueError("size must be >= 1")
    width = int(a)
    c = _signed_coeff(a, np.arange(width + 1))
    ab = np.zeros((min(width, size - 1) + 1, size))
    for d in range(ab.shape[0]):
        ab[d, : size - d] = c[d]
    for n in range(1, width // 2 + 1):
        for m in range(n, min(width - n, size) + 1):
            ab[m - n, n - 1] -= c[m + n]
    return ab


def assemble_reflected(alpha: float | Exponent, size: int) -> TruncatedOperator:
    """Section of 4^alpha * I - A(alpha); requires a positive power."""
    exp_ = alpha if isinstance(alpha, Exponent) else Exponent(alpha)
    check_positive_power(exp_.alpha)
    base = assemble(exp_, size)
    mat = 4.0**exp_.alpha * np.eye(size) - base.entries
    return TruncatedOperator(size=size, entries=mat)


def sine_indices(m, n):
    """Distinct indices k of m and n, and where each m and n sits among them.

    The oracles below evaluate sin(k*theta) once per distinct k and pick
    the rows of each (m, n) pair from that table.
    """
    m, n = np.broadcast_arrays(m, n)
    if np.any(m < 1) or np.any(n < 1):
        raise ValueError("indices are 1-based: m, n >= 1")
    ks = np.unique(np.concatenate([m.ravel(), n.ravel()]))
    return ks, np.searchsorted(ks, m.ravel()), np.searchsorted(ks, n.ravel())


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
    shape = np.broadcast_shapes(np.shape(m), np.shape(n))
    ks, mi, ni = sine_indices(m, n)

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


def save_matrix_csv(op: TruncatedOperator, fh: IO[str]) -> None:
    """Row-major CSV with 17 significant digits (round-trip safe)."""
    for row in op.entries:
        fh.write(",".join(f"{v:.17g}" for v in row))
        fh.write("\n")
