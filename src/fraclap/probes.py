"""Finite-section spectral experiments.

Smallest eigenvalues of truncations of A(alpha) - V along a growing
section schedule, each an upper bound on the bottom of the spectrum by
min-max, and the numerical witnesses of the criticality dichotomy at
alpha = 3/2 (with the Birman-Schwinger root), of the explicit Hardy
weights, of the reflected operator's subcriticality and of the KPP
weight.  A witness records its sections and verdict, no limit guessed
from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np
from scipy import fft as sfft
from scipy import linalg
from scipy.linalg import eig_banded, eigh, solve_banded

from . import green, operators

DEFAULT_SCHEDULE = (250, 500, 1000, 2000, 4000)

#: smallest non-integer section given the sine transform plus a low-rank
#: correction, with a potential on at most _LOWRANK_MAX_SUPPORT sites;
#: below it the dense eigh is as fast (measured crossover)
TAU_LOWRANK_MIN_SIZE = 400

#: smallest non-integer section given Cholesky shift-invert Lanczos, with a
#: potential on more sites; below it the dense eigh is as fast (measured
#: crossover of one section factored alone, Hardy weights at alpha in
#: {0.25, 0.5, 1.25}: 0.8-1.9 ms against 1.2-1.9 ms for eigh at N = 200,
#: 1.0-1.9 against 1.9-3.2 at N = 250, 0.5-1.3 against 0.3-0.5 at N = 65;
#: best of 15, one OpenBLAS thread, 2-core Xeon)
SHIFT_INVERT_MIN_SIZE = 200

#: most potential sites folded into the low-rank correction
_LOWRANK_MAX_SUPPORT = 64

#: correction eigenvalues kept above this, relative to the norm 4^alpha
_LOWRANK_TOL = 1e-15

#: accepted a-posteriori error of the correction, in units of its cut
_LOWRANK_ACCEPT = 10.0

#: independent Gaussian test columns of the correction's error estimate
_LOWRANK_PROBES = 4

#: |E - U U^T E| <= 10 sqrt(2/pi) max_i |(E - U U^T E) w_i| with probability
#: 1 - 10^-probes (Halko, Martinsson and Tropp 2011, eq. 4.3)
_HALKO_FACTOR = 10.0 * math.sqrt(2.0 / math.pi)

#: trapezoid nodes u of the correction's integral over t = exp(-s) in (0, 1),
#: s = exp(u), step 0.25 on [-32, ln 40] (:func:`_correction_columns`):
#: below s = 1.3e-14 the integrand falls as s^(2 alpha + 2), above s = 40
#: as t^(2L - alpha) <= exp(-s)
_NODE_STEP = 0.25
_NODES = np.arange(-32.0, math.log(40.0), _NODE_STEP)

#: nodes whose rank-one term is bounded below this fraction of the cut are
#: dropped: all of them together stay far below it
_NODE_DROP = 1e-4

#: cap on the safeguarded Newton steps of the secular root
_ROOT_STEPS = 100

#: float64 arrays of N by the quadrature nodes alive at once during a
#: low-rank probe: the node columns, their denominators and one temporary
_LOWRANK_COPIES = 3

#: float64 rows of N per band row alive during a banded probe: the band,
#: its negation, the general band storage of the solves and LAPACK's copies
#: (212 and 428 bytes a site traced at alpha = 2 and 5, with N = 10^5)
_BAND_COPIES = 9

#: N x N float64 arrays alive at once during a dense probe.  The eigh path
#: holds the section and LAPACK's working copy of it.  The shift-invert
#: path holds the section alone, factored in place, and a scan's smaller
#: sections reuse that one array (:class:`_ScanFactor`), which is freed
#: before any eigh.  Both assemblers allocate one array each.
_DENSE_COPIES = 2

#: factor columns moved per copy when a scan compacts a leading block
#: (:func:`_leading_factor`): 0.17 ms for N = 1000 to 500 against 0.35 ms
#: one column at a time, and 0.31 ms at 256 (2-core Xeon)
_COMPACT_COLUMNS = 64

#: cap on the Lanczos steps of a shift-invert probe; Hardy-weight sections
#: took 9 to 21 steps and alpha down to 0.005 at most 35 (N up to 2000),
#: so reaching the cap means a cluster at the bottom, and eigh takes over
_LANCZOS_STEPS = 64

#: Lanczos stops once the residual of its largest Ritz pair of the inverse
#: is below this relative to the Ritz value, a few rounding units (the
#: criterion ARPACK applies with tol = 0)
_LANCZOS_TOL = 4.0 * np.finfo(float).eps

#: absolute floor below which a bound state cannot be separated from the
#: rounding noise of a dense eigendecomposition (relative to the norm scale)
_EIG_RESOLUTION = 1e-12

#: ends of the Birman-Schwinger search, as log10(-lambda); 10^t stays finite
#: up to the upper one
_BS_LOG_FLOOR = -300.0
_BS_LOG_CEIL = math.nextafter(math.log10(np.finfo(float).max), 0.0)

#: banded solves of the inverse iteration behind each integer-power probe
_INVERSE_STEPS = 2


def probe_tol(alpha: float) -> float:
    """Non-negativity tolerance, scaled with the operator norm 4^alpha."""
    return 1e-10 * (1.0 + 4.0**alpha)


@dataclass(frozen=True)
class ProbeResult:
    alpha: float
    size: int
    potential: str
    min_eigenvalue: float
    converged: bool
    residual: float
    #: "band", "dense", "tau_lowrank" or "shift_invert"; not printed
    solver: str = "dense"
    #: rank of the low-rank correction on the tau_lowrank path, else 0
    rank: int = 0


def _probe_dense(mat: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(lam, v, mat @ v) for the smallest eigenpair of the symmetric mat, by eigh."""
    w, v = eigh(mat, subset_by_index=(0, 0))
    v = v[:, 0]
    return float(w[0]), v, mat @ v


def _band_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of the symmetric matrix in lower band storage ab with v."""
    n = v.size
    out = ab[0] * v
    for d in range(1, ab.shape[0]):
        out[d:] += ab[d, : n - d] * v[: n - d]
        out[: n - d] += ab[d, : n - d] * v[d:]
    return out


def _inverse_iteration(solve, size: int) -> np.ndarray:
    """Unit eigenvector for the eigenvalue nearest the shift of solve, x -> (H - shift)^-1 x.

    The shift lies within rounding of an eigenvalue, so every solve
    amplifies its eigenvector by about 1/eps over the rest of the spectrum,
    and _INVERSE_STEPS solves from a fixed random start suffice.
    """
    v = np.random.default_rng(0).standard_normal(size)
    for _ in range(_INVERSE_STEPS):
        v = solve(v)
        v /= linalg.norm(v, check_finite=False)
    return v


def _probe_band(ab: np.ndarray, bound: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(lam, v, B v) for the smallest eigenpair of a symmetric band matrix B with |B| <= bound.

    The eigenvalue comes from LAPACK's banded bisection without vectors
    (with vectors it forms the full N x N band-reduction transform); the
    eigenvector from inverse iteration at that eigenvalue.
    """
    w = eig_banded(ab, lower=True, eigvals_only=True, select="i", select_range=(0, 0))
    lam = float(w[0])
    width, n = ab.shape[0] - 1, ab.shape[1]
    full = np.zeros((2 * width + 1, n))  # general band storage for solve_banded
    # one rounding unit of the norm below lam: the solves stay nonsingular
    # where lam is exact (N = 1, or a spectrum known in closed form)
    full[width] = ab[0] - (lam - np.finfo(float).eps * (1.0 + bound))
    for d in range(1, width + 1):
        full[width + d, : n - d] = ab[d, : n - d]
        full[width - d, d:] = ab[d, : n - d]
    v = _inverse_iteration(lambda x: solve_banded((width, width), full, x, check_finite=False), n)
    return lam, v, _band_matvec(ab, v)


def _dst(x: np.ndarray) -> np.ndarray:
    """The orthonormal DST-I S along axis 0; S is symmetric and S @ S = I."""
    return sfft.dst(x, type=1, norm="ortho", axis=0)


def _tau_coefficients(samples: np.ndarray) -> np.ndarray:
    """b[0..2N] with tau_N(f)_{m,n} = b[|m-n|] - b[m+n], from f(theta_k), k = 1..N.

    sin(m t) sin(n t) = (cos((m-n) t) - cos((m+n) t)) / 2 turns
    tau_N(f) = S diag(f(theta_k)) S into b[j] = sum_k f(theta_k) cos(j theta_k)
    / (N+1): a DCT-I for j <= N+1, mirrored about N+1 beyond.
    """
    size = samples.size
    half = sfft.dct(np.concatenate([[0.0], samples, [0.0]]), type=1) / (2.0 * (size + 1))
    return np.concatenate([half, half[size:1:-1]])


def _sine_columns(size: int, sites) -> np.ndarray:
    """sin(k j pi/(N+1)) for k = 1..N down the rows and the integers j across.

    k j is reduced mod 2(N+1) first, so every angle is below 2 pi and each
    sine is accurate to rounding however large k j is.
    """
    turns = np.multiply.outer(np.arange(1, size + 1), np.asarray(sites, dtype=np.int64))
    return np.sin(turns % (2 * size + 2) * (math.pi / (size + 1)))


def _correction_columns(alpha: float, size: int, e: np.ndarray, tol: float):
    """(W, signs) with S E_N S = W diag(signs) W^T within tol, E_N = A_N - tau_N(f).

    E_N has entries e[|m-n|] - e[m+n], e = c - b with b from
    :func:`_tau_coefficients`.  b[j] is c[j] aliased with period P = 2N+2,
    minus an alternating f(pi) term that cancels in e[|m-n|] - e[m+n], and
    c[k] = -(sin pi alpha/pi) int_0^1 t^(k-alpha-1) (1-t)^(2 alpha) dt for
    k > alpha.  Summing the aliases under the integral gives

        E_mn = -(sin pi alpha/pi) int_0^1 t^(-alpha-1) (1-t)^(2 alpha)
               / (1 - t^P) phi_m(t) phi_n(t) dt,

    phi_m = t^(N+1-m) - t^(N+1+m), wherever (N+1-m) + (N+1-n) > alpha.
    The last L - 1 sites, L = ceil((alpha+1)/2), break that or converge
    slowly, so their rows and columns are taken from e exactly: each as
    u x^T + x u^T (x the column with the border block halved, u the unit
    vector), split into the balanced pair (u g +- x/g)/sqrt(2), g^2 = |x|,
    of signs + and -.  On the interior sites 1..N+1-L the integral runs
    over t = exp(-s), s = exp(u), by the trapezoid rule at the _NODES, and
    each node contributes one column S phi in closed form, a truncated
    Poisson kernel: with z = t e^(i theta_k),

        (S phi)_k = -(-1)^k sqrt(2/(N+1)) Im[(z^L - t^(P+1-L) e^(i(1-L) theta_k))
                                             / (1 - z)]
                  = -(-1)^k sqrt(2/(N+1)) t^L [sin(L theta_k) (1 - t^(P+2-2L))
                    - t sin((L-1) theta_k) (1 - t^(P-2L))] / |1 - z|^2,

    the node's weight and t^L combined in logarithms, so that nothing
    overflows or underflows at large alpha.  Nodes whose term is bounded below
    _NODE_DROP * tol are dropped.  All nodes share the sign of
    -sin(pi alpha), and eigh of their Gram matrix compresses them to the
    directions whose eigenvalues exceed tol.
    """
    period = 2 * size + 2
    border = min(math.ceil(0.5 * (alpha + 1.0)) - 1, size)
    inner, lead = size - border, border + 1
    nearest = round(alpha)  # sin(pi alpha) from the exact offset to the nearest integer
    sinpi = math.sin(math.pi * (alpha - nearest)) * (-1.0 if nearest % 2 else 1.0)
    columns, signs = [], []
    if inner:
        s = np.exp(_NODES)
        log_gap = np.log(-np.expm1(-s))  # ln(1 - t)
        log_weight = (math.log(_NODE_STEP * abs(sinpi) / math.pi) + _NODES + alpha * s
                      + 2.0 * alpha * log_gap - np.log(-np.expm1(-period * s)))
        # |phi|^2 <= min(1, P s)^2 t^(2L) min(N+1-L, 1/(1 - t^2))
        bound = (log_weight + 2.0 * np.log(np.minimum(1.0, period * s)) - 2.0 * lead * s
                 + np.log(np.minimum(inner, -1.0 / np.expm1(-2.0 * s))))
        keep = bound > math.log(_NODE_DROP * tol)
        s, log_gap = s[keep], log_gap[keep]
        scale = np.exp(0.5 * (log_weight[keep] + math.log(2.0 / (size + 1))) - lead * s)
        sines = _sine_columns(size, [lead, lead - 1])
        sines[1::2] *= -1.0  # -(-1)^k
        w = np.multiply.outer(sines[:, 0], -scale * np.expm1(-(period + 2 - 2 * lead) * s))
        if lead > 1:
            w -= np.multiply.outer(sines[:, 1], -scale * np.exp(-s) * np.expm1(-(period - 2 * lead) * s))
        # |1 - z|^2 = (1 - t)^2 + 4 t sin^2(theta_k/2), free of cancellation
        half_angles = np.arange(1, size + 1) * (0.5 * math.pi / (size + 1))
        denominator = np.multiply.outer(4.0 * np.sin(half_angles) ** 2, np.exp(-s))
        denominator += np.exp(2.0 * log_gap)
        w /= denominator
        del denominator  # one N x nodes array fewer while the Gram matrix is formed
        lam, vecs = linalg.eigh(w.T @ w)
        w = w @ vecs[:, lam > tol]
        columns.append(w)
        signs.append(np.full(w.shape[1], -math.copysign(1.0, sinpi)))
    if border:
        sites = np.arange(inner + 1, size + 1)
        rows = np.arange(1, size + 1)[:, None]
        x = e[abs(rows - sites)] - e[rows + sites]
        x[inner:] *= 0.5
        g = np.sqrt(np.linalg.norm(x, axis=0))
        unit = math.sqrt(2.0 / (size + 1)) * g * _sine_columns(size, sites)
        image = _dst(x) / g
        columns += [(unit + image) * math.sqrt(0.5), (unit - image) * math.sqrt(0.5)]
        signs += [np.ones(border), -np.ones(border)]
    return np.hstack(columns), np.concatenate(signs)


def _correction_estimate(e: np.ndarray, w: np.ndarray, signs: np.ndarray) -> float:
    """Halko's a-posteriori estimate of |E_N - S W diag(signs) W^T S| on seeded test columns.

    E_N X is one FFT section product of e; the model is applied through
    two sine transforms.
    """
    tests = np.random.default_rng(0).standard_normal((w.shape[0], _LOWRANK_PROBES))
    model = _dst(w @ (signs[:, None] * (w.T @ _dst(tests))))
    misfit = operators.section_product(e)(tests) - model
    return _HALKO_FACTOR * float((np.linalg.norm(misfit, axis=0) / np.linalg.norm(tests, axis=0)).max())


def _model_min_eigenpair(d, w, signs, bound) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of the diagonal-plus-low-rank H = D + W diag(signs) W^T.

    hi = min_k H_kk bounds lambda_min from above and Weyl's inequality
    gives lo below it.  The poles d_k at or below hi, and the next one, are
    lifted to that next pole t and their offsets d_k - t moved into the
    low-rank part, so that D - s stays positive and well conditioned for
    s in (lo, hi).  Haynsworth inertia additivity then counts the
    eigenvalues of H below s as #(signs < 0) - #neg(M(s)), with the secular
    matrix M(s) = diag(signs) + W^T (D - s)^-1 W.  Every eigenvalue of M
    increases with s (its derivative is W^T (D - s)^-2 W), so lambda_min is
    where the m-th smallest, m = #(signs < 0), crosses zero; a Newton step
    on that eigenvalue, safeguarded by bisection, finds it.  The search
    stops at the first Newton step shorter than the rounding margin
    4 eps (|s| + bound) that lo and hi carry, and bisects only where a
    step leaves (lo, hi): once Newton has converged its step is zero or
    lands on hi, which is no reason to bisect.  The eigenvector comes from
    Woodbury inverse iteration in the same model.
    """
    eps = np.finfo(float).eps
    weights = w**2
    lo = float(d.min() - weights[:, signs < 0.0].sum())
    lo -= 4.0 * eps * (abs(lo) + bound)
    hi = float((d + weights @ signs).min())  # a Rayleigh quotient
    hi += 4.0 * eps * (abs(hi) + bound)
    order = np.argsort(d)
    lifted = order[: np.searchsorted(d[order], hi, side="right") + 1]
    top = d[order[lifted.size]] if lifted.size < d.size else abs(hi) + bound
    offsets = np.zeros((d.size, lifted.size))
    offsets[lifted, np.arange(lifted.size)] = np.sqrt(top - d[lifted])
    d = d.copy()
    d[lifted] = top
    w = np.hstack([w, offsets])
    signs = np.concatenate([signs, -np.ones(lifted.size)])
    index = int((signs < 0.0).sum()) - 1

    def secular(s):
        g = 1.0 / (d - s)
        m = w.T @ (w * g[:, None])
        m[np.diag_indices_from(m)] += signs
        return m, g

    s = hi
    for _ in range(_ROOT_STEPS):
        m, g = secular(s)
        nu, vecs = linalg.eigh(m)
        if nu[index] < 0.0:
            lo = s
        else:
            hi = s
        slope = float((((w @ vecs[:, index]) * g) ** 2).sum())
        step = s - nu[index] / slope if slope > 0.0 else math.nan  # nan fails both tests
        # a Newton step within the rounding margin that lo and hi carry: converged
        if abs(step - s) <= 4.0 * eps * (abs(s) + bound):
            s = step
            break
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        # a bracket a few rounding units wide: the steps follow rounding noise
        done = hi - lo <= 8.0 * eps * max(abs(lo), abs(hi))
        s = step
        if done:
            break

    # inverse iteration one rounding unit of the norm below the eigenvalue;
    # each solve is (D - shift)^-1 b corrected through the Woodbury identity,
    # whose small matrix is near singular by design (so no rcond check)
    m, g = secular(s - eps * (1.0 + bound))
    lu = linalg.lu_factor(m)

    def solve(x):
        z = g * x
        return z - g * (w @ linalg.lu_solve(lu, w.T @ z))

    return float(s), _inverse_iteration(solve, d.size)


def _section_matvec(
    alpha: float, coeffs: np.ndarray, values: np.ndarray, reflected: bool, v: np.ndarray
) -> np.ndarray:
    """(B - V) v through the FFT section product, with no N x N array.

    B is the section of A(alpha) with coefficients coeffs, or the reflected
    4^alpha - A(alpha).
    """
    bv = operators.section_product(coeffs)(v)
    return (4.0**alpha * v - bv if reflected else bv) - values * v


def _probe_tau_lowrank(
    alpha: float, size: int, values: np.ndarray, reflected: bool, bound: float
) -> tuple[float, np.ndarray, np.ndarray, int] | None:
    """Smallest eigenpair of a non-integer section minus a finitely supported V, or None.

    The section A_N is tau_N(f) + E_N: tau_N(f) = S diag(f(theta_k)) S with
    S the DST-I, theta_k = k pi/(N+1) and f = (4 sin^2(theta/2))^alpha (the
    tau algebra of Bini and Capovani), and E_N a quadrature of one Beta
    integral plus the exact rows of the last sites
    (:func:`_correction_columns`), of rank 12 to 40 (measured for N from 50
    to 16 000 and alpha up to 40.5).  In the DST basis the section minus V
    becomes D + W diag(signs) W^T, with W the correction's columns and
    sqrt(V_s) S e_s.  The correction is accepted
    when Halko's estimate on _LOWRANK_PROBES seeded columns
    (:func:`_correction_estimate`) is within _LOWRANK_ACCEPT * tol,
    tol = _LOWRANK_TOL * 4^alpha: the rounding of the FFT product alone
    puts that estimate at 1e-15 to 5e-15 times 4^alpha, so a bound of tol
    itself would never be met.  Otherwise None, and the caller solves the
    section dense; None also where the model leaves float64, as it does at
    couplings next to the largest float.  A secular root of the model is
    the shift of Woodbury inverse iteration in it, which gives the
    eigenvector v.  (B - V) v is taken through the true section, and the
    eigenvalue is the Rayleigh quotient v.(B - V) v, as on the
    shift-invert path: the model's truncation and the root's stopping
    rule, each a few rounding units of 4^alpha + max V, enter it only to
    second order, and show in the residual.  The reflected section is
    tau_N(4^alpha - f) - E_N.  Returns lam, v, (B - V) v and the
    correction's rank.
    """
    if bound * np.finfo(float).tiny >= 1.0:  # (D - s)^-1, s near -bound, would be subnormal
        return None
    scale = 4.0**alpha
    tol = _LOWRANK_TOL * scale
    coeffs = operators.section_coefficients(alpha, size)
    theta = np.arange(1, size + 1) * (math.pi / (size + 1))
    f = (2.0 * np.sin(0.5 * theta)) ** (2.0 * alpha)
    e = coeffs - _tau_coefficients(f)
    correction, signs = _correction_columns(alpha, size, e, tol)
    if not _correction_estimate(e, correction, signs) <= _LOWRANK_ACCEPT * tol:  # nan fails too
        return None
    rank = signs.size
    sites = np.flatnonzero(values)
    spikes = math.sqrt(2.0 / (size + 1)) * np.sqrt(values[sites]) * _sine_columns(size, sites + 1)
    w = np.hstack([correction, spikes])
    signs = np.concatenate([signs, -np.ones(sites.size)])
    d = f
    if reflected:
        d, signs[:rank] = scale - f, -signs[:rank]
    with np.errstate(over="raise", invalid="raise"):
        try:
            v = _dst(_model_min_eigenpair(d, w, signs, bound)[1])
        except FloatingPointError:  # a solve of the near-singular secular matrix overflowed
            return None
    bv = _section_matvec(alpha, coeffs, values, reflected, v)
    return float(v @ bv), v, bv, rank


def _dense_section(alpha: float, size: int, values: np.ndarray, reflected: bool) -> np.ndarray:
    """The size x size section of B - V as one fresh N x N array."""
    assemble = operators.assemble_reflected if reflected else operators.assemble
    mat = assemble(alpha, size)
    mat[np.diag_indices(size)] -= values
    return mat


def _cholesky_factor(mat: np.ndarray, shift: float) -> np.ndarray | None:
    """Upper Cholesky factor U of mat + shift*I = U^T U in mat's own memory, or None.

    mat.T is Fortran-ordered, so LAPACK overwrites mat, makes no copy and
    returns mat.T.  A failed factorization means an eigenvalue below
    -shift, and gives None: its partial factor is never read.
    """
    mat[np.diag_indices(mat.shape[0])] += shift
    try:
        return linalg.cho_factor(mat.T, overwrite_a=True, check_finite=False)[0]
    except linalg.LinAlgError:
        return None


def _leading_factor(factor: np.ndarray, size: int) -> np.ndarray:
    """The leading size x size block of the Fortran-ordered factor, compacted in place.

    Column j moves from offset j*N to j*size of the same memory, in
    ascending j, so no column is overwritten before it has moved and no
    second N x N array is formed.  The columns move _COMPACT_COLUMNS at a
    time; numpy buffers a copy whose source and target overlap, so that
    buffer holds at most that many columns.  The block stays
    Fortran-contiguous.
    """
    columns = factor.T  # C-contiguous: row j is column j of the factor
    block = columns.reshape(-1)[: size * size].reshape(size, size)
    for j in range(0, size, _COMPACT_COLUMNS):
        end = min(j + _COMPACT_COLUMNS, size)
        block[j:end] = columns[j:end, :size]
    return block.T


def _cholesky_inverse(factor: np.ndarray):
    """q -> (U^T U)^-1 q for the Fortran-ordered upper Cholesky factor U.

    The inverse is two level-2 BLAS triangular solves, U^T y = q and then
    U x = y (dtrsv).  cho_solve's dpotrs takes the level-3 dtrsm path for
    one right-hand side and costs two to three times as much at N = 1000
    (one OpenBLAS thread).  The factor must stay Fortran-contiguous: f2py
    would otherwise copy all N x N of it on every solve.
    """
    trsv = linalg.get_blas_funcs("trsv", (factor,))
    return lambda q: trsv(factor, trsv(factor, q, trans=1), overwrite_x=1)


class _ScanFactor:
    """Cholesky factors of B - V + probe_tol(alpha)*I for a scan's sections, largest first.

    Entries c[|m-n|] - c[m+n] and V_n do not depend on N, so every section
    is the leading principal block of each larger one, and its Cholesky
    factor the leading block of theirs.  The largest shift-invert section
    is factored once, in place; each smaller one compacts the leading
    block of the same memory (:func:`_leading_factor`), so one N x N array
    serves the whole scan.  Where no factor is held, or a smaller one, the
    section is assembled and factored afresh: after a failed factorization
    the next section factors its own, as a single probe does.
    """

    def __init__(self):
        self._factor = None

    def inverse(self, alpha: float, size: int, values: np.ndarray, reflected: bool):
        """q -> (B - V + probe_tol(alpha)*I)^-1 q on the size x size section, or None.

        None where that matrix is not positive definite.
        """
        if self._factor is not None and self._factor.shape[0] >= size:
            self._factor = _leading_factor(self._factor, size)
        else:
            self._factor = None  # freed before the next section is assembled
            self._factor = _cholesky_factor(_dense_section(alpha, size, values, reflected), probe_tol(alpha))
        return None if self._factor is None else _cholesky_inverse(self._factor)

    def release(self) -> None:
        """Frees the held factor, before an eigh that needs the memory of two sections."""
        self._factor = None


def _shift_invert_vector(solve, size: int) -> np.ndarray | None:
    """Unit vector for the smallest eigenvalue of a size x size section M, or None.

    solve is q -> (M + shift*I)^-1 q, M + shift*I positive definite
    (:meth:`_ScanFactor.inverse`).  Lanczos with full reorthogonalization
    runs on that inverse, one pair of triangular solves a step, from a
    fixed start.  The smallest eigenvalue of M is the largest of the
    inverse, and the spectral transformation sets it apart from the rest
    (Ericsson and Ruhe, Math. Comp. 35, 1980).  Each step's convergence
    test is LAPACK's stevd on the tridiagonal matrix so far, bound once
    and fed slices of two preallocated arrays: the driver
    eigh_tridiagonal calls for the full spectrum, without its per-call
    checks.  None when no Ritz pair converges within _LANCZOS_STEPS.
    """
    basis = np.empty((_LANCZOS_STEPS, size))
    diag, offdiag = np.zeros(_LANCZOS_STEPS), np.zeros(_LANCZOS_STEPS)
    stevd = linalg.get_lapack_funcs("stevd", (diag,))
    q = np.random.default_rng(0).standard_normal(size)
    q /= np.linalg.norm(q)
    for step in range(_LANCZOS_STEPS):
        basis[step] = q
        krylov = basis[: step + 1]
        w = solve(q)
        diag[step] = q @ w
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthonormal
            w -= krylov.T @ (krylov @ w)
        beta = float(np.linalg.norm(w))
        theta, s, info = stevd(diag[: step + 1], offdiag[: max(step, 1)])  # e needs length >= 1
        if info:
            return None
        if beta * abs(s[-1, -1]) <= _LANCZOS_TOL * theta[-1]:
            v = krylov.T @ s[:, -1]
            return v / np.linalg.norm(v)
        offdiag[step] = beta
        q = w / beta
    return None


def _probe_shift_invert(
    alpha: float, size: int, values: np.ndarray, reflected: bool, factors: _ScanFactor
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """(lam, v, (B - V) v) for a section of B - V by Cholesky shift-invert Lanczos, or None.

    The shift is probe_tol(alpha), so the factorization succeeds exactly
    when the section passes the non-negativity test, up to its backward
    error; factors supplies it, shared along a scan.  The eigenvalue is
    the Rayleigh quotient of the Lanczos vector against the true section
    through the FFT product, so one N x N array is alive at a time.  None
    where the factorization fails or Lanczos does not converge.
    """
    solve = factors.inverse(alpha, size, values, reflected)
    v = None if solve is None else _shift_invert_vector(solve, size)
    if v is None:
        return None
    bv = _section_matvec(alpha, operators.section_coefficients(alpha, size), values, reflected, v)
    return float(v @ bv), v, bv


def _section_probe(
    alpha: float,
    size: int,
    pot: green.Potential,
    descriptor: str,
    reflected: bool = False,
    factors: _ScanFactor | None = None,
) -> ProbeResult:
    """Smallest eigenpair of the size x size section of B - V.

    B is A(alpha), or the reflected 4^alpha - A(alpha).  The solver follows
    the section's structure:

    * banded (integer) powers are assembled and solved in band storage
      and never densified;
    * other powers go to :func:`_probe_tau_lowrank` from size
      TAU_LOWRANK_MIN_SIZE with a potential on at most
      _LOWRANK_MAX_SUPPORT sites, and to :func:`_probe_shift_invert` from
      size SHIFT_INVERT_MIN_SIZE with more (power Hardy weights, power
      potentials), its Cholesky factor taken from factors, which a scan
      shares between its sections (:class:`_ScanFactor`);
    * smaller sections, and those where either path gives up, are solved
      dense by eigh, after factors has freed any factor it holds.

    Each path's working set is checked against physical memory before it
    is formed, the potential's values included.  Each path returns lam, v
    and (B - V) v, and the residual |(B - V) v - lam v| converges within
    1e-8 of 4^alpha + max V, a bound on |B - V| on every path since
    0 <= A_N <= 4^alpha, plain or reflected, and V >= 0.
    """
    banded = operators.is_banded(alpha)
    lowrank = not banded and size >= TAU_LOWRANK_MIN_SIZE
    if banded:
        operators.check_memory(
            _BAND_COPIES * 8 * size * (int(alpha) + 1), f"a banded {size}-site section"
        )
    elif lowrank:  # the cheaper of its two paths
        operators.check_memory(
            _LOWRANK_COPIES * 8 * size * _NODES.size, f"a low-rank probe of a {size}-site section"
        )
    values = pot.values(size)
    with np.errstate(over="ignore"):
        bound = float(np.power(4.0, alpha) + values.max(initial=0.0))
    if not math.isfinite(bound):  # an inf V_n, or 4^alpha beyond float64
        raise ValueError(f"4^alpha + max V_n overflows float64 (alpha={alpha!r}, {pot.describe()})")
    sparse = np.count_nonzero(values) <= _LOWRANK_MAX_SUPPORT
    rank = 0
    if banded:
        ab = operators.assemble_band(alpha, size)
        if reflected:
            ab = -ab
            ab[0] += 4.0**alpha
        ab[0] -= values
        solver, (lam, v, bv) = "band", _probe_band(ab, bound)
    elif lowrank and sparse and (solved := _probe_tau_lowrank(alpha, size, values, reflected, bound)):
        solver = "tau_lowrank"
        lam, v, bv, rank = solved
    else:
        operators.check_memory(_DENSE_COPIES * 8 * size * size, f"a dense {size} x {size} section")
        factors = _ScanFactor() if factors is None else factors
        shift_invert = not sparse and size >= SHIFT_INVERT_MIN_SIZE
        solved = _probe_shift_invert(alpha, size, values, reflected, factors) if shift_invert else None
        if solved is None:
            factors.release()
        solver = "dense" if solved is None else "shift_invert"
        lam, v, bv = solved or _probe_dense(_dense_section(alpha, size, values, reflected))
    with np.errstate(over="ignore"):  # a residual beyond float64 is inf: not converged
        residual = linalg.norm(bv - lam * v, check_finite=False)
    converged = residual <= 1e-8 * bound
    return ProbeResult(alpha, size, descriptor, lam, converged, residual, solver, rank)


def min_eig(alpha: float, size: int, pot: green.Potential) -> ProbeResult:
    """Smallest eigenvalue of the size x size section of A(alpha) - V."""
    operators.check_positive_power(alpha)
    operators.check_count(size, "size")
    return _section_probe(alpha, size, pot, pot.describe())


# ---------------------------------------------------------------------------
# Birman-Schwinger scalar certificate


def _green_diag(alpha: float, site: int, lam: float) -> float:
    """Resolvent diagonal with relative tolerance; perfbench counts root evaluations here."""
    return green.green_entry(alpha, site, site, lam, tol=1e-13, rel=1e-10)


def solve_bs_lambda(alpha: float, site: int, c: float) -> float | None:
    """Bound state of A(alpha) - c*delta_site from the scalar equation.

    A rank-one coupling has the eigenvalue lam < 0 exactly when
    c * G_{site,site}(lam) = 1.  The search runs in log10(-lam) down to
    1e-300; returns None when no solution exists in that range (the
    perturbed operator stays non-negative, or the eigenvalue underflows).
    It widens up to the largest float, and a root beyond it raises
    ValueError.
    """
    from scipy.optimize import brentq

    operators.check_positive_power(alpha)
    operators.check_count(site, "site")
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"coupling c={c!r} must be finite and > 0")

    @cache  # brentq evaluates the bracket ends again
    def f(t):
        return c * _green_diag(alpha, site, -(10.0**t)) - 1.0

    hi = math.log10(4.0**alpha)  # -|lam| comparable to the norm: G is tiny there
    if f(_BS_LOG_FLOOR) <= 0.0:
        return None
    while f(hi) >= 0.0:  # eigenvalue below -4^alpha: widen until bracketed
        if hi == _BS_LOG_CEIL:
            raise ValueError(f"the bound state of coupling c={c!r} lies beyond float64")
        hi = min(hi + 2.0, _BS_LOG_CEIL)
    t = brentq(f, _BS_LOG_FLOOR, hi, xtol=1e-8)
    return -(10.0**t)


# ---------------------------------------------------------------------------
# scan tables


@dataclass(frozen=True)
class ScanRecord:
    alpha: float
    potential: str
    schedule: tuple[ProbeResult, ...]
    verdict: str
    bs_lambda: float | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "potential": self.potential,
            "schedule": [
                {"N": r.size, "min_eig": r.min_eigenvalue, "residual": r.residual}
                for r in self.schedule
            ],
            "verdict": self.verdict,
            "bs_lambda": self.bs_lambda,
            **self.extra,
        }


def criticality_scan(
    alpha: float,
    site: int,
    couplings,
    schedule=DEFAULT_SCHEDULE,
) -> list[ScanRecord]:
    """Dichotomy probe: sections of A(alpha) - c*delta_site per coupling.

    The verdict reads two certified facts.  A rank-one coupling has a bound state exactly where the scalar
    Birman-Schwinger equation c G(lambda) = 1 has a root: "negative" when
    it does, or "negative_beyond_resolution" when the root's magnitude is
    below eigensolver resolution (for alpha >= 3/2 with small c it can be
    as small as exp(-1/c)).  With no root down to 1e-300, "nonnegative"
    when every section's smallest eigenvalue, an upper bound on the bottom
    of the spectrum by Cauchy interlacing, is at least -probe_tol(alpha),
    else "inconclusive".
    """
    records = []
    resolution = _EIG_RESOLUTION * (1.0 + 4.0**alpha)
    for c in couplings:
        pot = green.Potential.delta(site, c)
        rec = _witness(alpha, pot, pot.describe(), schedule)
        bs_lam = solve_bs_lambda(alpha, site, c)
        if bs_lam is not None:
            verdict = "negative" if abs(bs_lam) > resolution else "negative_beyond_resolution"
        else:
            verdict = "nonnegative" if rec.verdict == "nonnegative" else "inconclusive"
        records.append(replace(rec, verdict=verdict, bs_lambda=bs_lam))
    return records


def _witness(alpha: float, pot, descriptor: str, schedule, reflected=False, **extra) -> ScanRecord:
    """Sections of B - V along a non-empty schedule, with min_eig's checks of alpha and sizes.

    Each distinct size is probed once, largest first, so that the smaller
    shift-invert sections reuse the largest one's Cholesky factor
    (:class:`_ScanFactor`); the records keep the schedule's order and
    repeats.  The verdict is "nonnegative" when every section's smallest
    eigenvalue is at least -probe_tol(alpha), else "negative"; extra goes
    into the record as it is.
    """
    operators.check_positive_power(alpha)
    if len(schedule) == 0:
        raise ValueError("the schedule needs at least one section size")
    for n in schedule:
        operators.check_count(n, "size")
    factors = _ScanFactor()
    probed = {
        n: _section_probe(alpha, n, pot, descriptor, reflected, factors)
        for n in sorted(set(schedule), reverse=True)
    }
    results = tuple(probed[n] for n in schedule)
    tol = probe_tol(alpha)
    verdict = "nonnegative" if all(r.min_eigenvalue >= -tol for r in results) else "negative"
    return ScanRecord(alpha, descriptor, results, verdict, extra=extra)


def hardy_witness(alpha: float, epsilon: float, schedule=DEFAULT_SCHEDULE) -> ScanRecord:
    """Sections of A(alpha) minus the explicit power Hardy weight."""
    pot = green.power_hardy_weight(alpha, epsilon)
    return _witness(alpha, pot, pot.describe(), schedule)


def reflected_witness(
    alpha: float, c: float, site: int, schedule=DEFAULT_SCHEDULE
) -> ScanRecord:
    """Sections of the reflected operator 4^alpha - A(alpha) minus c*delta_site.

    Also reports the single-site coupling threshold 1/(C * site^2) from the
    reflected uniform resolvent bound; couplings below it keep the
    perturbed operator non-negative for every alpha > 0.
    """
    pot = green.Potential.delta(site, c)  # validates site and coupling
    threshold = 1.0 / (green.reflected_bound_const(alpha) * site**2)
    descriptor = f"reflected_delta(site={site}, coeff={c:.17g})"
    return _witness(alpha, pot, descriptor, schedule, reflected=True, coupling_threshold=threshold)


def kpp_witness(schedule=DEFAULT_SCHEDULE) -> ScanRecord:
    """Sections of the Laplacian minus the improved square-root weight.

    Also checks the entrywise domination over the classical weight up to
    n = 10^6 and the asymptotic ratio on n in {10^3, 10^4, 10^5}; the
    verdict is "negative" without the domination.  n^2 V_n falls to 1/4
    (green._kpp_values), so the margin is smallest at n = 10^6, 5/(16 n^2)
    ~ 3e-13 relative, far above the few-ulp error of either weight there:
    one strict comparison at 10^6 certifies every n up to it.
    """
    pot = green.Potential.kpp()
    hardy = green.Potential.classical_hardy()
    n = np.array([10**3, 10**4, 10**5, 10**6], dtype=float)
    kpp, classical = pot.at(n), hardy.at(n)
    dominates = bool(kpp[-1] > classical[-1])
    ratios = (kpp[:-1] / classical[:-1]).tolist()
    extra = {"dominates_classical": dominates, "ratio_to_classical": ratios}
    rec = _witness(1.0, pot, pot.describe(), schedule, **extra)
    return rec if dominates else replace(rec, verdict="negative")
