"""Square of the discrete Laplacian with a single-site attractive coupling.

The resolvent of the squared operator factorizes through the pair of
Joukowski parameters solving z + 1/z = 2 -/+ sqrt(lam), |z| < 1, which
gives a closed-form Green kernel.  A rank-one perturbation -c at one site
then produces exactly one negative eigenvalue per coupling, available in
closed form for site 1 and by a one-dimensional root find in general.
"""

from __future__ import annotations

import cmath
import math

from . import operators, quadrature

#: the essential spectrum of the squared operator
SPECTRUM_TOP = 16.0


def _big_root(w: complex, w_minus_2: complex) -> tuple[complex, complex]:
    """Root z of z^2 - w z + 1 = 0 with |z| > 1, returned as (z, z - 1).

    z - 1 = ((w - 2) + disc)/2 is free of cancellation precisely when z is
    close to 1 (there |w - 2| << |disc|), which is where it is needed.
    Passing w - 2 exactly keeps the discriminant (w-2)(w+2) accurate when
    w is within rounding distance of 2.
    """
    disc = cmath.sqrt(w_minus_2 * (w + 2.0))
    if (w.conjugate() * disc).real < 0.0:
        disc = -disc
    return 0.5 * (w + disc), 0.5 * (w_minus_2 + disc)


def _pair_with_gaps(lam) -> tuple[complex, complex, complex, complex]:
    """(xi, eta, 1 - xi, 1 - eta) for a spectral point lam off [0, 16].

    The gaps 1 - xi and 1 - eta are computed to full relative accuracy
    even when both parameters crowd the point z = 1 (lam -> 0).
    """
    if not cmath.isfinite(lam):
        raise ValueError(f"lam={lam} must be finite")
    lam = complex(lam)
    if lam.imag == 0.0 and 0.0 <= lam.real <= SPECTRUM_TOP:
        raise ValueError(f"lam={lam.real} lies in the essential spectrum [0, 16]")
    root = cmath.sqrt(lam)
    z_xi, d_xi = _big_root(2.0 - root, -root)
    z_eta, d_eta = _big_root(2.0 + root, root)
    # 1 - 1/z = (z - 1)/z
    return 1.0 / z_xi, 1.0 / z_eta, d_xi / z_xi, d_eta / z_eta


def _kernel_factor(z: complex, p: int, d: int, gap: complex) -> complex:
    """f(z) = (z^p - z^d) / (z - 1/z), given the accurate gap 1 - z.

    When the gap is small, numerator and denominator are both rewritten
    around z = 1 so that neither suffers the z^p - z^d cancellation:
    z^(p-d) - 1 = expm1(u), u = (p-d) log1p(-gap), by log1p(-gap) =
    2 atanh(-gap/(2-gap)) and expm1(u) = 2t/(1-t), t = tanh(u/2), where
    Re u < 0 (|z| < 1), so 1 - t does not cancel.
    """
    if abs(gap) < 1e-2:
        t = cmath.tanh((p - d) * cmath.atanh(-gap / (2.0 - gap)))
        num = (1.0 - gap) ** d * (2.0 * t / (1.0 - t))
        den = -gap * (2.0 - gap) / (1.0 - gap)
        return num / den
    return (z**p - z**d) / (z - 1.0 / z)


def _kernel_factor_deriv(z: complex, p: int, d: int) -> complex:
    """f'(z); the direct formula cancels catastrophically near z = 1, so a
    Taylor expansion in u = z - 1 takes over there."""
    u = z - 1.0
    if abs(u) < 1e-4:

        def _coeffs(k: float) -> tuple[float, float, float]:
            return (
                k * k / 4.0,
                k**3 / 6.0 - k * k / 4.0 - k / 6.0,
                k**4 / 16.0 - k**3 / 4.0 + k * k / 8.0 + k / 4.0,
            )

        cp, cd = _coeffs(float(p)), _coeffs(float(d))
        return (cp[0] - cd[0]) + u * ((cp[1] - cd[1]) + u * (cp[2] - cd[2]))
    denom = z - 1.0 / z
    num = (p * z ** (p - 1) - d * z ** (d - 1)) * denom - (z**p - z**d) * (1.0 + z**-2)
    return num / denom**2


def green_entry(m: int, n: int, lam):
    """Resolvent entry of the squared operator, (A^2 - lam)^(-1)_{m,n}.

    Closed form: with f(z) = (z^(m+n) - z^|m-n|)/(z - 1/z),

        G = xi*eta / ((1 - xi*eta)(xi - eta)) * (f(xi) - f(eta)),

    taking the confluent (derivative) limit when the two parameters
    coincide.  Returns a float for real lam, complex otherwise.
    """
    if m < 1 or n < 1:
        raise ValueError("indices are 1-based: m, n >= 1")
    if m % 1 or n % 1:
        raise ValueError("indices must be integers")
    is_real = not isinstance(lam, complex)
    xi, eta, gap_xi, gap_eta = _pair_with_gaps(lam)
    p, d = m + n, abs(m - n)
    # 1 - xi*eta and xi - eta rebuilt from the gaps: exact algebra, no
    # cancellation when both parameters crowd z = 1
    prefactor = xi * eta / (gap_xi + gap_eta - gap_xi * gap_eta)
    diff = gap_eta - gap_xi  # xi - eta
    if abs(xi) + abs(eta) < 0.5:
        # both parameters near 0 (|lam| >> 16): the gaps are about 1 and their difference
        # loses every digit, so xi - eta itself, divided first: prefactor times the bare
        # difference, about |lam|^(-3/2), underflows from |lam| ~ 1e200 on
        divided = (_kernel_factor(xi, p, d, gap_xi) - _kernel_factor(eta, p, d, gap_eta)) / (xi - eta)
        val = prefactor * divided
    elif abs(diff) < 2e-6 * max(abs(xi), abs(eta)):
        # confluent limit: the divided difference becomes f'(midpoint)
        gap_mid = 0.5 * (gap_xi + gap_eta)
        val = prefactor * _kernel_factor_deriv(1.0 - gap_mid, p, d)
    else:
        val = (
            prefactor
            * (_kernel_factor(xi, p, d, gap_xi) - _kernel_factor(eta, p, d, gap_eta))
            / diff
        )
    return float(val.real) if is_real else val


def _coupling_inverse(s: float, r2: float, site: int) -> float:
    """1/c as a function of s = 1 - r^2 along the bound-state curve, given s and r^2.

    Equals ((1-s)/s) * sum_{j=0}^{site-1} (1-s)^j U_{2j}(2 sqrt(1-s)/(2-s)),
    strictly decreasing from +inf (s -> 0) to 0 (s -> 1).  The Chebyshev
    argument is cos(theta) with sin(theta) = s/(2-s), since (2-s)^2 - 4(1-s)
    = s^2, so theta = atan2(s, 2 sqrt(1-s)) needs no arccos of a rounded
    cosine, and U_{2j} = sin((2j+1) theta)/sin(theta) keeps its relative
    accuracy as s -> 0.  r^2 is passed as well, so that it keeps its own
    relative accuracy as s -> 1.
    """
    theta = math.atan2(s, 2.0 * math.sqrt(r2))
    sin_theta = math.sin(theta)
    acc, w = 0.0, 1.0
    for j in range(site):
        acc += w * (math.sin((2 * j + 1) * theta) / sin_theta)
        w *= r2
    return r2 / s * acc


def _check_coupling(c: float) -> None:
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"coupling c must be finite and > 0, got {c!r}")


def lambda_site1_closed(c: float) -> float:
    """Bound state for a coupling at site 1: -c^4 / ((c+1)(c+2)^2).

    Where c^4 overflows (c > 1.2e77) it is read as -c (c/(c+1)) (c/(c+2))^2.
    """
    _check_coupling(c)
    try:
        return -(c**4) / ((c + 1.0) * (c + 2.0) ** 2)
    except OverflowError:
        return -c * (c / (c + 1.0)) * (c / (c + 2.0)) ** 2


def lambda_bound_state(site: int, c: float) -> float:
    """The unique negative eigenvalue of A^2 - c*delta_site.

    Root-finds the bound-state condition, decreasing in s = 1 - r^2, on the
    half of (0, 1) that one sign test at s = 1/2 picks: in s on (0, 1/2], so
    relative accuracy in s carries over to the eigenvalue -s^4/((1-s)(2-s)^2)
    even when it underflows the scale of c, and otherwise (large c) in
    u = 1 - s on (0, 1/2), so relative accuracy in u carries over to
    lam = -s^4/(u(1+u)^2) ~ -1/u.  On either half 1 - s or 1 - u is at least
    1/2, so forming it loses nothing.
    """
    operators.check_count(site, "site")
    _check_coupling(c)
    rtol = 4.0 * math.ulp(1.0) * (1.0 + 1e-14)

    def f(s):
        return c * _coupling_inverse(s, 1.0 - s, site) - 1.0

    f_half = f(0.5)  # = f_u(1/2)
    if f_half > 0.0:

        def f_u(u):
            return c * _coupling_inverse(1.0 - u, u, site) - 1.0

        tiny = math.ulp(0.0)
        u = quadrature.brent_root(f_u, tiny, 0.5, f_u(tiny), f_half, xtol=tiny, rtol=rtol, maxiter=1200)
        return -((1.0 - u) ** 4) / (u * (1.0 + u) ** 2)
    f_floor = f(1e-300)
    if f_floor <= 0.0:  # s < 1e-300: lambda ~ -s^4/4 underflows, as in the closed form
        return -0.0
    # reaching s ~ 1e-300 from a bracket of width 1/2 takes ~1000 bisections
    s = quadrature.brent_root(f, 1e-300, 0.5, f_floor, f_half, xtol=1e-300, rtol=rtol, maxiter=1200)
    return -(s**4) / ((1.0 - s) * (2.0 - s) ** 2)


def lambda_asymptotic(site: int, c: float, regime: str) -> float:
    """Leading asymptotics of the bound state in the coupling.

    regime "small_c": -(n^8 c^4 / 4)(1 - (2n(4n^2-1)/3) c), n = site;
    regime "large_c": -c + 6 for site >= 2, -c + 5 for site 1.
    """
    operators.check_count(site, "site")
    _check_coupling(c)
    if regime == "small_c":
        n = float(site)
        return -(n**8) * c**4 / 4.0 * (1.0 - 2.0 * n * (4.0 * n * n - 1.0) / 3.0 * c)
    if regime == "large_c":
        return -c + (5.0 if site == 1 else 6.0)
    raise ValueError(f"unknown regime {regime!r}; expected 'small_c' or 'large_c'")
