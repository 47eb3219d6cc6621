"""Independent reference formulas used only by the tests.

The PPP characteristic function for a zero lane offset has a closed form
in the generalized exponential integral; the tests compare the package's
quadrature route and its Levy closed form against it.  The tail integral
behind every mean is checked against 30-digit quadrature.  Both need
mpmath, which the package itself does not depend on.  The lattice CF is
checked against a direct site product averaged over the translation.
"""

import mpmath
import numpy as np
from scipy import special as sp

from radar_sg.interference import CfSpec, RegimeError


def expint_gen(n_order: float, z: complex) -> complex:
    """Generalized exponential integral int_1^inf e^(z t) / t^n dt.

    Sign convention: the exponent carries +z*t, so this equals the
    standard E_n(-z).  The integral diverges for Re(z) > 0, and for
    purely imaginary z it converges (conditionally) only when n > 1.
    """
    z = complex(z)
    if z.real > 0:
        raise ValueError(f"expint_gen diverges for Re(z) > 0, got z={z}")
    if z.real == 0 and z.imag != 0 and n_order <= 1:
        raise ValueError("expint_gen on the imaginary axis requires order > 1")
    return complex(mpmath.expint(n_order, -z))


def cf_ppp_ln0(spec: CfSpec, omega):
    """Closed-form PPP CF for zero lane offset (guard distance kept)."""
    for lane in spec.lanes:
        if lane.offset != 0.0:
            raise RegimeError("cf_ppp_ln0 requires a zero lane offset")
    om = np.asarray(omega, dtype=float)
    scalar = om.ndim == 0
    om1 = np.atleast_1d(om)
    alpha = spec.alpha
    b = spec.point_scale
    out = np.empty(om1.shape, dtype=complex)
    for i, w_ in enumerate(om1):
        if w_ == 0.0:
            out[i] = 1.0
            continue
        wa = abs(float(w_))
        expo = 0.0 + 0.0j
        for lane in spec.lanes:
            d0 = lane.delta_o
            bracket = sp.gamma(1.0 - 1.0 / alpha) * (-1j * b * wa) ** (1.0 / alpha)
            if d0 > 0.0:
                bracket += (d0 / alpha) * expint_gen(
                    1.0 + 1.0 / alpha, 1j * b * d0 ** (-alpha) * wa) - d0
            expo += lane.lambda_i * bracket
        val = np.exp(-expo)
        out[i] = val if w_ > 0 else np.conj(val)
    return complex(out[0]) if scalar else out


def tail_integral_mp(lower: float, alpha: float, offset: float) -> float:
    """int_lower^inf (v^2 + L^2)^(-alpha/2) dv by 30-digit quadrature.

    For lower > 0 the substitution v = lower/t maps it onto (0, 1], where
    the integrand lower^(1-alpha) t^(alpha-2) (1 + (L t/lower)^2)^(-alpha/2)
    is smooth whatever lower/L is.
    """
    with mpmath.workdps(30):
        a, lo, ln = mpmath.mpf(alpha), mpmath.mpf(lower), mpmath.mpf(offset)
        if lo == 0:
            return float(mpmath.quad(lambda v: (v * v + ln * ln) ** (-a / 2),
                                     [0, ln, 10 * ln, 100 * ln, mpmath.inf]))
        return float(lo ** (1 - a) * mpmath.quad(
            lambda t: t ** (a - 2) * (1 + (ln * t / lo) ** 2) ** (-a / 2), [0, 1]))


def cf_bl_brute(spec: CfSpec, omega: float, theta_cut: float = 1e-3,
                panels: int = 128) -> complex:
    """Lattice CF E_u[prod_m (1 - xi + xi e^(j w a_m(u)))] by direct product.

    Site m of a lane sits at d_o + (m + u) * spacing, with received power
    a_m(u) = b * ((d_o + (m + u) * spacing)^2 + L^2)^(-1) at alpha = 2.
    The translation average is composite 8-node Gauss-Legendre on a fixed
    uniform partition of [0, 1].  The sites are multiplied directly until
    the phase w * a_m falls below theta_cut (at least 1000 sites); the rest
    enter through the first two cumulants of the Bernoulli factor.  Their
    first power sum is exact, Im psi(x + jy) / y with the complex digamma;
    the second, about xi (1 - xi) theta_cut^2 M / 6 in size, is the
    midpoint-rule integral.  Alpha = 2 only.

    On the default lattice scenario the defaults agree with theta_cut =
    2.5e-5 on 512 panels to 2e-8 relative up to w = 5e6, where |phi| is
    about 1e-12.
    """
    if spec.alpha != 2.0:
        raise RegimeError("cf_bl_brute covers alpha = 2 only")
    t, wt = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    u = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * t).ravel()
    w = (half * wt).ravel()
    b, wabs = spec.point_scale, abs(float(omega))
    logprod = np.zeros(u.shape, dtype=complex)
    for lane in spec.lanes:
        xi, delta = lane.duty_cycle, lane.spacing
        c, y = lane.delta_o / delta, lane.offset / delta
        sites = max(1000, int(np.ceil(np.sqrt(wabs * b / theta_cut) / delta)))
        for start in range(0, sites, 2048):
            m = np.arange(start, min(start + 2048, sites))
            theta = wabs * b / ((lane.delta_o + (m[None, :] + u[:, None]) * delta) ** 2
                                + lane.offset ** 2)
            logprod += np.log(np.prod((1.0 - xi) + xi * np.exp(1j * theta), axis=1))
        x = sites + u + c
        k = wabs * b / delta ** 2      # theta_m = k / ((m + u + c)^2 + y^2)
        s1 = sp.psi(x + 1j * y).imag / y
        # int_{x - 1/2}^inf dt / (t^2 + y^2)^2; the difference carries a
        # relative error of about 1e-16 (x / y)^2, on a term below 1e-3
        z = x - 0.5
        s2 = (np.arctan2(y, z) / y - z / (z * z + y * y)) / (2.0 * y * y)
        logprod += 1j * xi * k * s1 - 0.5 * xi * (1.0 - xi) * k * k * s2
    val = complex(w @ np.exp(logprod))
    return val if omega >= 0 else val.conjugate()
