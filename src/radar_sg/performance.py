"""Ranging success probability, spatial throughput, and duty-cycle tuning.

Everything here is closed-form or a scalar root-find; the only numerics
are the quadrature fallback for the expected optimal duty cycle at small
neighbor index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize
from scipy import special as sp

from . import specfun
from .model import DerivedConstants, Lane, MediumAccess


@dataclass(frozen=True)
class OptimizationResult:
    """Spatial-throughput maximizer for one (range, density) point."""

    lambda_i_star: float  # per meter
    xi_star: float
    beta_star: float      # per meter
    clamped: bool

    def __post_init__(self) -> None:
        if not 0.0 < self.xi_star <= 1.0:
            raise ValueError(f"xi_star must be in (0, 1], got {self.xi_star}")


def ranging_signal(consts: DerivedConstants, range_r: float) -> float:
    """Two-hop reflected power S = gamma1*gamma2*P0*R^(-2*alpha)."""
    if range_r <= 0:
        raise ValueError(f"range must be positive, got {range_r}")
    return (consts.gamma1 * consts.gamma2 * consts.tx_power
            * range_r ** (-2.0 * consts.pathloss_exp))


def p_success(cdf, consts: DerivedConstants, range_r: float,
              noise: float = 0.0) -> float:
    """p_s = F_I(S/T - N) for any interference CDF (curve or callable).

    An argument that is not positive means even zero interference cannot
    satisfy the threshold and the probability is 0.
    """
    arg = ranging_signal(consts, range_r) / consts.sinr_threshold - noise
    if arg <= 0.0:
        return 0.0
    return float(np.clip(np.asarray(cdf(arg), dtype=float), 0.0, 1.0))


def p_success_wc(consts: DerivedConstants, range_r: float, access: MediumAccess,
                 lane: Lane, noise: float = 0.0) -> float:
    """Worst-case (Levy-regime) success probability with receiver noise:
    the Levy CDF at x = S/T - N, erfc(sqrt((pi/4)*(xi*lambda)^2*gamma1*P0 / x)),
    and 0 when x is not positive.  Independent lanes add their Levy
    exponents, so several lanes are one lane of the summed density."""
    lam_i = access.duty_cycle * lane.density
    x = ranging_signal(consts, range_r) / consts.sinr_threshold - noise
    if x <= 0.0:
        return 0.0
    arg = math.pi / 4.0 * lam_i ** 2 * consts.gamma1 * consts.tx_power / x
    return float(specfun.erfc(math.sqrt(arg)))


def p_success_il(consts: DerivedConstants, range_r: float, access: MediumAccess,
                 lane: Lane) -> float:
    """Interference-limited worst case: erfc(sqrt(pi*T/(4*gamma2))*xi*lambda*R^2).

    Independent of the transmit power and the antenna constant gamma1.
    """
    if range_r < 0:
        raise ValueError(f"range must be nonnegative, got {range_r}")
    lam_i = access.duty_cycle * lane.density
    return float(specfun.erfc(consts.big_c(range_r) * lam_i))


def spatial_success(lambda_i: float, consts: DerivedConstants,
                    range_r: float) -> float:
    """Density of concurrently successful radars per meter:
    beta = lambda_I * erfc(C * lambda_I), lambda_I = xi * lambda the
    interferer density."""
    return lambda_i * math.erfc(consts.big_c(range_r) * lambda_i)


@lru_cache(maxsize=None)
def solve_z0() -> float:
    """Root of erfc(z) = 2*z*exp(-z^2)/sqrt(pi), bracketed in [0.1, 1]."""
    def resid(z):
        return sp.erfc(z) - 2.0 * z * math.exp(-z * z) / math.sqrt(math.pi)

    lo, hi = 0.1, 1.0
    if not resid(lo) > 0 > resid(hi):
        raise RuntimeError("z0 bracket lost its sign change")
    return float(optimize.brentq(resid, lo, hi, xtol=1e-12))


def optimal_duty_cycle(lane: Lane, consts: DerivedConstants,
                       range_r: float) -> OptimizationResult:
    """xi* = min(z0 / (lambda * C), 1), with the resulting beta*."""
    if range_r <= 0:
        raise ValueError(f"range must be positive, got {range_r}")
    big_c = consts.big_c(range_r)
    raw = consts.z_o / (lane.density * big_c)
    clamped = raw >= 1.0
    xi_star = 1.0 if clamped else raw
    lam_i_star = lane.density * xi_star
    beta_star = spatial_success(lam_i_star, consts, range_r)
    return OptimizationResult(lambda_i_star=lam_i_star, xi_star=xi_star,
                              beta_star=beta_star, clamped=clamped)


def nn_distance_pdf(lane: Lane, n: int, r) -> float:
    """Density of the distance to the n-th nearest vehicle on the line:
    f(r) = exp(-lambda*r) * (lambda*r)^n / (r * Gamma(n))."""
    if n < 1:
        raise ValueError(f"neighbor index must be >= 1, got {n}")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("r must be positive")
    lam = lane.density
    out = np.exp(-lam * r) * (lam * r) ** n / (r * sp.gamma(n))
    return float(out) if out.ndim == 0 else out


def expected_optimal_duty_cycle(lane: Lane, consts: DerivedConstants, n: int) -> float:
    """E[xi*] when the target is the n-th nearest vehicle, R ~ f above.

    xi*(R) = min(K / (lambda * R^2), 1) with K = z0 * sqrt(4*gamma2/(pi*T)).
    Closed form for n >= 3:
        [lambda*K*Gamma(n-2, sqrt(K*lambda)) - Gamma(n, sqrt(K*lambda))
         + Gamma(n)] / Gamma(n);
    the upper incomplete gamma with nonpositive first argument is not
    defined in the real-parameter sense, so n in {1, 2} is served by
    adaptive quadrature.
    """
    if n < 1:
        raise ValueError(f"neighbor index must be >= 1, got {n}")
    if n < 3:
        return _expected_duty_cycle_quadrature(lane, consts, n)
    lam = lane.density
    big_k = consts.big_k
    t0 = math.sqrt(big_k * lam)
    gn = sp.gamma(n)
    return float((lam * big_k * specfun.gamma_upper(n - 2, t0)
                  - specfun.gamma_upper(n, t0) + gn) / gn)


def _expected_duty_cycle_quadrature(lane: Lane, consts: DerivedConstants,
                                    n: int) -> float:
    """E[xi*] by adaptive quadrature of xi*(R) against the n-th neighbor
    density, for any n >= 1; the tests also use it as the oracle of the
    closed form."""
    lam = lane.density
    big_k = consts.big_k

    def integrand(r):
        return min(big_k / (lam * r * r), 1.0) * nn_distance_pdf(lane, n, r)

    r0 = math.sqrt(big_k / lam)
    mode = n / lam  # the nearest-neighbor density peaks near here
    edges = sorted({0.0, r0, mode, 4.0 * mode})
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        part, _ = integrate.quad(integrand, lo, hi, limit=200,
                                 points=[r0] if lo < r0 < hi else None)
        total += part
    tail, _ = integrate.quad(integrand, edges[-1], np.inf, limit=200)
    return float(total + tail)


def duty_cycle_asymptote(lane: Lane, consts: DerivedConstants, n: int) -> float:
    """Large-n behavior of the expected optimal duty cycle: lambda*K/n^2."""
    if n < 1:
        raise ValueError(f"neighbor index must be >= 1, got {n}")
    return lane.density * consts.big_k / (n * n)
