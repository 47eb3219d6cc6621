"""Analytic interference statistics for the two road-geometry models.

Means, characteristic functions, Laplace transforms and CDFs.  Both
models have one mean, Campbell's integral of the path loss beyond the
guard distance: the uniformly translated lattice is stationary, like the
PPP.  The PPP characteristic function and the lattice Laplace transform
are evaluated with oscillation-aware quadrature.  Every channel gain is
1, as in the paper's interference laws.  Each lattice site's log factor
log(1 - xi + xi e^(-s a)) is evaluated in real arithmetic for every s,
from the phase theta = -Im(s) a and the damping e^(-Re(s) a); the
damping is 1 on the imaginary axis, where the characteristic function
lives, and is computed only off it.

`interference_cdf` is the one CF-to-CDF pipeline: the Levy closed form in
the worst-case regime, otherwise the PPP or lattice CF, cut where its
estimated dropped Gil-Pelaez tail falls to a hundredth of the tolerance
(`cf_decay_cutoff`), replaced by a band-limited spline surrogate
(`tabulated_cf`) and inverted by the Gil-Pelaez formula on fixed
composite Gauss-Legendre nodes.  The surrogate size doubles on nested
grids until the curve stops moving by more than a tenth of the
tolerance.  The adaptive `cdf_gil_pelaez` remains for arbitrary CFs,
including ones that never decay.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special as sp

from . import specfun
from .model import (DerivedConstants, GeometryKind, Lane, MediumAccess,
                    Scenario, derive)


class RegimeError(ValueError):
    """The requested closed form is outside its validity regime."""


class QuadratureError(RuntimeError):
    """A numeric integral failed to meet its truncation criterion."""


class ContourError(RuntimeError):
    """A Talbot contour evaluation cannot be certified in double precision."""

    def __init__(self, message: str, node: Optional[int] = None, x: Optional[float] = None):
        super().__init__(message)
        self.node = node
        self.x = x


class MonotonicityError(RuntimeError):
    """A numeric CDF decreased by more than the noise allowance."""


class InversionMethod(enum.Enum):
    GIL_PELAEZ = "gil_pelaez"
    TALBOT = "talbot"
    LEVY_CLOSED_FORM = "levy_closed_form"
    EMPIRICAL = "empirical"


@dataclass(frozen=True)
class DistributionCurve:
    """Tabulated interference CDF with evaluation metadata."""

    grid: np.ndarray       # W, strictly increasing
    cdf: np.ndarray        # [0, 1], nondecreasing
    method: InversionMethod
    tolerance: float

    def __post_init__(self) -> None:
        g = np.asarray(self.grid, dtype=float)
        c = np.asarray(self.cdf, dtype=float)
        if g.ndim != 1 or g.size != c.size:
            raise ValueError("grid and cdf must be 1-d arrays of equal length")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(c < 0) or np.any(c > 1) or np.any(np.diff(c) < 0):
            raise ValueError("cdf must be nondecreasing within [0, 1]")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "cdf", c)

    def __call__(self, x):
        """Piecewise-linear evaluation, clamped to the edge values."""
        return np.interp(x, self.grid, self.cdf)


@dataclass(frozen=True)
class LaneProcess:
    """Geometry of one lane as seen by the analytic formulas."""

    density: float     # lambda, vehicles/m
    duty_cycle: float  # xi
    delta_o: float     # guard distance, m
    offset: float      # transverse lane distance used in ||x||, m

    @property
    def lambda_i(self) -> float:
        return self.duty_cycle * self.density

    @property
    def spacing(self) -> float:
        return 1.0 / self.density


@dataclass(frozen=True)
class CfSpec:
    """Everything the CF / Laplace-transform formulas need."""

    geometry: GeometryKind
    lanes: tuple[LaneProcess, ...]
    point_scale: float  # gamma1 * P0, W * m^alpha
    alpha: float

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "CfSpec":
        consts = [derive(scenario, i) for i in range(len(scenario.lanes))]
        return cls(
            geometry=scenario.geometry_kind,
            lanes=tuple(LaneProcess(density=lane.density,
                                    duty_cycle=scenario.access.duty_cycle,
                                    delta_o=c.delta_o, offset=lane.offset)
                        for lane, c in zip(scenario.lanes, consts)),
            point_scale=consts[0].gamma1 * scenario.radar.tx_power,
            alpha=scenario.radar.pathloss_exp,
        )


# ---------------------------------------------------------------------------
# aggregate sum and means
# ---------------------------------------------------------------------------

def aggregate_interference(positions: np.ndarray, consts: DerivedConstants,
                           lane_offset: float = 0.0) -> float:
    """Sum of gamma1 * P0 * ||x||^-alpha over the interferer positions."""
    if len(positions) == 0:
        return 0.0
    dist = np.hypot(positions, lane_offset)
    return float(np.sum(consts.gamma1 * consts.tx_power * dist ** (-consts.pathloss_exp)))


def _tail_integral(lower: float, alpha: float, offset: float) -> float:
    """int_lower^inf (v^2 + L^2)^(-alpha/2) dv, alpha > 1."""
    if offset == 0.0:
        if lower <= 0.0:
            raise ValueError("tail integral diverges at 0 when the offset is 0")
        return lower ** (1.0 - alpha) / (alpha - 1.0)
    if lower >= 2.0 * offset:
        # binomial series in (L/lower)^2 <= 1/4, summed to convergence:
        # sum_k C(-alpha/2, k) L^(2k) lower^(1-alpha-2k) / (alpha-1+2k);
        # the closed form below would subtract two nearly equal numbers
        r2 = (offset / lower) ** 2
        coef, total, k = 1.0, 0.0, 0
        while True:
            term = coef / (alpha - 1.0 + 2.0 * k)
            total += term
            if abs(term) <= 1e-17 * abs(total):
                return lower ** (1.0 - alpha) * total
            k += 1
            coef *= -(alpha / 2.0 + k - 1.0) / k * r2
    # v = L * sqrt(1/t - 1) turns the integral into the incomplete beta
    # function (1/2) B(a, 1/2) I_x(a, 1/2) L^(1-alpha), a = (alpha-1)/2, at
    # x = L^2 / (L^2 + lower^2); no difference of nearly equal terms
    a = (alpha - 1.0) / 2.0
    x = 1.0 if lower <= 0.0 else offset * offset / (offset * offset + lower * lower)
    return 0.5 * sp.beta(a, 0.5) * sp.betainc(a, 0.5, x) * offset ** (1.0 - alpha)


def _campbell_mean(consts: DerivedConstants, density: float, access: MediumAccess,
                   offset: float) -> float:
    """Campbell's theorem for a stationary lane of interferer density
    xi*lambda: xi*lambda*gamma1*P0 * int_delta_o^inf (v^2+L^2)^(-alpha/2) dv.

    It holds for the PPP and for the uniformly translated lattice alike.
    """
    alpha = consts.pathloss_exp
    if alpha <= 1:
        raise ValueError("mean is finite only for alpha > 1")
    if consts.delta_o <= 0 and offset <= 0:
        raise ValueError("a lane with offset 0 has no guard region, so its mean "
                         "interference is infinite; give it a positive offset_m")
    return (access.duty_cycle * density * consts.gamma1 * consts.tx_power
            * _tail_integral(consts.delta_o, alpha, offset))


def mean_ppp_exact(consts: DerivedConstants, lane: Lane, access: MediumAccess) -> float:
    """Mean PPP interference including the lane offset (Campbell)."""
    return _campbell_mean(consts, lane.density, access, lane.offset)


def mean_simplified(consts: DerivedConstants, lane: Lane, access: MediumAccess) -> float:
    """Mean with the lane offset neglected:
    xi*lambda*gamma1*P0 / ((alpha-1) * delta_o^(alpha-1))."""
    return _campbell_mean(consts, lane.density, access, 0.0)


def mean_bl(consts: DerivedConstants, lane: Lane, access: MediumAccess) -> float:
    """Mean interference of the translated Bernoulli lattice.

    The uniform translation makes the lattice stationary with intensity
    xi/delta, so Campbell's theorem gives the PPP mean at the same density.
    """
    return _campbell_mean(consts, lane.density, access, lane.offset)


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _scalar_pow(x: np.ndarray, p) -> np.ndarray:
    """x ** p element by element through the C library's pow, as the scalar
    formulas compute it; numpy's vectorised power may round differently."""
    return np.array([v ** p for v in x.tolist()])


def _tail_sum(v0, alpha: float, ln: float, delta: float, scale: float):
    """sum_{m>=0} scale*((v0+m*delta)^2+ln^2)^(-alpha/2) by Euler-Maclaurin."""
    v0 = np.asarray(v0, dtype=float)
    v = v0.ravel()
    d2 = v * v + ln * ln
    f0 = _scalar_pow(d2, -alpha / 2.0)
    fp0 = -alpha * delta * v * _scalar_pow(d2, -alpha / 2.0 - 1.0)
    # one series implementation for every caller: an array version was only
    # ~15% faster here and ~40x slower on the single calls of the means and
    # the PPP tail
    tail = np.array([_tail_integral(x, alpha, ln) for x in v.tolist()])
    out = tail / delta + 0.5 * f0 - fp0 / 12.0
    return scale * out.reshape(v0.shape)


# ---------------------------------------------------------------------------
# characteristic functions (PPP)
# ---------------------------------------------------------------------------

_THETA_SMALL = 1e-3  # phase below which the integrand is Taylor-expanded
_MAX_PHASE_PANELS = 10 ** 6


def _ppp_lane_exponent(omega: float, lane: LaneProcess, b: float,
                       alpha: float) -> complex:
    """lambda_I * int_{delta_o}^inf [1 - exp(j w b (u^2+L^2)^(-a/2))] du.

    The phase theta(u) = w*b*(u^2+L^2)^(-alpha/2) decreases monotonically
    in u, so the integral is split into panels of bounded phase change
    (Gauss-Legendre inside each) and closed with a Taylor tail once the
    phase falls below _THETA_SMALL.
    """
    if omega == 0.0:
        return 0.0 + 0.0j
    if omega < 0.0:
        return np.conj(_ppp_lane_exponent(-omega, lane, b, alpha))
    d0, ln = lane.delta_o, lane.offset
    if d0 == 0.0 and ln == 0.0:
        raise RegimeError("a lane with offset 0 has no guard region, so its PPP CF "
                          "integral diverges; give it a positive offset_m (at "
                          "alpha = 2 the Levy closed form covers offset 0)")
    wb = omega * b

    def theta_of_u(u):
        return wb * (u * u + ln * ln) ** (-alpha / 2.0)

    def u_of_theta(th):
        return np.sqrt(np.maximum((wb / th) ** (2.0 / alpha) - ln * ln, 0.0))

    theta_max = float(theta_of_u(d0))
    total = 0.0 + 0.0j
    if theta_max > _THETA_SMALL:
        # descending phase levels: linear steps of ~3 rad while oscillatory,
        # geometric below, down to the Taylor-tail threshold
        levels = []
        if theta_max > 6.0:
            n_lin = int(np.ceil((theta_max - 6.0) / 3.0))
            if n_lin > _MAX_PHASE_PANELS:
                raise QuadratureError(
                    f"PPP CF integral at omega={omega:.3e} needs {n_lin} phase "
                    f"panels, beyond the {_MAX_PHASE_PANELS} cap")
            levels.extend(np.linspace(theta_max, 6.0, n_lin + 1))
        lo = min(theta_max, 6.0)
        n_log = max(4, int(np.ceil(12.0 * np.log10(lo / _THETA_SMALL))))
        start = 1 if levels else 0
        levels.extend(np.geomspace(lo, _THETA_SMALL, n_log + 1)[start:])
        edges = u_of_theta(np.asarray(levels))
        edges[0] = d0
        xg, wg = _gl(16)
        lo_e, hi_e = edges[:-1, None], edges[1:, None]
        mid = 0.5 * (lo_e + hi_e)
        half = 0.5 * (hi_e - lo_e)
        u = mid + half * xg[None, :]
        vals = 1.0 - np.exp(1j * theta_of_u(u))
        total += np.sum((half * wg[None, :]) * vals)
        u_tail = float(edges[-1])
    else:
        u_tail = d0
    # Taylor tail where the phase magnitude is below _THETA_SMALL
    t1 = _tail_integral(u_tail, alpha, ln)
    t2 = _tail_integral(u_tail, 2.0 * alpha, ln)
    t3 = _tail_integral(u_tail, 3.0 * alpha, ln)
    total += (-1j * wb * t1 + 0.5 * wb * wb * t2 + 1j / 6.0 * wb ** 3 * t3)
    return lane.lambda_i * total


def cf_ppp(spec: CfSpec, omega):
    """Exact multi-lane PPP characteristic function (lanes independent)."""
    om = np.asarray(omega, dtype=float)
    scalar = om.ndim == 0
    om1 = np.atleast_1d(om)
    out = np.empty(om1.shape, dtype=complex)
    for i, w in enumerate(om1):
        expo = sum(_ppp_lane_exponent(float(w), lane, spec.point_scale, spec.alpha)
                   for lane in spec.lanes)
        out[i] = np.exp(-expo)
    return complex(out[0]) if scalar else out


def _levy_lambda_i(spec: CfSpec) -> float:
    if abs(spec.alpha - 2.0) > 1e-9:
        raise RegimeError("the Levy worst case needs alpha = 2")
    for lane in spec.lanes:
        if lane.delta_o != 0.0 or lane.offset != 0.0:
            raise RegimeError("the Levy worst case needs delta_o = 0 and L_n = 0")
    return sum(lane.lambda_i for lane in spec.lanes)


def cf_levy(spec: CfSpec, omega):
    """Worst-case stable-law CF exp(-sqrt(-j*pi*gamma1*P0*omega)*lambda_I)."""
    lam_i = _levy_lambda_i(spec)
    om = np.asarray(omega, dtype=float)
    return np.exp(-np.sqrt(-1j * np.pi * spec.point_scale * om * lam_i ** 2 + 0j))


def cdf_levy_closed(spec: CfSpec, grid) -> DistributionCurve:
    """Worst-case CDF erfc(sqrt(pi*(xi*lambda)^2*gamma1*P0/(4x)))."""
    lam_i = _levy_lambda_i(spec)
    x = np.asarray(grid, dtype=float)
    if np.any(x <= 0):
        raise ValueError("the Levy CDF needs x > 0")
    a2 = np.pi * lam_i ** 2 * spec.point_scale / 4.0
    cdf = specfun.erfc(np.sqrt(a2 / x))
    return DistributionCurve(grid=x, cdf=cdf, method=InversionMethod.LEVY_CLOSED_FORM,
                             tolerance=1e-15)


def levy_quantile(spec: CfSpec, p: float) -> float:
    """Inverse of the worst-case CDF."""
    lam_i = _levy_lambda_i(spec)
    a2 = np.pi * lam_i ** 2 * spec.point_scale / 4.0
    z = float(sp.erfcinv(p))
    return a2 / (z * z)


# ---------------------------------------------------------------------------
# Gil-Pelaez inversion
# ---------------------------------------------------------------------------

def _gp_panel(cf, x: float, lo: float, hi: float, tol: float, depth: int = 0) -> float:
    def f(w):
        ph = np.asarray(cf(w)) * np.exp(-1j * w * x)
        return ph.imag / w

    x16, w16 = _gl(16)
    x32, w32 = _gl(32)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    v32 = half * float(w32 @ f(mid + half * x32))
    v16 = half * float(w16 @ f(mid + half * x16))
    if abs(v32 - v16) < tol or depth >= 12:
        return v32
    return (_gp_panel(cf, x, lo, mid, tol / 2.0, depth + 1)
            + _gp_panel(cf, x, mid, hi, tol / 2.0, depth + 1))


def _gp_head(cf, x: float, hi: float, tol: float, depth: int = 0) -> float:
    """First panel, mapped omega = v^2 to absorb the integrable endpoint
    singularity of Im[phi]/omega shown by the stable laws."""
    def f(v):
        w = v * v
        ph = np.asarray(cf(w)) * np.exp(-1j * w * x)
        return 2.0 * v * ph.imag / w

    x16, w16 = _gl(16)
    x32, w32 = _gl(32)
    b = math.sqrt(hi)
    v32 = 0.5 * b * float(w32 @ f(0.5 * b * (1.0 + x32)))
    v16 = 0.5 * b * float(w16 @ f(0.5 * b * (1.0 + x16)))
    if abs(v32 - v16) < tol or depth >= 20:
        return v32
    mid = 0.5 * hi
    return (_gp_head(cf, x, mid, tol / 2.0, depth + 1)
            + _gp_panel(cf, x, mid, hi, tol / 2.0))


_GP_MAX_PANELS = 1200


def _euler_average(partials: Sequence[float]) -> float:
    s = list(partials)
    while len(s) > 1:
        s = [0.5 * (a + b) for a, b in zip(s, s[1:])]
    return s[0]


def _gp_integral(cf, x: float, tol: float) -> float:
    width = math.pi / x
    total = _gp_head(cf, x, width, tol / 50.0)
    partials = [total]
    for k in range(1, _GP_MAX_PANELS):
        term = _gp_panel(cf, x, k * width, (k + 1) * width, tol / 100.0)
        total += term
        partials.append(total)
        if abs(complex(np.asarray(cf((k + 1) * width)).reshape(()))) < 1e-10 \
                and abs(term) < tol / 10.0:
            return total
    # the CF never decayed below threshold: accelerate the alternating tail
    return _euler_average(partials[-40:])


def cdf_gil_pelaez(cf: Callable, grid, tolerance: float = 1e-4) -> DistributionCurve:
    """Invert a characteristic function into a CDF curve.

    F(x) = 1/2 - (1/pi) int_0^inf Im[phi(w) e^(-jwx)] / w dw, integrated
    over half-period panels of the e^(-jwx) oscillation with adaptive
    Gauss-Legendre inside each panel.  Integration stops once |phi|
    decays below 1e-10; CFs that never decay (lattice-like laws) fall
    back to Euler averaging of the last alternating partial sums after
    _GP_MAX_PANELS panels.
    """
    phi0 = complex(np.asarray(cf(0.0)).reshape(()))
    if abs(phi0 - 1.0) > 1e-8:
        raise ValueError(f"cf(0) must be 1, got {phi0}")
    x = np.asarray(grid, dtype=float)
    if np.any(x <= 0):
        raise ValueError("Gil-Pelaez grid points must be positive")
    raw = np.array([0.5 - _gp_integral(cf, float(xi), tolerance) / math.pi
                    for xi in x])
    cdf = _monotonize(raw, tolerance)
    return DistributionCurve(grid=x, cdf=cdf, method=InversionMethod.GIL_PELAEZ,
                             tolerance=tolerance)


def _monotonize(values: np.ndarray, tolerance: float) -> np.ndarray:
    """Clip sub-noise decreases; treat anything larger as a bug."""
    drops = np.diff(values)
    worst = -float(drops.min()) if drops.size else 0.0
    if worst > 10.0 * tolerance:
        raise MonotonicityError(
            f"CDF decreased by {worst:.3e}, beyond the 10x tolerance allowance "
            f"({10.0 * tolerance:.3e})")
    out = np.maximum.accumulate(values)
    return np.clip(out, 0.0, 1.0)


def _plaw_exponent(y0: float, y1: float, dlog: float) -> float:
    if y0 == 0.0 or y1 == 0.0:
        return 1.0
    return math.log(abs(y1) / abs(y0)) / dlog


def tabulated_cf(cf: Callable, omega_lo: float, omega_hi: float,
                 points: int = 900) -> Callable:
    """Fast spline surrogate of a characteristic function.

    The log-CF is interpolated over a log-omega grid; below the grid the
    two smallest samples fix a local power law, beyond it the CF is
    treated as fully decayed.  Intended for CFs whose dropped tail past
    omega_hi is negligible (locate that point with cf_decay_cutoff first).
    """
    from scipy.interpolate import CubicSpline

    # omega_lo * r**(k/(points-1)): the grid of 2*points - 1 points holds
    # this one bit for bit at its even indices
    grid = omega_lo * (omega_hi / omega_lo) ** (np.arange(points) / (points - 1))
    grid[-1] = omega_hi
    vals = np.asarray(cf(grid), dtype=complex)
    mag = np.abs(vals)
    if np.any(mag == 0.0):
        raise ValueError("cf must be nonzero on the tabulation grid")
    logphi = np.log(mag) + 1j * np.unwrap(np.angle(vals))
    lg = np.log(grid)
    spline_re = CubicSpline(lg, logphi.real)
    spline_im = CubicSpline(lg, logphi.imag)
    dlog = lg[1] - lg[0]
    p_re = _plaw_exponent(logphi.real[0], logphi.real[1], dlog)
    p_im = _plaw_exponent(logphi.imag[0], logphi.imag[1], dlog)

    def interp(omega):
        om = np.asarray(omega, dtype=float)
        scalar = om.ndim == 0
        om1 = np.atleast_1d(om).astype(float)
        out = np.ones(om1.shape, dtype=complex)
        neg = om1 < 0
        oma = np.abs(om1)
        inside = (oma >= omega_lo) & (oma <= omega_hi)
        below = (oma > 0) & (oma < omega_lo)
        above = oma > omega_hi
        if np.any(inside):
            lo = np.log(oma[inside])
            out[inside] = np.exp(spline_re(lo) + 1j * spline_im(lo))
        if np.any(below):
            r = oma[below] / omega_lo
            out[below] = np.exp(logphi.real[0] * r ** p_re
                                + 1j * logphi.imag[0] * r ** p_im)
        if np.any(above):
            out[above] = 0.0
        out[neg] = np.conj(out[neg])
        return complex(out[0]) if scalar else out

    return interp


_SCAN_FLOOR = 1e-12  # the decay scan stops once |cf| falls below this


def _dropped_tails(mag: np.ndarray, dlog: float) -> np.ndarray:
    """Estimates of the dropped Gil-Pelaez tail (1/pi) int_(w_k)^inf |cf|/w dw
    at every point w_k of a log scan with step dlog, given |cf| there.

    The samples past w_k are summed by the trapezoid rule in log w, which
    over-estimates where the decay is convex in log w; past the last sample
    |cf| follows the power law of the last two samples, w^(-p), whose tail
    is |cf_last|/p (infinite when the last step did not decay).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p = float(np.log(mag[-2] / mag[-1])) / dlog
    beyond = mag[-1] / p if p > 0.0 else np.inf
    panels = 0.5 * dlog * (mag[:-1] + mag[1:])
    return (np.append(np.cumsum(panels[::-1])[::-1], 0.0) + beyond) / math.pi


def cf_decay_cutoff(cf: Callable, omega_lo: float, omega_hi: float,
                    budget: float) -> float:
    """Smallest omega of a 12/decade log scan whose dropped Gil-Pelaez tail,
    (1/pi) int_omega^inf |cf(w)|/w dw, is estimated at most `budget`.

    Scans sequentially from omega_lo and stops once |cf| < 1e-12 (or at
    omega_hi), so expensive CFs are never evaluated far beyond their decay
    point; the tail past every scan point is then estimated from the
    samples after it (`_dropped_tails`).  Raises QuadratureError when no
    scan point meets the budget, as for a CF that never decays.
    """
    n = max(2, int(np.ceil(12.0 * np.log10(omega_hi / omega_lo))) + 1)
    omegas = np.geomspace(omega_lo, omega_hi, n)
    mag = []
    for om in omegas:
        mag.append(abs(complex(np.asarray(cf(om)).reshape(()))))
        if mag[-1] < _SCAN_FLOOR and len(mag) >= 2:
            break
    tails = _dropped_tails(np.array(mag), math.log(omegas[1] / omegas[0]))
    within = np.flatnonzero(tails <= budget)
    if within.size == 0:
        raise QuadratureError(
            f"the CF's dropped tail is estimated at {tails[-1]:.3e} past omega = "
            f"{omegas[len(mag) - 1]:.3e} (|cf| = {mag[-1]:.3e}), above the budget "
            f"{budget:.1e}")
    return float(omegas[within[0]])


# ---------------------------------------------------------------------------
# band-limited inversion: the CF -> CDF pipeline
# ---------------------------------------------------------------------------

_PANEL_NODES = 16
_PANEL_CHUNK = 256          # panels per (panels x points) block
_MAX_NODES = 10 ** 7
_SURROGATE_BASE = 68        # surrogate sizes N_k = 68 * 2**k + 1
_SURROGATE_MAX = 68 * 2 ** 6 + 1


def _panel_count(omega_max: float, x_max: float) -> int:
    """Panels of width 2*pi/x_max covering [0, omega_max], refused above
    _MAX_NODES nodes."""
    panels = math.ceil(omega_max * x_max / (2.0 * math.pi))
    if panels * _PANEL_NODES > _MAX_NODES:
        raise QuadratureError(
            f"inverting up to omega = {omega_max:.3e} at x = {x_max:.3e} needs "
            f"{panels * _PANEL_NODES} quadrature nodes, beyond the "
            f"{_MAX_NODES:.0e} cap; shrink the largest grid point")
    return panels


def _invert_band_limited(cf: Callable, omega_max: float, grid) -> np.ndarray:
    """Raw Gil-Pelaez values of a CF that vanishes above omega_max.

    F(x) = 1/2 - (1/pi) int_0^omega_max Im[phi(w) e^(-jwx)] / w dw on
    16-node Gauss-Legendre panels of width h = 2*pi/max(x), so each panel
    spans at most one period of the fastest oscillation.  The CF is
    evaluated once per node, one block of panels at a time, so memory
    stays bounded by the block size.  With w = (p + 1/2) h + (h/2) t_j the
    phase factors as e^(-j(p+1/2)hx) e^(-j(h/2) t_j x), so each block
    costs one (panels x 16) @ (16 x points) product.
    """
    x = np.asarray(grid, dtype=float)
    h = 2.0 * math.pi / float(x.max())
    panels = _panel_count(omega_max, float(x.max()))
    t, wt = _gl(_PANEL_NODES)
    inner = np.exp(-0.5j * h * np.outer(t, x))
    total = np.zeros(x.shape)
    for lo in range(0, panels, _PANEL_CHUNK):
        centres = (np.arange(lo, min(lo + _PANEL_CHUNK, panels)) + 0.5) * h
        omega = centres[:, None] + 0.5 * h * t[None, :]
        phi = np.asarray(cf(omega.ravel()), dtype=complex).reshape(omega.shape)
        weighted = phi * (0.5 * h * wt) / omega
        outer = np.exp(-1j * np.outer(centres, x))
        total += ((weighted @ inner) * outer).imag.sum(axis=0)
    return 0.5 - total / math.pi


def _nested_samples(cf: Callable) -> Callable:
    """cf that reuses its last samples on a grid nested inside the next.

    Asked for 2n - 1 omegas whose even-indexed ones are the n it was last
    asked for, it evaluates cf at the odd-indexed ones only.
    """
    last = {}

    def sample(omega):
        om = np.asarray(omega, dtype=float)
        prev = last.get("omega")
        if (prev is not None and om.size == 2 * prev.size - 1
                and np.array_equal(om[::2], prev)):
            vals = np.empty(om.size, dtype=complex)
            vals[::2] = last["vals"]
            vals[1::2] = cf(om[1::2])
        else:
            vals = np.asarray(cf(om), dtype=complex)
        last.update(omega=om, vals=vals)
        return vals
    return sample


def _check_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and 0.0 < tolerance < 1.0):
        raise ValueError(f"tolerance must be finite and in (0, 1), got {tolerance!r}")


def _cdf_from_cf(cf: Callable, grid, tolerance: float) -> DistributionCurve:
    """Gil-Pelaez CDF of a decaying CF through its band-limited surrogate.

    The CF is cut at the first scan point Omega whose estimated dropped
    tail (1/pi) int_Omega^inf |phi|/w dw is at most tolerance/100, which
    bounds the truncation's shift of the curve at every x, and tabulated
    on N_k = 68 * 2**k + 1 log-spaced points over [1e-7 Omega, Omega], each
    grid nested in the next so that only new points are evaluated.  The
    first k >= 1 whose curve moves by at most tolerance/10 from size
    N_(k-1) is kept; a curve still moving at N = 4353 raises
    QuadratureError.
    """
    _check_tolerance(tolerance)
    x = np.asarray(grid, dtype=float)
    if x.size == 0 or np.any(x <= 0):
        raise ValueError("CDF grid points must be positive")
    x_max = float(x.max())
    omega_max = cf_decay_cutoff(cf, 0.1 / x_max, 1e12, tolerance / 100.0)
    _panel_count(omega_max, x_max)
    sample = _nested_samples(cf)
    points = _SURROGATE_BASE + 1
    previous = None
    while True:
        surrogate = tabulated_cf(sample, omega_max * 1e-7, omega_max, points=points)
        raw = _invert_band_limited(surrogate, omega_max, x)
        if previous is not None:
            change = float(np.max(np.abs(raw - previous)))
            if change <= tolerance / 10.0:
                break
            if points >= _SURROGATE_MAX:
                raise QuadratureError(
                    f"CF surrogate of {points} points still moves the CDF by "
                    f"{change:.3e}, above tolerance/10 = {tolerance / 10.0:.1e}")
        previous = raw
        points = 2 * points - 1
    return DistributionCurve(grid=x, cdf=_monotonize(raw, tolerance),
                             method=InversionMethod.GIL_PELAEZ, tolerance=tolerance)


def interference_cdf(spec: CfSpec, grid, tolerance: float = 1e-4) -> DistributionCurve:
    """Aggregate-interference CDF on `grid` (W), for either geometry.

    The worst-case PPP regime (alpha = 2, no guard, no offset) uses the
    Levy closed form.  Otherwise the PPP or lattice CF is inverted
    through its band-limited surrogate; the stamped tolerance covers the
    estimated truncation tail (tolerance/100) and bounds the last
    surrogate doubling's change of the curve (tolerance/10).  A tolerance
    outside (0, 1) is refused before any CF evaluation.  Every channel
    gain is 1, as in the paper's interference laws.
    """
    _check_tolerance(tolerance)
    if spec.geometry == GeometryKind.BERNOULLI_LATTICE:
        return _cdf_from_cf(lambda w: cf_bl(spec, w), grid, tolerance)
    try:
        return cdf_levy_closed(spec, grid)
    except RegimeError:
        pass
    return _cdf_from_cf(lambda w: cf_ppp(spec, w), grid, tolerance)


# ---------------------------------------------------------------------------
# Bernoulli-lattice Laplace transform and inversion
# ---------------------------------------------------------------------------

_MAX_LATTICE_TERMS = 10 ** 6


def _bernoulli_log_factor(theta: np.ndarray, xi: float, damp=None):
    """Real and imaginary parts of log(1 - xi + xi * damp * e^(j theta)),
    the log of one site's factor e^(-s a) = damp * e^(j theta), in real
    arithmetic; no damp means damp = 1, the imaginary axis.

    The squared modulus is summed as (1 - xi + xi damp cos)^2 +
    (xi damp sin)^2, which stays accurate where the factor nearly vanishes
    (xi = 1/2, theta near pi) and 1 - 2 xi (1 - xi)(1 - cos) would cancel;
    atan2 gives the principal branch when the real part is negative.
    """
    weight = xi if damp is None else xi * damp
    re = (1.0 - xi) + weight * np.cos(theta)
    im = weight * np.sin(theta)
    return 0.5 * np.log(re * re + im * im), np.arctan2(im, re)


def _bl_lane_log_laplace(s: complex, lane: LaneProcess, b: float, alpha: float):
    """Log of the per-lane lattice transform on a translation grid.

    Returns (u_nodes, u_weights, log-product at each node).  The site
    product is truncated once |s|*a_m falls below 1e-2 and closed with a
    second-order expansion of the remaining log factors summed by
    Euler-Maclaurin; far factors (beyond the first 64) are evaluated on
    a coarse translation grid and spline-interpolated, since their joint
    log varies slowly with the translation.  Each site's log factor
    log(1 - xi + xi e^(-s a_m)) is taken in real arithmetic
    (`_bernoulli_log_factor`, theta = -Im(s) * a_m, damping e^(-Re(s) a_m),
    computed only off the imaginary axis), about 4x cheaper than a complex
    exp and log.  Factors are evaluated in blocks of at most 1024
    translation nodes x 512 sites, which bounds the working memory.
    """
    from scipy.interpolate import CubicSpline

    xi = lane.duty_cycle
    delta = lane.spacing
    d0, ln = lane.delta_o, lane.offset
    sa = abs(s)
    # translation grid: the product phase drifts by about |s| * a_0
    a0 = b * (d0 * d0 + ln * ln) ** (-alpha / 2.0) if (d0 > 0 or ln > 0) else np.inf
    if not np.isfinite(a0):
        raise RegimeError("a lane with offset 0 has no guard region, so its lattice "
                          "transform diverges; give it a positive offset_m")
    n_pan = int(np.clip(np.ceil(sa * a0 / 3.0), 3, 2048))
    xg, wg = _gl(16)
    edges = np.linspace(0.0, 1.0, n_pan + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    u = (mid + half * xg[None, :]).ravel()
    w = (half * np.broadcast_to(wg, (n_pan, 16))).ravel()

    if xi == 0.0 or sa == 0.0:
        return u, w, np.zeros(u.shape, dtype=complex)
    d_cut = (b * sa / 1e-2) ** (1.0 / alpha)
    n_terms = int(np.ceil(max(d_cut - d0, delta) / delta)) + 2
    if n_terms > _MAX_LATTICE_TERMS:
        raise QuadratureError(
            f"lattice product needs {n_terms} factors, beyond the "
            f"{_MAX_LATTICE_TERMS} cap")
    n_terms = max(n_terms, 16)

    def log_factors(u_nodes, m_lo, m_hi):
        out = np.zeros(u_nodes.shape, dtype=complex)
        for row in range(0, u_nodes.size, 1024):
            rows = slice(row, row + 1024)
            for start in range(m_lo, m_hi, 512):
                m = np.arange(start, min(start + 512, m_hi))
                d2 = ln * ln + (d0 + (m[None, :] + u_nodes[rows, None]) * delta) ** 2
                a = b * d2 ** (-alpha / 2.0)
                damp = np.exp(-s.real * a) if s.real != 0.0 else None
                re, im = _bernoulli_log_factor(-s.imag * a, xi, damp)
                out[rows] += re.sum(axis=1) + 1j * im.sum(axis=1)
        return out

    def em_tail(u_nodes):
        # log(1 - xi*(1 - e^(-s*a))) to second order in s*a
        v0 = d0 + (n_terms + u_nodes) * delta
        s1 = _tail_sum(v0, alpha, ln, delta, b)
        s2 = _tail_sum(v0, 2.0 * alpha, ln, delta, b * b)
        return -xi * s * s1 + 0.5 * xi * (1.0 - xi) * s * s * s2

    m_split = min(64, n_terms)
    with np.errstate(over="ignore", invalid="ignore"):
        logprod = log_factors(u, 0, m_split)
        if n_terms > m_split:
            u_c = np.linspace(0.0, 1.0, 96)
            far = log_factors(u_c, m_split, n_terms) + em_tail(u_c)
            logprod += (CubicSpline(u_c, far.real)(u)
                        + 1j * CubicSpline(u_c, far.imag)(u))
        else:
            logprod += em_tail(u)
    return u, w, logprod


def laplace_bl(spec: CfSpec, s: complex) -> complex:
    """Laplace transform E[exp(-s*I)] of the lattice interference.

    The interference is bounded, so the transform is entire; for
    Re(s) < 0 its magnitude can overflow to inf, which callers must
    treat as a contour-validity signal rather than an error.  Every s
    takes the same real-arithmetic site factors as the CF's axis.
    """
    s = complex(s)
    total = 1.0 + 0.0j
    for lane in spec.lanes:
        u, w, logprod = _bl_lane_log_laplace(s, lane, spec.point_scale, spec.alpha)
        shift = float(logprod.real.max())
        with np.errstate(over="ignore", invalid="ignore"):
            # NaN too: a damping e^(-Re(s) a) that overflowed meets sin 0 = 0
            if not shift <= 700.0:
                return complex(np.inf, 0.0)
            total *= math.exp(shift) * (w @ np.exp(logprod - shift))
    return complex(total)


def cf_bl(spec: CfSpec, omega):
    """Lattice characteristic function phi(w) = L(-j*w).

    One `laplace_bl` call per omega; on this axis its site log factors are
    evaluated in real arithmetic.
    """
    om = np.asarray(omega, dtype=float)
    scalar = om.ndim == 0
    out = np.array([laplace_bl(spec, -1j * float(w)) for w in np.atleast_1d(om)])
    return complex(out[0]) if scalar else out


def _talbot_nodes(x: float, nodes: int):
    r = 2.0 * nodes / (5.0 * x)
    theta = np.arange(1, nodes) * math.pi / nodes
    cot = 1.0 / np.tan(theta)
    s = r * theta * (cot + 1j)
    sigma = theta + (theta * cot - 1.0) * cot
    return r, s, sigma


def cdf_from_laplace_talbot(transform: Callable, grid, nodes: int = 32,
                            tolerance: float = 1e-6) -> DistributionCurve:
    """Fixed-Talbot inversion of F(x) = L^-1[(1/s) transform(s)](x).

    Valid for transforms that stay bounded along the deformed contour
    (singularities confined near the negative real axis).  A node whose
    magnitude would amplify roundoff beyond the tolerance raises
    ContourError carrying the node index and abscissa.
    """
    x = np.asarray(grid, dtype=float)
    if np.any(x <= 0):
        raise ValueError("Talbot abscissae must be positive")
    out = np.empty(x.shape)
    eps = np.finfo(float).eps
    for i, xi in enumerate(x):
        r, s, sigma = _talbot_nodes(float(xi), nodes)
        acc = 0.5 * complex(transform(r)) / r * math.exp(min(r * xi, 700.0))
        for k, (sk, sg) in enumerate(zip(s, sigma)):
            tv = complex(transform(complex(sk)))
            with np.errstate(over="ignore", invalid="ignore"):
                term = np.exp(sk * xi) * tv / sk * (1.0 + 1j * sg)
            mag = abs(term)
            if not math.isfinite(mag) or mag * eps * r / nodes > tolerance:
                raise ContourError(
                    f"Talbot node {k + 1} at x={xi:.6g} has magnitude {mag:.3e}; "
                    "roundoff on the deformed contour exceeds the tolerance "
                    f"{tolerance:.1e}", node=k + 1, x=float(xi))
            acc += term
        out[i] = acc.real * r / nodes
    cdf = _monotonize(out, tolerance)
    return DistributionCurve(grid=x, cdf=cdf, method=InversionMethod.TALBOT,
                             tolerance=tolerance)


def cdf_bl_talbot(spec: CfSpec, grid, nodes: int = 32,
                  tolerance: float = 1e-4) -> DistributionCurve:
    """Lattice interference CDF from its Laplace transform.

    The fixed-Talbot contour is attempted first.  The lattice
    interference is bounded, its transform grows like exp(|Re s| * I_max)
    in the left half-plane, and the contour deformation is numerically
    invalid below roughly I_max; that case is detected per node and the
    whole curve falls back to Gil-Pelaez inversion of the same transform
    restricted to the imaginary axis, where it is a decaying
    characteristic function.  Both routes work to the caller's tolerance.

    The CLI no longer calls this: for the lattice the contour always
    fails, so `interference_cdf` goes straight to the CF route.  It stays
    as the library's Laplace-transform entry point, and the benchmark's
    span recorder binds it and `cdf_from_laplace_talbot` by name.
    """
    x = np.asarray(grid, dtype=float)
    try:
        return cdf_from_laplace_talbot(lambda s: laplace_bl(spec, s), x,
                                       nodes=nodes, tolerance=tolerance)
    except ContourError:
        return _cdf_from_cf(lambda w: cf_bl(spec, w), x, tolerance)
