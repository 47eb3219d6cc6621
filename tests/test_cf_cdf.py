"""Characteristic functions and Fourier-inversion machinery."""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from radar_sg import interference as itf
from radar_sg.interference import (CfSpec, DistributionCurve, InversionMethod,
                                   LaneProcess, MonotonicityError,
                                   QuadratureError, RegimeError, _cdf_from_cf,
                                   _invert_band_limited, cdf_gil_pelaez,
                                   cdf_levy_closed, cf_levy, cf_ppp,
                                   cf_decay_cutoff, interference_cdf,
                                   levy_quantile, mean_ppp_exact, tabulated_cf)
from radar_sg.model import FadingModel, Lane, derive
from conftest import make_scenario
from oracles import cf_ppp_ln0


def spec_for(density=0.1, duty_cycle=0.1, offset=10.0, **kw):
    sc = make_scenario(density=density, duty_cycle=duty_cycle, offset=offset,
                       **kw)
    return CfSpec.from_scenario(sc)


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------

def test_cf_ppp_quadrature_oracle():
    # direct adaptive-quadrature oracle of the exponent, frozen
    spec = spec_for()
    v = complex(cf_ppp(spec, 1e4))
    assert v == pytest.approx(0.2869491515414728 + 0.6672883799106137j,
                              abs=1e-9)


def test_cf_ppp_basic_properties():
    spec = spec_for()
    om = np.array([1.0, 10.0, 1e3, 1e5, 1e7])
    phi = cf_ppp(spec, om)
    assert np.all(np.abs(phi) <= 1.0 + 1e-12)
    assert complex(cf_ppp(spec, 0.0)) == pytest.approx(1.0, abs=1e-14)
    # conjugate symmetry phi(-w) = conj(phi(w))
    assert np.allclose(cf_ppp(spec, -om), np.conj(phi), rtol=1e-12)


def test_cf_ppp_derivative_matches_mean():
    # phi'(0) = j E[I]
    sc = make_scenario()
    spec = CfSpec.from_scenario(sc)
    mean = mean_ppp_exact(derive(sc, 0), sc.lanes[0], sc.access)
    h = 1.0  # omega scale where the mean dominates (E[I] ~ 1e-4)
    d = complex(cf_ppp(spec, h) - cf_ppp(spec, -h)) / (2.0 * h)
    assert d.imag == pytest.approx(mean, rel=1e-6)


def test_cf_no_offset_closed_form_matches_general():
    # the no-offset closed form agrees with the general route at a
    # vanishing offset
    base = spec_for()
    guard = base.lanes[0].delta_o
    # same guard distance; only the transverse offset differs
    def with_offset(off):
        return CfSpec(geometry=base.geometry,
                      lanes=(LaneProcess(density=0.1, duty_cycle=0.1,
                                         delta_o=guard, offset=off),),
                      point_scale=base.point_scale, alpha=base.alpha,
                      fading=base.fading)

    spec_tiny = with_offset(1e-6)
    spec0 = with_offset(0.0)
    for om in (1.0, 1e2, 1e4, 1e6):
        a = complex(cf_ppp(spec_tiny, om))
        b = complex(cf_ppp_ln0(spec0, om))
        assert a == pytest.approx(b, abs=1e-7)


def test_cf_levy_closed_form():
    # alpha=2, no guard, no offset: stable law with |phi| = exp(-c sqrt(w))
    spec = spec_for(offset=0.0, beamwidth=math.pi)
    lam_i = 0.01
    b = spec.point_scale
    for om in (1.0, 1e3, 1e6):
        phi = complex(cf_levy(spec, om))
        mag = math.exp(-lam_i * math.sqrt(math.pi * b * om / 2.0))
        assert abs(phi) == pytest.approx(mag, rel=1e-12)
    # the general no-offset CF converges to the stable law as delta_o -> 0
    spec_g = CfSpec(geometry=spec.geometry,
                    lanes=(LaneProcess(0.1, 0.1, delta_o=1e-8, offset=0.0),),
                    point_scale=spec.point_scale, alpha=2.0,
                    fading=spec.fading)
    assert complex(cf_ppp_ln0(spec_g, 100.0)) == pytest.approx(
        complex(cf_levy(spec, 100.0)), abs=1e-6)


def test_cf_levy_regime_guard():
    with pytest.raises(RegimeError):
        cf_levy(spec_for(offset=10.0), 1.0)          # nonzero offset
    with pytest.raises(RegimeError):
        cf_levy(spec_for(offset=0.0, beamwidth=math.pi, pathloss_exp=3.0),
                1.0)                                  # alpha != 2


def test_cf_custom_fading_expectation():
    # two-point fading g in {0.5, 1.5} with equal mass has mean 1; the CF
    # under fading is the fading-average of the unit-gain exponents
    hw = 0.5

    def pdf(g):
        return 1.0 / (2.0 * hw)

    fm = FadingModel.custom(sampler=lambda rng, n: 1.0 - hw + 2 * hw * rng.random(n),
                            pdf=pdf, support=(1.0 - hw, 1.0 + hw))
    sc_f = make_scenario()
    sc_f = type(sc_f)(radar=sc_f.radar, lanes=sc_f.lanes, access=sc_f.access,
                      fading=fm, geometry_kind=sc_f.geometry_kind)
    spec_f = CfSpec.from_scenario(sc_f)
    spec_u = spec_for()
    om = 1e4
    # oracle: average exponents of the scaled unit-fading processes
    def exponent(scale):
        s = CfSpec(geometry=spec_u.geometry, lanes=spec_u.lanes,
                   point_scale=spec_u.point_scale * scale, alpha=spec_u.alpha,
                   fading=spec_u.fading)
        return np.log(complex(cf_ppp(s, om)))

    nodes, weights = np.polynomial.legendre.leggauss(40)
    g = 1.0 + hw * nodes
    w = hw * weights * pdf(g)
    ref = np.exp(np.sum(w * np.array([exponent(gi) for gi in g])))
    assert complex(cf_ppp(spec_f, om)) == pytest.approx(ref, abs=1e-8)


# ---------------------------------------------------------------------------
# Gil-Pelaez inversion on known laws
# ---------------------------------------------------------------------------

def test_gil_pelaez_exponential():
    lam = 1.0

    def cf(w):
        return lam / (lam - 1j * np.asarray(w, dtype=complex))

    x = np.linspace(0.05, 8.0, 40)
    curve = cdf_gil_pelaez(cf, x, tolerance=1e-6)
    ref = 1.0 - np.exp(-lam * x)
    assert np.max(np.abs(curve.cdf - ref)) < 1e-6
    assert curve.method is InversionMethod.GIL_PELAEZ


def test_gil_pelaez_gamma():
    k, th = 3.0, 2.0

    def cf(w):
        return (1.0 - 1j * th * np.asarray(w, dtype=complex)) ** (-k)

    x = np.linspace(0.2, 30.0, 30)
    curve = cdf_gil_pelaez(cf, x, tolerance=1e-6)
    ref = stats.gamma.cdf(x, k, scale=th)
    assert np.max(np.abs(curve.cdf - ref)) < 1e-6


def test_gil_pelaez_point_mass():
    # deterministic mass at 1: CDF jumps 0 -> 1
    def cf(w):
        return np.exp(1j * np.asarray(w, dtype=complex))

    curve = cdf_gil_pelaez(cf, [0.25, 0.5, 1.5, 2.0], tolerance=1e-4)
    assert curve.cdf[0] < 1e-3 and curve.cdf[1] < 1e-3
    assert curve.cdf[2] > 1.0 - 1e-3 and curve.cdf[3] > 1.0 - 1e-3


def test_gil_pelaez_matches_levy_closed_form():
    spec = spec_for(offset=0.0, beamwidth=math.pi)
    lo = levy_quantile(spec, 0.05)
    hi = levy_quantile(spec, 0.99)
    x = np.geomspace(lo, hi, 25)
    closed = cdf_levy_closed(spec, x)
    inverted = cdf_gil_pelaez(lambda w: cf_levy(spec, w), x, tolerance=1e-6)
    assert np.max(np.abs(closed.cdf - inverted.cdf)) < 1e-5


def test_gil_pelaez_rejects_bad_cf():
    with pytest.raises(ValueError):
        cdf_gil_pelaez(lambda w: 0.5 * np.ones_like(np.asarray(w)), [1.0])


# ---------------------------------------------------------------------------
# CF tabulation and decay scan
# ---------------------------------------------------------------------------

def test_tabulated_cf_matches_direct():
    def cf(w):
        w = np.asarray(w, dtype=complex)
        return 1.0 / (1.0 - 1j * w)

    tab = tabulated_cf(cf, 1e-4, 1e4, points=900)
    w = np.geomspace(2e-4, 5e3, 50)
    assert np.max(np.abs(tab(w) - cf(w))) < 1e-7
    # beyond the table the CF is treated as fully decayed
    assert abs(complex(tab(1e6))) == 0.0


def test_cf_decay_cutoff():
    def cf(w):
        return np.exp(-np.asarray(w, dtype=float) / 100.0)

    cut = cf_decay_cutoff(cf, 1.0, 1e8, threshold=1e-8)
    # |phi| < 1e-8 first near w = 100*ln(1e8) ~ 1842
    assert 1842.0 <= cut <= 2500.0


# ---------------------------------------------------------------------------
# DistributionCurve container
# ---------------------------------------------------------------------------

def test_distribution_curve_validation_and_io():
    grid = np.array([1.0, 2.0, 3.0])
    cdf = np.array([0.1, 0.5, 0.9])
    c = DistributionCurve(grid=grid, cdf=cdf,
                          method=InversionMethod.GIL_PELAEZ, tolerance=1e-6)
    assert c(2.5) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        DistributionCurve(grid=grid, cdf=cdf[::-1].copy(),
                          method=InversionMethod.GIL_PELAEZ, tolerance=1e-6)
    with pytest.raises(ValueError):
        DistributionCurve(grid=grid[::-1].copy(), cdf=cdf,
                          method=InversionMethod.GIL_PELAEZ, tolerance=1e-6)


def test_levy_quantile_roundtrip():
    spec = spec_for(offset=0.0, beamwidth=math.pi)
    for p in (0.1, 0.5, 0.9):
        x = levy_quantile(spec, p)
        curve = cdf_levy_closed(spec, [x])
        assert curve.cdf[0] == pytest.approx(p, abs=1e-12)
    # median against a root-find on the closed form, frozen
    a = math.pi * (0.01 ** 2) * spec.point_scale / 4.0
    z = special.erfcinv(0.5)
    assert levy_quantile(spec, 0.5) == pytest.approx(a / z ** 2, rel=1e-12)
    assert levy_quantile(spec, 0.5) == pytest.approx(
        0.00033579016805027284, rel=1e-9)


# ---------------------------------------------------------------------------
# the CF -> CDF pipeline on fixed nodes
# ---------------------------------------------------------------------------

def ppp_grid(points):
    sc = make_scenario()
    mean = mean_ppp_exact(derive(sc, 0), sc.lanes[0], sc.access)
    return CfSpec.from_scenario(sc), np.geomspace(0.02 * mean, 50.0 * mean, points)


def spy_tabulations(monkeypatch):
    """Record (points, surrogate, omega_hi) of every tabulated_cf call."""
    real = itf.tabulated_cf
    calls = []

    def spy(cf, omega_lo, omega_hi, points=900):
        surrogate = real(cf, omega_lo, omega_hi, points=points)
        calls.append((points, surrogate, omega_hi))
        return surrogate
    monkeypatch.setattr(itf, "tabulated_cf", spy)
    return calls


def test_interference_cdf_matches_adaptive_gil_pelaez(monkeypatch):
    spec, x = ppp_grid(20)
    calls = spy_tabulations(monkeypatch)
    curve = interference_cdf(spec, x)
    assert curve.method is InversionMethod.GIL_PELAEZ
    assert curve.tolerance == 1e-4
    _, surrogate, _ = calls[-1]
    adaptive = cdf_gil_pelaez(surrogate, x, tolerance=1e-6)
    assert np.max(np.abs(curve.cdf - adaptive.cdf)) < 1e-6


def test_surrogate_doubling_evaluates_each_cf_point_once(monkeypatch):
    spec, x = ppp_grid(20)
    calls = spy_tabulations(monkeypatch)
    real_cf = itf.cf_ppp
    evaluated = []

    def counted(spec_, omega):
        evaluated.append(np.size(omega))
        return real_cf(spec_, omega)
    real_cutoff = itf.cf_decay_cutoff

    def cutoff(*args, **kwargs):
        value = real_cutoff(*args, **kwargs)
        evaluated.clear()  # the decay scan is not part of the tabulation
        return value
    monkeypatch.setattr(itf, "cf_ppp", counted)
    monkeypatch.setattr(itf, "cf_decay_cutoff", cutoff)
    interference_cdf(spec, x)
    sizes = [points for points, _, _ in calls]
    assert sizes == [68 * 2 ** k + 1 for k in range(len(sizes))]
    assert len(sizes) >= 2
    assert sum(evaluated) == sizes[-1]


def test_halving_the_panel_width_moves_the_curve_below_tolerance(monkeypatch):
    spec, x = ppp_grid(200)
    calls = spy_tabulations(monkeypatch)
    curve = interference_cdf(spec, x)
    _, surrogate, omega_max = calls[-1]
    base = _invert_band_limited(surrogate, omega_max, x)
    # a grid point at 2 * max(x) halves the panel width 2*pi/max(x)
    halved = _invert_band_limited(surrogate, omega_max, np.append(x, 2.0 * x[-1]))
    assert np.max(np.abs(halved[:-1] - base)) < curve.tolerance / 100.0


def test_band_limited_gamma_law():
    k, th = 3.0, 2.0

    def cf(w):
        return (1.0 - 1j * th * np.asarray(w, dtype=complex)) ** (-k)

    x = np.linspace(0.2, 30.0, 30)
    curve = _cdf_from_cf(cf, x, tolerance=1e-6)
    assert np.max(np.abs(curve.cdf - stats.gamma.cdf(x, k, scale=th))) < 1e-6


def test_unreachable_tolerance_raises_instead_of_looping():
    spec, x = ppp_grid(5)
    with pytest.raises(QuadratureError, match="4353"):
        interference_cdf(spec, x, tolerance=1e-14)


def test_oversize_node_count_refused_before_tabulating(monkeypatch):
    spec, x = ppp_grid(5)

    def refuse(*args, **kwargs):
        raise AssertionError("tabulated the CF before refusing the grid")
    monkeypatch.setattr(itf, "tabulated_cf", refuse)
    with pytest.raises(QuadratureError, match="nodes"):
        interference_cdf(spec, np.append(x, 1e4 * x[-1]))
