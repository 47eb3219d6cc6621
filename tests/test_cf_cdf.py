"""Characteristic functions and Fourier-inversion machinery."""

import json
import math
from importlib import resources

import numpy as np
import pytest
from scipy import integrate, special, stats

from radar_sg import interference as itf
from radar_sg.cli import _default_x_grid, parse_scenario
from radar_sg.interference import (CfSpec, DistributionCurve, InversionMethod,
                                   LaneProcess, MonotonicityError,
                                   QuadratureError, RegimeError, _cdf_from_cf,
                                   _invert_band_limited, cdf_gil_pelaez,
                                   cdf_levy_closed, cf_levy, cf_ppp,
                                   cf_decay_cutoff, interference_cdf,
                                   levy_quantile, mean_ppp_exact, tabulated_cf)
from radar_sg.model import Lane, derive
from radar_sg.performance import ranging_signal
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
                      point_scale=base.point_scale, alpha=base.alpha)

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
                    point_scale=spec.point_scale, alpha=2.0)
    assert complex(cf_ppp_ln0(spec_g, 100.0)) == pytest.approx(
        complex(cf_levy(spec, 100.0)), abs=1e-6)


def test_cf_levy_regime_guard():
    with pytest.raises(RegimeError):
        cf_levy(spec_for(offset=10.0), 1.0)          # nonzero offset
    with pytest.raises(RegimeError):
        cf_levy(spec_for(offset=0.0, beamwidth=math.pi, pathloss_exp=3.0),
                1.0)                                  # alpha != 2


def test_zero_offset_ppp_cf_refusal_names_offset_m():
    # away from alpha = 2 no closed form covers a lane without a guard region
    with pytest.raises(RegimeError, match="offset_m"):
        cf_ppp(spec_for(offset=0.0, pathloss_exp=3.0), 1.0)


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
    # (1/pi) int_W^inf e^(-w/100)/w dw = E1(W/100)/pi falls to 1e-8 at
    # W ~ 1490; the cut lies past that, and the trapezoid estimate's
    # excess on this fast decay moves it at most two 12/decade steps on
    asked = []

    def cf(w):
        asked.append(float(w))
        return np.exp(-np.asarray(w, dtype=float) / 100.0)

    def tail(w):
        return special.exp1(w / 100.0) / math.pi

    cut = cf_decay_cutoff(cf, 1.0, 1e8, 1e-8)
    assert tail(cut) <= 1e-8 < tail(cut / 10.0 ** (2.0 / 12.0))
    # the scan stops at the first sample with |cf| < 1e-12, near
    # w = 100 ln(1e12) ~ 2763
    assert 2763.0 <= max(asked) <= 2763.0 * 10.0 ** (1.0 / 12.0)


def scan_samples(cf, omega_lo, budget):
    """The omegas and |cf| values cf_decay_cutoff samples, and its cut."""
    seen = []

    def recorded(w):
        value = cf(w)
        seen.append((float(w), abs(complex(value))))
        return value
    cut = cf_decay_cutoff(recorded, omega_lo, 1e12, budget)
    omegas, mags = (np.array(v) for v in zip(*seen))
    return omegas, mags, cut


def stable_cf(index):
    """CF of the one-sided stable law of `index`, |cf| = exp(-c w^index)."""
    def cf(w):
        w = np.asarray(w, dtype=float)
        return np.exp(-0.3 * special.gamma(1.0 - index) * (-1j * w + 0j) ** index)
    return cf


@pytest.mark.parametrize("case", ["table1", "stable-1/2", "stable-1/3"])
def test_dropped_tail_estimate_dominates_a_finer_sum(case):
    # the estimate against the trapezoid rule at 40 steps per scan step,
    # carried on past the scan until |cf| < 1e-20, at every scan point
    # from six before the cut on
    if case == "table1":
        spec, x = ppp_grid(20)
        cf, omega_lo = (lambda w: cf_ppp(spec, w)), 0.1 / x[-1]
    else:
        cf, omega_lo = stable_cf(0.5 if case == "stable-1/2" else 1.0 / 3.0), 1e-4
    omegas, mags, cut = scan_samples(cf, omega_lo, 1e-6)
    dlog = math.log(omegas[1] / omegas[0])
    tails = itf._dropped_tails(mags, dlog)
    k0 = max(0, int(np.searchsorted(omegas, cut)) - 6)
    step = dlog / 40.0
    fine_omegas = omegas[k0] * np.exp(step * np.arange(40 * (omegas.size - 1 - k0) + 1))
    fine = list(np.abs(cf(fine_omegas)))
    w = fine_omegas[-1]
    while fine[-1] >= 1e-20:
        w *= math.exp(step)
        fine.append(abs(complex(cf(w))))
    fine = np.array(fine)
    panels = 0.5 * step * (fine[:-1] + fine[1:])
    reference = np.append(np.cumsum(panels[::-1])[::-1], 0.0)[::40] / math.pi
    assert tails[k0] > 1e-6 >= tails[k0 + 6]
    assert np.all(tails[k0:] >= reference[:omegas.size - k0])


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
    # a truncation budget of 1e-16 is below the dropped tail even at the
    # scan's last sample, where |cf| < 1e-12: refused by the scan
    with pytest.raises(QuadratureError, match="dropped tail"):
        interference_cdf(spec, x, tolerance=1e-14)
    # a budget of 1e-13 is met, but the curve still moves at N = 4353
    with pytest.raises(QuadratureError, match="4353"):
        interference_cdf(spec, x, tolerance=1e-11)


@pytest.mark.parametrize("tolerance", [0.0, -1e-4, 1.0, 2.0, math.nan, math.inf])
def test_bad_tolerance_refused_before_evaluating_the_cf(tolerance, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated the CF before checking the tolerance")
    spec, x = ppp_grid(5)
    monkeypatch.setattr(itf, "cf_ppp", refuse)
    with pytest.raises(ValueError, match="tolerance"):
        interference_cdf(spec, x, tolerance=tolerance)
    with pytest.raises(ValueError, match="tolerance"):
        _cdf_from_cf(refuse, x, tolerance)


@pytest.mark.parametrize("cf", [
    lambda w: np.exp(1j * np.asarray(w, dtype=float)),         # a point mass
    lambda w: (1.0 + np.abs(np.asarray(w, dtype=float))) ** -0.05,
], ids=["never-decays", "slow-power-law"])
def test_undecayed_cf_refused_before_tabulating(cf, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tabulated the CF before refusing its tail")
    monkeypatch.setattr(itf, "tabulated_cf", refuse)
    with pytest.raises(QuadratureError, match="dropped tail"):
        _cdf_from_cf(cf, [0.5, 1.0, 2.0], 1e-4)


def cut_at_floor(cf, omega_lo, omega_hi, budget):
    """The first 12/decade scan point with |cf| < 1e-12, whatever the budget."""
    n = int(np.ceil(12.0 * np.log10(omega_hi / omega_lo))) + 1
    for om in np.geomspace(omega_lo, omega_hi, n):
        if abs(complex(cf(om))) < 1e-12:
            return float(om)
    raise AssertionError("the CF never fell below 1e-12")


def table1_spec_and_grid(geometry):
    doc = json.loads(resources.files("radar_sg.data").joinpath("table1.json")
                     .read_text())
    doc["geometry"] = geometry
    sc = parse_scenario(json.dumps(doc))
    return CfSpec.from_scenario(sc), _default_x_grid(sc)


def criterion_5_spec_and_grid():
    sc = make_scenario(duty_cycle=0.01)
    consts = derive(sc, 0)
    args = [ranging_signal(consts, r) / 10.0 for r in np.linspace(10.0, 250.0, 20)]
    return CfSpec.from_scenario(sc), np.sort(args)


@pytest.mark.parametrize("case", ["table1-ppp", "table1-lattice", "criterion-5"])
def test_budget_cut_stays_within_a_tenth_of_tolerance_of_the_floor_cut(
        case, monkeypatch):
    if case == "criterion-5":
        spec, x = criterion_5_spec_and_grid()
    else:
        spec, x = table1_spec_and_grid(
            "ppp" if case == "table1-ppp" else "bernoulli_lattice")
    cuts = {}

    def recorded(name, scan):
        def cut(*args):
            cuts[name] = scan(*args)
            return cuts[name]
        return cut
    monkeypatch.setattr(itf, "cf_decay_cutoff", recorded("budget", cf_decay_cutoff))
    budget_cut = interference_cdf(spec, x)
    monkeypatch.setattr(itf, "cf_decay_cutoff", recorded("floor", cut_at_floor))
    floor_cut = interference_cdf(spec, x)
    # the cuts differ, so the comparison shows something
    assert cuts["budget"] < 0.5 * cuts["floor"]
    assert np.max(np.abs(budget_cut.cdf - floor_cut.cdf)) <= budget_cut.tolerance / 10.0


def test_oversize_node_count_refused_before_tabulating(monkeypatch):
    spec, x = ppp_grid(5)

    def refuse(*args, **kwargs):
        raise AssertionError("tabulated the CF before refusing the grid")
    monkeypatch.setattr(itf, "tabulated_cf", refuse)
    with pytest.raises(QuadratureError, match="nodes"):
        interference_cdf(spec, np.append(x, 1e4 * x[-1]))
