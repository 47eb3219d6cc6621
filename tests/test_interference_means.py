"""Mean-interference closed forms against quadrature / brute-sum oracles."""

import numpy as np
import pytest

from radar_sg.interference import (_tail_integral, _tail_sum,
                                   aggregate_interference, mean_bl,
                                   mean_ppp_exact, mean_simplified)
from radar_sg.model import Lane, MediumAccess, derive
from conftest import make_scenario
from oracles import tail_integral_mp


def test_mean_simplified_default(default_scenario, default_consts):
    lane = default_scenario.lanes[0]
    v = mean_simplified(default_consts, lane, default_scenario.access)
    # xi*lam*gamma1*P0 / ((alpha-1) * delta_o^(alpha-1)), frozen
    assert v == pytest.approx(1.280348e-4, rel=1e-6)


def test_mean_exact_quadrature_oracle():
    # adaptive-quadrature oracle of the offset-including integral, frozen
    sc = make_scenario(density=0.01)
    v = mean_ppp_exact(derive(sc, 0), sc.lanes[0], sc.access)
    assert v == pytest.approx(1.2730264830960647e-05, rel=1e-10)


def test_mean_exact_requires_offset():
    # at L = 0 the Campbell mean is the simplified form; with no guard
    # region either (delta_o = L = 0) the mean is infinite and refused
    sc = make_scenario()
    consts = derive(sc, 0)
    lane0 = Lane(offset=0.0, density=0.1)
    assert mean_ppp_exact(consts, lane0, sc.access) == pytest.approx(
        mean_simplified(consts, lane0, sc.access), rel=1e-15, abs=0.0)
    no_guard = derive(make_scenario(offset=0.0), 0)
    with pytest.raises(ValueError, match="infinite"):
        mean_ppp_exact(no_guard, lane0, sc.access)


def test_mean_exact_offset_continuity():
    # L -> 0 limit of the exact form approaches the simplified form
    sc = make_scenario()
    consts = derive(sc, 0)
    simple = mean_simplified(consts, Lane(1e-3, 0.1), sc.access)
    exact = mean_ppp_exact(consts, Lane(1e-3, 0.1), sc.access)
    assert exact == pytest.approx(simple, rel=1e-9)


def test_mean_bl_brute_sum_oracle(default_scenario, default_consts):
    # per-site quadrature sum oracle over 200k lattice sites, frozen
    lane = default_scenario.lanes[0]
    v = mean_bl(default_consts, lane, default_scenario.access)
    assert v == pytest.approx(0.00012730264830959284, rel=1e-9)


def test_mean_bl_matches_ppp_without_offset(default_consts, default_scenario):
    lane0 = Lane(offset=0.0, density=0.1)
    bl = mean_bl(default_consts, lane0, default_scenario.access)
    ppp = mean_simplified(default_consts, lane0, default_scenario.access)
    assert bl == pytest.approx(ppp, rel=1e-12)


def test_mean_bl_campbell_oracle():
    # the translated lattice is stationary with intensity xi/delta, so its
    # mean is Campbell's integral, here by 30-digit quadrature; lane offsets
    # far below the spacing make the nearest site's term sharply peaked in
    # the translation
    for offset in (1e-3, 1e-2):
        for spacing in (10.0, 200.0):
            for alpha in (2.0, 3.0):
                sc = make_scenario(density=1.0 / spacing, offset=offset,
                                   pathloss_exp=alpha)
                c = derive(sc, 0)
                ref = (sc.access.duty_cycle / spacing * c.gamma1 * c.tx_power
                       * tail_integral_mp(c.delta_o, alpha, offset))
                assert mean_bl(c, sc.lanes[0], sc.access) == pytest.approx(
                    ref, rel=1e-10, abs=0.0), (offset, spacing, alpha)


def test_tail_integral_mpmath_oracle():
    # the series and incomplete-beta branches meet at lower = 2 * offset; at
    # lower/offset = 99 and alpha = 9 a difference of the full integral and
    # its head would keep no correct digit, and below 2 * offset at alpha = 27
    # it kept five
    offset = 1.3
    for alpha in (1.5, 2.0, 3.0, 4.0, 6.0, 9.0):
        for q in (0.0, 0.5, 7.6, 30.0, 60.0, 99.0, 101.0, 1000.0):
            ref = tail_integral_mp(q * offset, alpha, offset)
            assert _tail_integral(q * offset, alpha, offset) == pytest.approx(
                ref, rel=1e-12, abs=0.0), (alpha, q)
    # lower = 0 is left out here: at alpha > 9 the oracle's own quadrature is
    # off the exact Gamma ratio by more than the tolerance
    for alpha in (12.0, 18.0, 27.0):
        for q in (0.5, 1.0, 1.5, 1.9):
            ref = tail_integral_mp(q * offset, alpha, offset)
            assert _tail_integral(q * offset, alpha, offset) == pytest.approx(
                ref, rel=1e-12, abs=0.0), (alpha, q)


def _tail_sum_scalar(v0, alpha, ln, delta, scale):
    # the per-node loop _tail_sum replaced
    flat = np.asarray(v0, dtype=float).ravel()
    out = np.empty(flat.shape)
    for i, v in enumerate(flat):
        f0 = (v * v + ln * ln) ** (-alpha / 2.0)
        fp0 = -alpha * delta * v * (v * v + ln * ln) ** (-alpha / 2.0 - 1.0)
        out[i] = _tail_integral(v, alpha, ln) / delta + 0.5 * f0 - fp0 / 12.0
    return scale * out


def test_tail_sum_matches_scalar_loop_bit_for_bit():
    # offset 0; lower >= 2 * offset (the series, whose elements stop at
    # different terms); lower < 2 * offset (the closed form), mixed with
    # the series in one call as at a lattice's first sites
    u = np.linspace(0.0, 1.0, 96)
    cases = [(0.0, 75.96 + (16.0 + u) * 10.0),
             (10.0, 75.96 + (16.0 + u) * 10.0),
             (10.0, np.geomspace(20.0, 1e5, 96)),
             (10.0, np.linspace(0.5, 40.0, 96))]
    for alpha in (2.0, 2.7, 4.0, 6.0):
        for ln, v0 in cases:
            got = _tail_sum(v0, alpha, ln, 10.0, 0.97)
            assert np.array_equal(got, _tail_sum_scalar(v0, alpha, ln, 10.0, 0.97)), \
                (alpha, ln)


def test_means_scale_linearly(default_scenario, default_consts):
    lane = default_scenario.lanes[0]
    half = MediumAccess(0.05)
    assert (mean_simplified(default_consts, lane, half)
            == pytest.approx(0.5 * mean_simplified(default_consts, lane,
                                                   default_scenario.access)))
    assert mean_simplified(default_consts, lane, MediumAccess(0.0)) == 0.0


def test_aggregate_interference():
    sc = make_scenario()
    consts = derive(sc, 0)
    pos = np.array([100.0, 200.0])
    # unit gain: each interferer adds gamma1 * P0 * ||x||^-alpha
    v = aggregate_interference(pos, consts, lane_offset=0.0)
    ref = consts.gamma1 * 0.01 * (100.0 ** -2 + 200.0 ** -2)
    assert v == pytest.approx(ref, rel=1e-14, abs=0)
    # the lane offset enters the distance: ||x||^2 = x^2 + L^2
    v = aggregate_interference(pos, consts, lane_offset=10.0)
    ref = consts.gamma1 * 0.01 * (1.0 / (100.0 ** 2 + 100.0) + 1.0 / (200.0 ** 2 + 100.0))
    assert v == pytest.approx(ref, rel=1e-14, abs=0)
    assert aggregate_interference(np.empty(0), consts) == 0.0
