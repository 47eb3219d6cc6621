"""Ranging-success metrics and duty-cycle optimization."""

import math

import numpy as np
import pytest
from scipy import integrate

from radar_sg.interference import cdf_levy_closed, CfSpec
from radar_sg.model import Lane, MediumAccess, derive
from radar_sg.performance import (OptimizationResult,
                                  _expected_duty_cycle_quadrature,
                                  duty_cycle_asymptote,
                                  expected_optimal_duty_cycle,
                                  nn_distance_pdf, optimal_duty_cycle,
                                  p_success, p_success_il, p_success_wc,
                                  ranging_signal, solve_z0, spatial_success)
from conftest import make_scenario


@pytest.fixture(scope="module")
def consts():
    return derive(make_scenario(), 0)


def test_sinr_and_signal(consts):
    s = ranging_signal(consts, 100.0)
    assert s == pytest.approx(consts.gamma1 * consts.gamma2 * 0.01 * 100.0 ** -4,
                              rel=1e-14)
    with pytest.raises(ValueError):
        ranging_signal(consts, 0.0)


def test_solve_z0():
    # z0 solves erfc(z) = 2 z e^(-z^2) / sqrt(pi); value frozen from an
    # independent bisection oracle
    z0 = solve_z0()
    assert z0 == pytest.approx(0.531597, abs=1e-6)
    lhs = math.erfc(z0)
    rhs = 2.0 * z0 * math.exp(-z0 * z0) / math.sqrt(math.pi)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_p_success_general_matches_cdf(consts):
    # with the worst-case law as the plug-in CDF the general route must
    # reproduce the closed form
    sc = make_scenario(offset=0.0, beamwidth=math.pi, duty_cycle=0.01)
    c0 = derive(sc, 0)
    spec = CfSpec.from_scenario(sc)
    lam_i = 0.001
    a2 = math.pi * lam_i ** 2 * c0.gamma1 * c0.tx_power / 4.0

    def exact_cdf(x):
        return math.erfc(math.sqrt(a2 / x)) if x > 0 else 0.0

    for r in (50.0, 100.0, 150.0):
        general = p_success(exact_cdf, c0, r)
        worst = p_success_wc(c0, r, sc.access, sc.lanes[0])
        assert general == pytest.approx(worst, rel=1e-12)
    # the tabulated-curve route agrees up to interpolation error
    grid = np.geomspace(1e-12, 1e-2, 400)
    curve = cdf_levy_closed(spec, grid)
    assert p_success(curve, c0, 50.0) == pytest.approx(
        p_success_wc(c0, 50.0, sc.access, sc.lanes[0]), rel=1e-3)


def test_p_success_wc_noise_term(consts):
    # success needs I <= S/T - N: the worst case is the exact Levy CDF at
    # S/T - N, falls as the noise grows, and is 0 once N >= S/T
    sc = make_scenario(offset=0.0, beamwidth=math.pi, duty_cycle=0.01)
    c0 = derive(sc, 0)
    lam_i = 0.001
    a2 = math.pi * lam_i ** 2 * c0.gamma1 * c0.tx_power / 4.0

    def exact_cdf(x):
        return math.erfc(math.sqrt(a2 / x)) if x > 0 else 0.0

    r = 20.0
    s_over_t = ranging_signal(c0, r) / 10.0
    values = []
    for frac in (0.0, 0.1, 0.5, 0.9, 1.0, 2.0):
        n = frac * s_over_t
        wc = p_success_wc(c0, r, sc.access, sc.lanes[0], noise=n)
        assert wc == pytest.approx(p_success(exact_cdf, c0, r, noise=n),
                                   rel=1e-12)
        values.append(wc)
    assert values[0] > 0.5
    assert all(b < a for a, b in zip(values[:4], values[1:4]))
    assert values[4] == values[5] == 0.0


def test_p_success_il_example(consts):
    # xi*lambda = 1e-4, R = 100 -> erfc(pi/10 * 1e4 * 1e-4) = erfc(0.31416)
    lane = Lane(offset=10.0, density=0.01)
    access = MediumAccess(0.01)
    v = p_success_il(consts, 100.0, access, lane)
    assert v == pytest.approx(math.erfc(math.pi / 10.0), rel=1e-12)
    assert v == pytest.approx(0.657, abs=1e-3)


def test_p_success_il_power_invariance():
    # the interference-limited success probability depends on neither the
    # transmit power nor the antenna constants
    lane = Lane(offset=10.0, density=0.01)
    access = MediumAccess(0.01)
    a = p_success_il(derive(make_scenario(), 0), 100.0, access, lane)
    b = p_success_il(derive(make_scenario(tx_power=10.0, antenna_gain=10.0), 0),
                     100.0, access, lane)
    assert a == pytest.approx(b, rel=1e-14)


def test_spatial_success_and_optimum(consts):
    lane = Lane(offset=10.0, density=0.01)
    res = optimal_duty_cycle(lane, consts, 100.0)
    assert isinstance(res, OptimizationResult)
    # the optimizer lambda_I* = z0/C, frozen
    assert res.lambda_i_star == pytest.approx(
        consts.z_o / consts.big_c(100.0), rel=1e-12)
    assert res.xi_star == pytest.approx(0.01692, abs=1e-5)
    assert not res.clamped
    # beta at the optimum really is a maximum
    beta = lambda li: li * math.erfc(consts.big_c(100.0) * li)
    assert beta(res.lambda_i_star) == pytest.approx(res.beta_star, rel=1e-12)
    assert beta(res.lambda_i_star) > beta(res.lambda_i_star * 1.1)
    assert beta(res.lambda_i_star) > beta(res.lambda_i_star * 0.9)
    for li in (0.5 * res.lambda_i_star, res.lambda_i_star, 1e-3):
        assert spatial_success(li, consts, 100.0) == pytest.approx(
            beta(li), rel=1e-14)


def test_optimal_duty_cycle_clamps(consts):
    # a sparse lane cannot realize lambda_I* -> xi* clamps at 1
    lane = Lane(offset=10.0, density=1e-5)
    res = optimal_duty_cycle(lane, consts, 50.0)
    assert res.xi_star == 1.0
    assert res.clamped


def test_nn_distance_pdf_normalizes():
    lane = Lane(offset=10.0, density=0.04)
    for n in (1, 2, 5):
        total, _ = integrate.quad(lambda r: nn_distance_pdf(lane, n, r),
                                  0.0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)
    # mode of the n-th neighbor law sits at (n-1)/lambda
    r = np.linspace(1.0, 500.0, 5000)
    f = nn_distance_pdf(lane, 5, r)
    assert r[np.argmax(f)] == pytest.approx(4.0 / 0.04, rel=0.02)


def test_expected_duty_cycle_routes_agree(consts):
    lane = Lane(offset=10.0, density=0.04)
    for n in (3, 7, 20):
        closed = expected_optimal_duty_cycle(lane, consts, n)
        quad = _expected_duty_cycle_quadrature(lane, consts, n)
        assert closed == pytest.approx(quad, abs=1e-8)
        assert 0.0 < closed <= 1.0


def test_expected_duty_cycle_small_n(consts):
    lane = Lane(offset=10.0, density=0.04)
    # below n = 3 the closed form is undefined and quadrature serves
    for n in (1, 2):
        assert expected_optimal_duty_cycle(lane, consts, n) == \
            _expected_duty_cycle_quadrature(lane, consts, n)
    with pytest.raises(ValueError):
        expected_optimal_duty_cycle(lane, consts, 0)
    v1 = expected_optimal_duty_cycle(lane, consts, 1)
    v2 = expected_optimal_duty_cycle(lane, consts, 2)
    v3 = expected_optimal_duty_cycle(lane, consts, 3)
    assert v1 > v2 > v3  # farther targets need smaller duty cycles


def test_duty_cycle_asymptote(consts):
    lane = Lane(offset=10.0, density=0.04)
    assert duty_cycle_asymptote(lane, consts, 10) == pytest.approx(
        0.04 * consts.big_k / 100.0, rel=1e-14)
    ratio = (expected_optimal_duty_cycle(lane, consts, 100)
             / duty_cycle_asymptote(lane, consts, 100))
    assert 0.9 < ratio < 1.1
