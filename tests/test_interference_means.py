"""Mean-interference closed forms against quadrature / brute-sum oracles."""

import numpy as np
import pytest

from radar_sg.interference import (aggregate_interference, mean_bl,
                                   mean_ppp_exact, mean_simplified)
from radar_sg.model import Lane, MediumAccess, derive
from conftest import make_scenario


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
    # the exact form is offset-specific; the no-offset case is served by
    # the simplified form
    sc = make_scenario()
    consts = derive(sc, 0)
    with pytest.raises(ValueError):
        mean_ppp_exact(consts, Lane(offset=0.0, density=0.1), sc.access)


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


def test_mean_bl_zeta_route_agrees():
    # the Hurwitz-zeta route needs alpha > 2; the guard distance comes
    # from the scenario while the summed lane has no transverse offset
    sc = make_scenario(pathloss_exp=3.0)
    consts = derive(sc, 0)
    lane0 = Lane(offset=0.0, density=0.1)
    a = mean_bl(consts, lane0, sc.access, use_zeta=False)
    b = mean_bl(consts, lane0, sc.access, use_zeta=True)
    assert a == pytest.approx(b, rel=1e-10)


def test_mean_bl_zeta_route_domain(default_consts, default_scenario):
    with pytest.raises(ValueError):
        mean_bl(default_consts, Lane(0.0, 0.1), default_scenario.access,
                use_zeta=True)  # alpha = 2 not > 2


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
    v = aggregate_interference(pos, consts, np.array([1.0, 2.0]),
                               lane_offset=0.0)
    ref = consts.gamma1 * 0.01 * (100.0 ** -2 + 2.0 * 200.0 ** -2)
    assert v == pytest.approx(ref, rel=1e-14)
    assert aggregate_interference(np.empty(0), consts, np.empty(0)) == 0.0
    with pytest.raises(ValueError):
        aggregate_interference(pos, consts, np.array([1.0]))
