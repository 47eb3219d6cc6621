"""Embedded simulator: determinism, estimates, and goodness of fit."""

import dataclasses
import json
import math
from importlib import resources

import numpy as np
import pytest

from radar_sg import montecarlo
from radar_sg.cli import parse_scenario
from radar_sg.model import GeometryKind, Lane, MediumAccess, derive
from radar_sg.montecarlo import (McConfig, mc_convergence_bl_to_ppp,
                                 mc_interference, mc_ranging_success)
from radar_sg.interference import mean_ppp_exact
from conftest import make_scenario


def test_mc_config_validation():
    McConfig(replicates=100)
    with pytest.raises(ValueError):
        McConfig(replicates=50)
    with pytest.raises(ValueError):
        McConfig(window=0.0)
    with pytest.raises(ValueError):
        McConfig(window=math.nan)
    assert McConfig().replicates == 5000
    assert McConfig().window == 10000.0


def test_mc_interference_deterministic_and_prefix_stable(default_scenario):
    runs = [mc_interference(default_scenario,
                            McConfig(replicates=n, master_seed=11))
            for n in (1000, 1000, 2000)]
    assert runs[0].samples.tobytes() == runs[1].samples.tobytes()
    assert runs[0].mean.value == runs[1].mean.value
    # each replicate owns its substream, so a shorter run is a prefix
    assert runs[0].samples.tobytes() == runs[2].samples[:1000].tobytes()


# seed-0 samples of table1.json at 1000 replicates, recorded once; the
# code that draws them must reproduce them on any later revision
_PINNED_SAMPLES = {
    "ppp": ({0: 7.200689531488451e-05, 1: 9.00027695531298e-05,
             2: 0.00029918935230509997, 10: 0.00015088021599337932,
             500: 0.00013818962771406534, 999: 8.589236395234469e-05},
            0.12693283460800162),
    "bernoulli_lattice": ({0: 3.8433037489952565e-05, 1: 3.4457577265358194e-05,
                           2: 9.423103094418816e-05, 10: 8.860974686923228e-05,
                           500: 0.00018497920100075921, 999: 0.0001563660080296377},
                          0.12631993245117498),
}


@pytest.mark.parametrize("geometry", sorted(_PINNED_SAMPLES))
def test_mc_samples_pinned_across_revisions(geometry):
    # compared at rel 1e-12 rather than bit for bit, since another CPU's
    # libm may round pow differently in the last place
    doc = json.loads(resources.files("radar_sg.data").joinpath("table1.json").read_text())
    doc["geometry"] = geometry
    scenario = parse_scenario(json.dumps(doc))
    samples = mc_interference(scenario, McConfig(replicates=1000, master_seed=0)).samples
    picks, total = _PINNED_SAMPLES[geometry]
    for i, value in picks.items():
        assert samples[i] == pytest.approx(value, rel=1e-12, abs=0), i
    assert float(samples.sum()) == pytest.approx(total, rel=1e-12, abs=0)


def _refuse_to_sample(*args, **kwargs):
    raise AssertionError("sampled a point pattern before refusing the window")


@pytest.mark.parametrize("geometry", list(GeometryKind))
def test_mc_oversize_window_refused_before_sampling(monkeypatch, geometry):
    monkeypatch.setattr(montecarlo, "sample_ppp", _refuse_to_sample)
    monkeypatch.setattr(montecarlo, "sample_lattice", _refuse_to_sample)
    sc = make_scenario(geometry=geometry)
    for window in (1e12, math.inf):
        with pytest.raises(ValueError, match="window"):
            mc_interference(sc, McConfig(replicates=100, window=window))
        with pytest.raises(ValueError, match="window"):
            mc_ranging_success(sc, [50.0], McConfig(replicates=100, window=window))


def test_mc_interference_seed_sensitivity(default_scenario):
    a = mc_interference(default_scenario, McConfig(replicates=400,
                                                   master_seed=1))
    b = mc_interference(default_scenario, McConfig(replicates=400,
                                                   master_seed=2))
    assert not np.array_equal(a.samples, b.samples)


def test_mc_mean_matches_analytic(default_scenario):
    res = mc_interference(default_scenario, McConfig(replicates=4000,
                                                     master_seed=3))
    analytic = mean_ppp_exact(derive(default_scenario, 0),
                              default_scenario.lanes[0],
                              default_scenario.access)
    # the finite window truncates a small positive tail, so allow the
    # band plus the truncation bias
    assert abs(res.mean.value - analytic) < res.mean.ci_halfwidth + 0.02 * analytic
    assert not res.mean_suppressed
    cdf = res.empirical_cdf
    assert cdf.cdf[0] >= 0.0 and cdf.cdf[-1] == pytest.approx(1.0)
    assert np.all(np.diff(cdf.cdf) >= 0)


def test_mc_mean_suppressed_in_heavy_tail_regime():
    # a lane with no offset has no guard region, so its nearest interferer
    # has an infinite mean for every alpha > 1, in either geometry
    table1 = make_scenario()
    with_centre_lane = dataclasses.replace(
        table1, lanes=table1.lanes + (Lane(offset=0.0, density=0.1),))
    for sc in (make_scenario(offset=0.0, beamwidth=math.pi, duty_cycle=0.01),
               make_scenario(offset=0.0, pathloss_exp=3.0),
               make_scenario(offset=0.0, pathloss_exp=3.0,
                             geometry=GeometryKind.BERNOULLI_LATTICE),
               with_centre_lane):
        res = mc_interference(sc, McConfig(replicates=200, master_seed=0))
        assert res.mean_suppressed
        assert math.isnan(res.mean.value)


def test_mc_lattice_geometry(default_scenario):
    sc = make_scenario(geometry=GeometryKind.BERNOULLI_LATTICE)
    res = mc_interference(sc, McConfig(replicates=2000, master_seed=6))
    from radar_sg.interference import mean_bl
    analytic = mean_bl(derive(sc, 0), sc.lanes[0], sc.access)
    assert abs(res.mean.value - analytic) < res.mean.ci_halfwidth + 0.02 * analytic


def test_mc_ranging_success_curve(default_scenario):
    grid = [25.0, 50.0, 100.0, 200.0]
    res = mc_ranging_success(default_scenario, grid,
                             McConfig(replicates=1000, master_seed=7))
    ps = res.p_success
    assert np.all((0.0 <= ps) & (ps <= 1.0))
    assert np.all(np.diff(ps) <= 0)   # success degrades with range
    assert res.ci_halfwidth.shape == (4,)
    assert np.all(res.ci_halfwidth > 0)
    with pytest.raises(ValueError):
        mc_ranging_success(default_scenario, [-1.0],
                           McConfig(replicates=100))


def test_convergence_rows_and_monotone_tv():
    rows = mc_convergence_bl_to_ppp(
        lambda_i=0.01, delta_list=[100.0, 25.0, 6.25],
        intervals=[(i * 200.0, (i + 1) * 200.0) for i in range(10)],
        mc=McConfig(replicates=800, master_seed=0))
    assert [r.spacing for r in rows] == [100.0, 25.0, 6.25]
    assert rows[0].duty_cycle == pytest.approx(1.0)
    # deterministic lattice is flagrantly non-Poisson...
    assert rows[0].p_value < 1e-6
    # ...and thinning toward the limit shrinks the TV distance
    tv = [r.tv_distance for r in rows]
    assert tv[0] > tv[1] > tv[2]


def test_convergence_input_validation():
    mc = McConfig(replicates=100)
    with pytest.raises(ValueError):
        mc_convergence_bl_to_ppp(0.01, [200.0], [(0.0, 100.0)], mc)  # xi > 1
    with pytest.raises(ValueError):
        mc_convergence_bl_to_ppp(0.01, [10.0],
                                 [(0.0, 100.0), (100.0, 300.0)], mc)


def test_convergence_refuses_dense_lattice_before_sampling(monkeypatch):
    monkeypatch.setattr(montecarlo, "sample_lattice", _refuse_to_sample)
    with pytest.raises(ValueError, match="lattice sites"):
        mc_convergence_bl_to_ppp(0.01, [10.0, 1e-6], [(0.0, 100.0)],
                                 McConfig(replicates=100))


def test_convergence_refuses_short_window_before_sampling(monkeypatch):
    monkeypatch.setattr(montecarlo, "sample_lattice", _refuse_to_sample)
    with pytest.raises(ValueError, match="window"):
        mc_convergence_bl_to_ppp(0.01, [10.0], [(0.0, 100.0), (100.0, 200.0)],
                                 McConfig(replicates=100, window=150.0))
