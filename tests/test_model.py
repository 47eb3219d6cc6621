"""Scenario dataclasses, unit conversions, and derived constants."""

import math

import numpy as np
import pytest

from radar_sg.model import (FadingModel, GeometryKind, Lane, MediumAccess,
                            RadarParams, Scenario, db_to_linear, dbm_to_watts,
                            derive)
from conftest import make_radar, make_scenario


def test_unit_conversions():
    assert dbm_to_watts(10.0) == pytest.approx(0.01, rel=1e-15)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert db_to_linear(45.0) == pytest.approx(10.0 ** 4.5, rel=1e-15)


def test_derived_constants_defaults(default_consts):
    c = default_consts
    assert c.gamma1 == pytest.approx(97.2520595863719, rel=1e-12)
    assert c.gamma2 == pytest.approx(79.57747154594767, rel=1e-12)
    assert c.delta_o == pytest.approx(75.95754112725152, rel=1e-12)
    # c_coeff = sqrt(pi*T/(4*gamma2)) collapses to pi/10 here
    assert c.c_coeff == pytest.approx(math.pi / 10.0, rel=1e-12)
    assert c.sinr_threshold == 10.0
    assert c.z_o == pytest.approx(0.531597, abs=1e-5)
    assert c.big_k == pytest.approx(c.z_o / c.c_coeff, rel=1e-12)
    assert c.big_c(100.0) == pytest.approx(c.c_coeff * 1e4, rel=1e-14)
    assert c.tx_power == 0.01
    assert c.noise_power == 0.0


def test_delta_o_degenerate_cases():
    omni = make_scenario(beamwidth=math.pi)
    assert derive(omni, 0).delta_o == 0.0
    on_axis = make_scenario(offset=0.0)
    assert derive(on_axis, 0).delta_o == 0.0


def test_lane_spacing():
    assert Lane(offset=0.0, density=0.04).spacing == pytest.approx(25.0)
    with pytest.raises(ValueError):
        Lane(offset=0.0, density=0.0)
    with pytest.raises(ValueError):
        Lane(offset=-1.0, density=0.1)


def test_radar_validation():
    with pytest.raises(ValueError):
        make_radar(tx_power=0.0)
    with pytest.raises(ValueError):
        make_radar(beamwidth=0.0)
    with pytest.raises(ValueError):
        make_radar(beamwidth=3.5)
    with pytest.raises(ValueError):
        make_radar(pathloss_exp=0.9)
    with pytest.raises(ValueError):
        make_radar(sinr_threshold=0.0)
    with pytest.raises(ValueError):
        make_radar(noise_power=-1.0)


def test_medium_access_validation():
    assert MediumAccess(0.0).duty_cycle == 0.0
    assert MediumAccess(1.0).duty_cycle == 1.0
    with pytest.raises(ValueError):
        MediumAccess(1.5)
    with pytest.raises(ValueError):
        MediumAccess(-0.1)


def test_scenario_needs_lanes():
    with pytest.raises(ValueError):
        Scenario(radar=make_radar(), lanes=(), access=MediumAccess(0.1))


def test_derive_lane_index_bounds(default_scenario):
    with pytest.raises(IndexError):
        derive(default_scenario, 1)


def test_custom_fading_mean_check():
    # uniform on [0.5, 1.5]: mass 1, mean 1 -> accepted
    fm = FadingModel.custom(
        sampler=lambda rng, n: 0.5 + rng.random(n),
        pdf=lambda g: 1.0, support=(0.5, 1.5))
    assert fm.kind == "custom"
    # uniform on [0, 1]: mean 0.5 -> rejected
    with pytest.raises(ValueError):
        FadingModel.custom(sampler=lambda rng, n: rng.random(n),
                           pdf=lambda g: 1.0, support=(0.0, 1.0))


def test_geometry_kind_values():
    assert GeometryKind.PPP.value == "ppp"
    assert GeometryKind.BERNOULLI_LATTICE.value == "bernoulli_lattice"
