"""Point-process samplers and geometry helpers."""

import numpy as np
import pytest

from radar_sg.geometry import count_in_intervals, sample_lattice, sample_ppp
from radar_sg.model import Lane, MediumAccess


LANE = Lane(offset=10.0, density=0.1)
ACCESS = MediumAccess(0.1)


def test_ppp_sample_shape_and_support():
    rng = np.random.default_rng(0)
    pos = sample_ppp(LANE, ACCESS, delta_o=75.0, window=10000.0, rng=rng)
    assert np.all(pos > 75.0)
    assert np.all(pos <= 10000.0)
    assert np.all(np.diff(pos) >= 0)  # sorted


def test_ppp_count_mean():
    # thinned intensity 0.01 on a 9925 m window -> mean count 99.25
    rng = np.random.default_rng(1)
    counts = [len(sample_ppp(LANE, ACCESS, 75.0, 10000.0, rng))
              for _ in range(2000)]
    mean = np.mean(counts)
    # 99% band: 2.576 * sqrt(99.25/2000) ~ 0.574
    assert abs(mean - 99.25) < 0.7


def test_ppp_zero_duty_cycle_is_empty():
    rng = np.random.default_rng(2)
    pos = sample_ppp(LANE, MediumAccess(0.0), 75.0, 10000.0, rng)
    assert len(pos) == 0


def test_ppp_window_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_ppp(LANE, ACCESS, delta_o=100.0, window=50.0, rng=rng)


def test_lattice_shared_translation():
    # with duty cycle 1 every site is kept: consecutive gaps all equal delta
    rng = np.random.default_rng(3)
    pos = sample_lattice(LANE, MediumAccess(1.0), 0.0, 1000.0, rng)
    gaps = np.diff(pos)
    assert np.allclose(gaps, 10.0, atol=1e-9)
    frac = (pos / 10.0) % 1.0
    assert np.allclose(frac, frac[0], atol=1e-9)  # one shared translation


def test_lattice_strict_guard_cutoff():
    rng = np.random.default_rng(4)
    for _ in range(50):
        pos = sample_lattice(LANE, MediumAccess(1.0), 75.0, 2000.0, rng)
        assert np.all(pos > 75.0)


def test_lattice_retention_mean():
    rng = np.random.default_rng(5)
    counts = [len(sample_lattice(LANE, ACCESS, 0.0, 10000.0, rng))
              for _ in range(2000)]
    # ~1000 sites at retention 0.1 -> mean 100
    assert abs(np.mean(counts) - 100.0) < 1.0


def test_count_in_intervals():
    pos = np.array([1.0, 2.0, 2.5, 7.0, 10.0])
    counts = count_in_intervals(pos, [(0.0, 2.0), (2.0, 5.0), (5.0, 10.0)])
    # half-open (lo, hi]: 2.0 falls in the first interval, 10.0 in the third
    assert list(counts) == [2, 1, 2]
    with pytest.raises(ValueError):
        count_in_intervals(pos, [(0.0, 2.0), (1.0, 3.0)])   # overlap
    with pytest.raises(ValueError):
        count_in_intervals(pos, [(2.0, 2.0)])                # empty
