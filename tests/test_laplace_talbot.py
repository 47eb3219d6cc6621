"""Lattice Laplace transform and deformed-contour inversion."""

import numpy as np
import pytest

from radar_sg.interference import (CfSpec, ContourError, InversionMethod,
                                   _bernoulli_log_factor, cdf_bl_talbot,
                                   cdf_from_laplace_talbot, cf_bl, laplace_bl)
from radar_sg.model import GeometryKind
from conftest import make_scenario
from oracles import cf_bl_brute


@pytest.fixture(scope="module")
def bl_spec():
    sc = make_scenario(geometry=GeometryKind.BERNOULLI_LATTICE)
    return CfSpec.from_scenario(sc)


def test_laplace_bl_brute_product_oracle(bl_spec):
    # 400k-site translation-averaged product oracle with an analytic
    # site-truncation tail, frozen
    assert complex(laplace_bl(bl_spec, 200.0)) == pytest.approx(
        0.9749842991791979 + 0j, abs=5e-7)
    assert complex(laplace_bl(bl_spec, 5000.0)) == pytest.approx(
        0.5673836444848173 + 0j, abs=5e-7)
    assert complex(laplace_bl(bl_spec, 3000.0 + 4000.0j)) == pytest.approx(
        0.6103514807410995 - 0.2851939715821402j, abs=5e-7)


def test_cf_bl_imaginary_axis_brute_product_oracle(bl_spec):
    # one omega per decade up to the 1e-12 decay cut at 5.8e6, where the
    # near-field panel count and the far-field spline are largest; the
    # code's second-order site tail leaves up to 5.3e-6 relative there
    for w in (1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 5e6):
        expected = cf_bl_brute(bl_spec, w)
        assert complex(cf_bl(bl_spec, w)) == pytest.approx(expected, rel=1e-5, abs=0)


def test_bernoulli_log_factor_matches_complex_log():
    # xi > 1/2 makes 1 - xi + xi cos(theta) negative, where atan2 must
    # follow the principal log; at xi = 1/2 the factor nearly vanishes
    # near odd multiples of pi.  Off the imaginary axis the site factor
    # e^(-s a) carries the damping exp(-Re(s) a): below 1 for Re(s) > 0,
    # above 1 for Re(s) < 0, where the Talbot contour runs
    theta = np.linspace(0.0, 1e4, 200_001)
    a = np.linspace(0.0, 1.0, theta.size)
    for xi in (0.01, 0.1, 0.5, 0.9, 1.0):
        re, im = _bernoulli_log_factor(theta, xi)
        ref = np.log((1.0 - xi) + xi * np.exp(1j * theta))
        assert np.max(np.abs(re - ref.real)) <= 1e-13, xi
        assert np.max(np.abs(im - ref.imag)) <= 1e-13, xi
        for sigma in (0.1, 1.0, 5.0, 30.0, -2.0):
            damp = np.exp(-sigma * a)
            re, im = _bernoulli_log_factor(theta, xi, damp)
            ref = np.log((1.0 - xi) + xi * damp * np.exp(1j * theta))
            assert np.max(np.abs(re - ref.real)) <= 1e-13, (xi, sigma)
            assert np.max(np.abs(im - ref.imag)) <= 1e-13, (xi, sigma)


def test_laplace_bl_basic_properties(bl_spec):
    assert complex(laplace_bl(bl_spec, 0.0)) == pytest.approx(1.0, abs=1e-12)
    vals = [laplace_bl(bl_spec, s).real for s in (0.0, 100.0, 1e3, 1e4, 1e5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing on s > 0
    assert all(0.0 < v <= 1.0 for v in vals)
    # far left of the axis the transform overflows, which the Talbot
    # contour reads as inf; on the real axis the overflowed damping meets
    # sin(0) = 0, and the NaN that makes must read as inf too
    assert laplace_bl(bl_spec, -1e8) == complex(np.inf, 0.0)


def test_cf_bl_properties(bl_spec):
    om = np.array([10.0, 1e3, 1e5])
    phi = cf_bl(bl_spec, om)
    assert np.all(np.abs(phi) <= 1.0 + 1e-9)
    assert complex(cf_bl(bl_spec, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(cf_bl(bl_spec, -om), np.conj(phi), rtol=1e-9)


def test_talbot_exponential_default_nodes():
    tr = lambda s: 1.0 / (s + 1.0)
    x = np.linspace(0.1, 8.0, 25)
    curve = cdf_from_laplace_talbot(tr, x)
    assert np.max(np.abs(curve.cdf - (1.0 - np.exp(-x)))) < 1e-7
    assert curve.method is InversionMethod.TALBOT


def test_talbot_more_nodes_lose_accuracy_in_doubles():
    # doubling the node count inflates the contour radius until roundoff
    # exceeds the 1e-6 target; this is why 32 nodes is the default
    tr = lambda s: 1.0 / (s + 1.0)
    x = np.linspace(0.1, 8.0, 25)
    err64 = np.max(np.abs(cdf_from_laplace_talbot(tr, x, nodes=64).cdf
                          - (1.0 - np.exp(-x))))
    assert err64 > 1e-6


def test_talbot_gamma_law():
    k = 3.0
    tr = lambda s: (1.0 + s) ** (-k)
    from scipy import stats
    x = np.linspace(0.3, 15.0, 20)
    curve = cdf_from_laplace_talbot(tr, x)
    assert np.max(np.abs(curve.cdf - stats.gamma.cdf(x, k))) < 1e-7


def test_talbot_detects_nondecaying_transform():
    # a unit point mass has transform e^{-s}, which blows up along the
    # deformed contour: the roundoff check must refuse, not return junk
    with pytest.raises(ContourError) as exc:
        cdf_from_laplace_talbot(lambda s: np.exp(-s), [0.5, 1.5])
    assert exc.value.x is not None


def test_bl_inversion_strict_raises(bl_spec):
    # bounded support makes the transform entire, so the contour method
    # cannot converge; the contour alone surfaces that as ContourError
    with pytest.raises(ContourError):
        cdf_from_laplace_talbot(lambda s: laplace_bl(bl_spec, s), [1e-4, 2e-4])


def test_bl_inversion_falls_back(bl_spec):
    from radar_sg.interference import mean_bl
    from radar_sg.model import derive
    sc = make_scenario(geometry=GeometryKind.BERNOULLI_LATTICE)
    mean = mean_bl(derive(sc, 0), sc.lanes[0], sc.access)
    x = np.geomspace(0.05 * mean, 10.0 * mean, 12)
    curve = cdf_bl_talbot(bl_spec, x)
    assert curve.method is InversionMethod.GIL_PELAEZ
    assert curve.cdf[0] < 0.05
    assert curve.cdf[-1] > 0.95
    assert np.all(np.diff(curve.cdf) >= 0)
    assert curve.tolerance == 1e-4
    # the fallback works to the tolerance the caller asked for
    assert cdf_bl_talbot(bl_spec, x, tolerance=2e-4).tolerance == 2e-4
