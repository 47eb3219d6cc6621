"""Special-function wrappers against frozen independent oracle values."""

import math

import numpy as np
import pytest

from radar_sg import specfun
from oracles import expint_gen


def test_erfc_basics():
    assert specfun.erfc(0.0) == 1.0
    assert specfun.erfc(-np.inf) == 2.0
    x = 0.7
    assert specfun.erfc(x) + specfun.erfc(-x) == pytest.approx(2.0, abs=1e-15)


def test_gamma_upper_oracle():
    # high-precision quadrature oracle, frozen
    assert specfun.gamma_upper(2.5, 1.7) == pytest.approx(
        0.8488767894583207, rel=1e-12)
    assert specfun.gamma_upper(1.0, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_upper_integer_partial_sum():
    # Gamma(n, x) = (n-1)! e^-x sum_{k=0}^{n-1} x^k/k!
    n, x = 5, 2.3
    partial = sum(x ** k / math.factorial(k) for k in range(n))
    ref = math.factorial(n - 1) * math.exp(-x) * partial
    assert specfun.gamma_upper(n, x) == pytest.approx(ref, rel=1e-13)


def test_gamma_upper_domain():
    with pytest.raises(ValueError):
        specfun.gamma_upper(0.0, 1.0)
    with pytest.raises(ValueError):
        specfun.gamma_upper(2.0, -1.0)


def test_hurwitz_zeta_oracle():
    # mpmath zeta(s, a) oracle values, frozen
    assert specfun.hurwitz_zeta(3.0, 2.0) == pytest.approx(
        0.2020569031595943, rel=1e-13)
    assert specfun.hurwitz_zeta(2.5, 0.7) == pytest.approx(
        2.902867577757346, rel=1e-13)


def test_hurwitz_zeta_domain():
    with pytest.raises(ValueError):
        specfun.hurwitz_zeta(1.0, 1.0)
    with pytest.raises(ValueError):
        specfun.hurwitz_zeta(2.0, 0.0)


def test_hyp2f1_neg_arctan_identity():
    # 2F1(1/2, 1; 3/2; -w^2) = arctan(w)/w
    for w in (0.3, 1.0, 4.0, 25.0):
        assert specfun.hyp2f1_neg(1.0, -w * w) == pytest.approx(
            math.atan(w) / w, rel=1e-12)


def test_hyp2f1_neg_oracle():
    # real-axis quadrature oracle values, frozen
    assert specfun.hyp2f1_neg(1.5, -1.0) == pytest.approx(
        0.7071067811865476, rel=1e-12)
    assert specfun.hyp2f1_neg(0.75, -4.0) == pytest.approx(
        0.6276503166979763, rel=1e-12)


def test_hyp2f1_neg_domain():
    with pytest.raises(ValueError):
        specfun.hyp2f1_neg(1.0, 0.5)


def test_expint_gen_oracle():
    # expint_gen(n, z) = E_n(-z); complex-quadrature oracle values, frozen
    v = expint_gen(1.5, -2j)
    assert v == pytest.approx(-0.3867065296036316 - 0.022727770285048958j,
                              rel=1e-10)
    v = expint_gen(1.5, -0.5 - 3j)
    assert v == pytest.approx(-0.09929829209851479 + 0.1312634705803657j,
                              rel=1e-10)


def test_expint_gen_domain():
    with pytest.raises(ValueError):
        expint_gen(1.5, 0.1 + 1j)   # divergent half-plane
    with pytest.raises(ValueError):
        expint_gen(0.9, 1j)          # imaginary axis needs order > 1
