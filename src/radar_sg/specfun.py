"""Special functions needed by the analytic interference formulas.

Only the signatures actually used by the closed forms are exposed; in
particular the Gauss hypergeometric function is pinned to the
(1/2, a/2; 3/2; z<=0) shape and no analytic continuation of the Hurwitz
zeta below s = 1 is offered.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp


def erfc(x):
    """Complementary error function, total on finite real input."""
    return sp.erfc(x)


def gamma_upper(a: float, x) -> float:
    """Upper incomplete gamma Gamma(a, x) = int_x^inf t^(a-1) e^-t dt.

    Note: for integer n the identity Gamma(n, x) = (n-1)! e^-x
    sum_{k=0}^{n-1} x^k / k! holds with the partial sum running to n-1
    (not n); the standard identity is what this routine satisfies.
    """
    if a <= 0:
        raise ValueError(f"gamma_upper requires a > 0, got a={a}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("gamma_upper requires x >= 0")
    out = sp.gammaincc(a, x) * sp.gamma(a)
    return float(out) if out.ndim == 0 else out


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta sum_{m>=0} (m+a)^-s for s > 1, a > 0."""
    if s <= 1:
        raise ValueError(f"hurwitz_zeta requires s > 1, got s={s}")
    if a <= 0:
        raise ValueError(f"hurwitz_zeta requires a > 0, got a={a}")
    return float(sp.zeta(s, a))


def hyp2f1_neg(b_half_alpha: float, z) -> float:
    """2F1(1/2, b; 3/2; z) for z <= 0, the only shape the mean formula needs.

    scipy applies the argument transformations needed for convergence at
    large negative z; the wrapper only enforces the restricted domain.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z > 0):
        raise ValueError("hyp2f1_neg is defined for z <= 0 only")
    out = sp.hyp2f1(0.5, b_half_alpha, 1.5, z)
    return float(out) if out.ndim == 0 else out
