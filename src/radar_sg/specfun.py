"""Special functions needed by the analytic interference formulas.

Only the signatures actually used by the closed forms are exposed.
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
