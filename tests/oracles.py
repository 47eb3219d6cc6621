"""Independent reference formulas used only by the tests.

The PPP characteristic function for a zero lane offset has a closed form
in the generalized exponential integral; the tests compare the package's
quadrature route and its Levy closed form against it.  It needs mpmath,
which the package itself does not depend on.
"""

import mpmath
import numpy as np
from scipy import special as sp

from radar_sg.interference import CfSpec, RegimeError, _fading_nodes


def expint_gen(n_order: float, z: complex) -> complex:
    """Generalized exponential integral int_1^inf e^(z t) / t^n dt.

    Sign convention: the exponent carries +z*t, so this equals the
    standard E_n(-z).  The integral diverges for Re(z) > 0, and for
    purely imaginary z it converges (conditionally) only when n > 1.
    """
    z = complex(z)
    if z.real > 0:
        raise ValueError(f"expint_gen diverges for Re(z) > 0, got z={z}")
    if z.real == 0 and z.imag != 0 and n_order <= 1:
        raise ValueError("expint_gen on the imaginary axis requires order > 1")
    return complex(mpmath.expint(n_order, -z))


def cf_ppp_ln0(spec: CfSpec, omega):
    """Closed-form PPP CF for zero lane offset (guard distance kept)."""
    for lane in spec.lanes:
        if lane.offset != 0.0:
            raise RegimeError("cf_ppp_ln0 requires a zero lane offset")
    om = np.asarray(omega, dtype=float)
    scalar = om.ndim == 0
    om1 = np.atleast_1d(om)
    alpha = spec.alpha
    b = spec.point_scale
    if spec.fading.kind == "unit":
        gw = [(1.0, 1.0)]
    else:
        g, w = _fading_nodes(spec.fading)
        gw = list(zip(g, w))
    out = np.empty(om1.shape, dtype=complex)
    for i, w_ in enumerate(om1):
        if w_ == 0.0:
            out[i] = 1.0
            continue
        wa = abs(float(w_))
        expo = 0.0 + 0.0j
        for lane in spec.lanes:
            d0 = lane.delta_o
            bracket = 0.0 + 0.0j
            for g, wgt in gw:
                term = sp.gamma(1.0 - 1.0 / alpha) * (-1j * b * g * wa) ** (1.0 / alpha)
                if d0 > 0.0:
                    term += (d0 / alpha) * expint_gen(
                        1.0 + 1.0 / alpha, 1j * b * g * d0 ** (-alpha) * wa) - d0
                bracket += wgt * term
            expo += lane.lambda_i * bracket
        val = np.exp(-expo)
        out[i] = val if w_ > 0 else np.conj(val)
    return complex(out[0]) if scalar else out
