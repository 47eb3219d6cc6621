"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; each test prints a
CRITERION line with the measured quantities next to its bound.
"""

import math
import time

import numpy as np
import pytest

from radar_sg.interference import (CfSpec, cdf_gil_pelaez, cdf_bl_talbot,
                                   cdf_levy_closed, cf_decay_cutoff, cf_levy,
                                   cf_ppp, levy_quantile, mean_bl,
                                   mean_simplified, tabulated_cf)
from radar_sg.model import (GeometryKind, Lane, MediumAccess, derive)
from radar_sg.montecarlo import (McConfig, mc_convergence_bl_to_ppp,
                                 mc_interference, mc_ranging_success)
from radar_sg.performance import (expected_optimal_duty_cycle,
                                  duty_cycle_asymptote, p_success,
                                  p_success_il, p_success_wc, ranging_signal,
                                  solve_z0)
from conftest import make_scenario


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_mean_interference_overlay():
    """Closed-form PPP and lattice means coincide and the simulator
    reproduces them within 2% at four traffic densities."""
    t0 = time.time()
    densities = [1 / 200, 1 / 100, 1 / 50, 1 / 25]
    worst_closed = 0.0
    worst_mc = 0.0
    for lam in densities:
        sc = make_scenario(density=lam)       # defaults otherwise
        consts = derive(sc, 0)
        # no transverse offset in the pathloss; the guard region stays
        ppp = mean_simplified(consts, Lane(offset=0.0, density=lam), sc.access)
        bl = mean_bl(consts, Lane(offset=0.0, density=lam), sc.access)
        worst_closed = max(worst_closed, abs(ppp - bl) / ppp)
        mc = mc_interference(sc, McConfig(replicates=5000, window=10_000.0,
                                          master_seed=22))
        worst_mc = max(worst_mc, abs(mc.mean.value - ppp) / ppp)
    dt = time.time() - t0
    ok = worst_closed < 1e-12 and worst_mc < 0.02 and dt < 30.0
    report(1, ok, f"closed-form rel diff {worst_closed:.2e} < 1e-12, "
                  f"MC rel err {worst_mc:.4f} < 0.02, runtime {dt:.1f}s < 30s")


def test_criterion_2_levy_cdf_identity():
    """Fourier inversion of the stable-law CF reproduces its closed-form
    CDF to 1e-4 at a 100 m mean interferer spacing."""
    t0 = time.time()
    sc = make_scenario(offset=0.0, beamwidth=math.pi)  # lambda_i = 0.01
    spec = CfSpec.from_scenario(sc)
    lo = levy_quantile(spec, 0.01)
    hi = levy_quantile(spec, 0.99)
    x = np.geomspace(lo, hi, 60)
    closed = cdf_levy_closed(spec, x)
    inverted = cdf_gil_pelaez(lambda w: cf_levy(spec, w), x, tolerance=1e-6)
    sup = float(np.max(np.abs(closed.cdf - inverted.cdf)))
    dt = time.time() - t0
    ok = sup < 1e-4 and dt < 10.0
    report(2, ok, f"sup |closed - inverted| {sup:.2e} < 1e-4, "
                  f"runtime {dt:.1f}s < 10s")


def test_criterion_3_ppp_vs_bl_cdf_proximity():
    """The lattice and Poisson interference CDFs stay within 0.05 of each
    other and each matches its own 5000-replicate empirical CDF inside
    the 99% Kolmogorov-Smirnov band."""
    t0 = time.time()
    n_rep = 5000
    ks_band = 1.628 / math.sqrt(n_rep)

    sc_ppp = make_scenario(geometry=GeometryKind.PPP)
    sc_bl = make_scenario(geometry=GeometryKind.BERNOULLI_LATTICE)
    consts = derive(sc_ppp, 0)
    mean = mean_bl(consts, sc_ppp.lanes[0], sc_ppp.access)
    x = np.geomspace(0.02 * mean, 50.0 * mean, 200)

    spec_ppp = CfSpec.from_scenario(sc_ppp)
    cut = cf_decay_cutoff(lambda w: cf_ppp(spec_ppp, w), 0.1 / x[-1], 1e12)
    tab = tabulated_cf(lambda w: cf_ppp(spec_ppp, w), cut * 1e-7, cut, 1100)
    curve_ppp = cdf_gil_pelaez(tab, x, tolerance=1e-4)

    spec_bl = CfSpec.from_scenario(sc_bl)
    curve_bl = cdf_bl_talbot(spec_bl, x)

    sup = float(np.max(np.abs(curve_ppp.cdf - curve_bl.cdf)))

    def ks_stat(curve, scenario):
        res = mc_interference(scenario, McConfig(replicates=n_rep,
                                                 master_seed=0))
        s = np.sort(res.samples)
        f = curve(s)
        i = np.arange(1, n_rep + 1)
        return float(max(np.max(np.abs(f - i / n_rep)),
                         np.max(np.abs(f - (i - 1) / n_rep))))

    ks_ppp = ks_stat(curve_ppp, sc_ppp)
    ks_bl = ks_stat(curve_bl, sc_bl)
    dt = time.time() - t0
    ok = (sup < 0.05 and ks_ppp < ks_band and ks_bl < ks_band and dt < 120.0)
    report(3, ok, f"sup |PPP - BL| {sup:.4f} < 0.05, "
                  f"KS ppp {ks_ppp:.4f} / bl {ks_bl:.4f} < {ks_band:.4f}, "
                  f"runtime {dt:.1f}s < 120s")


def test_criterion_4_z0_root():
    """The duty-cycle optimality condition root is 0.531597 +/- 1e-5,
    found in under a millisecond."""
    solve_z0()  # warm the cache: the budget covers the lookup, not brentq
    t0 = time.perf_counter()
    z0 = solve_z0()
    dt = time.perf_counter() - t0
    ok = abs(z0 - 0.531597) < 1e-5 and dt < 1e-3
    report(4, ok, f"z0 = {z0:.8f} within 1e-5 of 0.531597, "
                  f"lookup {dt * 1e6:.1f}us < 1ms")


def test_criterion_5_ranging_success():
    """Simulated ranging success matches the interference-limited closed
    form inside 99% binomial bands, and the general-case curve dominates
    the worst-case bound."""
    t0 = time.time()
    grid = np.linspace(10.0, 250.0, 20)
    worst_miss = 0

    for lam in (1 / 25, 1 / 50, 1 / 100):
        # worst-case geometry: no guard region, no transverse offset
        sc = make_scenario(density=lam, duty_cycle=0.01, offset=0.0,
                           beamwidth=math.pi)
        consts = derive(sc, 0)
        analytic = np.array([p_success_il(consts, r, sc.access, sc.lanes[0])
                             for r in grid])
        # the window must cover the ranges where far interferers still
        # matter (the criterion fixes the grid, not the window)
        res = mc_ranging_success(sc, grid,
                                 McConfig(replicates=5000, window=2e6,
                                          master_seed=0))
        inside = np.abs(res.curve.values - analytic) <= res.ci_halfwidth
        worst_miss = max(worst_miss, int(np.sum(~inside)))

    # dominance of the general case (guard delta_o ~ 76 m, 15 deg beam)
    sc_g = make_scenario(duty_cycle=0.01)
    consts_g = derive(sc_g, 0)
    spec_g = CfSpec.from_scenario(sc_g)
    args = np.array([ranging_signal(consts_g, r) / 10.0 for r in grid])
    cut = cf_decay_cutoff(lambda w: cf_ppp(spec_g, w), 0.1 / args.max(), 1e12)
    tab = tabulated_cf(lambda w: cf_ppp(spec_g, w), cut * 1e-7, cut, 1100)
    curve = cdf_gil_pelaez(tab, np.sort(args), tolerance=1e-4)
    general = np.array([p_success(curve, consts_g, r) for r in grid])
    worst = np.array([p_success_wc(consts_g, r, sc_g.access, sc_g.lanes[0])
                      for r in grid])
    # inversion noise floor: below ~1e-4 both curves are numerically zero
    dominated = bool(np.all(general + 1e-4 >= worst))

    dt = time.time() - t0
    ok = worst_miss == 0 and dominated and dt < 120.0
    report(5, ok, f"CI misses {worst_miss}/60 grid points, "
                  f"dominance {'holds' if dominated else 'violated'} "
                  f"(floor 1e-4), runtime {dt:.1f}s < 120s")


def test_criterion_6_optimization_consistency():
    """A 1000-point grid search over the interferer density finds the
    spatial-throughput maximizer within one grid step of z0/C."""
    t0 = time.time()
    consts = derive(make_scenario(), 0)
    z0 = consts.z_o
    ok = True
    details = []
    for r in (50.0, 100.0, 150.0):
        big_c = consts.big_c(r)
        lg = np.linspace(1e-6, 5.0 * z0 / big_c, 1000)
        beta = lg * np.array([math.erfc(big_c * li) for li in lg])
        found = lg[int(np.argmax(beta))]
        step = lg[1] - lg[0]
        ok &= abs(found - z0 / big_c) <= step
        details.append(f"R={r:.0f}: |{found:.3e} - {z0 / big_c:.3e}| <= {step:.1e}")
    dt = time.time() - t0
    ok = ok and dt < 5.0
    report(6, ok, "; ".join(details) + f", runtime {dt:.2f}s < 5s")


def test_criterion_7_duty_cycle_closed_form():
    """The expected-optimal-duty-cycle closed form agrees with adaptive
    quadrature to 1e-6 and approaches its large-n asymptote."""
    t0 = time.time()
    consts = derive(make_scenario(), 0)
    worst = 0.0
    for lam in (1 / 25, 1 / 50, 1 / 100):
        lane = Lane(offset=10.0, density=lam)
        for n in range(3, 31):
            closed = expected_optimal_duty_cycle(lane, consts, n,
                                                 method="closed")
            quad = expected_optimal_duty_cycle(lane, consts, n,
                                               method="quadrature")
            worst = max(worst, abs(closed - quad))
    lane = Lane(offset=10.0, density=1 / 25)
    ratio = (expected_optimal_duty_cycle(lane, consts, 100)
             / duty_cycle_asymptote(lane, consts, 100))
    dt = time.time() - t0
    ok = worst < 1e-6 and 0.9 < ratio < 1.1 and dt < 5.0
    report(7, ok, f"max |closed - quadrature| {worst:.2e} < 1e-6, "
                  f"asymptote ratio {ratio:.4f} in (0.9, 1.1), "
                  f"runtime {dt:.2f}s < 5s")


def test_criterion_8_lattice_to_poisson_convergence():
    """Thinning a lattice toward a fixed intensity makes its interval
    counts statistically Poisson: chi-squared accepts at xi <= 0.01,
    rejects at xi = 1, and the TV distance shrinks monotonically."""
    t0 = time.time()
    intervals = [(i * 200.0, (i + 1) * 200.0) for i in range(10)]
    # spacings: xi = delta * lambda_i runs 1 -> 0.01 across halvings
    deltas = [100.0, 50.0, 25.0, 12.5, 1.0]
    rows = mc_convergence_bl_to_ppp(0.01, deltas, intervals,
                                    McConfig(replicates=2000, master_seed=0))
    p_reject = rows[0].p_value          # xi = 1
    p_accept = rows[-1].p_value         # xi = 0.01
    tv = [r.tv_distance for r in rows]
    monotone = all(a > b for a, b in zip(tv, tv[1:]))
    dt = time.time() - t0
    ok = (p_reject < 0.01 and p_accept > 0.01 and monotone and dt < 60.0)
    report(8, ok, f"p(xi=1) {p_reject:.2e} < 0.01, "
                  f"p(xi=0.01) {p_accept:.4f} > 0.01, "
                  f"TV {' > '.join(f'{v:.4f}' for v in tv)} "
                  f"{'monotone' if monotone else 'NOT monotone'}, "
                  f"runtime {dt:.1f}s < 60s")


def test_criterion_9_determinism():
    """Monte-Carlo runs with one seed are byte-identical when repeated, and
    a shorter run reproduces the first samples of a longer one."""
    sc = make_scenario()
    runs = [mc_interference(sc, McConfig(replicates=n, master_seed=13)).samples
            for n in (1000, 1000, 2000)]
    ok = runs[0].tobytes() == runs[1].tobytes()
    ok &= runs[0].tobytes() == runs[2][:1000].tobytes()
    # and the ranging-success path
    curves = [mc_ranging_success(sc, [50.0, 100.0],
                                 McConfig(replicates=500, master_seed=13)).curve.values
              for _ in range(2)]
    ok &= bool(np.array_equal(curves[0], curves[1]))
    report(9, ok, "samples byte-identical across repeated runs and equal to "
                  "the first 1000 of a 2000-replicate run, "
                  "success curve identical across repeated runs")
