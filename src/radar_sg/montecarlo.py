"""Replicated Monte-Carlo engine for validating the analytic results.

Replicates run one after another.  Each draws from its own counter-based
substream keyed by (master_seed, replicate_index), so results are
bit-identical for a given master seed, and a run of n replicates yields
the first n samples of any longer run with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import special as sp

from .geometry import count_in_intervals, sample_lattice, sample_ppp
from .interference import DistributionCurve, InversionMethod, aggregate_interference
from .model import GeometryKind, Lane, MediumAccess, Scenario, derive
from .performance import ranging_signal

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_MAX_POINTS_PER_LANE = 10**7  # positions one replicate may draw in one lane


@dataclass(frozen=True)
class McConfig:
    replicates: int = 5000
    window: float = 10_000.0  # m, one-sided
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.replicates < 100:
            raise ValueError(f"replicates must be >= 100, got {self.replicates}")
        if not self.window > 0:
            raise ValueError(f"window must be positive, got {self.window}")


@dataclass(frozen=True)
class McEstimate:
    value: float
    ci_halfwidth: float  # 99% normal/binomial
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        if self.ci_halfwidth < 0:
            raise ValueError("ci_halfwidth must be >= 0")


@dataclass(frozen=True)
class McInterference:
    samples: np.ndarray
    empirical_cdf: DistributionCurve
    mean: McEstimate
    mean_suppressed: bool  # true when the law has no mean (a lane at L = 0)


@dataclass(frozen=True)
class McPerformance:
    """Empirical p_s at each range of the grid, in the grid's order."""

    p_success: np.ndarray
    ci_halfwidth: np.ndarray    # 99% binomial
    replicates: int
    seed: int


@dataclass(frozen=True)
class GofRow:
    spacing: float    # delta, m
    duty_cycle: float  # xi = delta * lambda_i
    chi2: float
    dof: int
    p_value: float
    tv_distance: float


def _substream(master_seed: int, replicate: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array(
        [np.uint64(master_seed), np.uint64(replicate)], dtype=np.uint64)))


def _draw_samples(scenario: Scenario, mc: McConfig):
    """Aggregate interference of every replicate, in replicate order.

    Returns the samples and the derived constants of each lane.  Windows
    that would draw more than _MAX_POINTS_PER_LANE positions per lane are
    refused before the first replicate.
    """
    ppp = scenario.geometry_kind == GeometryKind.PPP
    sampler = sample_ppp if ppp else sample_lattice
    consts = [derive(scenario, i) for i in range(len(scenario.lanes))]
    lanes = list(zip(scenario.lanes, consts))
    for i, (lane, c) in enumerate(lanes):
        points = (mc.window - c.delta_o) * lane.density
        if ppp:
            points *= scenario.access.duty_cycle
        if points > _MAX_POINTS_PER_LANE:
            raise ValueError(
                f"window {mc.window:g} m puts {points:.3g} points per replicate "
                f"in lane {i}; at most {_MAX_POINTS_PER_LANE:.0e}, shrink the window")
    samples = np.empty(mc.replicates)
    for rep in range(mc.replicates):
        rng = _substream(mc.master_seed, rep)
        total = 0.0
        for lane, c in lanes:
            positions = sampler(lane, scenario.access, c.delta_o, mc.window, rng)
            total += aggregate_interference(positions, c, lane.offset)
        samples[rep] = total
    return samples, consts


def _empirical_curve(samples: np.ndarray) -> DistributionCurve:
    n = samples.size
    order = np.sort(samples)
    # right-continuous step CDF; duplicate sample values keep the top step
    grid, last_idx = np.unique(order, return_index=True)
    counts = np.diff(np.append(last_idx, n))
    cdf = np.cumsum(counts) / n
    if grid.size == 1:
        grid = np.array([grid[0], grid[0] + max(abs(grid[0]), 1.0) * 1e-12])
        cdf = np.array([cdf[0], cdf[0]])
    return DistributionCurve(grid=grid, cdf=cdf, method=InversionMethod.EMPIRICAL,
                             tolerance=1.628 / math.sqrt(n))


def _infinite_mean(scenario: Scenario) -> bool:
    """A lane with no offset has no guard region either (delta_o = 0), so
    its nearest interferer's term x^-alpha has no mean for any alpha > 1."""
    return any(lane.offset == 0.0 for lane in scenario.lanes)


def mc_interference(scenario: Scenario, mc: McConfig) -> McInterference:
    """One aggregate-interference sample per replicate, with summaries.

    The sample mean is suppressed (NaN with a flag) when the interference
    law is heavy-tailed with no mean, i.e. when some lane has no offset.
    """
    samples, _ = _draw_samples(scenario, mc)
    suppressed = _infinite_mean(scenario)
    if suppressed:
        mean = McEstimate(value=math.nan, ci_halfwidth=0.0,
                          replicates=mc.replicates, seed=mc.master_seed)
    else:
        m = float(samples.mean())
        hw = _Z99 * float(samples.std(ddof=1)) / math.sqrt(mc.replicates)
        mean = McEstimate(value=m, ci_halfwidth=hw,
                          replicates=mc.replicates, seed=mc.master_seed)
    return McInterference(samples=samples, empirical_cdf=_empirical_curve(samples),
                          mean=mean, mean_suppressed=suppressed)


def mc_ranging_success(scenario: Scenario, range_grid, mc: McConfig,
                       noise: Optional[float] = None) -> McPerformance:
    """Empirical p_s(R): fraction of replicates with SINR >= T.

    The signal power is deterministic in R, so the interference samples
    are drawn once and reused across the whole range grid.
    """
    grid = np.asarray(range_grid, dtype=float)
    if np.any(grid <= 0):
        raise ValueError("range grid must be positive")
    n = noise if noise is not None else scenario.radar.noise_power
    samples, lane_consts = _draw_samples(scenario, mc)
    consts = lane_consts[0]
    t = consts.sinr_threshold
    ps = np.empty(grid.shape)
    hw = np.empty(grid.shape)
    denom = samples + n
    for i, r in enumerate(grid):
        s = ranging_signal(consts, r)
        # zero interference-plus-noise means an infinite SINR: a success
        ok = np.where(denom > 0, s >= t * denom, True)
        p = float(np.mean(ok))
        ps[i] = p
        hw[i] = _Z99 * math.sqrt(max(p * (1.0 - p), 1.0 / mc.replicates) / mc.replicates)
    return McPerformance(p_success=ps, ci_halfwidth=hw,
                         replicates=mc.replicates, seed=mc.master_seed)


def _poisson_pmf(k: np.ndarray, mean: float) -> np.ndarray:
    return np.exp(sp.xlogy(k, mean) - sp.gammaln(k + 1) - mean)


def _merged_poisson_bins(counts: np.ndarray, mean: float, min_expected: float = 5.0):
    """Observed/expected count-histogram bins with expected >= min_expected."""
    n = counts.size
    kmax = int(counts.max())
    pmf = _poisson_pmf(np.arange(kmax + 1), mean)
    pmf = np.append(pmf, max(1.0 - pmf.sum(), 0.0))  # k > kmax tail
    observed = np.bincount(counts, minlength=kmax + 2).astype(float)
    expected = n * pmf
    obs_m, exp_m = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and obs_m:
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
    return np.asarray(obs_m), np.asarray(exp_m)


def mc_convergence_bl_to_ppp(lambda_i: float, delta_list: Sequence[float],
                             intervals, mc: McConfig) -> list[GofRow]:
    """Lattice-to-Poisson convergence experiment.

    For each lattice spacing delta (with retention xi = delta*lambda_i),
    interferer counts in the given equal-length intervals are tested
    against the Poisson law of the limiting process: a chi-squared GoF
    on the count histogram plus an empirical total-variation distance.

    The lattice is drawn only to 1 m past the farthest interval edge, not
    to ``mc.window``: sites beyond it cannot change a count.  A window
    shorter than that edge would cut the intervals and is refused.
    """
    if lambda_i <= 0:
        raise ValueError("lambda_i must be positive")
    iv = [(float(lo), float(hi)) for lo, hi in intervals]
    lengths = {round(hi - lo, 9) for lo, hi in iv}
    if len(lengths) != 1:
        raise ValueError("intervals must share a common length")
    length = lengths.pop()
    mean = lambda_i * length
    edge = max(hi for _, hi in iv)
    if mc.window < edge:
        raise ValueError(f"window {mc.window:g} m ends before the farthest "
                         f"interval edge at {edge:g} m")
    window = edge + 1.0
    for delta in delta_list:
        if delta * lambda_i > 1.0 + 1e-12:
            raise ValueError(f"delta={delta} gives xi={delta * lambda_i} > 1")
        if window / delta > _MAX_POINTS_PER_LANE:
            raise ValueError(
                f"delta={delta} puts {window / delta:.3g} lattice sites in the "
                f"{window:g} m window; at most {_MAX_POINTS_PER_LANE:.0e}")
    rows = []
    for delta in delta_list:
        xi = delta * lambda_i
        lane = Lane(offset=0.0, density=1.0 / delta)
        access = MediumAccess(duty_cycle=min(xi, 1.0))
        all_counts = np.empty((mc.replicates, len(iv)), dtype=int)
        for rep in range(mc.replicates):
            rng = _substream(mc.master_seed, rep)
            positions = sample_lattice(lane, access, 0.0, window, rng)
            all_counts[rep] = count_in_intervals(positions, iv)
        counts = all_counts.ravel()
        obs, exp = _merged_poisson_bins(counts, mean)
        if obs.size < 2:
            chi2, dof, pval = 0.0, 1, 1.0
        else:
            dof = obs.size - 1
            chi2 = float(np.sum((obs - exp) ** 2 / exp))
            pval = float(sp.chdtrc(dof, chi2))
        kmax = int(counts.max())
        emp = np.bincount(counts, minlength=kmax + 1) / counts.size
        pois = _poisson_pmf(np.arange(kmax + 1), mean)
        tv = 0.5 * (np.abs(emp - pois).sum() + max(1.0 - pois.sum(), 0.0))
        rows.append(GofRow(spacing=float(delta), duty_cycle=float(xi), chi2=chi2,
                           dof=dof, p_value=pval, tv_distance=float(tv)))
    return rows
