"""Samplers for the two road point-process models.

Both samplers work on a one-sided window (delta_o, W] of longitudinal
positions and apply the interferer marking rule: vehicles closer than
the guard distance are dropped, the rest are retained independently
with the duty-cycle probability.  A realization is the sorted array of
the retained interferers' positions, in meters.
"""

from __future__ import annotations

import numpy as np

from .model import Lane, MediumAccess


def sample_ppp(lane: Lane, access: MediumAccess, delta_o: float, window: float,
               rng: np.random.Generator) -> np.ndarray:
    """Thinned Poisson pattern: count ~ Poisson(xi*lambda*(W - delta_o)),
    positions i.i.d. uniform on (delta_o, W], returned sorted."""
    if window <= delta_o:
        raise ValueError(f"window {window} must exceed delta_o {delta_o}")
    mean_count = access.duty_cycle * lane.density * (window - delta_o)
    n = rng.poisson(mean_count)
    pos = delta_o + (window - delta_o) * rng.random(n)
    pos.sort()
    return pos


def sample_lattice(lane: Lane, access: MediumAccess, delta_o: float, window: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Translated Bernoulli lattice: positions delta_o + (m + U)*delta with a
    single uniform translation U shared by the whole realization, then
    independent Bernoulli(xi) retention; returned sorted."""
    if window <= delta_o:
        raise ValueError(f"window {window} must exceed delta_o {delta_o}")
    delta = lane.spacing
    u = rng.random()  # one shared translation per realization
    n_sites = int(np.floor((window - delta_o) / delta - u)) + 1
    if n_sites <= 0:
        return np.empty(0)
    m = np.arange(n_sites)
    sites = delta_o + (m + u) * delta
    keep = rng.random(n_sites) < access.duty_cycle
    # marking cutoff is strict: x > delta_o (U=0 would put site 0 at delta_o)
    keep &= sites > delta_o
    return sites[keep]


def count_in_intervals(positions: np.ndarray, intervals) -> np.ndarray:
    """Exact point counts in disjoint half-open intervals (lo, hi]."""
    iv = sorted((float(lo), float(hi)) for lo, hi in intervals)
    for (lo, hi) in iv:
        if hi <= lo:
            raise ValueError(f"empty interval ({lo}, {hi})")
    for (_, hi_prev), (lo, _) in zip(iv, iv[1:]):
        if lo < hi_prev:
            raise ValueError("intervals must be disjoint")
    counts = [int(np.count_nonzero((positions > lo) & (positions <= hi)))
              for lo, hi in intervals]
    return np.asarray(counts, dtype=int)
