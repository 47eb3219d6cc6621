"""Scenario description, derived constants and unit conversions.

All core computations work in SI linear units (watts, meters, hertz,
linear gains); decibel conversions exist only for the configuration
boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

SPEED_OF_LIGHT = 2.99792458e8  # m/s


def db_to_linear(x_db: float) -> float:
    """10^(x/10)."""
    return 10.0 ** (x_db / 10.0)


def dbm_to_watts(p_dbm: float) -> float:
    """10^((p-30)/10)."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


class GeometryKind(enum.Enum):
    PPP = "ppp"
    BERNOULLI_LATTICE = "bernoulli_lattice"


@dataclass(frozen=True)
class RadarParams:
    """Radar front-end and channel parameters, all in linear SI units."""

    tx_power: float          # W
    antenna_gain: float      # linear
    beamwidth: float         # rad
    frequency: float         # Hz
    rcs: float               # m^2
    sinr_threshold: float    # linear
    pathloss_exp: float
    noise_power: float = 0.0  # W

    def __post_init__(self) -> None:
        positive = {
            "tx_power": self.tx_power,
            "antenna_gain": self.antenna_gain,
            "beamwidth": self.beamwidth,
            "frequency": self.frequency,
            "rcs": self.rcs,
            "sinr_threshold": self.sinr_threshold,
        }
        for name, v in positive.items():
            if not v > 0:
                raise ValueError(f"RadarParams.{name} must be > 0, got {v}")
        if not 0 < self.beamwidth <= math.pi:
            raise ValueError(f"beamwidth must be in (0, pi], got {self.beamwidth}")
        if not self.pathloss_exp > 1:
            raise ValueError(
                "pathloss_exp must be > 1 for a finite mean interference, "
                f"got {self.pathloss_exp}"
            )
        if self.noise_power < 0:
            raise ValueError(f"noise_power must be >= 0, got {self.noise_power}")


@dataclass(frozen=True)
class Lane:
    """One opposing lane: transverse offset and linear vehicle density."""

    offset: float   # m, >= 0
    density: float  # vehicles per meter

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"Lane.offset must be >= 0, got {self.offset}")
        if not self.density > 0:
            raise ValueError(f"Lane.density must be > 0, got {self.density}")

    @property
    def spacing(self) -> float:
        """Lattice spacing delta = 1/density."""
        return 1.0 / self.density


@dataclass(frozen=True)
class MediumAccess:
    """Random spectrum access: retention (duty-cycle) probability."""

    duty_cycle: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise ValueError(f"duty_cycle must be in [0, 1], got {self.duty_cycle}")


@dataclass(frozen=True)
class FadingModel:
    """Per-interferer channel gain model.

    The default is a deterministic unit gain.  A custom model supplies a
    sampler(rng, n) -> array and a density on a bounded support for the
    analytic expectations; its mean must be 1 (channel gain normalized
    to unity).
    """

    kind: str = "unit"
    sampler: Optional[Callable] = None
    pdf: Optional[Callable] = None
    support: tuple[float, float] = (0.0, 0.0)

    @classmethod
    def unit(cls) -> "FadingModel":
        return cls(kind="unit")

    @classmethod
    def custom(cls, sampler: Callable, pdf: Callable,
               support: tuple[float, float]) -> "FadingModel":
        fm = cls(kind="custom", sampler=sampler, pdf=pdf, support=support)
        fm.validate_mean()
        return fm

    def __post_init__(self) -> None:
        if self.kind not in ("unit", "custom"):
            raise ValueError(f"unknown fading kind {self.kind!r}")
        if self.kind == "custom" and (self.sampler is None or self.pdf is None):
            raise ValueError("custom fading needs both sampler and pdf")

    def validate_mean(self, tol: float = 1e-6) -> None:
        """Custom fading densities must have unit mean (and unit mass)."""
        if self.kind == "unit":
            return
        from scipy.integrate import quad

        lo, hi = self.support
        mass, _ = quad(self.pdf, lo, hi, limit=200)
        mean, _ = quad(lambda g: g * self.pdf(g), lo, hi, limit=200)
        if abs(mass - 1.0) > tol or abs(mean - 1.0) > tol:
            raise ValueError(
                f"custom fading must integrate to 1 with mean 1; got mass={mass}, mean={mean}"
            )


@dataclass(frozen=True)
class Scenario:
    """Full experiment description."""

    radar: RadarParams
    lanes: tuple[Lane, ...]
    access: MediumAccess
    fading: FadingModel = field(default_factory=FadingModel.unit)
    geometry_kind: GeometryKind = GeometryKind.PPP

    def __post_init__(self) -> None:
        if isinstance(self.lanes, Sequence) and not isinstance(self.lanes, tuple):
            object.__setattr__(self, "lanes", tuple(self.lanes))
        if len(self.lanes) == 0:
            raise ValueError("Scenario needs at least one lane")


@dataclass(frozen=True)
class DerivedConstants:
    """Derived radar constants for one lane of a scenario.

    big_c depends on the target range and is exposed as a method; the
    coefficient sqrt(pi*T/(4*gamma2)) and the threshold T are stored
    directly.
    """

    gamma1: float    # m^2
    gamma2: float    # m^2
    delta_o: float   # m
    c_coeff: float   # 1/m^2 scale of C = c_coeff * R^2
    big_k: float     # m^2
    z_o: float
    tx_power: float
    pathloss_exp: float
    noise_power: float
    sinr_threshold: float  # T, linear

    def big_c(self, range_r: float) -> float:
        """C = sqrt(pi*T/(4*gamma2)) * R^2."""
        return self.c_coeff * range_r * range_r


def derive(scenario: Scenario, lane_index: int = 0) -> DerivedConstants:
    """Populate all derived constants for the given lane.

    The guard distance is delta_o = L_n / tan(theta/2); a beamwidth of
    pi makes tan(theta/2) blow up, which is handled as delta_o = 0 (an
    omnidirectional antenna has no guard region).
    """
    if not 0 <= lane_index < len(scenario.lanes):
        raise IndexError(f"lane_index {lane_index} out of range")
    r = scenario.radar
    lane = scenario.lanes[lane_index]

    gamma1 = r.antenna_gain ** 2 * (SPEED_OF_LIGHT / (4.0 * math.pi * r.frequency)) ** 2
    gamma2 = r.rcs / (4.0 * math.pi)
    if lane.offset == 0.0:
        delta_o = 0.0
    else:
        t = math.tan(r.beamwidth / 2.0)
        # a pi beamwidth is omnidirectional: no guard region at all
        if r.beamwidth >= math.pi or not math.isfinite(t) or t <= 0:
            delta_o = 0.0
        else:
            delta_o = lane.offset / t

    c_coeff = math.sqrt(math.pi * r.sinr_threshold / (4.0 * gamma2))
    from .performance import solve_z0

    z_o = solve_z0()
    big_k = z_o / c_coeff
    return DerivedConstants(
        gamma1=gamma1,
        gamma2=gamma2,
        delta_o=delta_o,
        c_coeff=c_coeff,
        big_k=big_k,
        z_o=z_o,
        tx_power=r.tx_power,
        pathloss_exp=r.pathloss_exp,
        noise_power=r.noise_power,
        sinr_threshold=r.sinr_threshold,
    )
