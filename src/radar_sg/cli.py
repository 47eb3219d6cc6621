"""Batch command-line front-end.

Parses a JSON scenario, runs one of the analytic/Monte-Carlo
computations, and writes plot-ready CSV or JSON.  All outputs are
deterministic: the same scenario, sweep, and seed produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import interference as itf
from . import montecarlo as mc_mod
from . import performance as perf
from .model import (FadingModel, GeometryKind, Lane, MediumAccess, RadarParams,
                    Scenario, db_to_linear, dbm_to_watts, derive)

COMMANDS = ("mean", "cdf", "ps", "optimize", "duty-cycle", "mc", "converge")


class SchemaError(ValueError):
    """Scenario JSON does not match the documented schema."""


@dataclass(frozen=True)
class SweepSpec:
    name: str
    start: float
    stop: float
    points: int
    log: bool

    def grid(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class RunSpec:
    scenario_path: str
    command: str
    sweep: Optional[SweepSpec] = None
    out: Optional[str] = None
    fmt: str = "csv"
    mc: bool = False
    replicates: int = 5000
    seed: int = 0
    window: float = 10_000.0

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.sweep is not None and self.sweep.points < 2:
            raise ValueError("sweep needs at least 2 points")


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

def _take(src: dict, ctx: str, conversions: dict, required: bool = True,
          default=None):
    """Fetch exactly one of several alternative field spellings."""
    present = [k for k in conversions if k in src]
    if len(present) > 1:
        raise SchemaError(f"{ctx}: fields {present} are mutually exclusive")
    if not present:
        if required:
            raise SchemaError(f"{ctx}: one of {sorted(conversions)} is required")
        return default
    key = present[0]
    value = src.pop(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{ctx}.{key}: expected a number, got {value!r}")
    return conversions[key](float(value))


def _ident(x: float) -> float:
    return x


def parse_scenario(json_text: str) -> Scenario:
    """Validated Scenario from JSON text.

    Decibel fields carry `_db`/`_dbm`/`_dbsm` suffixes and are converted
    at the boundary; everything downstream is linear SI.
    """
    try:
        doc = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("scenario must be a JSON object")
    doc = dict(doc)

    radar_doc = doc.pop("radar", None)
    if not isinstance(radar_doc, dict):
        raise SchemaError("radar: required object")
    radar_doc = dict(radar_doc)
    kwargs = {
        "tx_power": _take(radar_doc, "radar",
                          {"tx_power_w": _ident, "tx_power_dbm": dbm_to_watts}),
        "antenna_gain": _take(radar_doc, "radar",
                              {"antenna_gain": _ident, "antenna_gain_db": db_to_linear}),
        "beamwidth": _take(radar_doc, "radar",
                           {"beamwidth_rad": _ident, "beamwidth_deg": math.radians}),
        "frequency": _take(radar_doc, "radar", {"frequency_hz": _ident}),
        "rcs": _take(radar_doc, "radar",
                     {"rcs_m2": _ident, "rcs_dbsm": db_to_linear}),
        "sinr_threshold": _take(radar_doc, "radar",
                                {"sinr_threshold": _ident,
                                 "sinr_threshold_db": db_to_linear}),
        "pathloss_exp": _take(radar_doc, "radar", {"pathloss_exp": _ident}),
        "noise_power": _take(radar_doc, "radar",
                             {"noise_power_w": _ident, "noise_power_dbm": dbm_to_watts},
                             required=False, default=0.0),
    }
    if radar_doc:
        raise SchemaError(f"radar: unknown fields {sorted(radar_doc)}")
    try:
        radar = RadarParams(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"radar: {exc}") from exc

    lanes_doc = doc.pop("lanes", None)
    if not isinstance(lanes_doc, list) or not lanes_doc:
        raise SchemaError("lanes: required non-empty array")
    lanes = []
    for i, lane_doc in enumerate(lanes_doc):
        if not isinstance(lane_doc, dict):
            raise SchemaError(f"lanes[{i}]: expected object")
        lane_doc = dict(lane_doc)
        offset = _take(lane_doc, f"lanes[{i}]", {"offset_m": _ident})
        density = _take(lane_doc, f"lanes[{i}]", {"density_per_m": _ident})
        if lane_doc:
            raise SchemaError(f"lanes[{i}]: unknown fields {sorted(lane_doc)}")
        try:
            lanes.append(Lane(offset=offset, density=density))
        except ValueError as exc:
            raise SchemaError(f"lanes[{i}]: {exc}") from exc

    access_doc = doc.pop("access", None)
    if not isinstance(access_doc, dict):
        raise SchemaError("access: required object")
    access_doc = dict(access_doc)
    duty = _take(access_doc, "access", {"duty_cycle": _ident})
    if access_doc:
        raise SchemaError(f"access: unknown fields {sorted(access_doc)}")
    try:
        access = MediumAccess(duty_cycle=duty)
    except ValueError as exc:
        raise SchemaError(f"access.duty_cycle: {exc}") from exc

    geometry = doc.pop("geometry", "ppp")
    try:
        kind = GeometryKind(geometry)
    except ValueError as exc:
        raise SchemaError(
            f"geometry: must be one of {[g.value for g in GeometryKind]}") from exc
    if doc:
        raise SchemaError(f"unknown top-level fields {sorted(doc)}")
    return Scenario(radar=radar, lanes=tuple(lanes), access=access,
                    fading=FadingModel.unit(), geometry_kind=kind)


# ---------------------------------------------------------------------------
# sweep plumbing
# ---------------------------------------------------------------------------

def _with_value(scenario: Scenario, name: str, value: float) -> Scenario:
    radar_fields = {"tx_power", "antenna_gain", "beamwidth", "frequency", "rcs",
                    "sinr_threshold", "pathloss_exp", "noise_power"}
    if name in radar_fields:
        return dataclasses.replace(
            scenario, radar=dataclasses.replace(scenario.radar, **{name: value}))
    if name == "duty_cycle":
        return dataclasses.replace(scenario, access=MediumAccess(duty_cycle=value))
    if name in ("density", "offset"):
        lanes = tuple(dataclasses.replace(l, **{name: value}) for l in scenario.lanes)
        return dataclasses.replace(scenario, lanes=lanes)
    raise ValueError(f"sweep parameter {name!r} does not name a scenario field")


def parse_sweep(text: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ValueError("sweep must look like name:from:to:points[:log]")
    log = False
    if len(parts) == 5:
        if parts[4] != "log":
            raise ValueError(f"unknown sweep scale {parts[4]!r} (only 'log')")
        log = True
    return SweepSpec(name=parts[0], start=float(parts[1]), stop=float(parts[2]),
                     points=int(parts[3]), log=log)


# ---------------------------------------------------------------------------
# command implementations (each returns header row + data rows)
# ---------------------------------------------------------------------------

def _analytic_mean(scenario: Scenario, kind: GeometryKind) -> float:
    total = 0.0
    for i, lane in enumerate(scenario.lanes):
        ci = derive(scenario, i)
        if kind == GeometryKind.BERNOULLI_LATTICE:
            total += itf.mean_bl(ci, lane, scenario.access)
        elif lane.offset > 0:
            total += itf.mean_ppp_exact(ci, lane, scenario.access)
        else:
            total += itf.mean_simplified(ci, lane, scenario.access)
    return total


def _cmd_mean(scenario: Scenario, spec: RunSpec):
    sweep = spec.sweep or SweepSpec("density", scenario.lanes[0].density,
                                    scenario.lanes[0].density * 2, 2, False)
    header = [sweep.name, "mean_ppp_w", "mean_bl_w"]
    rows = []
    for v in sweep.grid():
        sc = _with_value(scenario, sweep.name, float(v))
        rows.append([v, _analytic_mean(sc, GeometryKind.PPP),
                     _analytic_mean(sc, GeometryKind.BERNOULLI_LATTICE)])
    return header, rows


def _default_x_grid(scenario: Scenario, points: int = 200) -> np.ndarray:
    cspec = itf.CfSpec.from_scenario(scenario)
    try:
        lo = itf.levy_quantile(cspec, 0.005)
        hi = itf.levy_quantile(cspec, 0.995)
        return np.geomspace(lo, hi, points)
    except itf.RegimeError:
        mean = _analytic_mean(scenario, scenario.geometry_kind)
        return np.geomspace(mean * 0.02, mean * 50.0, points)


def _cmd_cdf(scenario: Scenario, spec: RunSpec):
    grid = _default_x_grid(scenario)
    curve = itf.interference_cdf(itf.CfSpec.from_scenario(scenario), grid)
    header = ["x_watts", "cdf_analytic", "method"]
    rows = [[x, f, curve.method.value] for x, f in zip(curve.grid, curve.cdf)]
    if spec.mc:
        cfg = mc_mod.McConfig(replicates=spec.replicates, master_seed=spec.seed,
                              window=spec.window)
        emp = mc_mod.mc_interference(scenario, cfg).empirical_cdf
        header.append("cdf_empirical")
        for row, x in zip(rows, grid):
            row.append(float(emp(x)))
    return header, rows


def _cmd_ps(scenario: Scenario, spec: RunSpec):
    sweep = spec.sweep or SweepSpec("range", 10.0, 250.0, 25, False)
    if sweep.name != "range":
        raise ValueError("the ps command sweeps 'range' only")
    grid = sweep.grid()
    consts = derive(scenario, 0)
    lane = scenario.lanes[0]
    noise = scenario.radar.noise_power
    args = np.array([perf.ranging_signal(consts, float(r)) / consts.sinr_threshold
                     - noise for r in grid])
    pos = args > 0
    general = np.zeros(grid.shape)
    if np.any(pos):
        xs = np.unique(args[pos])
        curve = itf.interference_cdf(itf.CfSpec.from_scenario(scenario), xs)
        general[pos] = curve(args[pos])
    worst = np.array([perf.p_success_wc(consts, float(r), scenario.access, lane, noise)
                      for r in grid])
    header = ["range_m", "p_success_general", "p_success_worst_case"]
    rows = [[r, g, w] for r, g, w in zip(grid, general, worst)]
    if spec.mc:
        cfg = mc_mod.McConfig(replicates=spec.replicates, master_seed=spec.seed,
                              window=spec.window)
        res = mc_mod.mc_ranging_success(scenario, grid, cfg)
        header += ["p_success_mc", "ci99_halfwidth"]
        for row, p, hw in zip(rows, res.p_success, res.ci_halfwidth):
            row += [float(p), float(hw)]
    return header, rows


def _cmd_optimize(scenario: Scenario, spec: RunSpec):
    sweep = spec.sweep or SweepSpec("range", 50.0, 150.0, 3, False)
    if sweep.name != "range":
        raise ValueError("the optimize command sweeps 'range' only")
    lane = scenario.lanes[0]
    consts = derive(scenario, 0)
    lam_grid = np.geomspace(1e-5, lane.density, 200)
    header = ["range_m", "lambda_i_per_m", "beta_per_m", "lambda_i_star_per_m",
              "xi_star", "beta_star_per_m", "clamped"]
    rows = []
    for r in sweep.grid():
        res = perf.optimal_duty_cycle(lane, consts, float(r))
        for li in lam_grid:
            rows.append([r, li, perf.spatial_success(li, consts, float(r)),
                         res.lambda_i_star, res.xi_star, res.beta_star,
                         int(res.clamped)])
    return header, rows


def _cmd_duty_cycle(scenario: Scenario, spec: RunSpec):
    sweep = spec.sweep
    densities = (sweep.grid() if sweep and sweep.name == "density"
                 else np.array([lane.density for lane in scenario.lanes[:1]]))
    if sweep and sweep.name != "density":
        raise ValueError("the duty-cycle command sweeps 'density' only")
    consts = derive(scenario, 0)
    header = ["density_per_m", "n", "xi_bar_star", "asymptote"]
    rows = []
    for lam in densities:
        lane = Lane(offset=scenario.lanes[0].offset, density=float(lam))
        for n in range(1, 51):
            rows.append([lam, n,
                         perf.expected_optimal_duty_cycle(lane, consts, n),
                         min(perf.duty_cycle_asymptote(lane, consts, n), 1.0)])
    return header, rows


def _cmd_mc(scenario: Scenario, spec: RunSpec):
    cfg = mc_mod.McConfig(replicates=spec.replicates, master_seed=spec.seed,
                          window=spec.window)
    res = mc_mod.mc_interference(scenario, cfg)
    header = ["x_watts", "cdf", "method"]
    curve = res.empirical_cdf
    rows = [[x, f, curve.method.value] for x, f in zip(curve.grid, curve.cdf)]
    meta = {
        "mean_w": None if res.mean_suppressed else res.mean.value,
        "mean_suppressed": res.mean_suppressed,
        "ci99_halfwidth_w": res.mean.ci_halfwidth,
        "replicates": res.mean.replicates,
        "seed": res.mean.seed,
    }
    return header, rows, meta


def _cmd_converge(scenario: Scenario, spec: RunSpec):
    lam_i = scenario.access.duty_cycle * scenario.lanes[0].density
    sweep = spec.sweep
    if sweep and sweep.name == "spacing":
        deltas = sweep.grid()
    else:
        full = 1.0 / lam_i
        deltas = np.array([full, full / 4.0, full / 16.0, full / 64.0])[::-1]
    deltas = np.sort(np.asarray(deltas, dtype=float))
    intervals = [(200.0 * k, 200.0 * (k + 1)) for k in range(10)]
    cfg = mc_mod.McConfig(replicates=max(spec.replicates, 500),
                          master_seed=spec.seed, window=spec.window)
    rows_g = mc_mod.mc_convergence_bl_to_ppp(lam_i, list(deltas), intervals, cfg)
    header = ["spacing_m", "duty_cycle", "chi2", "dof", "p_value", "tv_distance"]
    rows = [[g.spacing, g.duty_cycle, g.chi2, g.dof, g.p_value, g.tv_distance]
            for g in rows_g]
    return header, rows


# ---------------------------------------------------------------------------
# output & driver
# ---------------------------------------------------------------------------

def _fmt_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return f"{float(v):.12g}"


def _emit(header, rows, meta, spec: RunSpec) -> None:
    if spec.fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = {"columns": header,
               "rows": [[(v if isinstance(v, str) else
                          (int(v) if isinstance(v, (int, np.integer)) else float(v)))
                         for v in row] for row in rows]}
        if meta:
            doc["meta"] = meta
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if spec.out is None:
        sys.stdout.write(text)
    else:
        with open(spec.out, "w") as fh:
            fh.write(text)


def run(spec: RunSpec) -> int:
    """Execute one RunSpec; returns the process exit status."""
    try:
        with open(spec.scenario_path) as fh:
            scenario = parse_scenario(fh.read())
        dispatch = {
            "mean": _cmd_mean,
            "cdf": _cmd_cdf,
            "ps": _cmd_ps,
            "optimize": _cmd_optimize,
            "duty-cycle": _cmd_duty_cycle,
            "mc": _cmd_mc,
            "converge": _cmd_converge,
        }
        result = dispatch[spec.command](scenario, spec)
        header, rows = result[0], result[1]
        meta = result[2] if len(result) > 2 else None
        _emit(header, rows, meta, spec)
        return 0
    except Exception as exc:  # noqa: BLE001 - boundary: everything becomes JSON
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
        }) + "\n")
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radar-sg",
        description="Interference statistics and ranging performance for "
                    "automotive radar under stochastic road geometry.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--sweep", default=None,
                        help="name:from:to:points[:log] parameter sweep")
    parser.add_argument("--mc", action="store_true",
                        help="add Monte-Carlo columns where supported")
    parser.add_argument("--replicates", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--window", type=float, default=10_000.0,
                        help="one-sided simulation window, meters; converge "
                             "draws its lattice only to its last interval "
                             "edge (2000 m) and refuses a shorter window")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sweep = parse_sweep(args.sweep) if args.sweep else None
        spec = RunSpec(scenario_path=args.scenario, command=args.command,
                       sweep=sweep, out=args.out, fmt=args.fmt, mc=args.mc,
                       replicates=args.replicates, seed=args.seed,
                       window=args.window)
    except ValueError as exc:
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
        }) + "\n")
        return 2
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
