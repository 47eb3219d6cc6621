"""Output checks, run after the timed region.

Every check returns a list of problems; an empty list means the output
passed.  Reference outputs come from the seed commit (see
make_references.py).  Monte-Carlo bytes are never compared with a stored
reference, because a change to the random stream layout changes them; MC
outputs are checked statistically against the analytic results instead.

Statistical levels.  A check on an MC sample drawn from the run's own seed
is a hypothesis test that a correct program fails at its level.  Ten-run
sets of every workload make a few hundred such checks, so those checks use
a family-wise 1% level: Bonferroni over FAMILY_CHECKS = 1000.  The band of
a seeded MC sample checked against an analytic curve uses the fixed
acceptance seed 0 and the plain 99% KS band, as acceptance criterion 3
does.
"""

from __future__ import annotations

import csv
import io
import json
import math
from statistics import NormalDist

import numpy as np

CURVE_TOL = 1e-4          # stated tolerance of the analytic CDF inversions
CLOSED_REL = 1e-9         # relative agreement of closed-form outputs
KS99 = 1.628              # asymptotic 99% Kolmogorov-Smirnov constant
Z99 = 2.5758293035489004  # two-sided 99% normal quantile behind the MC CI
FAMILY_CHECKS = 1000
ALPHA_FW = 0.01 / FAMILY_CHECKS
Z_FW = NormalDist().inv_cdf(1.0 - ALPHA_FW / 2.0)
KS_SEED = 0               # acceptance seed of criterion 3
DEFAULT_REPLICATES = 5000  # the CLI's --replicates default


def parse(text: str):
    """(header, rows, meta) from CSV or JSON command output."""
    if text.startswith("{"):
        doc = json.loads(text)
        return doc["columns"], doc["rows"], doc.get("meta")
    lines = list(csv.reader(io.StringIO(text)))
    return lines[0], [[_cell(v) for v in row] for row in lines[1:]], None


def _cell(v: str):
    try:
        return float(v)
    except ValueError:
        return v


def column(header, rows, name) -> np.ndarray:
    return np.array([row[header.index(name)] for row in rows], dtype=float)


def compare(text: str, ref_text: str, curve_cols=(), only_cols=None) -> list:
    """Match `text` against a reference output.

    Columns in `curve_cols` may differ by CURVE_TOL in sup distance; other
    numeric cells must agree to a relative CLOSED_REL and text cells
    exactly.  `only_cols` restricts the comparison to those reference
    columns (an output may carry extra columns, such as MC ones).
    """
    header, rows, _ = parse(text)
    rheader, rrows, _ = parse(ref_text)
    cols = list(only_cols) if only_cols is not None else rheader
    if only_cols is None and header != rheader:
        return [f"columns {header} differ from the reference {rheader}"]
    if len(rows) != len(rrows):
        return [f"{len(rows)} rows, the reference has {len(rrows)}"]
    problems = []
    for name in cols:
        if name not in header:
            problems.append(f"column {name} is missing")
            continue
        got = [row[header.index(name)] for row in rows]
        want = [row[rheader.index(name)] for row in rrows]
        if any(isinstance(v, str) for v in want + got):
            if got != want:
                problems.append(f"column {name} differs from the reference")
            continue
        a, b = np.array(got, dtype=float), np.array(want, dtype=float)
        if name in curve_cols:
            err = float(np.max(np.abs(a - b)))
            if not err <= CURVE_TOL:
                problems.append(f"{name}: sup distance {err:.3e} to the "
                                f"reference exceeds {CURVE_TOL:g}")
        else:
            bad = ~(np.abs(a - b) <= CLOSED_REL * np.maximum(np.abs(a), np.abs(b)))
            if np.any(bad):
                i = int(np.argmax(bad))
                problems.append(f"{name}[{i}] = {a[i]!r}, reference {b[i]!r} "
                                f"(relative tolerance {CLOSED_REL:g})")
    return problems


def truncation_allowance(x, f, bias: float) -> np.ndarray:
    """Upper bound on F_W(x) - F(x) for an MC window that drops I_far.

    I = I_W + I_far with E[I_far] <= bias, so for any t > 0
    P(I_W <= x < I) <= F(x + t) - F(x) + bias / t (Markov).  The bound is
    minimised over t = x_j - x for the grid points x_j above x.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    out = np.zeros(x.size)
    if bias <= 0.0:
        return out
    order = np.argsort(x)
    xs, fs = x[order], f[order]
    for i in range(xs.size):
        bound = 1.0 - fs[i]
        if i + 1 < xs.size:
            t = xs[i + 1:] - xs[i]
            bound = min(bound, float(np.min(fs[i + 1:] - fs[i] + bias / t)))
        out[order[i]] = max(bound, 0.0)
    return out


def band(x, f, fhat, width: float, bias: float, what: str) -> list:
    """fhat (MC) must lie within `width` of f, plus the truncation allowance
    above it."""
    dev = np.asarray(fhat, dtype=float) - np.asarray(f, dtype=float)
    allow = truncation_allowance(x, f, bias)
    bad = (dev < -width) | (dev > width + allow)
    if np.any(bad):
        i = int(np.argmax(np.abs(dev) - allow * (dev > 0)))
        return [f"{what}: MC minus analytic is {dev[i]:+.4f} at x={x[i]:.6g}, "
                f"outside -{width:.4f}/+{width + allow[i]:.4f}"]
    return []


def step_cdf(grid, cdf, x) -> np.ndarray:
    """Right-continuous empirical CDF tabulated on (grid, cdf), at x."""
    idx = np.searchsorted(np.asarray(grid), np.asarray(x), side="right") - 1
    return np.where(idx >= 0, np.asarray(cdf)[np.maximum(idx, 0)], 0.0)


def check_mc(text: str, analytic_mean: float, bias: float, replicates: int) -> list:
    header, rows, meta = parse(text)
    problems = []
    if meta is None or meta.get("replicates") != replicates:
        return [f"meta {meta} does not report {replicates} replicates"]
    f = column(header, rows, "cdf")
    if not (np.all(np.diff(f) >= 0) and 0 < f[-1] == 1.0):
        problems.append("empirical CDF is not nondecreasing up to 1")
    allowed = Z_FW / Z99 * meta["ci99_halfwidth_w"] + bias
    dev = meta["mean_w"] - analytic_mean
    if not abs(dev) <= allowed:
        problems.append(f"MC mean {meta['mean_w']:.6e} is {dev:+.3e} from the "
                        f"analytic mean {analytic_mean:.6e}; allowed {allowed:.3e}")
    return problems


def check_converge(text: str) -> list:
    """Acceptance criterion 8: chi-squared rejects at xi = 1, accepts at
    xi <= 0.01, and the TV distance shrinks as the lattice is thinned."""
    header, rows, _ = parse(text)
    xi = column(header, rows, "duty_cycle")
    p = column(header, rows, "p_value")
    tv = column(header, rows, "tv_distance")
    spacing = column(header, rows, "spacing_m")
    problems = []
    if not np.all(np.diff(spacing) > 0):
        problems.append("spacings are not increasing")
    for x, pv in zip(xi, p):
        if x >= 1.0 - 1e-12 and not pv < 0.01:
            problems.append(f"chi-squared p {pv:.3g} at xi = {x:g} is not < 0.01")
        if x <= 0.01 + 1e-12 and not pv > ALPHA_FW:
            problems.append(f"chi-squared p {pv:.3g} at xi = {x:g} is not > {ALPHA_FW:g}")
    if not np.all(np.diff(tv) > 0):
        problems.append(f"TV distance {tv.tolist()} does not shrink with the spacing")
    return problems


def dkw_width(n: int, alpha: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz band for an n-sample empirical CDF."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


class Checker:
    """Checks one command's output, given the references and a callback
    that runs the CLI (for the seeded MC samples behind the KS bands)."""

    def __init__(self, refs: dict, run_cli, scenario_paths: dict):
        self.refs = refs
        self.run_cli = run_cli
        self.paths = scenario_paths
        self._empirical = {}

    def const(self, scenario: str, name: str):
        return self.refs["constants"][scenario][name]

    def analytic_mean(self, scenario: str) -> float:
        header, rows, _ = parse(self.refs["outputs"]["mean table1"])
        col = "mean_bl_w" if scenario == "lattice" else "mean_ppp_w"
        return float(rows[0][header.index(col)])

    def empirical(self, scenario: str):
        """(grid, cdf, n) of the seeded KS sample for a scenario."""
        if scenario not in self._empirical:
            rc, out, err = self.run_cli(["mc", "--scenario", self.paths[scenario],
                                         "--seed", str(KS_SEED)])
            if rc != 0:
                raise RuntimeError(f"seeded MC sample for {scenario} failed: {err}")
            header, rows, _ = parse(out)
            self._empirical[scenario] = (column(header, rows, "x_watts"),
                                         column(header, rows, "cdf"), DEFAULT_REPLICATES)
        return self._empirical[scenario]

    def ks_band(self, scenario: str, x, f, what: str) -> list:
        grid, cdf, n = self.empirical(scenario)
        return band(x, f, step_cdf(grid, cdf, x), KS99 / math.sqrt(n),
                    self.const(scenario, "truncation_bias_w"), what)

    def __call__(self, cmd, text: str) -> list:
        outputs = self.refs["outputs"]
        analytic = cmd.scenario != "levy"
        if cmd.command == "mc":
            return check_mc(text, self.analytic_mean(cmd.scenario),
                            self.const(cmd.scenario, "truncation_bias_w"), replicates(cmd))
        if cmd.command == "converge":
            return check_converge(text)
        if cmd.command == "cdf" and analytic:
            problems = compare(text, outputs[cmd.key], curve_cols=("cdf_analytic",))
            header, rows, _ = parse(text)
            return problems + self.ks_band(
                cmd.scenario, column(header, rows, "x_watts"),
                column(header, rows, "cdf_analytic"), f"{cmd.key} vs seeded MC")
        if cmd.command == "ps":
            # the analytic columns of `ps --mc` are those of plain `ps`
            with_mc = "--mc" in cmd.args
            ref = outputs[f"ps {cmd.scenario}" if with_mc else cmd.key]
            problems = compare(text, ref,
                               curve_cols=("p_success_general",) if analytic else (),
                               only_cols=parse(ref)[0] if with_mc else None)
            header, rows, _ = parse(text)
            general = column(header, rows, "p_success_general")
            args = np.array(self.const(cmd.scenario, "ps_args_w"))
            if with_mc:
                problems += band(args, general, column(header, rows, "p_success_mc"),
                                 dkw_width(replicates(cmd), ALPHA_FW),
                                 self.const(cmd.scenario, "truncation_bias_w"),
                                 f"{cmd.key}: p_success_mc vs analytic")
            elif analytic:
                problems += self.ks_band(cmd.scenario, args, general,
                                         f"{cmd.key} vs seeded MC")
            return problems
        return compare(text, outputs[cmd.key])


def replicates(cmd) -> int:
    """MC replicates a command line asks for."""
    if "--replicates" in cmd.args:
        return int(cmd.args[cmd.args.index("--replicates") + 1])
    return DEFAULT_REPLICATES
