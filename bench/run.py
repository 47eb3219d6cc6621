"""radar-sg benchmark: CLI workloads, end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload ppp-analytic --seed 1 --seconds 10 --trace 0

The workload's command lines run through `radar_sg.cli.main` in this one
process, over and over until `--seconds` have passed (at least once).
Every output is checked after the timed region; a command that exits
non-zero, fails its check, or prints other bytes than its first run
counts as a failed operation.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics, with tracing off.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced passes (per pass), plus the tracing overhead; the
traced outputs must be byte-identical to the untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from checks import Checker
from workloads import SCENARIOS, WORKLOADS, probes_for, scenario_doc

REFERENCES = Path(__file__).resolve().parent / "references.json.gz"
SCENARIO = Path("src") / "radar_sg" / "data" / "table1.json"
SETUP_REPEATS = 5
PROBE_ROUNDS = 5
SETUP_SNIPPET = ("import sys; from radar_sg.cli import parse_scenario; "
                 "parse_scenario(open(sys.argv[1]).read())")


class ScenarioFiles:
    """Scenario variants written under .bench_work/ in the checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.dir = root / ".bench_work" / str(os.getpid())

    def __enter__(self) -> dict:
        base = json.loads((self.root / SCENARIO).read_text())
        self.dir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name in SCENARIOS:
            path = self.dir / f"{name}.json"
            path.write_text(json.dumps(scenario_doc(base, name), indent=1))
            paths[name] = str(path)
        return paths

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.dir.parent.rmdir()


def run_cli(argv) -> tuple:
    """(exit status, stdout, stderr) of one in-process CLI call."""
    from radar_sg import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def measure_setup(root: Path, repeats: int) -> list:
    """Seconds for fresh interpreters to import radar_sg and parse table1."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(root / SCENARIO)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class Pass:
    """Results of one run through a workload's list and its probe rounds."""

    def __init__(self):
        self.calls = []     # (cmd, rc, stdout, stderr, seconds)
        self.wall_s = 0.0   # the workload's own list, probes excluded
        self.total_s = 0.0  # everything in the pass


def run_pass(workload, probes, files: dict, seed: int) -> Pass:
    """The workload's list, then PROBE_ROUNDS rounds of its probes."""
    p = Pass()
    t_pass = time.perf_counter()
    for cmd in workload.commands:
        p.calls.append(_timed(cmd, files, seed))
    p.wall_s = time.perf_counter() - t_pass
    p.calls += [_timed(cmd, files, seed) for _ in range(PROBE_ROUNDS) for cmd in probes]
    p.total_s = time.perf_counter() - t_pass
    return p


def _timed(cmd, files, seed):
    argv = cmd.argv(files[cmd.scenario], seed)
    t0 = time.perf_counter()
    rc, out, err = run_cli(argv)
    return cmd, rc, out, err, time.perf_counter() - t0


def tail(samples: list):
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 90, 75):
        if n * (100 - q) / 100.0 >= 10:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return q, cuts[q - 1]
    return None


def command_times(passes: list) -> dict:
    """Command -> per-command-line samples, over every pass."""
    out = {}
    for p in passes:
        for cmd, _, _, _, dt in p.calls:
            out.setdefault(cmd.command, {}).setdefault(cmd.key, []).append(dt)
    return out


def verify(passes: list, checker, reference=None) -> tuple:
    """(attempted, failed, problems, first outputs) over every call.

    A call fails when it exits non-zero, when its bytes differ from the
    first call of the same command line (or from `reference`), or when the
    first call's output fails its check.
    """
    first, verdict, problems = dict(reference or {}), {}, []
    attempted = failed = 0
    for p in passes:
        for cmd, rc, out, err, _ in p.calls:
            attempted += 1
            bad = rc != 0
            if bad:
                problems.append(f"{cmd.key}: exit {rc}: {err.strip()}")
            elif cmd.key not in first:
                first[cmd.key] = out
            elif out != first[cmd.key]:
                bad = True
                problems.append(f"{cmd.key}: output differs between runs")
            if not bad and cmd.key not in verdict:
                found = checker(cmd, first[cmd.key])
                verdict[cmd.key] = not found
                problems += [f"{cmd.key}: {msg}" for msg in found]
            failed += bad or not verdict.get(cmd.key, False)
    return attempted, failed, problems, first


def end_to_end(root, workload, probes, files, args) -> tuple:
    setup = measure_setup(root, SETUP_REPEATS)
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(run_pass(workload, probes, files, args.seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"setup_s": setup, "wall_s": [p.wall_s for p in passes]}
    metrics = {"setup_s": (statistics.median(setup), "s"),
               "wall_s": (statistics.median(samples["wall_s"]), "s"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    for command, lines in command_times(passes).items():
        metrics[f"{command}_s"] = (sum(statistics.median(v) for v in lines.values()), "s")
        samples.update({f"{command}_s [{key}]": v for key, v in lines.items()})
    return passes, metrics, samples


def per_layer(workload, probes, files, args) -> tuple:
    recorder = spans.Recorder()
    plain, traced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < args.seconds:
        plain.append(run_pass(workload, probes, files, args.seed))
        with spans.instrument(recorder):
            traced.append(run_pass(workload, probes, files, args.seed))
    overhead = (statistics.median(p.total_s for p in traced)
                / statistics.median(p.total_s for p in plain) - 1.0)
    out_bytes = sum(len(out) for p in traced for _, _, out, _, _ in p.calls)
    metrics = layer_metrics(recorder.totals(), len(traced), out_bytes)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return plain, traced, metrics


def layer_metrics(stats: dict, passes: int, out_bytes: int) -> dict:
    """Per-layer metrics per traced pass from the recorder's totals."""
    def get(name):
        return stats.get(name, spans.Stat())

    def per_pass(v):
        return v / passes

    def ratio(a, b):
        return a / b if b else 0.0

    sur, gp, lap, cfb, cfp = (get(n) for n in
                              ("surrogate", "cdf_gil_pelaez", "laplace_bl", "cf_bl", "cf_ppp"))
    tab, cut, tal, mc = (get(n) for n in ("tabulated_cf", "cf_decay_cutoff", "talbot", "mc"))
    sp, sl = get("sample_ppp"), get("sample_lattice")
    contour = tal.errors.get("ContourError", 0)
    return {
        "surrogate.calls": (per_pass(sur.calls), "count"),
        "surrogate.omegas": (per_pass(sur.counts.get("omegas", 0)), "count"),
        "surrogate.self_s": (per_pass(sur.self_s), "s"),
        "cdf_gil_pelaez.points": (per_pass(gp.counts.get("points", 0)), "count"),
        "cdf_gil_pelaez.self_s": (per_pass(gp.self_s), "s"),
        "cdf_gil_pelaez.cf_calls_per_point": (
            ratio(gp.counts.get("cf_calls", 0), gp.counts.get("points", 0)), "count"),
        "laplace_bl.calls": (per_pass(lap.calls), "count"),
        "laplace_bl.self_s": (per_pass(lap.self_s), "s"),
        "cf_bl.omegas": (per_pass(cfb.counts.get("omegas", 0)), "count"),
        "cf_ppp.calls": (per_pass(cfp.calls), "count"),
        "cf_ppp.omegas": (per_pass(cfp.counts.get("omegas", 0)), "count"),
        "cf_ppp.self_s": (per_pass(cfp.self_s), "s"),
        "tabulated_cf.points": (per_pass(tab.counts.get("points", 0)), "count"),
        "tabulated_cf.build_s": (per_pass(tab.total_s), "s"),
        "cf_decay_cutoff.s": (per_pass(cut.total_s), "s"),
        "talbot.attempts": (per_pass(tal.calls), "count"),
        "talbot.contour_errors": (per_pass(contour), "count"),
        "talbot.failed_s": (per_pass(tal.failed_s), "s"),
        "talbot.useful_ratio": (ratio(tal.calls - contour, tal.calls), "ratio"),
        "mc.replicates": (per_pass(mc.counts.get("replicates", 0)), "count"),
        "mc.self_s": (per_pass(mc.self_s), "s"),
        "mc.s_per_replicate": (ratio(mc.total_s, mc.counts.get("replicates", 0)), "s"),
        "mc.threads": (ratio(mc.counts.get("threads", 0), mc.calls), "count"),
        "sample_ppp.calls": (per_pass(sp.calls), "count"),
        "sample_ppp.self_s": (per_pass(sp.self_s), "s"),
        "sample_lattice.calls": (per_pass(sl.calls), "count"),
        "sample_lattice.self_s": (per_pass(sl.self_s), "s"),
        "geometry.points": (per_pass(sp.counts.get("points", 0)
                                     + sl.counts.get("points", 0)), "count"),
        "count_in_intervals.self_s": (per_pass(get("count_in_intervals").self_s), "s"),
        "aggregate_interference.self_s": (
            per_pass(get("aggregate_interference").self_s), "s"),
        "derive.calls": (per_pass(get("derive").calls), "count"),
        "derive.self_s": (per_pass(get("derive").self_s), "s"),
        "means.calls": (per_pass(get("means").calls), "count"),
        "means.self_s": (per_pass(get("means").self_s), "s"),
        "performance.calls": (per_pass(get("performance").calls), "count"),
        "performance.self_s": (per_pass(get("performance").self_s), "s"),
        "specfun.calls": (per_pass(get("specfun").calls), "count"),
        "specfun.self_s": (per_pass(get("specfun").self_s), "s"),
        "parse_scenario.self_s": (per_pass(get("parse_scenario").self_s), "s"),
        "cli.self_s": (per_pass(get("cli").self_s), "s"),
        "cli.output_bytes": (per_pass(out_bytes), "bytes"),
    }


def report(metrics: dict, samples: dict, problems: list) -> None:
    for msg in problems:
        print(f"FAILED {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{name:38s} {value:14.6g} {unit}")
    for name, v in samples.items():
        line = f"  {name}: median {statistics.median(v):.6g} s over {len(v)} samples"
        t = tail(v)
        if t:
            line += f", p{t[0]} {t[1]:.6g} s"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # turn SIGTERM into SystemExit, so the work directory is removed and a
    # running setup interpreter is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / SCENARIO).is_file() or not (root / "src" / "radar_sg" / "cli.py").is_file():
        print(f"bench: no radar_sg sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    with gzip.open(REFERENCES, "rt") as fh:
        refs = json.load(fh)
    workload = WORKLOADS[args.workload]
    probes = probes_for(workload)
    with ScenarioFiles(root) as files:
        checker = Checker(refs, run_cli, files)
        if args.trace:
            plain, traced, metrics = per_layer(workload, probes, files, args)
            attempted, failed, problems, first = verify(plain, checker)
            a2, f2, p2, _ = verify(traced, checker, reference=first)
            attempted, failed, problems = attempted + a2, failed + f2, problems + p2
            samples = {}
        else:
            passes, metrics, samples = end_to_end(root, workload, probes, files, args)
            attempted, failed, problems, _ = verify(passes, checker)
    report(metrics, samples, problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
