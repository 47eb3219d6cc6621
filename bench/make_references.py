"""Regenerate bench/references.json.gz from the current source tree.

The stored references come from the seed commit of the benchmark; rerun
this only to re-baseline on purpose, from the repository root:

    PYTHONPATH=src python3 bench/make_references.py

It records the output of every command line the benchmark runs that does
not depend on the run's seed, plus the constants the MC checks need.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import PROBES, WORKLOADS  # noqa: E402
from run import REFERENCES, ScenarioFiles, run_cli  # noqa: E402

WINDOW_M = 10_000.0  # the CLI's default one-sided MC window


def constants(scenario) -> dict:
    from radar_sg.cli import SweepSpec
    from radar_sg.model import derive
    from radar_sg.performance import ranging_signal

    bias = 0.0
    for i, lane in enumerate(scenario.lanes):
        c = derive(scenario, i)
        alpha = c.pathloss_exp
        bias += (scenario.access.duty_cycle * lane.density * c.gamma1 * c.tx_power
                 * WINDOW_M ** (1.0 - alpha) / (alpha - 1.0))
    c0 = derive(scenario, 0)
    ranges = SweepSpec("range", 10.0, 250.0, 25, False).grid()  # ps default
    args = [ranging_signal(c0, float(r)) / scenario.radar.sinr_threshold
            - scenario.radar.noise_power for r in ranges]
    return {"truncation_bias_w": bias, "ps_args_w": args}


def main() -> int:
    from radar_sg.cli import parse_scenario

    root = Path.cwd()
    cmds = {c.key: c for w in WORKLOADS.values() for c in w.commands}
    cmds.update({c.key: c for c in PROBES.values()})
    with ScenarioFiles(root) as files:
        outputs = {}
        for key, cmd in sorted(cmds.items()):
            if cmd.seeded:
                continue
            rc, out, err = run_cli(cmd.argv(files[cmd.scenario], 0))
            if rc != 0:
                raise SystemExit(f"{key}: {err}")
            outputs[key] = out
            print(f"{key}: {len(out)} bytes", flush=True)
        consts = {name: constants(parse_scenario(Path(path).read_text()))
                  for name, path in files.items()}
    blob = json.dumps({"outputs": outputs, "constants": consts}, sort_keys=True)
    with gzip.GzipFile(REFERENCES, "wb", mtime=0) as fh:
        fh.write(blob.encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
