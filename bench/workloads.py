"""Workload definitions: scenario variants, command lists and probes.

Every workload is a list of `radar-sg` command lines run through
`radar_sg.cli.main` in one process.  Scenarios are the bundled
`table1.json` and variants of it made by overriding fields, so every input
is fixed by the repository; the run's `--seed` feeds only the Monte-Carlo
master seed (`{seed}` in an argument list).

Each end-to-end metric is one command's time, and every workload must
report every metric, so a workload whose own list lacks a command also
runs a light *probe* of it.  Probes are timed per call but never count
towards `wall_s`, which covers the workload's own list only.
"""

from __future__ import annotations

from dataclasses import dataclass

# Field overrides applied to table1.json (nested dicts merge, lists replace).
SCENARIOS = {
    "table1": {},
    "lattice": {"geometry": "bernoulli_lattice"},
    # worst case: no lane offset and an omnidirectional beam, where the
    # interference law is the stable (Levy) law with an erfc CDF
    "levy": {"radar": {"beamwidth_deg": 180},
             "lanes": [{"offset_m": 0.0, "density_per_m": 0.1}]},
}

COMMANDS = ("cdf", "ps", "mc", "converge", "mean", "optimize", "duty-cycle")


@dataclass(frozen=True)
class Cmd:
    """One CLI invocation: command, scenario variant and extra arguments."""

    command: str
    scenario: str
    args: tuple = ()

    @property
    def key(self) -> str:
        """Stable identifier, also the key of the stored reference output."""
        return " ".join((self.command, self.scenario) + self.args)

    @property
    def seeded(self) -> bool:
        return any("{seed}" in a for a in self.args)

    def argv(self, scenario_path: str, seed: int) -> list:
        return ([self.command, "--scenario", scenario_path]
                + [a.format(seed=seed) for a in self.args])


MC_SEED = ("--seed", "{seed}")

# Criterion 8's configuration: xi = delta * lambda_i from 0.01 to 1 at 2000
# replicates.  The default spacings stop at xi = 1/64, where 50,000 counts
# tell the lattice from the Poisson law on about one seed in seven.
CONVERGE = Cmd("converge", "table1",
               ("--replicates", "2000", "--sweep", "spacing:1:100:5") + MC_SEED)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple


WORKLOADS = {w.name: w for w in (
    # PPP: nearly all time goes to the CF -> surrogate -> Gil-Pelaez chain;
    # ps feeds the same inverter a sparse grid of at most 25 points
    Workload("ppp-analytic", (Cmd("cdf", "table1"), Cmd("ps", "table1"))),
    # lattice: scalar laplace_bl calls and a Talbot attempt that always
    # fails before the Gil-Pelaez fallback
    Workload("lattice-analytic", (Cmd("cdf", "lattice"),)),
    # Monte Carlo, geometry and model bound, no numeric inversion (ps runs
    # on the Levy scenario, whose analytic side is closed form); converge
    # draws dense lattices while mc draws sparse patterns
    Workload("mc-validate", (
        Cmd("mc", "table1", ("--format", "json") + MC_SEED),
        Cmd("mc", "lattice", ("--format", "json") + MC_SEED),
        Cmd("ps", "levy", ("--mc",) + MC_SEED),
        CONVERGE)),
    # setup, cli parsing and output, performance, specfun and the means;
    # no inversion and no Monte Carlo of its own
    Workload("closed-form", (
        Cmd("mean", "table1", ("--sweep", "density:0.005:1:40:log")),
        Cmd("optimize", "table1", ("--sweep", "range:10:250:25")),
        Cmd("duty-cycle", "table1", ("--sweep", "density:0.005:0.1:20:log")),
        Cmd("cdf", "levy"),
        Cmd("ps", "levy"))),
)}

# Light probes, one per command, run only where a workload's own list lacks
# that command.  None of them inverts a CF numerically.
PROBES = {
    "cdf": Cmd("cdf", "levy"),
    "ps": Cmd("ps", "levy", ("--sweep", "range:10:250:200")),
    "mc": Cmd("mc", "table1", ("--format", "json") + MC_SEED),
    "converge": Cmd("converge", "table1",
                    ("--replicates", "500", "--sweep", "spacing:10:100:2") + MC_SEED),
    "mean": Cmd("mean", "table1"),
    "optimize": Cmd("optimize", "table1"),
    "duty-cycle": Cmd("duty-cycle", "table1"),
}


def probes_for(workload: Workload) -> tuple:
    own = {c.command for c in workload.commands}
    return tuple(PROBES[c] for c in COMMANDS if c not in own)


def scenario_doc(base: dict, name: str) -> dict:
    """table1.json with the variant's overrides applied."""
    return _merge(base, SCENARIOS[name])


def _merge(base, override):
    if isinstance(base, dict) and isinstance(override, dict):
        out = dict(base)
        for k, v in override.items():
            out[k] = _merge(base.get(k), v)
        return out
    return override
