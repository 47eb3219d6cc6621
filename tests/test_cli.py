"""Command-line interface: scenario schema, sweeps, output, errors."""

import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import radar_sg
from radar_sg.cli import (RunSpec, SchemaError, SweepSpec, main,
                          parse_scenario, parse_sweep, run)
from radar_sg.model import GeometryKind


def bundled_text() -> str:
    return resources.files("radar_sg.data").joinpath("table1.json").read_text()


def bundled_path(tmp_path) -> str:
    p = tmp_path / "scenario.json"
    p.write_text(bundled_text())
    return str(p)


def subprocess_env() -> dict:
    """Environment in which a child interpreter imports this radar_sg."""
    src = str(Path(radar_sg.__file__).resolve().parents[1])
    extra = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + extra if extra else "")}


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def test_bundled_scenario_parses():
    sc = parse_scenario(bundled_text())
    assert sc.radar.tx_power == pytest.approx(0.01)
    assert sc.radar.antenna_gain == pytest.approx(10.0 ** 4.5)
    assert sc.radar.beamwidth == pytest.approx(math.radians(15.0))
    assert sc.radar.frequency == pytest.approx(76.5e9)
    assert sc.radar.rcs == pytest.approx(1000.0)
    assert sc.radar.sinr_threshold == pytest.approx(10.0)
    assert sc.radar.noise_power == 0.0
    assert sc.lanes[0].offset == 10.0 and sc.lanes[0].density == 0.1
    assert sc.access.duty_cycle == 0.1
    assert sc.geometry_kind is GeometryKind.PPP


def test_linear_spellings_equivalent():
    doc = json.loads(bundled_text())
    doc["radar"].pop("tx_power_dbm")
    doc["radar"]["tx_power_w"] = 0.01
    doc["radar"].pop("beamwidth_deg")
    doc["radar"]["beamwidth_rad"] = math.radians(15.0)
    sc = parse_scenario(json.dumps(doc))
    assert sc.radar.tx_power == pytest.approx(0.01)
    assert sc.radar.beamwidth == pytest.approx(math.radians(15.0))


def test_schema_errors_name_the_field():
    doc = json.loads(bundled_text())
    del doc["radar"]["frequency_hz"]
    with pytest.raises(SchemaError, match="frequency_hz"):
        parse_scenario(json.dumps(doc))

    doc = json.loads(bundled_text())
    doc["radar"]["mystery"] = 1.0
    with pytest.raises(SchemaError, match="mystery"):
        parse_scenario(json.dumps(doc))

    doc = json.loads(bundled_text())
    doc["radar"]["tx_power_w"] = 0.02   # second spelling of tx_power
    with pytest.raises(SchemaError, match="tx_power"):
        parse_scenario(json.dumps(doc))

    doc = json.loads(bundled_text())
    doc["radar"]["frequency_hz"] = "fast"
    with pytest.raises(SchemaError, match="frequency_hz"):
        parse_scenario(json.dumps(doc))

    with pytest.raises(SchemaError, match="JSON"):
        parse_scenario("{not json")

    doc = json.loads(bundled_text())
    doc["geometry"] = "hexagonal"
    with pytest.raises(SchemaError, match="geometry"):
        parse_scenario(json.dumps(doc))

    doc = json.loads(bundled_text())
    doc["lanes"] = []
    with pytest.raises(SchemaError, match="lanes"):
        parse_scenario(json.dumps(doc))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_parse_sweep():
    s = parse_sweep("density:0.01:0.04:4")
    assert s == SweepSpec(name="density", start=0.01, stop=0.04, points=4,
                          log=False)
    assert np.allclose(s.grid(), np.linspace(0.01, 0.04, 4))
    slog = parse_sweep("duty_cycle:0.001:1:7:log")
    assert slog.log
    assert np.allclose(slog.grid(), np.geomspace(0.001, 1.0, 7))
    with pytest.raises(ValueError):
        parse_sweep("density:1:2")
    with pytest.raises(ValueError):
        parse_sweep("density:1:2:5:cubic")


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def test_mean_command_csv(tmp_path, capsys):
    out = tmp_path / "mean.csv"
    spec = RunSpec(scenario_path=bundled_path(tmp_path), command="mean",
                   sweep=parse_sweep("density:0.01:0.04:4"), out=str(out),
                   fmt="csv")
    assert run(spec) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "density,mean_ppp_w,mean_bl_w"
    assert len(lines) == 5
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(0.01)
    assert first[1] == pytest.approx(1.2730264830960647e-05, rel=1e-9)


def test_mean_command_rerun_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        spec = RunSpec(scenario_path=bundled_path(tmp_path), command="mean",
                       sweep=parse_sweep("density:0.01:0.04:4"),
                       out=str(out), fmt="csv")
        assert run(spec) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ps_command_json(tmp_path):
    out = tmp_path / "ps.json"
    spec = RunSpec(scenario_path=bundled_path(tmp_path), command="ps",
                   sweep=parse_sweep("range:20:100:5"), out=str(out),
                   fmt="json")
    assert run(spec) == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["range_m", "p_success_general",
                              "p_success_worst_case"]
    rows = np.array(doc["rows"])
    assert rows.shape == (5, 3)
    assert np.all(rows[:, 1] <= 1.0) and np.all(rows[:, 1] >= 0.0)
    # the general law stochastically dominates the worst case
    assert np.all(rows[:, 1] + 1e-4 >= rows[:, 2])


def test_ps_mc_descending_sweep_reverses_ascending_rows(tmp_path, capsys):
    path = bundled_path(tmp_path)
    runs = []
    for sweep in ("range:10:250:4", "range:250:10:4"):
        assert main(["ps", "--scenario", path, "--mc", "--replicates", "200",
                     "--sweep", sweep]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    ascending, descending = runs
    assert descending[0] == ascending[0]
    assert descending[0].endswith("p_success_mc,ci99_halfwidth")
    assert len(descending) == 5
    assert descending[1:] == ascending[1:][::-1]


def test_lattice_cdf_never_attempts_talbot(tmp_path, monkeypatch, capsys):
    # the lattice transform is entire, so the Talbot contour always fails;
    # the CLI must go straight to the CF route
    from radar_sg import interference as itf

    def refuse(*args, **kwargs):
        raise AssertionError("the lattice cdf attempted the Talbot contour")
    lattice_cf_calls = []

    def cheap_lattice_cf(spec, omega):
        # the PPP law of the same scenario stands in for the costly lattice CF
        lattice_cf_calls.append(spec.geometry)
        return itf.cf_ppp(spec, omega)
    monkeypatch.setattr(itf, "cdf_from_laplace_talbot", refuse)
    monkeypatch.setattr(itf, "cdf_bl_talbot", refuse)
    monkeypatch.setattr(itf, "cf_bl", cheap_lattice_cf)
    doc = json.loads(bundled_text())
    doc["geometry"] = "bernoulli_lattice"
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(doc))
    assert main(["cdf", "--scenario", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x_watts,cdf_analytic,method"
    assert all(line.endswith(",gil_pelaez") for line in lines[1:])
    assert set(lattice_cf_calls) == {GeometryKind.BERNOULLI_LATTICE}


def test_mc_command_deterministic(tmp_path):
    outs = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        spec = RunSpec(scenario_path=bundled_path(tmp_path), command="mc",
                       out=str(out), fmt="json", replicates=300, seed=9)
        assert run(spec) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["meta"]["replicates"] == 300
    assert doc["meta"]["seed"] == 9
    assert doc["meta"]["mean_suppressed"] is False


def test_error_goes_to_stderr_as_json(tmp_path, capsys):
    spec = RunSpec(scenario_path=str(tmp_path / "missing.json"),
                   command="mean", out=None, fmt="csv")
    assert run(spec) == 1
    err = capsys.readouterr().err
    doc = json.loads(err)
    assert doc["error"] == "FileNotFoundError"
    assert "missing.json" in doc["message"]


def test_main_rejects_bad_sweep(tmp_path, capsys):
    rc = main(["mean", "--scenario", bundled_path(tmp_path),
               "--sweep", "density:1:2"])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "ValueError"


def test_console_script_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "radar_sg.cli", "mean",
         "--scenario", bundled_path(tmp_path),
         "--sweep", "density:0.01:0.02:2"],
        capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("density,mean_ppp_w,mean_bl_w")


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats alone costs most of a second at start-up, mpmath ~4 MB
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, radar_sg.cli; "
         "print('scipy.stats' in sys.modules, 'mpmath' in sys.modules)"],
        capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def test_converge_refuses_window_short_of_the_intervals(tmp_path, capsys):
    rc = main(["converge", "--scenario", bundled_path(tmp_path),
               "--window", "50"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "ValueError"
    assert "window" in doc["message"]


def test_runspec_validation(tmp_path):
    with pytest.raises(ValueError):
        RunSpec(scenario_path="x", command="explode", out=None, fmt="csv")
    with pytest.raises(ValueError):
        RunSpec(scenario_path="x", command="mean", out=None, fmt="yaml")
    with pytest.raises(ValueError):
        RunSpec(scenario_path="x", command="mean",
                sweep=SweepSpec("density", 1.0, 2.0, 1, False))
