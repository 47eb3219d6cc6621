"""Tests of the benchmark's own code: span accounting, wrapper lifetime,
reference tolerances and failure counting."""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import spans  # noqa: E402
from run import Pass, run_cli, verify  # noqa: E402
from workloads import Cmd  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def work(clock, seconds, then=None):
    def fn():
        clock.t += seconds
        if then is not None:
            then()
        return seconds
    return fn


def test_self_time_excludes_nested_children():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)

    def outer():
        clock.t += 1.0
        rec.call("child", work(clock, 2.0, then=lambda: rec.call(
            "grandchild", work(clock, 3.0))))
        rec.call("child", work(clock, 4.0))
        clock.t += 0.5

    rec.call("outer", outer)
    t = rec.totals()
    assert t["outer"].total_s == pytest.approx(10.5)
    assert t["outer"].self_s == pytest.approx(1.5)
    assert t["child"].calls == 2
    assert t["child"].total_s == pytest.approx(9.0)
    assert t["child"].self_s == pytest.approx(6.0)
    assert t["grandchild"].self_s == pytest.approx(3.0)


def test_spans_on_other_threads_are_not_children():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)

    def outer():
        clock.t += 1.0
        worker = threading.Thread(
            target=lambda: rec.call("worker", work(clock, 5.0)))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        clock.t += 1.0

    rec.call("outer", outer)
    t = rec.totals()
    assert t["outer"].total_s == pytest.approx(7.0)
    assert t["outer"].self_s == pytest.approx(7.0)
    assert t["worker"].self_s == pytest.approx(5.0)


def test_failed_span_is_recorded_and_reraised():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)

    def boom():
        clock.t += 2.0
        raise ValueError("no")

    with pytest.raises(ValueError):
        rec.call("talbot", boom)
    stat = rec.totals()["talbot"]
    assert stat.calls == 1 and stat.errors == {"ValueError": 1}
    assert stat.failed_s == pytest.approx(2.0)


def test_mc_threads_counts_threads_that_drew_patterns():
    rec = spans.Recorder()
    rec.call("sample_ppp", lambda: None)  # before the MC call: not counted

    class Cfg:
        replicates = 10

    def fake_mc(scenario, mc, workers):
        def draw():
            rec.call("sample_lattice", lambda: None)
        threads = [threading.Thread(target=draw) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        rec.call("derive", lambda: None)  # not a sampler
        return workers

    entry = spans._mc_entry(rec, "mc", fake_mc)
    assert entry(None, Cfg(), 3) == 3
    assert entry(None, mc=Cfg(), workers=1) == 1
    mc = rec.totals()["mc"]
    assert mc.calls == 2
    assert mc.counts == {"replicates": 20, "threads": 4}


def _bindings():
    pkg = spans.PACKAGE
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if mod is not None and (name == pkg or name.startswith(pkg + "."))
            for attr, value in vars(mod).items()}


def test_instrument_wraps_every_binding_and_restores_them():
    from radar_sg import cli, interference, model, montecarlo

    before = _bindings()
    rec = spans.Recorder()
    scenario = Path(__file__).resolve().parents[1] / "src/radar_sg/data/table1.json"
    with spans.instrument(rec):
        assert montecarlo.derive is cli.derive is model.derive
        assert model.derive is not before[("radar_sg.model", "derive")]
        assert interference.cf_ppp is not before[("radar_sg.interference", "cf_ppp")]
        traced = run_cli(["mean", "--scenario", str(scenario)])
    with pytest.raises(RuntimeError):
        with spans.instrument(rec):
            raise RuntimeError("leave early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == run_cli(["mean", "--scenario", str(scenario)])
    t = rec.totals()
    assert t["cli"].calls == 1 and t["parse_scenario"].calls == 1
    assert t["means"].calls == 4


MEAN_REF = "density,mean_w\n0.1,1.5\n0.2,3\n"
CURVE_REF = "x_watts,cdf_analytic,method\n1,0.25,gil_pelaez\n2,0.75,gil_pelaez\n"


def test_closed_form_outputs_match_to_relative_1e9():
    assert checks.compare(MEAN_REF, MEAN_REF) == []
    assert checks.compare("density,mean_w\n0.1,1.5000000001\n0.2,3\n", MEAN_REF) == []
    assert checks.compare("density,mean_w\n0.1,1.500001\n0.2,3\n", MEAN_REF)
    assert checks.compare("density,mean_w\n0.1,1.5\n", MEAN_REF)
    assert checks.compare("density,mean\n0.1,1.5\n0.2,3\n", MEAN_REF)


def test_curves_match_within_their_tolerance():
    near = "x_watts,cdf_analytic,method\n1,0.25009,gil_pelaez\n2,0.75,gil_pelaez\n"
    far = "x_watts,cdf_analytic,method\n1,0.2502,gil_pelaez\n2,0.75,gil_pelaez\n"
    other = "x_watts,cdf_analytic,method\n1,0.25,talbot\n2,0.75,talbot\n"
    shifted = "x_watts,cdf_analytic,method\n1.001,0.25,gil_pelaez\n2,0.75,gil_pelaez\n"
    cols = ("cdf_analytic",)
    assert checks.compare(near, CURVE_REF, curve_cols=cols) == []
    assert checks.compare(far, CURVE_REF, curve_cols=cols)
    assert checks.compare(other, CURVE_REF, curve_cols=cols)
    assert checks.compare(shifted, CURVE_REF, curve_cols=cols)


def test_truncation_allowance_and_band():
    x = np.array([1.0, 2.0, 4.0])
    f = np.array([0.2, 0.5, 0.9])
    assert np.all(checks.truncation_allowance(x, f, 0.0) == 0.0)
    allow = checks.truncation_allowance(x, f, 0.01)
    # t = 1 from x = 1: F(2) - F(1) + 0.01 = 0.31; t = 3: 0.7 + 0.0033
    assert allow[0] == pytest.approx(0.31)
    assert allow[2] == pytest.approx(0.1)
    assert checks.band(x, f, f + 0.01, 0.02, 0.0, "x") == []
    assert checks.band(x, f, f - 0.03, 0.02, 0.0, "x")
    assert checks.band(x, f, f + 0.03, 0.02, 0.0, "x")
    assert checks.band(x, f, f + 0.03, 0.02, 0.01, "x") == []


def test_converge_check_applies_criterion_8():
    head = "spacing_m,duty_cycle,chi2,dof,p_value,tv_distance\n"
    good = head + "1,0.01,3,5,0.7,0.004\n50,0.5,90,5,1e-9,0.2\n100,1,9000,5,0,0.73\n"
    assert checks.check_converge(good) == []
    not_poisson = good.replace("0.7,0.004", "1e-7,0.004")
    assert checks.check_converge(not_poisson)
    not_monotone = good.replace("0.7,0.004", "0.7,0.3")
    assert checks.check_converge(not_monotone)
    no_reject = good.replace("9000,5,0,", "2,5,0.5,")
    assert checks.check_converge(no_reject)


def _pass(*calls):
    p = Pass()
    p.calls = [(cmd, rc, out, "", 0.1) for cmd, rc, out in calls]
    return p


def test_failure_counting():
    a, b = Cmd("mean", "table1"), Cmd("cdf", "levy")

    def checker(cmd, text):
        return ["wrong"] if text == "bad" else []

    att, failed, problems, _ = verify(
        [_pass((a, 0, "ok"), (b, 0, "ok")), _pass((a, 0, "ok"), (b, 0, "ok"))], checker)
    assert (att, failed, problems) == (4, 0, [])
    # a nonzero exit and a repeat that prints other bytes fail alone
    att, failed, problems, _ = verify(
        [_pass((a, 0, "ok"), (b, 1, "")), _pass((a, 0, "ok2"), (b, 0, "ok"))], checker)
    assert (att, failed) == (4, 2) and len(problems) == 2
    # a failed check fails every call of that command line
    att, failed, _, _ = verify(
        [_pass((a, 0, "bad"), (b, 0, "ok")), _pass((a, 0, "bad"), (b, 0, "ok"))], checker)
    assert (att, failed) == (4, 2)
    # traced outputs are held to the untraced ones
    att, failed, _, _ = verify([_pass((a, 0, "ok"))], checker, reference={a.key: "ok0"})
    assert (att, failed) == (1, 1)


def test_checker_holds_closed_form_outputs_to_the_references():
    import gzip
    import json

    with gzip.open(Path(__file__).with_name("references.json.gz"), "rt") as fh:
        refs = json.load(fh)
    checker = checks.Checker(refs, run_cli=None, scenario_paths={})
    cmd = Cmd("optimize", "table1", ("--sweep", "range:10:250:25"))
    text = refs["outputs"][cmd.key]
    assert checker(cmd, text) == []
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    assert checker(cmd, "\n".join([header, ",".join(cells), rest]))
