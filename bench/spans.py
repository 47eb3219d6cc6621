"""Outside-in span recorder for the traced benchmark run.

`instrument(recorder)` replaces public functions of the radar_sg modules
with wrappers that record a span per call, and puts the originals back on
exit.  Callers look these functions up through module attributes at call
time (`cli` through `itf.*`, `montecarlo` through the names it imports
from `geometry`, `model` and `interference`), so every module binding of a
wrapped function is replaced, not only the defining one.

Each thread keeps its own span stack: the Monte-Carlo thread pool runs
sampler spans on worker threads, and a shared stack would subtract them
from whatever span happens to be open on another thread.  A span's self
time is its duration minus the durations of the child spans it opened on
its own thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time

import numpy as np


class Stat:
    """Totals for one span name on one thread."""

    __slots__ = ("calls", "total_s", "self_s", "failed_s", "errors", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed_s = 0.0
        self.errors = {}   # exception type name -> count
        self.counts = {}   # work counts, summed

    def merge(self, other: "Stat") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.failed_s += other.failed_s
        for k, v in other.errors.items():
            self.errors[k] = self.errors.get(k, 0) + v
        for k, v in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v


class Recorder:
    """Per-thread span stacks and per-thread totals, merged on demand."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def _stat(self, name: str) -> Stat:
        table = self._state()[1]
        stat = table.get(name)
        if stat is None:
            stat = table[name] = Stat()
        return stat

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        stack, table = self._state()
        child = [0.0]
        stack.append(child)
        t0 = self._clock()
        error = None
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            dur = self._clock() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            stat = table.get(name)
            if stat is None:
                stat = table[name] = Stat()
            stat.calls += 1
            stat.total_s += dur
            stat.self_s += dur - child[0]
            if error is not None:
                stat.failed_s += dur
                stat.errors[error] = stat.errors.get(error, 0) + 1

    def count(self, name: str, **counts) -> None:
        stat = self._stat(name)
        for k, v in counts.items():
            stat.counts[k] = stat.counts.get(k, 0) + v

    def calls_per_thread(self, names) -> list:
        """Calls of the spans `names`, one entry per thread seen so far.

        Threads keep their position in the list, so two snapshots tell
        which threads recorded such a span in between.
        """
        with self._lock:
            tables = list(self._tables)
        return [sum(t[n].calls for n in names if n in t) for t in tables]

    def totals(self) -> dict:
        """Span name -> Stat merged over every thread seen so far."""
        out = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, stat in list(table.items()):
                out.setdefault(name, Stat()).merge(stat)
        return out


# ---------------------------------------------------------------------------
# wrappers for the radar_sg public functions
# ---------------------------------------------------------------------------

def _plain(rec, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call(name, fn, *args, **kwargs)
    return traced


def _omegas(rec, name, fn):
    """CF evaluators: count the omega values asked for."""
    @functools.wraps(fn)
    def traced(spec, omega):
        rec.count(name, omegas=int(np.size(omega)))
        return rec.call(name, fn, spec, omega)
    return traced


def _sampler(rec, name, fn):
    """Point-pattern samplers: count the points drawn."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        pattern = rec.call(name, fn, *args, **kwargs)
        rec.count(name, points=len(pattern))
        return pattern
    return traced


def _tabulated_cf(rec, name, fn):
    """Count tabulation nodes and wrap the returned surrogate."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        rec.count(name, points=int(bound.arguments["points"]))
        surrogate = rec.call(name, fn, *args, **kwargs)

        def traced_surrogate(omega):
            rec.count("surrogate", omegas=int(np.size(omega)))
            return rec.call("surrogate", surrogate, omega)
        return traced_surrogate
    return traced


def _gil_pelaez(rec, name, fn):
    """Count grid points and the calls made to the `cf` argument."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        cf = bound.arguments["cf"]
        calls = [0]

        def counted_cf(w):
            calls[0] += 1
            return cf(w)
        bound.arguments["cf"] = counted_cf
        try:
            return rec.call(name, fn, *bound.args, **bound.kwargs)
        finally:
            rec.count(name, points=int(np.size(bound.arguments["grid"])),
                      cf_calls=calls[0])
    return traced


SAMPLERS = ("sample_ppp", "sample_lattice")


def _mc_entry(rec, name, fn):
    """Monte-Carlo entry points: replicates drawn, and the threads that
    drew point patterns during the call."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        draws = len(bound.arguments.get("delta_list", (None,)))
        rec.count(name, replicates=bound.arguments["mc"].replicates * draws)
        before = rec.calls_per_thread(SAMPLERS)
        try:
            return rec.call(name, fn, *args, **kwargs)
        finally:
            after = rec.calls_per_thread(SAMPLERS)
            before += [0] * (len(after) - len(before))
            rec.count(name, threads=sum(a > b for a, b in zip(after, before)))
    return traced


# (module, function) -> (span name, wrapper factory)
TARGETS = {
    ("cli", "run"): ("cli", _plain),
    ("cli", "parse_scenario"): ("parse_scenario", _plain),
    ("model", "derive"): ("derive", _plain),
    ("geometry", "sample_ppp"): ("sample_ppp", _sampler),
    ("geometry", "sample_lattice"): ("sample_lattice", _sampler),
    ("geometry", "count_in_intervals"): ("count_in_intervals", _plain),
    ("interference", "cf_ppp"): ("cf_ppp", _omegas),
    ("interference", "cf_bl"): ("cf_bl", _omegas),
    ("interference", "laplace_bl"): ("laplace_bl", _plain),
    ("interference", "cf_decay_cutoff"): ("cf_decay_cutoff", _plain),
    ("interference", "tabulated_cf"): ("tabulated_cf", _tabulated_cf),
    ("interference", "cdf_gil_pelaez"): ("cdf_gil_pelaez", _gil_pelaez),
    ("interference", "cdf_from_laplace_talbot"): ("talbot", _plain),
    ("interference", "cdf_bl_talbot"): ("cdf_bl_talbot", _plain),
    ("interference", "cdf_levy_closed"): ("cdf_levy_closed", _plain),
    ("interference", "aggregate_interference"): ("aggregate_interference", _plain),
    ("interference", "mean_ppp_exact"): ("means", _plain),
    ("interference", "mean_simplified"): ("means", _plain),
    ("interference", "mean_bl"): ("means", _plain),
    ("montecarlo", "mc_interference"): ("mc", _mc_entry),
    ("montecarlo", "mc_ranging_success"): ("mc", _mc_entry),
    ("montecarlo", "mc_convergence_bl_to_ppp"): ("mc", _mc_entry),
}
# every public function of these modules shares one span name
WHOLE_MODULES = ("performance", "specfun")
PACKAGE = "radar_sg"


def _public_functions(module) -> list:
    return [n for n, v in vars(module).items()
            if not n.startswith("_") and callable(v) and not isinstance(v, type)
            and getattr(v, "__module__", None) == module.__name__]


def targets() -> dict:
    """Original function object -> (span name, wrapper factory)."""
    out = {}
    for (mod, fn), spec in TARGETS.items():
        out[getattr(importlib.import_module(f"{PACKAGE}.{mod}"), fn)] = spec
    for mod in WHOLE_MODULES:
        module = importlib.import_module(f"{PACKAGE}.{mod}")
        for fn in _public_functions(module):
            out[getattr(module, fn)] = (mod, _plain)
    return out


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Wrap the target functions in every module binding; restore on exit."""
    wanted = targets()
    wrappers = {id(orig): factory(recorder, name, orig)
                for orig, (name, factory) in wanted.items()}
    originals = {id(orig): orig for orig in wanted}
    patched = []
    try:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE
                                      or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    setattr(module, attr, wrappers[id(value)])
                    patched.append((module, attr, value))
        yield recorder
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)
