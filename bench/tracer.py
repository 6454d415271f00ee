"""Outside-in tracer for the rfda_secrecy library.

The tracer wraps the library's public functions from outside the package:
every module attribute bound to a traced function (``sweep.correlation2``,
``secrecyregion.correlation2``, ``arraymodel.correlation2``, the package
re-export, ...) is replaced by one wrapper, and restored on exit.  Nothing in
``src/`` is edited.

Each call is a span.  Spans nest per thread: a wrapper pushes a child-time
accumulator on its thread's stack, and on exit adds its duration to the
parent's accumulator, so a function's self time is its duration minus the
time of the traced calls it made on the same thread.  Spans on a pool thread
therefore never reduce the self time of the caller that is waiting for them;
their root durations are summed separately as ``off_main_s``.  Spans are
folded into per-function aggregates as they close, which keeps memory flat
over hundreds of thousands of calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time
from pathlib import Path

PACKAGE = "rfda_secrecy"

# module -> public functions traced in it (the layers of the per-layer trace)
TRACED = {
    "cli": ("main",),
    "sweep": ("mc_capacity", "beampattern_grid", "write_run", "beampattern_csv_text"),
    "arraymodel": ("correlation2", "steering_vector"),
    "freqdesign": ("generate_k", "symmetric_eigen", "load_frequency_table"),
    "dmsecurity": ("an_vector", "complex_gaussian", "capacity_bob", "capacity_eve_an",
                   "secrecy_capacity"),
    "secrecyregion": ("beta_boundary", "solve_m_min", "m_min"),
    "svgchart": ("line_chart",),
}


class _ThreadState:
    __slots__ = ("stack", "stats", "off_main", "off_main_s")

    def __init__(self, off_main: bool):
        self.stack: list[float] = []
        # name -> [calls, total_s, self_s, raised]
        self.stats: dict[str, list] = {}
        self.off_main = off_main
        self.off_main_s = 0.0


class Tracer:
    """Per-thread span stacks folded into per-function aggregates."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._main = threading.get_ident()
        self.counters: dict[str, float] = {}

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState(threading.get_ident() != self._main)
            with self._lock:
                self._threads.append(st)
        return st

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``observe(args, kwargs, result)`` runs after each call that returns,
        outside the span, to record counters from arguments or results.
        """
        clock = time.perf_counter
        state = self._state

        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            stack.append(0.0)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                dur = clock() - t0
                child = stack.pop()
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                rec[3] += raised
                if stack:
                    stack[-1] += dur
                elif st.off_main:
                    st.off_main_s += dur
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def summary(self) -> dict:
        "Aggregates merged over every thread that recorded a span."
        functions: dict[str, dict] = {}
        off_main_s = 0.0
        with self._lock:
            threads = list(self._threads)
            counters = dict(self.counters)
        for st in threads:
            off_main_s += st.off_main_s
            for name, (calls, total, self_s, raised) in st.stats.items():
                agg = functions.setdefault(name, {"calls": 0, "total_s": 0.0,
                                                  "self_s": 0.0, "raised": 0})
                agg["calls"] += calls
                agg["total_s"] += total
                agg["self_s"] += self_s
                agg["raised"] += raised
        return {"functions": functions, "off_main_s": off_main_s, "counters": counters}


def package_modules() -> list:
    "Every loaded module of the package, after importing the traced ones."
    for name in TRACED:
        importlib.import_module(f"{PACKAGE}.{name}")
    return [module for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _observers(tracer: Tracer) -> dict:
    "Counters read from the arguments or results of a few traced calls."
    from rfda_secrecy.secrecyregion import Scheme
    from rfda_secrecy.sweep import FixtureK, mc_capacity

    signature = inspect.signature(mc_capacity)

    def trials(args, kwargs, _result):
        # a trial draws no randomness when its k is a fixture row and no
        # power goes to AN (signal-only scheme, or delta = 1)
        call = signature.bind(*args, **kwargs)
        s, n = call.arguments["s"], call.arguments["trials"]
        signal_only = (call.arguments.get("scheme") is Scheme.WITHOUT_AN
                       or s.power.delta == 1.0)
        tracer.count("sweep.trials", n)
        tracer.count("sweep.trials_deterministic",
                     n if signal_only and isinstance(s.k_source, FixtureK) else 0)

    def run_dir_bytes(_args, _kwargs, run_dir):
        tracer.count("sweep.output.bytes",
                     sum(p.stat().st_size for p in Path(run_dir).iterdir() if p.is_file()))

    def text_bytes(_args, _kwargs, text):
        tracer.count("sweep.output.bytes", len(text.encode()))

    return {"sweep.mc_capacity": trials,
            "sweep.write_run": run_dir_bytes,
            "sweep.beampattern_csv_text": text_bytes}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every binding of every traced function; restore them on exit.

    Yields the list of ``(module, attribute)`` pairs that were patched.
    """
    modules = package_modules()
    observers = _observers(tracer)
    patched: list[tuple] = []
    try:
        for mod_name, names in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for fn_name in names:
                original = getattr(home, fn_name)
                span = f"{mod_name}.{fn_name}"
                wrapper = tracer.wrap(span, original, observers.get(span))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
        yield [(module, attr) for module, attr, _ in patched]
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
