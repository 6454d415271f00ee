"""Golden check: the cheap closed-form benchmark commands at program seed 0 still
produce the outputs recorded in ``bench/reference/closed_form.json``, and every
name that the benchmark's tracer wraps still exists.

The comparison goes through ``bench/run.py``'s own ``capture`` and ``compare``
(and so its ``compare_csv`` and ``compare_stdout``), so the output tolerances
have one copy.  The tests only read ``bench/``.
"""

import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

from rfda_secrecy import sweep
from rfda_secrecy.cli import main

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_RUN_PY = _BENCH / "run.py"
_COMMANDS = ("gen_k_eigen", "sweep_delta", "sweep_rate", "region", "validate_fixtures",
             "beampattern")
_PROGRAM_SEED = 0


def _bench_module(path: Path, name: str):
    "Execute ``path`` from its source text, so that nothing is written under bench/."
    module = types.ModuleType(name)
    module.__file__ = str(path)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[name] = module
    try:
        exec(compile(path.read_text(), path, "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[name]


@pytest.fixture(scope="module")
def bench_run():
    yield from _bench_module(_RUN_PY, "bench_run")


@pytest.fixture(scope="module")
def bench_tracer():
    yield from _bench_module(_BENCH / "tracer.py", "bench_tracer")


def test_every_traced_name_exists(bench_tracer):
    for module, names in bench_tracer.TRACED.items():
        home = importlib.import_module(f"{bench_tracer.PACKAGE}.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"
    # the tracer's trial counter binds these parameters of every mc_capacity call
    assert {"s", "trials", "scheme"} <= set(inspect.signature(sweep.mc_capacity).parameters)


@pytest.mark.parametrize("name", _COMMANDS)
def test_closed_form_command_matches_the_benchmark_reference(bench_run, name, tmp_path,
                                                             capsys):
    cmd, = (c for c in bench_run.WORKLOADS["closed_form"].commands if c.name == name)
    argv = [a.format(seed=_PROGRAM_SEED, out=tmp_path) for a in cmd.argv]
    assert main(argv) == 0
    got = bench_run.capture(cmd, capsys.readouterr().out)
    want = bench_run.reference_for(bench_run.load_reference("closed_form"), cmd,
                                   _PROGRAM_SEED)
    assert bench_run.compare(cmd, got.record, want) == []
