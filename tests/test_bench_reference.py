"""Golden check: the closed-form benchmark commands and the two Monte Carlo
commands at program seed 0 still produce the outputs recorded in
``bench/reference/``; every name that the benchmark's tracer wraps still exists,
and traced closed-form and Monte Carlo runs make the calls that the benchmark's
trace checks count.

The comparison goes through ``bench/run.py``'s own ``capture`` and ``compare``
(and so its ``compare_csv`` and ``compare_stdout``), so the output tolerances
have one copy.  The tests only read ``bench/``.
"""

import importlib
import inspect
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from rfda_secrecy import cli, sweep
from rfda_secrecy.cli import main

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_RUN_PY = _BENCH / "run.py"
_COMMANDS = ("gen_k_eigen", "sweep_delta", "sweep_rate", "region", "validate_fixtures",
             "beampattern", "sweep_power_eigen")
_MC_COMMANDS = {"sweep_bandwidth_mc": "mc_fixture", "sweep_power_mc": "mc_generated"}
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


def _command(bench_run, workload: str, name: str):
    return next(c for c in bench_run.WORKLOADS[workload].commands if c.name == name)


def _matches_the_reference(bench_run, workload: str, name: str, out: Path, capsys) -> list:
    "What differs between the command's output at program seed 0 and its reference."
    cmd = _command(bench_run, workload, name)
    argv = [a.format(seed=_PROGRAM_SEED, out=out) for a in cmd.argv]
    assert main(argv) == 0
    got = bench_run.capture(cmd, capsys.readouterr().out)
    want = bench_run.reference_for(bench_run.load_reference(workload), cmd, _PROGRAM_SEED)
    return bench_run.compare(cmd, got.record, want)


@pytest.mark.parametrize("name", _COMMANDS)
def test_closed_form_command_matches_the_benchmark_reference(bench_run, name, tmp_path,
                                                             capsys):
    assert _matches_the_reference(bench_run, "closed_form", name, tmp_path, capsys) == []


@pytest.mark.parametrize("name", sorted(_MC_COMMANDS))
def test_monte_carlo_command_matches_the_benchmark_reference(bench_run, name, tmp_path,
                                                             capsys):
    workload = _MC_COMMANDS[name]
    assert _matches_the_reference(bench_run, workload, name, tmp_path, capsys) == []


@pytest.mark.parametrize("name", sorted(_MC_COMMANDS))
def test_traced_monte_carlo_counts_scale_as_the_benchmark_expects(bench_run, bench_tracer,
                                                                  name, tmp_path):
    # the counts that a traced benchmark run checks exactly, for one process at
    # a small --trials that ends in a part block
    workload = bench_run.WORKLOADS[_MC_COMMANDS[name]]
    argv = [a.format(seed=_PROGRAM_SEED, out=tmp_path) for a in _command(
        bench_run, _MC_COMMANDS[name], name).argv]
    at = argv.index("--trials") + 1
    trials, argv[at] = int(argv[at]), "130"
    tracer = bench_tracer.Tracer()
    with bench_tracer.installed(tracer):
        assert cli.main(argv) == 0
    summary = tracer.summary()
    scale = Fraction(130, trials * len(workload.commands))
    assert workload.expected_counts
    for metric, expected in workload.expected_counts.items():
        source = bench_run.PER_LAYER[metric][1]
        assert bench_run.layer_value(source, summary, None, 0.0) == expected * scale, metric


def test_traced_closed_form_counts_are_the_benchmark_pins(bench_run, bench_tracer, tmp_path):
    # every closed_form command at program seed 0 in one traced process: the
    # counts must equal the workload's exact pins, so a cache above a traced name
    # (one that skips symmetric_eigen or generate_k calls) fails here
    workload = bench_run.WORKLOADS["closed_form"]
    tracer = bench_tracer.Tracer()
    with bench_tracer.installed(tracer):
        for cmd in workload.commands:
            out = tmp_path / cmd.name
            assert cli.main([a.format(seed=_PROGRAM_SEED, out=out) for a in cmd.argv]) == 0
    summary = tracer.summary()
    assert workload.expected_counts
    for metric, expected in workload.expected_counts.items():
        source = bench_run.PER_LAYER[metric][1]
        assert bench_run.layer_value(source, summary, None, 0.0) == expected, metric
