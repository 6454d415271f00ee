"""Golden check: the cheap closed-form benchmark commands at program seed 0 still
produce the outputs recorded in ``bench/reference/closed_form.json``.

The comparison goes through ``bench/run.py``'s own ``capture`` and ``compare``
(and so its ``compare_csv`` and ``compare_stdout``), so the output tolerances
have one copy.  The test only reads ``bench/``.
"""

import sys
import types
from pathlib import Path

import pytest

from rfda_secrecy.cli import main

_RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"
_COMMANDS = ("gen_k_eigen", "sweep_delta", "sweep_rate", "region", "validate_fixtures",
             "beampattern")
_PROGRAM_SEED = 0


@pytest.fixture(scope="module")
def bench_run():
    # executed from its source text, so that nothing is written under bench/
    module = types.ModuleType("bench_run")
    module.__file__ = str(_RUN_PY)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[module.__name__] = module
    try:
        exec(compile(_RUN_PY.read_text(), _RUN_PY, "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


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
