"""Tests of the benchmark's tracer, oracle and output format.

Kept out of the library's test suite so that timing noise never gates it.
Run with: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import tracer

ROOT = run.ROOT


def _traced_functions() -> list:
    return [getattr(importlib.import_module(f"{tracer.PACKAGE}.{mod}"), name)
            for mod, names in tracer.TRACED.items() for name in names]


def _bindings() -> dict:
    return {(module.__name__, attr): value for module in tracer.package_modules()
            for attr, value in vars(module).items()}


def test_installed_wraps_every_binding_and_restores_them():
    import rfda_secrecy
    from rfda_secrecy import arraymodel, secrecyregion, sweep

    originals = {id(fn) for fn in _traced_functions()}
    before = _bindings()
    t = tracer.Tracer()
    with tracer.installed(t) as patched:
        leftovers = [key for key, value in _bindings().items() if id(value) in originals]
        assert leftovers == []
        for module in (rfda_secrecy, arraymodel, secrecyregion, sweep):
            assert (module, "correlation2") in patched
        # the fixed-point solver reaches m_min through its module global
        assert (secrecyregion, "m_min") in patched
        s = sweep.default_scenario()
        k = sweep.resolve_k(s)
        secrecyregion.beta_boundary(s.array, k, s.bob, s.region)
        rfda_secrecy.correlation2(s.array, k, s.bob, s.eve)
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    calls = {name: agg["calls"] for name, agg in t.summary()["functions"].items()}
    assert calls["secrecyregion.beta_boundary"] == 1
    assert calls["arraymodel.correlation2"] == 4 + 1
    assert calls["freqdesign.load_frequency_table"] == 1


def test_pool_thread_spans_do_not_reduce_the_callers_self_time():
    t = tracer.Tracer()
    pooled = t.wrap("pooled", lambda _: time.sleep(0.02))
    same_thread = t.wrap("same_thread", lambda: time.sleep(0.02))

    def body():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(pooled, range(4)))
        same_thread()

    t.wrap("caller", body)()
    summary = t.summary()
    fns = summary["functions"]
    caller, child = fns["caller"], fns["same_thread"]
    assert fns["pooled"]["calls"] == 4
    assert caller["self_s"] == pytest.approx(caller["total_s"] - child["total_s"], abs=1e-9)
    assert caller["self_s"] >= 0.02  # it waited for the pool
    assert summary["off_main_s"] == pytest.approx(fns["pooled"]["total_s"], abs=1e-9)
    assert summary["off_main_s"] > caller["self_s"]


def test_raised_calls_are_counted_and_propagate():
    t = tracer.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = t.wrap("boom", boom)
    for _ in range(3):
        with pytest.raises(ValueError):
            wrapped()
    assert t.summary()["functions"]["boom"]["raised"] == 3


_SMALL_MC = run.Workload(
    (run.Command("mc_fixture_small",
                 ("sweep", "bandwidth", "--mode", "mc", "--trials", "200",
                  "--seed", "{seed}", "--out", "{out}"), seeded=True),
     run.Command("mc_generated_small",
                 ("sweep", "power", "--mode", "mc", "--k-target", "10405", "--m", "32",
                  "--trials", "100", "--pt-min", "0", "--pt-max", "30", "--pt-step", "15",
                  "--workers", "2", "--seed", "{seed}", "--out", "{out}"), seeded=True)),
    {"sweep.trials": 3 * 2 * 200 + 3 * 2 * 100,
     "sweep.trials_deterministic": 3 * 200,
     "arraymodel.steering_vector.calls": 2 * (3 * 200 + 3 * 100),
     "freqdesign.generate_k.calls": 3 * 2 * 100})


@pytest.fixture
def clock():
    c = run.HostClock(1, steps=1000)
    yield c
    c.close()


def test_host_clock_scales_by_the_kernel_around_a_step_and_stops(clock):
    result, elapsed, scale = clock.around(time.sleep, 0.01)
    assert result is None and elapsed >= 0.01
    assert len(clock.kernel_s) == 2
    assert scale == pytest.approx(2 * clock.ref_s / sum(clock.kernel_s))
    with pytest.raises(ZeroDivisionError):
        clock.around(lambda: 1 / 0)
    assert len(clock.kernel_s) == 3  # timed after a failed step too
    clock.close()
    assert clock.proc.returncode == 0


def test_traced_runs_write_the_bytes_of_an_untraced_run_and_repeat_counts(tmp_path, clock):
    env = run.program_env()
    plain, plain_out = run.run_rep(_SMALL_MC, 3, tmp_path, env, False, clock)
    traced = [run.run_rep(_SMALL_MC, 3, tmp_path, env, True, clock) for _ in range(2)]
    assert plain.problems == [] and all(rep.problems == [] for rep, _ in traced)
    for _, outputs in traced:
        assert [(cmd.name, c.digests) for cmd, c in outputs] == \
            [(cmd.name, c.digests) for cmd, c in plain_out]
    assert run.count_problems([rep for rep, _ in traced], _SMALL_MC) == []
    assert traced[0][0].trace["off_main_s"] > 0  # the 2-worker sweep used the pool


def test_count_check_reports_a_wrong_count(tmp_path, clock):
    rep, _ = run.run_rep(run.Workload(_SMALL_MC.commands[:1]), 3, tmp_path,
                         run.program_env(), True, clock)
    wrong = run.Workload(_SMALL_MC.commands[:1], {"sweep.trials": 1})
    assert run.count_problems([rep], wrong) == ["sweep.trials = 1200, expected 1"]


def test_oracle_tolerances():
    csv = "x,a,a_stderr\n1.0,2.0,0.5\n2.0,,0.25\n"
    assert run.compare_csv(csv, csv) == []
    assert run.compare_csv(csv.replace("2.0,,", "2.0,1.0,"), csv) != []
    assert run.compare_csv(csv.replace("2.0,0.5", "2.0000000001,0.5"), csv) == []
    assert run.compare_csv(csv.replace("2.0,0.5", "2.00001,0.5"), csv) != []
    assert run.compare_csv(csv + "3.0,1.0,0.1\n", csv) != []

    out = "k=1.5,-2.25\nsum=1e-14\nK10405: span=90.0 MHz (ok)\n"
    roundoff = ("sum",)
    assert run.compare_stdout(out.replace("1e-14", "3e-13"), out, roundoff) == []
    assert run.compare_stdout(out.replace("-2.25", "-2.26"), out, roundoff) != []
    assert run.compare_stdout(out.replace("(ok)", "(FAIL)"), out, roundoff) != []

    grid = "r_m,theta_deg,normalized_power\n" + "".join(
        f"{r}.0,{t}.0,{(r * 7 + t) % 11 / 10}\n" for r in range(30) for t in range(5))
    want = run.grid_summary(grid)
    assert run.compare_grid(run.grid_summary(grid), want) == []
    # a row between the sampled ones still moves the moments
    lines = grid.splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",0.123"
    assert run.compare_grid(run.grid_summary("\n".join(lines) + "\n"), want) != []


def test_check_rep_fails_outputs_off_the_reference_or_unparseable():
    cmd = run.WORKLOADS["mc_fixture"].commands[0]
    reference = run.load_reference("mc_fixture")
    want = run.reference_for(reference, cmd, 0)["csv"]
    cell = want.splitlines()[1].split(",")[1]
    for bad in (repr(float(cell) * (1 + 1e-8)), "oops"):
        rep = run.Rep(traced=False)
        got = [(cmd, run.Capture({}, {"csv": want.replace(cell, bad, 1)}))]
        run.check_rep(rep, got, reference, 0, {})
        assert len(rep.problems) == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in run.PER_LAYER.items()}
    for workload in run.WORKLOADS:
        reference = run.load_reference(workload)
        assert reference["program_seeds"] == run.PROGRAM_SEEDS
        assert len(reference["seeded"]) == run.PROGRAM_SEEDS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_fixture",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path, ".bench_work").exists()
