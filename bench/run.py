"""Benchmark of the rfda_secrecy CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of CLI commands run as real processes
(``python -m rfda_secrecy ...``); one repetition runs them all in order.  The
benchmark repeats the workload for S seconds, checks every output against
the reference recorded in ``bench/reference/`` and prints, as the last line
of standard output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` repetitions alternate between plain and
traced processes (``bench/launch.py``) and the metrics are the per-layer
ones.  The line before it is a JSON record of the environment.

The host's speed drifts, so every reported time is normalised to a reference
host speed: each command and each batch of set-up probes is scaled by the
reference time of a fixed kernel (``bench/calibrate.py``) over the mean of
the kernel's times measured just before and just after it.  The raw times go
to standard error.

The workload seed reaches the program only as ``--seed`` / ``--k-seed``; it
is reduced modulo ``PROGRAM_SEEDS`` so that every input has a recorded
reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

PROGRAM_SEEDS = 16
"Workload seeds map onto this many program seeds, each with a recorded reference."

REL_TOL, ABS_TOL = 1e-9, 1e-12
"Output tolerance, that of ``test_mc_capacity_fixture_regression`` (pytest.approx)."

ROUNDOFF_ABS_TOL = 1e-6
"Tolerance for printed quantities the program's contract pins at zero."

GRID_SAMPLE_EVERY = 61
"Row stride of the values kept from a beampattern grid in the reference."

SETUP_PROBES_PER_CYCLE = 3
COMMAND_TIMEOUT_S = 150

CALIBRATION_STEPS, CALIBRATION_STEP_S = 10000, 12.5e-6
"""Size of the calibration kernel, and its seconds per step at the reference
host speed.  Every time the benchmark reports is scaled by the kernel's
reference time over the mean of its times measured just before and just
after it."""

SETUP_PROBE = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import rfda_secrecy.cli as cli\n"
    "cli.build_parser()\n"
    "setup_s = time.perf_counter() - t0\n"
    "import numpy\n"
    "print(json.dumps({'setup_s': setup_s, 'numpy': numpy.__version__}))\n"
)

MC_FIXTURE_TRIALS, MC_FIXTURE_PROCESSES = 2500, 4
MC_GENERATED_TRIALS, MC_GENERATED_PROCESSES = 1000, 2
"""An MC repetition is split over a few identical processes so that the
calibration kernel, timed between processes, follows the host's speed within
a repetition."""
BETA_SEEDS = 100
"Seeded draws of k that ``beta_for_scenario`` averages in a generated-k lb sweep."


@dataclass(frozen=True)
class Command:
    """One CLI process of a workload.

    ``{seed}`` and ``{out}`` in ``argv`` become the program seed and a fresh
    output directory.  ``output`` says where the result is: ``run_dir``
    (``result.csv`` + ``manifest.json`` [+ ``plot.svg``], path on stdout),
    ``grid`` (the same, with a result too large to record whole) or
    ``stdout``.  ``trials`` counts the seeded random trials the command runs.
    """

    name: str
    argv: tuple
    seeded: bool
    output: str = "run_dir"
    trials: int = 0
    roundoff: tuple = ()


@dataclass(frozen=True)
class Workload:
    """Commands of one repetition, and the trace counts their parameters fix.

    Why each workload exists is stated in ``BENCHMARK.json`` and the README.
    """

    commands: tuple
    expected_counts: dict = field(default_factory=dict)
    kernel_threads: int = 1
    "Pool threads of the calibration kernel: those of the workload's CLI processes."


WORKLOADS = {
    "mc_fixture": Workload(
        (Command("sweep_bandwidth_mc",
                 ("sweep", "bandwidth", "--mode", "mc", "--trials", str(MC_FIXTURE_TRIALS),
                  "--seed", "{seed}", "--out", "{out}"),
                 seeded=True, trials=3 * 2 * MC_FIXTURE_TRIALS),) * MC_FIXTURE_PROCESSES,
        {"sweep.trials": MC_FIXTURE_PROCESSES * 3 * 2 * MC_FIXTURE_TRIALS,
         "sweep.trials_deterministic": MC_FIXTURE_PROCESSES * 3 * MC_FIXTURE_TRIALS,
         "arraymodel.steering_vector.calls": MC_FIXTURE_PROCESSES * 2 * 3 * MC_FIXTURE_TRIALS}),
    "mc_generated": Workload(
        (Command("sweep_power_mc",
                 ("sweep", "power", "--mode", "mc", "--k-target", "10405", "--m", "32",
                  "--trials", str(MC_GENERATED_TRIALS), "--pt-min", "0", "--pt-max", "30",
                  "--pt-step", "10", "--workers", "2", "--seed", "{seed}",
                  "--k-seed", "{seed}", "--out", "{out}"),
                 seeded=True, trials=4 * 2 * MC_GENERATED_TRIALS),) * MC_GENERATED_PROCESSES,
        {"sweep.trials": MC_GENERATED_PROCESSES * 4 * 2 * MC_GENERATED_TRIALS,
         "sweep.trials_deterministic": 0,
         "freqdesign.generate_k.calls": MC_GENERATED_PROCESSES * 4 * 2 * MC_GENERATED_TRIALS},
        kernel_threads=2),
    "closed_form": Workload(
        (Command("beampattern",
                 ("beampattern", "--r-step", "0.25", "--theta-step-deg", "0.1",
                  "--out", "{out}"),
                 seeded=False, output="grid"),
         Command("sweep_power_eigen",
                 ("sweep", "power", "--k-target", "10405", "--k-method", "eigen",
                  "--k-seed", "{seed}", "--seed", "{seed}", "--svg", "--out", "{out}"),
                 seeded=True, trials=BETA_SEEDS),
         Command("sweep_delta",
                 ("sweep", "delta", "--k-target", "10405", "--k-seed", "{seed}",
                  "--seed", "{seed}", "--svg", "--out", "{out}"),
                 seeded=True, trials=BETA_SEEDS),
         Command("sweep_rate", ("sweep", "rate", "--pt-dbm", "30", "--out", "{out}"),
                 seeded=False),
         Command("gen_k_eigen",
                 ("gen-k", "--m", "64", "--k-target", "10405", "--method", "eigen",
                  "--seed", "{seed}"),
                 seeded=True, output="stdout", roundoff=("sum", "rho2")),
         Command("region", ("region", "--beta", "0.4"), seeded=False, output="stdout"),
         Command("validate_fixtures", ("validate-fixtures",), seeded=False,
                 output="stdout")),
        {"freqdesign.generate_k.calls": 2 * BETA_SEEDS + 1,
         "freqdesign.symmetric_eigen.calls": BETA_SEEDS + 1,
         "sweep.trials": 0}),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, how it is read from a traced repetition)
PER_LAYER = {
    "sweep.mc_capacity.self_s": ("s", ("self_s", "sweep.mc_capacity")),
    "sweep.mc_capacity.total_s": ("s", ("total_s", "sweep.mc_capacity")),
    "sweep.mc_capacity.thread_span_s": ("s", ("off_main_s",)),
    "sweep.trials": ("count", ("counter", "sweep.trials")),
    "sweep.trials_deterministic": ("count", ("counter", "sweep.trials_deterministic")),
    "sweep.mc_stderr_max": ("bits", ("stderr_max",)),
    "arraymodel.correlation2.calls": ("count", ("calls", "arraymodel.correlation2")),
    "arraymodel.correlation2.self_s": ("s", ("self_s", "arraymodel.correlation2")),
    "arraymodel.steering_vector.calls": ("count", ("calls", "arraymodel.steering_vector")),
    "arraymodel.steering_vector.self_s": ("s", ("self_s", "arraymodel.steering_vector")),
    "sweep.beampattern_grid.self_s": ("s", ("self_s", "sweep.beampattern_grid")),
    "freqdesign.generate_k.calls": ("count", ("calls", "freqdesign.generate_k")),
    "freqdesign.generate_k.self_s": ("s", ("self_s", "freqdesign.generate_k")),
    "freqdesign.symmetric_eigen.calls": ("count", ("calls", "freqdesign.symmetric_eigen")),
    "freqdesign.symmetric_eigen.self_s": ("s", ("self_s", "freqdesign.symmetric_eigen")),
    "freqdesign.load_frequency_table.calls": (
        "count", ("calls", "freqdesign.load_frequency_table")),
    "dmsecurity.an_vector.calls": ("count", ("calls", "dmsecurity.an_vector")),
    "dmsecurity.an_vector.self_s": ("s", ("self_s", "dmsecurity.an_vector")),
    "dmsecurity.an_vector.retries": ("count", ("raised", "dmsecurity.an_vector")),
    "dmsecurity.complex_gaussian.calls": ("count", ("calls", "dmsecurity.complex_gaussian")),
    "dmsecurity.complex_gaussian.self_s": ("s", ("self_s", "dmsecurity.complex_gaussian")),
    "dmsecurity.capacity.self_s": ("s", ("self_s", "dmsecurity.capacity_bob",
                                         "dmsecurity.capacity_eve_an",
                                         "dmsecurity.secrecy_capacity")),
    "secrecyregion.beta_boundary.calls": ("count", ("calls", "secrecyregion.beta_boundary")),
    "secrecyregion.beta_boundary.self_s": ("s", ("self_s", "secrecyregion.beta_boundary")),
    "secrecyregion.solve_m_min.calls": ("count", ("calls", "secrecyregion.solve_m_min")),
    "secrecyregion.m_min.calls": ("count", ("calls", "secrecyregion.m_min")),
    "sweep.output.self_s": ("s", ("self_s", "sweep.write_run", "sweep.beampattern_csv_text")),
    "sweep.output.bytes": ("bytes", ("counter", "sweep.output.bytes")),
    "svgchart.line_chart.self_s": ("s", ("self_s", "svgchart.line_chart")),
    "cli.main.self_s": ("s", ("self_s", "cli.main")),
    "import.rfda_secrecy_s": ("s", ("import_s",)),
    "trace.overhead_frac": ("ratio", ("overhead",)),
}


class CommandFailed(Exception):
    "A command of the workload exited with a non-zero code."


# ---------------------------------------------------------------------------
# output capture and comparison (the oracle)
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _close(a: float, b: float, abs_tol: float = ABS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def grid_summary(text: str) -> dict:
    """Reduced record of a large CSV grid: shape, every ``GRID_SAMPLE_EVERY``-th
    row, and three moments of the last column over all rows."""
    rows = _csv_rows(text)
    values = [float(row[-1]) for row in rows[1:]]
    return {"header": rows[0], "rows": len(values),
            "sample": [[float(c) for c in row] for row in rows[1::GRID_SAMPLE_EVERY]],
            "moments": [math.fsum(values), math.fsum(v * v for v in values),
                        math.fsum(i * v for i, v in enumerate(values))]}


def compare_csv(got: str, want: str) -> list[str]:
    "Cell-by-cell comparison of two result CSVs at the output tolerance."
    g, w = _csv_rows(got), _csv_rows(want)
    if g[:1] != w[:1] or len(g) != len(w):
        return [f"header or row count differs: {g[:1]} x{len(g)} vs {w[:1]} x{len(w)}"]
    problems = []
    for i, (grow, wrow) in enumerate(zip(g[1:], w[1:]), start=1):
        if len(grow) != len(wrow):
            problems.append(f"row {i}: {len(grow)} cells vs reference {len(wrow)}")
            continue
        for column, gc, wc in zip(w[0], grow, wrow):
            if (gc == "") != (wc == "") or (gc and not _close(float(gc), float(wc))):
                problems.append(f"row {i} column {column}: {gc!r} vs reference {wc!r}")
    return problems


def compare_grid(got: dict, want: dict) -> list[str]:
    if got["header"] != want["header"] or got["rows"] != want["rows"]:
        return [f"grid shape differs: {got['header']} x{got['rows']} "
                f"vs {want['header']} x{want['rows']}"]
    problems = [f"sampled row {i * GRID_SAMPLE_EVERY}: {g} vs reference {w}"
                for i, (g, w) in enumerate(zip(got["sample"], want["sample"]))
                if not all(_close(a, b) for a, b in zip(g, w))]
    problems += [f"moment {i}: {g!r} vs reference {w!r}"
                 for i, (g, w) in enumerate(zip(got["moments"], want["moments"]))
                 if not _close(g, w)]
    return problems


def compare_stdout(got: str, want: str, roundoff: tuple = ()) -> list[str]:
    """Line-by-line comparison: text must match exactly, numbers at the output
    tolerance (``key=value`` lines whose key is in ``roundoff`` only by size)."""
    g, w = got.splitlines(), want.splitlines()
    if len(g) != len(w):
        return [f"{len(g)} lines vs reference {len(w)}"]
    problems = []
    for gline, wline in zip(g, w):
        abs_tol = ROUNDOFF_ABS_TOL if wline.split("=", 1)[0] in roundoff else ABS_TOL
        gparts, wparts = _NUMBER.split(gline), _NUMBER.split(wline)
        same = len(gparts) == len(wparts) and all(
            (gp == wp) if i % 2 == 0 else _close(float(gp), float(wp), abs_tol)
            for i, (gp, wp) in enumerate(zip(gparts, wparts)))
        if not same:
            problems.append(f"{gline[:120]!r} vs reference {wline[:120]!r}")
    return problems


@dataclass
class Capture:
    "What one command produced: file digests, a record to compare, MC stderr."

    digests: dict
    record: dict
    stderr_max: float = 0.0


def capture(cmd: Command, stdout: str) -> Capture:
    if cmd.output == "stdout":
        return Capture({"stdout": hashlib.sha256(stdout.encode()).hexdigest()},
                       {"stdout": stdout})
    run_dir = Path(stdout.strip().splitlines()[-1])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(run_dir.iterdir())}
    text = (run_dir / "result.csv").read_text()
    if cmd.output == "grid":
        return Capture(digests, {"grid": grid_summary(text)})
    rows = _csv_rows(text)
    stderr_cols = [j for j, name in enumerate(rows[0]) if name.endswith("_stderr")]
    stderr_max = max((float(row[j]) for row in rows[1:] for j in stderr_cols if row[j]),
                     default=0.0)
    return Capture(digests, {"csv": text}, stderr_max)


def compare(cmd: Command, got: dict, want: dict) -> list[str]:
    if "csv" in want:
        return compare_csv(got["csv"], want["csv"])
    if "grid" in want:
        return compare_grid(got["grid"], want["grid"])
    return compare_stdout(got["stdout"], want["stdout"], cmd.roundoff)


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def reference_for(reference: dict, cmd: Command, program_seed: int) -> dict:
    if cmd.seeded:
        return reference["seeded"][str(program_seed)][cmd.name]
    return reference["fixed"][cmd.name]


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------

def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_command(cmd: Command, program_seed: int, out_dir: Path, env: dict,
                trace_path: Path | None = None) -> tuple[str, float]:
    """Run one command to completion; return its stdout and its max-RSS in MB.

    Raises :class:`CommandFailed` on a non-zero exit or after
    ``COMMAND_TIMEOUT_S`` seconds.
    """
    args = [a.format(seed=program_seed, out=out_dir) for a in cmd.argv]
    if trace_path is None:
        argv = [sys.executable, "-m", "rfda_secrecy", *args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "launch.py"), str(trace_path), *args]
    # reaped with wait4 for the process's own resource usage; its output goes
    # to unlinked files beside out_dir, inside the checkout
    with tempfile.TemporaryFile(dir=out_dir.parent) as out, \
            tempfile.TemporaryFile(dir=out_dir.parent) as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=out_dir)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if proc.returncode != 0:
        raise CommandFailed(f"exit {proc.returncode}: {stderr.strip()[-300:]}")
    return stdout, usage.ru_maxrss / 1024.0


@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    norm_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    trials: int = 0
    stderr_max: float = 0.0
    problems: list = field(default_factory=list)
    trace: dict = field(default_factory=dict)


def merge_traces(reports: list[dict]) -> dict:
    "Sum the launcher reports of a repetition's processes."
    merged = {"functions": {}, "counters": {}, "off_main_s": 0.0, "import_s": 0.0}
    for report in reports:
        merged["off_main_s"] += report["off_main_s"]
        merged["import_s"] += report["import_s"]
        for name, value in report["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, agg in report["functions"].items():
            into = merged["functions"].setdefault(name, dict.fromkeys(agg, 0))
            for key, value in agg.items():
                into[key] += value
    return merged


def run_rep(workload: Workload, program_seed: int, work: Path, env: dict,
            traced: bool, clock: HostClock) -> tuple[Rep, dict]:
    """One repetition: every command in order, each timed by ``clock``.
    Returns the timings and a (command, capture) pair for every command that
    ran to completion; failures are
    recorded in ``Rep.problems``."""
    rep = Rep(traced)
    captures: list[tuple[Command, Capture]] = []
    reports = []
    cpu0 = _children_cpu_s()
    for i, cmd in enumerate(workload.commands):
        out_dir = Path(tempfile.mkdtemp(prefix=f"{i}-", dir=work))
        trace_path = out_dir / "trace.json" if traced else None
        try:
            (stdout, rss_mb), wall_s, scale = clock.around(
                run_command, cmd, program_seed, out_dir, env, trace_path)
            rep.wall_s += wall_s
            rep.norm_s += wall_s * scale
            rep.rss_mb = max(rep.rss_mb, rss_mb)
            captures.append((cmd, capture(cmd, stdout)))
            if traced:
                reports.append(json.loads(trace_path.read_text()))
        except (CommandFailed, OSError, ValueError, IndexError) as exc:
            rep.problems.append(f"{cmd.name}: {exc}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        rep.trials += cmd.trials
    rep.cpu_s = _children_cpu_s() - cpu0
    rep.stderr_max = max((c.stderr_max for _, c in captures), default=0.0)
    if traced and not rep.problems:
        rep.trace = merge_traces(reports)
    return rep, captures


def check_rep(rep: Rep, captures: list, reference: dict, program_seed: int,
              first: dict) -> None:
    """Oracle: values against the recorded reference, bytes against the first
    process of this run (plain or traced) that ran the same command."""
    for cmd, got in captures:
        want = reference_for(reference, cmd, program_seed)
        try:
            problems = compare(cmd, got.record, want)
        except ValueError as exc:  # a cell or number that does not parse
            problems = [str(exc)]
        rep.problems += [f"{cmd.name}: {p}" for p in problems]
        seen = first.setdefault(cmd.name, got.digests)
        if got.digests != seen:
            rep.problems.append(f"{cmd.name}: output bytes differ from its first run")


class HostClock:
    """Times steps of a run at the reference host speed.

    Keeps one ``bench/calibrate.py`` process and times its kernel
    before the first step and after every step; a step's scale is the
    kernel's reference time over the mean of the two kernel times around it.
    """

    def __init__(self, threads: int, steps: int = CALIBRATION_STEPS):
        self.ref_s = CALIBRATION_STEP_S * steps
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "calibrate.py"), str(steps), str(threads)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.kernel_s: list[float] = []
        self._kernel()

    def _kernel(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited with {self.proc.wait()}")
        self.kernel_s.append(float(line))
        return self.kernel_s[-1]

    def around(self, step, *args):
        """Run ``step(*args)``; return its result, its seconds and its scale."""
        before = self.kernel_s[-1]
        t0 = time.perf_counter()
        try:
            result = step(*args)
        finally:
            elapsed = time.perf_counter() - t0
            after = self._kernel()
        return result, elapsed, 2 * self.ref_s / (before + after)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure_setup(env: dict) -> tuple[float, str]:
    "Fresh interpreter to a ready CLI parser, in seconds; also the numpy version."
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True,
                          text=True, env=env, timeout=COMMAND_TIMEOUT_S, check=True)
    probe = json.loads(proc.stdout)
    return probe["setup_s"], probe["numpy"]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_value(source: tuple, trace: dict, rep: Rep, overhead: float) -> float:
    kind, *names = source
    if kind == "counter":
        return trace["counters"].get(names[0], 0)
    if kind in ("off_main_s", "import_s"):
        return trace[kind]
    if kind == "stderr_max":
        return rep.stderr_max
    if kind == "overhead":
        return overhead
    return sum(trace["functions"].get(name, {}).get(kind, 0) for name in names)


def per_layer_metrics(traced: list[Rep], overhead: float) -> dict:
    "Median over the traced repetitions of every per-layer metric."
    return {name: {"value": statistics.median(layer_value(source, r.trace, r, overhead)
                                              for r in traced),
                   "unit": unit}
            for name, (unit, source) in PER_LAYER.items()}


def count_problems(traced: list[Rep], workload: Workload) -> list[str]:
    """Counts must repeat exactly across traced repetitions and equal the
    values the workload's parameters fix."""
    def counts(rep: Rep) -> dict:
        return {name: layer_value(source, rep.trace, rep, 0.0)
                for name, (unit, source) in PER_LAYER.items() if unit == "count"}

    problems = []
    first = counts(traced[0])
    for rep in traced[1:]:
        if counts(rep) != first:
            problems.append(f"counts differ between traced repetitions: "
                            f"{first} vs {counts(rep)}")
    for name, expected in workload.expected_counts.items():
        if first.get(name) != expected:
            problems.append(f"{name} = {first.get(name)}, expected {expected}")
    return problems


def environment(args, program_seed: int, numpy_version: str) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_digest.update(str(path.relative_to(SRC)).encode())
            src_digest.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "program_seed": program_seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": os.cpu_count(),
            "cpu_model": cpu_model, "python": platform.python_version(),
            "numpy": numpy_version, "git_sha": git_sha,
            "src_sha256": src_digest.hexdigest()}


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rfda_secrecy" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    program_seed = args.seed % PROGRAM_SEEDS
    reference = load_reference(args.workload)
    env = program_env()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        probes: list[tuple[float, float]] = []
        reps: list[Rep] = []
        first: dict = {}
        # with tracing, plain and traced repetitions alternate so that both
        # see the same host conditions; two traced ones at least, to check
        # that counts repeat.  Set-up probes are spread over the run too.
        pattern = (False, True) if args.trace else (False,)
        min_cycles = 2 if args.trace else 1
        cycles = 0
        clock = HostClock(workload.kernel_threads)
        try:
            t_start = time.perf_counter()
            while True:
                for traced in pattern:
                    rep, captures = run_rep(workload, program_seed, work, env, traced, clock)
                    check_rep(rep, captures, reference, program_seed, first)
                    reps.append(rep)
                cycle_probes, _, scale = clock.around(
                    lambda: [measure_setup(env) for _ in range(SETUP_PROBES_PER_CYCLE)])
                probes += [(setup_s, setup_s * scale) for setup_s, _ in cycle_probes]
                numpy_version = cycle_probes[0][1]
                cycles += 1
                elapsed = time.perf_counter() - t_start
                if cycles >= min_cycles and elapsed * (cycles + 1) / cycles > args.seconds:
                    break
        finally:
            clock.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    walls = [r.norm_s for r in plain]
    setups = [norm_s for _, norm_s in probes]
    env_record = environment(args, program_seed, numpy_version)
    env_record["calibration"] = {
        "steps": CALIBRATION_STEPS, "threads": workload.kernel_threads,
        "reference_s": clock.ref_s, "median_s": statistics.median(clock.kernel_s),
        "n": len(clock.kernel_s)}
    run_problems: list[str] = []
    if args.trace:
        good = [r for r in traced if not r.problems]
        overhead = (statistics.median(r.norm_s for r in traced)
                    / statistics.median(walls) - 1.0)
        env_record["trace.overhead_frac"] = overhead
        if good:
            run_problems = count_problems(good, workload)
            metrics = per_layer_metrics(good, overhead)
        else:
            metrics = {name: {"value": 0, "unit": unit}
                       for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "trials_per_s": statistics.median(r.trials / r.norm_s for r in plain),
            "peak_rss_mb": max(r.rss_mb for r in plain),
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in metrics.items()}

    failed = sum(1 for r in reps if r.problems)
    for rep in reps:
        for problem in rep.problems[:5]:
            print(f"FAIL ({'traced' if rep.traced else 'plain'}): {problem}", file=sys.stderr)
    for problem in run_problems:
        print(f"FAIL (counts): {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} (program seed {program_seed}): "
          f"{len(reps)} repetitions, {failed} failed", file=sys.stderr)
    print(f"  wall_s        {_quartiles(walls)}", file=sys.stderr)
    print(f"  raw wall_s    {_quartiles([r.wall_s for r in plain])}", file=sys.stderr)
    print(f"  cpu_s         {_quartiles([r.cpu_s for r in plain])}", file=sys.stderr)
    print(f"  setup_s       {_quartiles(setups)}", file=sys.stderr)
    print(f"  raw setup_s   {_quartiles([setup_s for setup_s, _ in probes])}",
          file=sys.stderr)
    print(f"  calibration_s {_quartiles(clock.kernel_s)}", file=sys.stderr)
    print(f"  mc_stderr_max {max(r.stderr_max for r in reps)!r} bits", file=sys.stderr)
    print(f"  failed_frac   {failed / len(reps)!r}", file=sys.stderr)
    if args.trace:
        print(f"  traced wall_s {_quartiles([r.norm_s for r in traced])}", file=sys.stderr)

    print(json.dumps({"env": env_record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not run_problems, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
