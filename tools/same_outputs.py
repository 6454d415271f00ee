"""Compare the CLI outputs of the working tree with those of a git revision.

Usage (from anywhere inside a checkout):

    python3 tools/same_outputs.py REF

Runs each command below in a ``git archive`` of ``REF`` and in a copy of the
working tree (every file that git tracks or would track), and compares the
exit code, stdout, stderr and every file that the command writes:

- each ``bench/run.py`` workload command at program seeds 0, 5 and 11;
- the default ``sweep power``, ``sweep delta``, ``sweep bandwidth`` and
  ``sweep rate``, ``sweep rate --svg``, a ``sweep rate`` with gaps,
  ``capacity``, ``region --beta 0.4`` and ``region`` at the rows K15405 and
  K12905 and at 8 elements;
- the README's ``mmin`` and ``kmin`` lines, ``kmin --m-min 16`` and
  ``validate-fixtures``;
- ``--help``, ``--version``, ``sweep power --help``, a usage error and one
  command for each of the exits 2, 3 and 5.

Both copies run with ``PYTHONDONTWRITEBYTECODE=1`` and start without a
``__pycache__``, so neither compiles more than the other. Each command runs as
``python -m rfda_secrecy`` in a fresh directory of its own, with ``--out out``;
the path of that directory is replaced by ``<cwd>`` in stdout and stderr.
Every difference is printed, a CSV file cell by cell; the exit status is 1
if there is any difference, 2 if the comparison could not be made, else 0.

``bench/run.py`` is executed from its source text, as
``tests/test_bench_reference.py`` does, so nothing is written under ``bench/``.
Only the standard library is used.
"""

from __future__ import annotations

import csv
import io
import os
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 5, 11)
DEFAULT_COMMANDS = (
    ("sweep", "power", "--out", "{out}"),
    ("sweep", "delta", "--out", "{out}"),
    ("sweep", "bandwidth", "--out", "{out}"),
    ("sweep", "rate", "--out", "{out}"),
    ("sweep", "rate", "--svg", "--out", "{out}"),
    ("sweep", "rate", "--rs-min", "1", "--rs-max", "2001", "--rs-step", "1000", "--out", "{out}"),
    ("capacity",),
    ("region", "--beta", "0.4"),
    ("region", "--beta", "0.4", "--fixture-label", "K15405"),
    ("region", "--beta", "0.1", "--fixture-label", "K12905"),
    ("region", "--beta", "0.4", "--m", "8"),  # exit 2: a row of 16 for 8 elements
    ("mmin", "--beta", "0.4", "--dtheta-deg", "5", "--bob-theta-deg", "45"),
    ("kmin", "--beta", "0.4", "--dr-m", "8", "--dtheta-deg", "5", "--bob-theta-deg", "45"),
    ("kmin", "--beta", "0.4", "--dr-m", "8", "--m-min", "16"),
    ("validate-fixtures",),
    ("--help",),
    ("--version",),
    ("sweep", "power", "--help"),
    ("gen-k", "--k-target", "10405"),  # usage error: no --m
    ("capacity", "--mode", "mc", "--trials", "1"),  # exit 2: one trial gives no stderr
    ("sweep", "rate", "--pt-dbm", "-200"),  # exit 3: infeasible rate
    ("capacity", "--fixture-label", "K99"),  # exit 5: no such fixture row
)
TIMEOUT_S = 600


def bench_workloads(path: Path) -> dict:
    "``WORKLOADS`` of ``bench/run.py``, executed from its source text."
    module = types.ModuleType("bench_run")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses resolve annotations through it
    try:
        exec(compile(path.read_text(), path, "exec"), module.__dict__)
        return module.WORKLOADS
    finally:
        del sys.modules[module.__name__]


def commands() -> list[tuple]:
    "Every argv to compare, in order, each once."
    argvs = []
    for workload in bench_workloads(ROOT / "bench" / "run.py").values():
        for command in workload.commands:
            for seed in SEEDS if command.seeded else (0,):
                argvs.append(tuple(a.format(seed=seed, out="out") for a in command.argv))
    argvs += [tuple(a.format(out="out") for a in argv) for argv in DEFAULT_COMMANDS]
    return list(dict.fromkeys(argvs))


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(("git", "-C", str(ROOT), *args), check=True, capture_output=True,
                          **kwargs)


def archive(ref: str, dest: Path) -> None:
    "Unpack ``git archive ref`` into ``dest``."
    dest.mkdir()
    tar = git("archive", "--format=tar", ref).stdout
    subprocess.run(("tar", "-x", "-C", str(dest)), input=tar, check=True, capture_output=True)


def copy_worktree(dest: Path) -> None:
    "Copy every file of the working tree that git tracks or would track into ``dest``."
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
    for name in filter(None, names.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted from the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run(tree: Path, argv: tuple, cwd: Path) -> dict:
    "Exit code, stdout, stderr and written files of one command run in ``tree``."
    cwd.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run((sys.executable, "-m", "rfda_secrecy", *argv), cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    files = {str(p.relative_to(cwd)): p.read_bytes()
             for p in sorted(cwd.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout.replace(str(cwd), "<cwd>"),
            "stderr": proc.stderr.replace(str(cwd), "<cwd>"), "files": files}


def _relative(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return ""
    return f" (rel {abs(b - a) / abs(a):.2g})" if a else ""


def csv_differences(old: bytes, new: bytes) -> list[str]:
    "The cells in which two CSV files differ, as 'row R column C: old -> new'."
    rows = [list(csv.reader(io.StringIO(text.decode()))) for text in (old, new)]
    if len(rows[0]) != len(rows[1]) or any(len(a) != len(b) for a, b in zip(*rows)):
        return ["the tables differ in shape"]
    header = rows[0][0] if rows[0] else []
    out = []
    for r, (row_old, row_new) in enumerate(zip(*rows)):
        for c, (a, b) in enumerate(zip(row_old, row_new)):
            if a != b:
                name = header[c] if c < len(header) else str(c)
                out.append(f"row {r} ({row_old[0]}) column {name}: {a} -> {b}{_relative(a, b)}")
    return out or ["the bytes differ, every cell is the same"]


def differences(old: dict, new: dict) -> list[str]:
    "Every way in which the outcome ``new`` differs from ``old``."
    out = [f"{key}: {old[key]!r} -> {new[key]!r}"
           for key in ("exit code", "stdout", "stderr") if old[key] != new[key]]
    for name in sorted(old["files"].keys() | new["files"].keys()):
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None or b is None:
            out.append(f"{name}: only {'with the change' if a is None else 'at the reference'}")
        elif a != b:
            out += [f"{name}: {line}" for line in (
                csv_differences(a, b) if name.endswith(".csv") else ["the bytes differ"])]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_outputs.py REF", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        ref_tree, new_tree = Path(tmp, "ref"), Path(tmp, "new")
        try:
            archive(argv[0], ref_tree)
        except subprocess.CalledProcessError as exc:
            print(f"error: archive of {argv[0]}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        copy_worktree(new_tree)
        argvs, changed = commands(), 0
        for i, command in enumerate(argvs):
            outcomes = [run(tree, command, Path(tmp, "runs", side, str(i)))
                        for side, tree in (("ref", ref_tree), ("new", new_tree))]
            found = differences(*outcomes)
            print(f"{'DIFFERS' if found else 'same'}: {' '.join(command)}")
            for line in found:
                print(f"  {line}")
            changed += bool(found)
        print(f"{changed} of {len(argvs)} commands differ from {argv[0]}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
