"""Record the reference outputs the benchmark checks against.

Usage (from the root of a checkout): python3 bench/record.py [WORKLOAD ...]

Runs every command of each workload once per program seed (once in total for
commands whose output does not depend on the seed) and writes
``bench/reference/<workload>.json``.  A reference pins the outputs of the
commit it was recorded at; record again only when a change is meant to move
the numbers, and say so.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def git_sha() -> str | None:
    proc = subprocess.run(["git", "-C", str(run.ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def record(name: str, work: Path) -> dict:
    workload = run.WORKLOADS[name]
    env = run.program_env()

    def output(cmd: run.Command, seed: int) -> dict:
        out_dir = Path(tempfile.mkdtemp(dir=work))
        try:
            return run.capture(cmd, run.run_command(cmd, seed, out_dir, env)[0]).record
        finally:
            shutil.rmtree(out_dir)

    commands = dict.fromkeys(workload.commands)  # a command may repeat in a workload
    seeded = [cmd for cmd in commands if cmd.seeded]
    return {
        "recorded_at": git_sha(),
        "program_seeds": run.PROGRAM_SEEDS,
        "fixed": {cmd.name: output(cmd, 0)
                  for cmd in commands if not cmd.seeded},
        "seeded": {str(seed): {cmd.name: output(cmd, seed) for cmd in seeded}
                   for seed in range(run.PROGRAM_SEEDS)},
    }


def main(names: list[str]) -> int:
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.ROOT, prefix=".bench_record-"))
    try:
        for name in names or sorted(run.WORKLOADS):
            reference = record(name, work)
            path = run.REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
