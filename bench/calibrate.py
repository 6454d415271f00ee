"""Host-speed calibration kernel.

Usage: python3 bench/calibrate.py STEPS THREADS

For every line read from standard input, until it closes, prints the
seconds this process takes for STEPS steps of a fixed kernel of the
program's kind of work (small complex numpy vectors, Gaussian draws and
Python scalar arithmetic) split over THREADS pool threads.  The benchmark
keeps one such process for a run and times the kernel just before and just
after every timed step; the host's speed drifts by up to 2x over tens of
seconds, and the kernel tracks it.  It runs in its own process so that the
benchmark process stays small (a child's max-RSS counts the parent's
resident set).
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _work(steps: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    n = np.arange(16.0)
    acc = 0.0
    for i in range(steps):
        a = np.exp(1j * (0.01 * i) * n)
        g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        acc += abs(np.vdot(a, g)) ** 2 / (1.0 + float(np.real(np.vdot(g, g))))
    return acc


def kernel(steps: int, threads: int = 1) -> float:
    """Seconds for ``steps`` steps of the kernel, split over ``threads``
    pool threads (which then contend for the GIL as the CLI's own pool does)."""
    t0 = time.perf_counter()
    if threads == 1:
        _work(steps, 0)
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(_work, [steps // threads] * threads, range(threads)))
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    steps, threads = int(argv[0]), int(argv[1])
    for _ in sys.stdin:
        print(repr(kernel(steps, threads)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
