"""Scalar reference paths that the tests check the library against: the
per-element phase, the exact and second-order beampatterns, the symbol-level
transmit/receive chain and the sweep CSV round trip.  Nothing in the library
imports this module; only the tests do.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .arraymodel import ArrayConfig, Location, _as_k, _mismatch_phases, correlation2
from .dmsecurity import PowerConfig
from .sweep import SweepResult, result_csv_text


def phase_shift(cfg: ArrayConfig, k_m: float, element: int, loc: Location) -> float:
    """Far-field phase of one element toward ``loc``, in radians.

    ``element`` is 1-based.  The returned value is
    ``-2*pi*((m-1)*f0*d*cos(theta)/c + k_m*delta_f*r/c)``, the standard
    narrowband approximation that drops the cross term between the element
    index and the per-element frequency offset.
    """
    if not 1 <= element <= cfg.n_elements:
        raise ValueError(f"element index {element} out of range 1..{cfg.n_elements}")
    angle_term = (element - 1) * cfg.f0_hz * cfg.spacing_m * np.cos(loc.theta_rad)
    range_term = k_m * cfg.delta_f_hz * loc.r_m
    return float(-2.0 * np.pi * (angle_term + range_term) / cfg.wave_speed)


def beampattern_exact(cfg: ArrayConfig, k, bob: Location, eve: Location) -> float:
    "Transmit beampattern |sum_m e^{j z_m}|^2 at ``eve``; equals M^2 at ``bob``."
    return cfg.n_elements ** 2 * correlation2(cfg, k, bob, eve)


def beampattern_taylor(cfg: ArrayConfig, k, bob: Location, eve: Location) -> float:
    """Second-order expansion of the beampattern around the aim point.

    Equals ``sum_{m,n} [1 - (z_m - z_n)^2 / 2]``, evaluated via moments.  It
    never exceeds :func:`beampattern_exact` (cos x >= 1 - x^2/2) and can go
    negative far from the aim point, where the expansion has no validity.
    """
    karr = _as_k(k, cfg.n_elements)
    z = _mismatch_phases(cfg, karr, bob, eve)
    m = cfg.n_elements
    return float(m * m - m * np.sum(z * z) + np.sum(z) ** 2)


def random_qpsk(rng: np.random.Generator, size: int) -> np.ndarray:
    "Unit-power QPSK symbols."
    return np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, size)))


def transmit_signal(v: np.ndarray, w: np.ndarray, symbol: complex,
                    power: PowerConfig) -> np.ndarray:
    "Per-element transmit vector: scaled signal beam plus scaled AN."
    pt = power.pt_mw
    return (np.sqrt(power.delta * pt) * np.asarray(v) * symbol
            + np.sqrt((1.0 - power.delta) * pt) * np.asarray(w))


def receive_signal(h: np.ndarray, x: np.ndarray, noise: complex = 0j) -> complex:
    "Scalar received sample h^H x + noise."
    return complex(np.vdot(h, x) + noise)


def write_result_csv(result: SweepResult, path: str | Path) -> None:
    Path(path).write_text(result_csv_text(result))


def read_result_csv(path: str | Path) -> SweepResult:
    "Load a sweep CSV written by :func:`write_result_csv` (exact round trip)."
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"{path}: expected a header and at least one data row")
    header = rows[0]
    axis = []
    series: dict[str, list[float | None]] = {name: [] for name in header[1:]}
    for row in rows[1:]:
        axis.append(float(row[0]))
        for name, cell in zip(header[1:], row[1:]):
            series[name].append(float(cell) if cell else None)
    return SweepResult(header[0], axis, series)
