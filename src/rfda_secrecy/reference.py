"""Scalar reference paths that the tests check the library against: the
per-element phase, the (p, q) offsets and the squared correlation one location
at a time, the exact and second-order beampatterns, the symbol-level
transmit/receive chain, the signal-only closed forms, the sweep CSV round trip,
and the one-trial AN direction and Monte Carlo capacity.  Nothing in the
library imports this module; only the tests do.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from .arraymodel import (SPEED_OF_LIGHT, ArrayConfig, Location, _as_k,
                         _mismatch_phases, _pq, correlation2, steering_vector)
from .dmsecurity import (PowerConfig, capacity_bob, capacity_eve_an, complex_gaussian,
                         secrecy_capacity)
from .errors import InfeasibleRateError
from .secrecyregion import Scheme
from .sweep import Scenario, SweepResult, resolve_k, result_csv_text


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
    return float(-2.0 * np.pi * (angle_term + range_term) / SPEED_OF_LIGHT)


def pq_offsets(cfg: ArrayConfig, bob: Location, eve: Location) -> tuple[float, float]:
    """Range/angle phase offsets (p, q) of ``eve`` relative to ``bob``.

    ``p`` scales the frequency increments, ``q`` the element index, so the
    per-element phase mismatch is ``z_m = p*k_m + q*(m-1)``.
    """
    p, q = _pq(cfg, bob, eve.r_m, eve.theta_rad)
    return float(p), float(q)


def correlation2_pointwise(cfg: ArrayConfig, k, bob: Location, eve: Location) -> float:
    "Squared correlation at one location, through its own scalar phase sum."
    karr = _as_k(k, cfg.n_elements)
    z = _mismatch_phases(cfg, karr, *pq_offsets(cfg, bob, eve))
    return float(np.abs(np.exp(1j * z).mean()) ** 2)


def beampattern_exact(cfg: ArrayConfig, k, bob: Location, eve: Location) -> float:
    """Transmit beampattern |sum_m e^{j z_m}|^2 at ``eve``; equals M^2 at ``bob``.

    Each mismatch ``z_m`` is the difference of the element's two
    :func:`phase_shift` values, summed one element at a time: no code is shared
    with the library's correlation kernel."""
    karr = _as_k(k, cfg.n_elements)
    total = sum(cmath.exp(1j * (phase_shift(cfg, k_m, m, bob) - phase_shift(cfg, k_m, m, eve)))
                for m, k_m in enumerate(karr.tolist(), start=1))
    return abs(total) ** 2


def beampattern_taylor(cfg: ArrayConfig, k, bob: Location, eve: Location) -> float:
    """Second-order expansion of the beampattern around the aim point.

    Equals ``sum_{m,n} [1 - (z_m - z_n)^2 / 2] = M^2 - M * sum_m (z_m - mean z)^2``;
    the centred sum does not cancel when the phases are large and nearly equal.
    It never exceeds :func:`beampattern_exact` (cos x >= 1 - x^2/2) and can go
    negative far from the aim point, where the expansion has no validity.
    """
    karr = _as_k(k, cfg.n_elements)
    z = _mismatch_phases(cfg, karr, *pq_offsets(cfg, bob, eve))
    m = cfg.n_elements
    return float(m * m - m * np.sum((z - z.mean()) ** 2))


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


def c_lb(power: PowerConfig, beta: float) -> float:
    """Secrecy-capacity lower bound without AN (all power on the signal), in its
    own closed form; the library takes ``c_an_lb`` at delta = 1."""
    mu, eps = power.mu, power.eps
    return float(np.log2((1.0 + mu) / (1.0 + mu * beta / eps)))


def beta_max_no_an(power: PowerConfig, rs_bits: float) -> float:
    """Largest boundary correlation for which :func:`c_lb` still reaches ``rs_bits``,
    in its own closed form; the library takes ``beta_max_an`` at delta = 1."""
    mu, eps = power.mu, power.eps
    gain = 2.0 ** rs_bits
    headroom = 1.0 + mu - gain
    if headroom < 0.0:
        raise InfeasibleRateError(
            f"rate {rs_bits} bits exceeds the intended-channel capacity "
            f"{math.log2(1.0 + mu):.4f} bits")
    return min(max(headroom * eps / (mu * gain), 0.0), 1.0)


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


def an_vector_pointwise(h_bob: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One unit-norm AN direction, through ``np.vdot`` and ``np.linalg.norm``;
    raises ``ValueError`` when ``z`` is parallel to ``h_bob``, as ``an_vector`` does
    for a one-row stack."""
    h = np.asarray(h_bob)
    if h.size < 2:
        raise ValueError("AN needs at least 2 elements; the 1-element projector is zero")
    z = np.asarray(z)
    if z.shape != h.shape:
        raise ValueError(f"z has shape {z.shape}, expected {h.shape}")
    projected = z - h * np.vdot(h, z)
    norm = np.linalg.norm(projected)
    if norm < 1e-14:
        raise ValueError("AN draw 0 is parallel to the intended channel")
    return projected / norm


def trial_capacity(s: Scenario, scheme: Scheme, seed: int, trial: int) -> float:
    """Secrecy capacity of one Monte Carlo trial, drawn from a freshly built
    ``Philox(key=[seed, trial])`` stream; a fixture ``k`` draws nothing from it.
    ``sweep.mc_capacity`` averages these."""
    rng = np.random.Generator(np.random.Philox(key=[seed, trial]))
    k = resolve_k(s, rng)
    power = replace(s.power, delta=1.0) if scheme is Scheme.WITHOUT_AN else s.power
    corr2 = correlation2(s.array, k, s.bob, s.eve)
    an2 = 0.0
    if power.delta < 1.0:
        h_bob = steering_vector(s.array, k, s.bob)
        h_eve = steering_vector(s.array, k, s.eve)
        w = an_vector_pointwise(h_bob, complex_gaussian(rng, s.array.n_elements))
        an2 = float(np.abs(np.vdot(h_eve, w)) ** 2)
    return secrecy_capacity(capacity_bob(power), capacity_eve_an(power, corr2, an2))
