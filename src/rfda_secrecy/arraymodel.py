"""Geometry and electromagnetics of a random frequency diverse array (RFDA).

Each element radiates at its own carrier ``f0 + k_m * delta_f``, which makes
the transmit beampattern depend on range as well as angle.  This module holds
the far-field phase model, steering vectors and the squared correlation between
two locations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0
"Propagation speed in m/s (vacuum)."


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear RFDA: element count, carriers and spacing.

    ``delta_f_hz`` is the unit of the random per-element frequency
    increments ``k``: a float array of M dimensionless entries whose squared
    norm ``K = k.k`` is the conventional bandwidth proxy.
    """

    n_elements: int
    f0_hz: float
    delta_f_hz: float
    spacing_m: float

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")
        for name in ("f0_hz", "delta_f_hz", "spacing_m"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")

    @classmethod
    def half_wavelength(cls, n_elements: int, f0_hz: float, delta_f_hz: float) -> "ArrayConfig":
        "Construct with element spacing of half the carrier wavelength."
        return cls(n_elements, f0_hz, delta_f_hz, half_wavelength_spacing(f0_hz))


@dataclass(frozen=True)
class Location:
    """Polar receiver location: range in meters, angle from the array axis.

    ``theta_rad`` must lie strictly inside (0, pi); the angular beamwidth
    formulas divide by ``sin(theta)``.
    """

    r_m: float
    theta_rad: float

    def __post_init__(self):
        if not 0 <= self.r_m < math.inf:
            raise ValueError(f"range must be finite and >= 0, got {self.r_m}")
        if not 0.0 < self.theta_rad < np.pi:
            raise ValueError(f"theta must be in (0, pi), got {self.theta_rad}")


def _as_k(k, n_elements: int) -> np.ndarray:
    "``k`` as a float array; the one check that it has an entry per element."
    arr = np.asarray(k, dtype=float)
    if arr.shape != (n_elements,):
        raise ValueError(
            f"frequency vector has length {arr.size}, array has {n_elements} elements")
    return arr


def half_wavelength_spacing(f0_hz: float) -> float:
    "Element spacing equal to half the carrier wavelength, c / (2 f0)."
    if f0_hz <= 0:
        raise ValueError("f0_hz must be positive")
    return SPEED_OF_LIGHT / (2.0 * f0_hz)


def steering_vector(cfg: ArrayConfig, k, loc: Location) -> np.ndarray:
    """Unit-norm steering vector toward ``loc``; entries have modulus 1/sqrt(M).
    Cached per (array, bytes of ``k``, location), keyed on their fields as plain
    numbers, so read-only: callers share it."""
    return _steering(cfg.n_elements, cfg.f0_hz, cfg.delta_f_hz, cfg.spacing_m,
                     _as_k(k, cfg.n_elements).tobytes(), loc.r_m, loc.theta_rad)


@functools.lru_cache(maxsize=8)
def _steering(n_elements: int, f0_hz: float, delta_f_hz: float, spacing_m: float, buf: bytes,
              r_m: float, theta_rad: float) -> np.ndarray:
    """The steering vector of :func:`steering_vector` for the array, ``k`` (whose
    bytes are ``buf``) and location given by their fields."""
    h = _steering_rows(n_elements, f0_hz, delta_f_hz, spacing_m, np.frombuffer(buf), r_m,
                       theta_rad)
    h.setflags(write=False)
    return h


def _steering_rows(n_elements: int, f0_hz: float, delta_f_hz: float, spacing_m: float,
                   ks: np.ndarray, r_m: float, theta_rad: float) -> np.ndarray:
    """The steering vector toward one location for each row of ``ks``: the phase
    model of every steering vector, elementwise, so a row has the bits of its
    one-row call."""
    range_term = ks * delta_f_hz * r_m
    angle_term = np.arange(n_elements) * f0_hz * spacing_m * np.cos(theta_rad)
    # the per-element phases toward the location: a vectorized reference.phase_shift
    phases = -2.0 * np.pi * (angle_term + range_term) / SPEED_OF_LIGHT
    return np.exp(1j * phases) / math.sqrt(n_elements)


def _pq(cfg: ArrayConfig, bob: Location, r_m, theta_rad):
    "Range/angle phase offsets (p, q) of ``r_m`` and ``theta_rad``, or arrays, from ``bob``."
    p = 2.0 * np.pi * cfg.delta_f_hz * (r_m - bob.r_m) / SPEED_OF_LIGHT
    q = (2.0 * np.pi * cfg.f0_hz * cfg.spacing_m
         * (np.cos(theta_rad) - np.cos(bob.theta_rad)) / SPEED_OF_LIGHT)
    return p, q


def _mismatch_phases(cfg: ArrayConfig, k: np.ndarray, p, q) -> np.ndarray:
    "Phases ``p*k_m + q*(m-1)``; array offsets p and q need a trailing axis of length 1."
    return p * k + q * np.arange(cfg.n_elements)


def _correlation2(cfg: ArrayConfig, k: np.ndarray, p, q):
    "The squared correlation at offsets (p, q): scalars, or arrays with a trailing axis of 1."
    z = _mismatch_phases(cfg, k, p, q)
    # the sum over M is numpy's mean (add.reduce, then one division) without its
    # Python overhead; float_power is libm pow on a scalar and an array alike,
    # where ``** 2`` would square an array as x * x
    return np.float_power(np.abs(np.exp(1j * z).sum(axis=-1) / cfg.n_elements), 2)


def correlation2(cfg: ArrayConfig, k, bob: Location, eve: Location) -> float:
    """Squared correlation |h(eve)^H h(bob)|^2, in [0, 1].

    This is the fraction of the confidential signal power that leaks to a
    receiver at ``eve`` when the transmit vector points at ``bob``:
    :func:`correlation2_grid` at one location.
    """
    return float(correlation2_grid(cfg, k, bob, eve.r_m, eve.theta_rad))


def correlation2_grid(cfg: ArrayConfig, k, bob: Location, r_m, theta_rad) -> np.ndarray:
    """The squared correlation (see :func:`correlation2`) at every location of
    the broadcast ``r_m`` and ``theta_rad`` arrays, in an array of their
    broadcast shape.

    The locations are not checked: callers validate them as :class:`Location`.
    Each location holds an M-element phase vector while it is evaluated, so
    callers keep batches small (``beampattern_grid`` passes one range row).
    """
    karr = _as_k(k, cfg.n_elements)
    p, q = _pq(cfg, bob, np.asarray(r_m, dtype=float), np.asarray(theta_rad, dtype=float))
    return _correlation2(cfg, karr, p[..., None], q[..., None])
