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


def _correlation2(cfg: ArrayConfig, k: np.ndarray, p: float, q: float):
    "The squared correlation at scalar offsets (p, q) for one ``k``, or for each row of a stack."
    z = p * k + q * np.arange(cfg.n_elements)
    # the sum over M is numpy's mean (add.reduce, then one division) without its
    # Python overhead; float_power is libm pow on a scalar and an array alike,
    # where ``** 2`` would square an array as x * x
    return np.float_power(np.abs(np.exp(1j * z).sum(axis=-1) / cfg.n_elements), 2)


def _refuse_non_finite(corr2) -> None:
    if not np.isfinite(corr2).all():
        raise ValueError("a squared correlation is not finite: a range or frequency "
                         "overflows the phase")


def correlation2_outer(cfg: ArrayConfig, k, bob: Location, r_m, theta_rad) -> np.ndarray:
    """The squared correlation (see :func:`correlation2`) at every range of the
    1-D ``r_m`` and every angle of the 1-D ``theta_rad``: entry ``[i, j]`` is
    :func:`correlation2` at ``(r_m[i], theta_rad[j])``, to rounding.

    The phase ``p*k_m + q*(m-1)`` separates, so the phase sums are one product
    ``exp(j p⊗k) @ exp(j (m-1)⊗q)`` of (ranges, M) and (M, angles) factors, with
    one exponential per factor entry.  The locations are not checked; a
    correlation that is not finite raises ``ValueError``, as in :func:`correlation2`.
    """
    karr = _as_k(k, cfg.n_elements)
    with np.errstate(over="ignore", invalid="ignore"):
        p, q = _pq(cfg, bob, np.asarray(r_m, dtype=float), np.asarray(theta_rad, dtype=float))
        sums = np.exp(1j * np.multiply.outer(p, karr)) @ np.exp(
            1j * np.multiply.outer(np.arange(cfg.n_elements), q))
        sums /= cfg.n_elements
        corr2 = np.abs(sums)
        np.float_power(corr2, 2, out=corr2)
    _refuse_non_finite(corr2)
    return corr2


def correlation2(cfg: ArrayConfig, k, bob: Location, eve: Location) -> float:
    """Squared correlation |h(eve)^H h(bob)|^2, in [0, 1].

    This is the fraction of the confidential signal power that leaks to a
    receiver at ``eve`` when the transmit vector points at ``bob``:
    :func:`_correlation2` at ``eve``'s offsets from ``bob``.  A correlation that
    is not finite, where a range or frequency overflows the phase, raises
    ``ValueError``.
    """
    karr = _as_k(k, cfg.n_elements)
    with np.errstate(over="ignore", invalid="ignore"):
        corr2 = _correlation2(cfg, karr, *_pq(cfg, bob, eve.r_m, eve.theta_rad))
    _refuse_non_finite(corr2)
    return float(corr2)
