"""Geometry and electromagnetics of a random frequency diverse array (RFDA).

Each element radiates at its own carrier ``f0 + k_m * delta_f``, which makes
the transmit beampattern depend on range as well as angle.  This module holds
the far-field phase model, steering vectors and the squared correlation between
two locations; its data classes, bound here too, live in ``scenario``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .scenario import (SPEED_OF_LIGHT, ArrayConfig, Location, check_k_length,
                       half_wavelength_spacing)


def _as_k(k, n_elements: int) -> np.ndarray:
    "``k`` as a float array that has an entry per element (:func:`check_k_length`)."
    arr = np.asarray(k, dtype=float)
    check_k_length(arr.shape, n_elements)
    return arr


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
