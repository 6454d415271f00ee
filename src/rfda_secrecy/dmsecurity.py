"""Directional-modulation security math.

Signal model: the transmitter beamforms a confidential symbol toward the
intended receiver and fills the remaining power budget with artificial noise
(AN) projected into the null space of the intended channel, so the AN is
invisible at the aim point and degrades everyone else.  This module draws
the AN direction and evaluates the resulting SNR/SINR, channel capacities and
the closed-form secrecy-capacity lower bound (the signal-only one at delta = 1).

All power formulas work on linear ratios; dBm values are converted exactly
once, inside ``PowerConfig``, which with ``eta`` lives in ``scenario`` (bound here too).
"""

from __future__ import annotations

import math

import numpy as np

from .scenario import PowerConfig, dbm_to_mw, eta


def complex_gaussian(rng: np.random.Generator, size: int) -> np.ndarray:
    """Circularly-symmetric unit-variance complex Gaussian draws: ``size`` real
    parts, then ``size`` imaginary parts, taken from ``rng`` in one call."""
    return complex_from_parts(rng.standard_normal((2, size)))


def complex_from_parts(parts: np.ndarray) -> np.ndarray:
    """The complex draws of standard-normal ``parts`` of shape (..., 2, M): along
    the second-to-last axis, the real parts, then the imaginary parts, over
    sqrt(2).  A stack of rows gives each row the bits of that row alone."""
    z = np.empty(parts.shape[:-2] + parts.shape[-1:], dtype=complex)
    z.real, z.imag = parts[..., 0, :], parts[..., 1, :]
    z /= math.sqrt(2.0)
    return z


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_m a_m b_m`` along the last axis, kept as an axis of length 1.  Each
    row is a (1, M) @ (M, 1) product, which numpy hands to the BLAS dot of a 1-D
    ``np.dot``, so a row has the same bits alone and in a stack."""
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def an_vector(h_bob: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Unit-norm AN directions: ``z`` projected off the intended channel, along
    the last axis, so a stack of rows gives a stack of directions.

    ``w = (I - h h^H) z / ||.||`` satisfies ``h^H w = 0`` exactly, so the AN
    contributes nothing at the intended receiver.  A ``z`` (numerically) parallel
    to its ``h_bob``, a measure-zero event, raises ``ValueError`` naming the first
    such row of the stack; it is never redrawn.
    """
    h = np.asarray(h_bob)
    if h.ndim == 0 or h.shape[-1] < 2:
        raise ValueError("AN needs at least 2 elements; the 1-element projector is zero")
    z = np.asarray(z)
    if z.shape != h.shape:
        raise ValueError(f"z has shape {z.shape}, expected {h.shape}")
    # h^H z is the dot of conj(h) and z; the norm sums the real and imaginary
    # parts apart, as np.vdot and np.linalg.norm do on one row
    projected = z - h * _dot(np.conj(h), z)
    norm = np.sqrt(_dot(projected.real, projected.real)
                   + _dot(projected.imag, projected.imag))
    degenerate = np.flatnonzero(norm < 1e-14)
    if degenerate.size:
        raise ValueError(f"AN draw {degenerate[0]} is parallel to the intended channel")
    return projected / norm


def an_leakage(h_eve: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared overlap ``|h_eve^H w|^2`` of each eavesdropper channel with its AN
    direction, along the last axis (libm ``pow``, as ``abs(np.vdot(h_eve, w)) ** 2``
    squares one overlap)."""
    return np.float_power(np.abs(_dot(np.conj(h_eve), w)[..., 0]), 2)


def sinr_eve(power: PowerConfig, corr2, an2):
    """SINR at an eavesdropper (elementwise on arrays).

    ``corr2`` is its squared steering correlation with the intended receiver,
    ``an2`` its squared overlap with the AN direction.
    """
    mu, eps = power.mu, power.eps
    return power.delta * mu * corr2 / ((1.0 - power.delta) * mu * an2 + eps)


def capacity_bob(power: PowerConfig) -> float:
    "Channel capacity of the intended receiver, log2(1 + delta*mu) bits: AN cancels there."
    return float(np.log2(1.0 + power.delta * power.mu))


def capacity_eve_an(power: PowerConfig, corr2, an2):
    "Eavesdropper channel capacity for one AN realization (or an array of them), log2(1 + SINR)."
    return np.log2(1.0 + sinr_eve(power, corr2, an2))


def secrecy_capacity(cb, ce):
    "max(C_B - C_E, 0), elementwise on arrays."
    return np.maximum(cb - ce, 0.0)


def c_an_lb(power: PowerConfig, beta: float, eta_value: float) -> float:
    """Secrecy-capacity lower bound of the AN scheme.

    ``beta`` caps the eavesdropper's signal correlation (the boundary
    correlation of the secrecy region); Eve's SINR is :func:`sinr_eve` at ``beta``
    and the average AN leakage ``eta_value * (1 - beta)``, as a Monte Carlo trial
    prices its own pair.  At ``delta = 1`` it is the signal-only bound.
    It is the paper's ``log2((1 + delta*mu) / (1 + SINR_E(beta)))`` without ``[.]+``,
    so it is negative where the eavesdropper's bound exceeds the intended link's.
    """
    sinr = sinr_eve(power, beta, eta_value * (1.0 - beta))
    return float(np.log2((1.0 + power.delta * power.mu) / (1.0 + sinr)))
