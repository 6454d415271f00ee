"""Directional-modulation security math.

Signal model: the transmitter beamforms a confidential symbol toward the
intended receiver and fills the remaining power budget with artificial noise
(AN) projected into the null space of the intended channel, so the AN is
invisible at the aim point and degrades everyone else.  This module draws
the AN direction and evaluates the resulting SNR/SINR, channel capacities and
the closed-form secrecy-capacity lower bound (the signal-only one at delta = 1).

All power formulas work on linear ratios; dBm values are converted exactly
once, inside :class:`PowerConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RetryRequiredError


def dbm_to_mw(value_dbm: float) -> float:
    "Linear power in milliwatts."
    return 10.0 ** (value_dbm / 10.0)


@dataclass(frozen=True)
class PowerConfig:
    """Transmit power, per-receiver noise floors and the AN power split.

    ``delta`` is the fraction of transmit power carrying the confidential
    signal; the rest feeds AN.  ``mu`` is the transmit SNR reference
    (P_t over the intended receiver's noise), ``eps`` the eavesdropper-to-
    intended noise ratio.
    """

    pt_dbm: float
    sigma_b2_dbm: float = 0.0
    sigma_e2_dbm: float = 0.0
    delta: float = 0.6

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        # NaN and infinite dBm fail here too; a finite one far out of range
        # overflows to an error, or underflows to 0
        try:
            linear = (self.pt_mw, dbm_to_mw(self.sigma_b2_dbm),
                      dbm_to_mw(self.sigma_e2_dbm), self.mu, self.eps)
        except (OverflowError, ZeroDivisionError):
            linear = (math.inf,)
        if not all(0.0 < value < math.inf for value in linear):
            raise ValueError(
                f"pt_dbm={self.pt_dbm}, sigma_b2_dbm={self.sigma_b2_dbm} and sigma_e2_dbm="
                f"{self.sigma_e2_dbm} must give positive, finite linear powers and ratios")

    @property
    def pt_mw(self) -> float:
        return dbm_to_mw(self.pt_dbm)

    @property
    def mu(self) -> float:
        return dbm_to_mw(self.pt_dbm) / dbm_to_mw(self.sigma_b2_dbm)

    @property
    def eps(self) -> float:
        return dbm_to_mw(self.sigma_e2_dbm) / dbm_to_mw(self.sigma_b2_dbm)


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
    contributes nothing at the intended receiver.  Raises
    :class:`RetryRequiredError`, whose ``rows`` name the offending rows, on the
    measure-zero event that a ``z`` is (numerically) parallel to its ``h_bob``.
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
        raise RetryRequiredError("noise draw is parallel to the intended channel; redraw",
                                 degenerate.tolist())
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


def eta(n_elements: int) -> float:
    """Average AN leakage factor 1 / (M - 1).

    The AN projector ``I - h h^H`` is idempotent with trace M - 1, so the
    normalizing trace of its square is M - 1 as well.
    """
    if n_elements < 2:
        raise ValueError("eta is undefined for a single-element array")
    return 1.0 / (n_elements - 1)


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
    correlation of the secrecy region); the AN floor is taken at its average
    leakage ``eta_value * (1 - beta)``.  At ``delta = 1`` it is the signal-only bound.
    """
    mu, eps, delta = power.mu, power.eps, power.delta
    eve = delta * mu * beta / ((1.0 - delta) * mu * eta_value * (1.0 - beta) + eps)
    return float(np.log2((1.0 + delta * mu) / (1.0 + eve)))
