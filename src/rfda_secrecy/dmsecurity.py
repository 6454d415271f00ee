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
    "Circularly-symmetric unit-variance complex Gaussian draws."
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def an_vector(h_bob: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Unit-norm AN direction: ``z`` projected off the intended channel.

    ``w = (I - h h^H) z / ||.||`` satisfies ``h^H w = 0`` exactly, so the AN
    contributes nothing at the intended receiver.  Raises
    :class:`RetryRequiredError` on the measure-zero event that ``z`` is
    (numerically) parallel to ``h_bob``.
    """
    h = np.asarray(h_bob)
    if h.size < 2:
        raise ValueError("AN needs at least 2 elements; the 1-element projector is zero")
    z = np.asarray(z)
    if z.shape != h.shape:
        raise ValueError(f"z has shape {z.shape}, expected {h.shape}")
    projected = z - h * np.vdot(h, z)
    norm = np.linalg.norm(projected)
    if norm < 1e-14:
        raise RetryRequiredError("noise draw is parallel to the intended channel; redraw")
    return projected / norm


def snr_bob(power: PowerConfig) -> float:
    "SNR at the intended receiver: delta * mu (the AN term cancels there)."
    return power.delta * power.mu


def sinr_eve(power: PowerConfig, corr2: float, an2: float) -> float:
    """SINR at an eavesdropper.

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
    "Channel capacity of the intended receiver, log2(1 + delta*mu) bits."
    return float(np.log2(1.0 + snr_bob(power)))


def capacity_eve_an(power: PowerConfig, corr2: float, an2: float) -> float:
    "Eavesdropper channel capacity for one AN realization, log2(1 + SINR)."
    return float(np.log2(1.0 + sinr_eve(power, corr2, an2)))


def secrecy_capacity(cb: float, ce: float) -> float:
    "max(C_B - C_E, 0)."
    return max(cb - ce, 0.0)


def c_an_lb(power: PowerConfig, beta: float, eta_value: float) -> float:
    """Secrecy-capacity lower bound of the AN scheme.

    ``beta`` caps the eavesdropper's signal correlation (the boundary
    correlation of the secrecy region); the AN floor is taken at its average
    leakage ``eta_value * (1 - beta)``.  At ``delta = 1`` it is the signal-only bound.
    """
    mu, eps, delta = power.mu, power.eps, power.delta
    eve = delta * mu * beta / ((1.0 - delta) * mu * eta_value * (1.0 - beta) + eps)
    return float(np.log2((1.0 + delta * mu) / (1.0 + eve)))
