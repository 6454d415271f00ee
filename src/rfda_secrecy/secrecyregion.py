"""Secrecy-region geometry and resource minima.

The secrecy region is a box of half-widths (dr, dtheta) around the intended
receiver; eavesdroppers are assumed to stay outside it.  The worst-case
signal leakage just outside is capped by the boundary correlation ``beta``
(largest squared steering correlation at the four box corners).  Requiring
the beampattern's confinement ellipse to fit inside the box yields minimum
element counts and minimum frequency-spread norms; requiring the capacity
lower bound to reach a target rate yields the admissible ``beta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .arraymodel import SPEED_OF_LIGHT, ArrayConfig, Location, correlation2
from .dmsecurity import PowerConfig, eta
from .errors import ConvergenceError, InfeasibleRateError

BEAMWIDTH_CONSTANT_RAD = math.radians(35.9)
"""Angular-width calibration constant of a uniform aperture, in radians.

35.9 degrees is the established one-sided half-power width constant of the
exact array pattern (0.443 wavelengths per aperture length); the ellipse
formulas scale it by sqrt(1 - beta) to other correlation levels.
"""


@dataclass(frozen=True)
class SecrecyRegion:
    "Half-widths of the protected box around the intended receiver."

    dr_m: float
    dtheta_rad: float

    def __post_init__(self):
        if not (0 < self.dr_m < math.inf and 0 < self.dtheta_rad < math.inf):
            raise ValueError("region half-widths must be strictly positive and finite")


class Scheme(Enum):
    "Transmit scheme: with artificial noise, or signal-only (the AN scheme at delta = 1)."

    WITH_AN = "with_an"
    WITHOUT_AN = "without_an"

    def power(self, power: PowerConfig) -> PowerConfig:
        "``power`` with this scheme's split: delta = 1 for signal-only, as given with AN."
        return replace(power, delta=1.0) if self is Scheme.WITHOUT_AN else power


def beta_boundary(cfg: ArrayConfig, k, bob: Location, region: SecrecyRegion) -> float:
    """Largest squared steering correlation over the four region corners
    (r +/- dr, theta +/- dtheta), each a valid :class:`Location` off Bob's range and angle."""
    corners = [Location(bob.r_m + sr * region.dr_m, bob.theta_rad + st * region.dtheta_rad)
               for sr in (1.0, -1.0) for st in (1.0, -1.0)]
    for half, at in (("dr_m", "r_m"), ("dtheta_rad", "theta_rad")):
        if any(getattr(c, at) == getattr(bob, at) for c in corners):  # below half an ulp
            raise ValueError(f"the region half-width {half}={getattr(region, half)!r} rounds "
                             f"away at Bob's {at}={getattr(bob, at)!r}: a corner lies on it")
    return max(correlation2(cfg, k, bob, corner) for corner in corners)


def _angular_width(cfg: ArrayConfig, beta: float, across: float,
                   theta_b_rad: float) -> float:
    "Angular semi-axis of ``across`` elements, or element count of a semi-axis ``across``."
    sin_theta = math.sin(theta_b_rad)
    if not 0.0 < theta_b_rad < math.pi or sin_theta <= 0.0:
        raise ValueError("theta_b must lie strictly inside (0, pi)")
    aperture = across * cfg.spacing_m * cfg.f0_hz * sin_theta  # 0 if the product underflows
    width = (BEAMWIDTH_CONSTANT_RAD * SPEED_OF_LIGHT * math.sqrt(max(1.0 - beta, 0.0))
             / aperture) if aperture else math.inf
    if not math.isfinite(width):
        raise ValueError(f"the angular formula overflows at beta={beta}, across={across!r} "
                         f"(elements, or a semi-axis in rad), spacing_m={cfg.spacing_m}, "
                         f"f0_hz={cfg.f0_hz} and theta_b_rad={theta_b_rad}")
    return width


def _radial_norm2(cfg: ArrayConfig, beta: float, n_elements: float, dr_m: float = 1.0) -> float:
    "K at which ``n_elements`` elements have radial semi-axis ``dr_m``; K * dr^2 is fixed."
    phase = 2.0 * math.pi * cfg.delta_f_hz * dr_m  # 0 if the product underflows
    scale = SPEED_OF_LIGHT / phase if phase else math.inf
    norm2 = scale * scale * max(1.0 - beta, 0.0) * n_elements
    if not math.isfinite(norm2):
        raise ValueError(f"the squared frequency-spread norm overflows at beta={beta}, "
                         f"M={n_elements!r}, dr_m={dr_m} and delta_f_hz={cfg.delta_f_hz}")
    return norm2


def ellipse_semi_axes(cfg: ArrayConfig, n_elements: int, k_norm2: float,
                      beta: float, theta_b_rad: float) -> tuple[float, float]:
    """Semi-axes (range m, angle rad) of the beta-level confinement ellipse.

    Inside the ellipse the beampattern stays above ``beta * M^2``.  For
    ``beta >= 1`` the ellipse degenerates to the aim point and both axes are
    zero.  A radial axis that overflows raises ``ValueError``.
    """
    if k_norm2 <= 0:
        raise ValueError("k_norm2 must be positive")
    dr = math.sqrt(_radial_norm2(cfg, beta, n_elements) / k_norm2)
    if not math.isfinite(dr):
        raise ValueError(f"the radial semi-axis overflows at k_norm2={k_norm2!r} and beta={beta}")
    return dr, _angular_width(cfg, beta, n_elements, theta_b_rad)


def m_min(beta: float, region: SecrecyRegion, theta_b_rad: float,
          cfg: ArrayConfig) -> float:
    """Minimum element count keeping the angular ellipse axis inside the region.

    Returns a real number (callers ceil when they need a count), clamped
    below at 1.  Larger ``beta`` (more tolerated leakage) needs fewer
    elements.
    """
    return max(_angular_width(cfg, beta, region.dtheta_rad, theta_b_rad), 1.0)


def k_min(beta: float, region: SecrecyRegion, cfg: ArrayConfig,
          m_min_value: float) -> float:
    """Minimum squared frequency-spread norm for the given element count.

    Keeps the radial ellipse axis inside the region: with ``m_min_value``
    elements the radial axis shrinks below ``dr`` exactly when ``K`` exceeds
    this value.
    """
    return _radial_norm2(cfg, beta, m_min_value, region.dr_m)


def beta_max_an(power: PowerConfig, eta_value: float, rs_bits: float) -> float:
    """Largest boundary correlation for which the AN bound still reaches ``rs_bits``.

    Raises :class:`InfeasibleRateError` when even a perfectly silent
    eavesdropper could not support the rate (intended-channel capacity below
    the target), and ValueError when the powers are so large that the ratio
    overflows.  The result is clamped to [0, 1].
    """
    mu, eps, delta = power.mu, power.eps, power.delta
    gain = 2.0 ** rs_bits
    headroom = 1.0 + delta * mu - gain
    if headroom < 0.0:
        raise InfeasibleRateError(
            f"rate {rs_bits} bits exceeds the intended-channel capacity "
            f"{math.log2(1.0 + delta * mu):.4f} bits")
    if headroom == 0.0:  # the rate is Bob's capacity; the ratio below would be 0/0
        # at delta = 0, where Eve gets no signal power and any beta is admissible
        return 1.0 if delta == 0.0 else 0.0
    an_floor = (1.0 - delta) * mu * eta_value
    value = headroom * (an_floor + eps) / (an_floor * headroom + delta * mu * gain)
    if not math.isfinite(value):  # a product above overflowed: inf/inf or inf/x
        raise ValueError(f"the admissible beta overflows at pt_dbm={power.pt_dbm}, "
                         f"delta={delta} and rate {rs_bits} bits")
    return min(max(value, 0.0), 1.0)


def solve_m_min(rs_bits: float, power: PowerConfig, region: SecrecyRegion,
                theta_b_rad: float, cfg: ArrayConfig, scheme: Scheme,
                fixed_eta: float | None = None, max_iter: int = 1000) -> int:
    """Smallest integer element count that supports the target secrecy rate.

    The scheme sets the power split.  When some power feeds AN, the array
    needs a null space, so the floor is 2 elements, and the average leakage
    factor depends on the element count, which feeds back into the
    admissible ``beta``; the map from count to required count is monotone, so
    iterating from the floor converges to the least fixed point.
    ``fixed_eta`` short-circuits that feedback with a constant leakage factor
    in (0, 1].  With no power on AN the leakage factor multiplies zero, the
    floor is 1 element and the iteration settles at once.
    """
    if fixed_eta is not None and not 0.0 < fixed_eta <= 1.0:
        raise ValueError(f"fixed_eta must be in (0, 1], got {fixed_eta}")
    power = scheme.power(power)
    an = power.delta < 1.0
    m_current = floor = 2 if an else 1
    last = [m_current]
    for _ in range(max_iter):
        eta_value = (fixed_eta if fixed_eta is not None else eta(m_current)) if an else 0.0
        beta = beta_max_an(power, eta_value, rs_bits)
        m_next = max(floor, math.ceil(m_min(beta, region, theta_b_rad, cfg)))
        if m_next == m_current:
            return m_current
        last, m_current = [m_current, m_next], m_next
    raise ConvergenceError(
        f"element-count fixed point did not settle in {max_iter} iterations; "
        f"last iterates {last}")
