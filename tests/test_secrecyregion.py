import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfda_secrecy.arraymodel import ArrayConfig, Location, SPEED_OF_LIGHT
from rfda_secrecy.dmsecurity import PowerConfig, eta
from rfda_secrecy.errors import ConvergenceError, InfeasibleRateError
from rfda_secrecy.freqdesign import generate_k
from rfda_secrecy.reference import beampattern_taylor, beta_max_no_an, correlation2_pointwise
from rfda_secrecy.secrecyregion import (BEAMWIDTH_CONSTANT_RAD, Scheme, SecrecyRegion,
                                        beta_boundary, beta_max_an, ellipse_semi_axes, k_min,
                                        m_min, solve_m_min)
from rfda_secrecy.sweep import fixture_vector

CFG = ArrayConfig.half_wavelength(16, 1e9, 1e6)
BOB = Location(100.0, math.radians(45))
REGION = SecrecyRegion(8.0, math.radians(5))
THETA_B = math.radians(45)
POWER30 = PowerConfig(30.0, 0.0, 0.0, 0.6)


def test_region_validation():
    with pytest.raises(ValueError):
        SecrecyRegion(0.0, 0.1)
    with pytest.raises(ValueError):
        SecrecyRegion(1.0, 0.0)


def test_beta_boundary_is_the_largest_correlation_at_the_four_corners():
    k = fixture_vector("K10405")
    values = [correlation2_pointwise(CFG, k, BOB, Location(r, math.radians(deg)))
              for r, deg in ((108.0, 50.0), (108.0, 40.0), (92.0, 50.0), (92.0, 40.0))]
    assert len(set(values)) == 4
    assert beta_boundary(CFG, k, BOB, REGION) == pytest.approx(max(values), rel=1e-12)
    # a region poking past the angular domain is rejected
    with pytest.raises(ValueError):
        beta_boundary(CFG, k, Location(100.0, math.radians(3)),
                      SecrecyRegion(8.0, math.radians(5)))


@pytest.mark.parametrize("bob, region, half, at", [
    (Location(1e300, THETA_B), REGION, "dr_m=8.0", "r_m=1e+300"),
    (Location(1e300, THETA_B), SecrecyRegion(1e280, math.radians(5)), "dr_m=1e+280",
     "r_m=1e+300"),
    # 2**60 + 100 rounds to 2**60, while 2**60 - 100 does not
    (Location(2.0 ** 60, THETA_B), SecrecyRegion(100.0, math.radians(5)), "dr_m=100.0",
     f"r_m={2.0 ** 60!r}"),
    (BOB, SecrecyRegion(8.0, math.radians(1e-15)), "dtheta_rad=", f"theta_rad={THETA_B!r}"),
])
def test_beta_boundary_refuses_a_half_width_that_rounds_away(bob, region, half, at):
    with pytest.raises(ValueError) as error:
        beta_boundary(CFG, fixture_vector("K10405"), bob, region)
    assert half in str(error.value) and f"Bob's {at}" in str(error.value)


def test_beta_boundary_degenerate_cases():
    tiny = SecrecyRegion(1e-9, 1e-12)
    k = np.arange(16.0) - 7.5
    assert beta_boundary(CFG, k, BOB, tiny) == pytest.approx(1.0, abs=1e-9)
    # no frequency diversity: any range offset is invisible, only tiny angle left
    wide = SecrecyRegion(50.0, 1e-12)
    assert beta_boundary(CFG, np.zeros(16), BOB, wide) == pytest.approx(1.0, abs=1e-9)


def test_beta_boundary_fixture_regression():
    k = fixture_vector("K10405")
    value = beta_boundary(CFG, k, BOB, REGION)
    assert 0.0 < value < 1.0
    assert value == pytest.approx(0.22056263365266987, rel=1e-9)


def test_ellipse_semi_axes_values():
    dr, dtheta = ellipse_semi_axes(CFG, 16, 10405.0, 0.4, THETA_B)
    assert dr == pytest.approx(1.4492903777643495, rel=1e-9)
    assert math.degrees(dtheta) == pytest.approx(4.915809953608866, rel=1e-9)
    assert ellipse_semi_axes(CFG, 16, 10405.0, 1.0, THETA_B) == (0.0, 0.0)
    # quadrupling the spread norm halves the radial axis, angle untouched
    dr4, dtheta4 = ellipse_semi_axes(CFG, 16, 4 * 10405.0, 0.4, THETA_B)
    assert dr4 == pytest.approx(dr / 2.0, rel=1e-12)
    assert dtheta4 == pytest.approx(dtheta, rel=1e-12)
    with pytest.raises(ValueError):
        ellipse_semi_axes(CFG, 16, 0.0, 0.4, THETA_B)
    with pytest.raises(ValueError):
        ellipse_semi_axes(CFG, 16, 10405.0, 0.4, 0.0)


def test_ellipse_semi_axes_refuses_an_overflowing_radial_axis():
    # a subnormal squared norm overflows the radial axis, which region would print as inf
    with pytest.raises(ValueError, match=r"radial semi-axis overflows at k_norm2=1e-310 "
                                         r"and beta=0\.4"):
        ellipse_semi_axes(CFG, 3, 1e-310, 0.4, THETA_B)
    assert ellipse_semi_axes(CFG, 3, 1e-310, 1.0, THETA_B) == (0.0, 0.0)


def test_m_min_values():
    value = m_min(0.4, REGION, THETA_B, CFG)
    assert value == pytest.approx(15.730591851548374, rel=1e-9)
    assert abs(value - 15.73) <= 0.05
    assert m_min(0.4995, REGION, THETA_B, CFG) == pytest.approx(14.3672, abs=5e-4)
    assert m_min(1.0, REGION, THETA_B, CFG) == 1.0
    assert m_min(0.999999, REGION, THETA_B, CFG) == 1.0  # clamped at the floor
    with pytest.raises(ValueError):
        m_min(0.4, REGION, 0.0, CFG)


def test_m_min_monotonicity():
    betas = np.linspace(0.0, 0.99, 25)
    values = [m_min(b, REGION, THETA_B, CFG) for b in betas]
    assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(values, values[1:]))
    widths = np.linspace(math.radians(1), math.radians(20), 20)
    values = [m_min(0.4, SecrecyRegion(8.0, w), THETA_B, CFG) for w in widths]
    assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(values, values[1:]))


def test_k_min_value_and_oracle():
    m_value = m_min(0.4, REGION, THETA_B, CFG)
    value = k_min(0.4, REGION, CFG, m_value)
    assert value == pytest.approx(335.7360746650835, rel=1e-9)
    # independent oracle: bisect the smallest K whose radial axis fits dr
    lo, hi = 1e-6, 1e9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        dr, _ = ellipse_semi_axes(CFG, m_value, mid, 0.4, THETA_B)
        if dr <= REGION.dr_m:
            hi = mid
        else:
            lo = mid
    assert value == pytest.approx(hi, rel=1e-6)
    assert k_min(1.0, REGION, CFG, 1.0) == 0.0
    doubled = SecrecyRegion(16.0, REGION.dtheta_rad)
    assert k_min(0.4, doubled, CFG, m_value) == pytest.approx(value / 4.0, rel=1e-12)


def test_beta_max_an_values():
    assert beta_max_an(POWER30, 1.0 / 15.0, 1.0) == pytest.approx(
        0.9650038819875777, rel=1e-9)
    assert beta_max_an(POWER30, 1.0 / 15.0, 0.0) == 1.0
    # clamping kicks in when the eavesdropper noise floor dominates
    noisy_eve = PowerConfig(30.0, 0.0, 10.0, 0.6)
    assert beta_max_an(noisy_eve, 1.0 / 15.0, 0.01) == 1.0
    with pytest.raises(InfeasibleRateError):
        beta_max_an(POWER30, 1.0 / 15.0, 9.3)
    # zero headroom: with no signal power Eve learns nothing at any beta, so the
    # count is the AN floor of 2; with signal power only beta = 0 leaks nothing
    silent = PowerConfig(30.0, delta=0.0)
    assert beta_max_an(silent, eta(16), 0.0) == 1.0
    assert solve_m_min(0.0, silent, REGION, THETA_B, CFG, Scheme.WITH_AN) == 2
    assert beta_max_an(PowerConfig(0.0, delta=1.0), 0.0, 1.0) == 0.0


def test_beta_max_an_rejects_an_overflowing_ratio():
    # the AN floor times the headroom overflows: the ratio would be inf/inf = NaN
    with pytest.raises(ValueError, match=r"pt_dbm=3080\.0, delta=0\.6 and rate 1\.0 bits"):
        beta_max_an(PowerConfig(3080.0), eta(2), 1.0)


def test_beta_max_no_an_values():
    pw = PowerConfig(30.0, 0.0, 0.0, 1.0)
    assert beta_max_no_an(pw, 1.0) == pytest.approx(0.4995, rel=1e-12)
    assert beta_max_no_an(pw, 0.0) == 1.0
    # 1 + mu = 2^Rs exactly: zero margin, beta collapses to zero
    pw1023 = PowerConfig(10.0 * math.log10(1023.0), 0.0, 0.0, 1.0)
    assert pw1023.mu == pytest.approx(1023.0, rel=1e-12)
    assert beta_max_no_an(pw1023, 10.0) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(InfeasibleRateError):
        beta_max_no_an(pw, 10.1)


def test_beta_max_monotone_in_rate():
    rates = np.linspace(0.1, 9.0, 30)
    an_values = [beta_max_an(POWER30, 1.0 / 15.0, r) for r in rates]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(an_values, an_values[1:]))
    no_values = [beta_max_no_an(POWER30, r) for r in rates]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(no_values, no_values[1:]))


@settings(max_examples=300, deadline=None)
@given(pt=st.floats(-30.0, 60.0), sigma_b2=st.floats(-20.0, 20.0),
       sigma_e2=st.floats(-20.0, 20.0), delta=st.floats(0.0, 1.0),
       rs=st.one_of(st.just(0.0), st.floats(0.0, 12.0)), eta_value=st.floats(0.01, 1.0),
       beta=st.floats(0.0, 1.0), theta=st.floats(0.01, math.pi - 0.01))
def test_signal_only_closed_forms_are_the_an_ones_at_delta_1(pt, sigma_b2, sigma_e2, delta,
                                                              rs, eta_value, beta, theta):
    # bit for bit: the library has one bound, the signal-only oracles their own forms
    power = PowerConfig(pt, sigma_b2, sigma_e2, delta)
    try:
        expected = beta_max_no_an(power, rs)
    except InfeasibleRateError:
        with pytest.raises(InfeasibleRateError):
            beta_max_an(replace(power, delta=1.0), eta_value, rs)
        with pytest.raises(InfeasibleRateError):
            solve_m_min(rs, power, REGION, theta, CFG, Scheme.WITHOUT_AN)
    else:
        assert beta_max_an(replace(power, delta=1.0), eta_value, rs) == expected
        assert solve_m_min(rs, power, REGION, theta, CFG, Scheme.WITHOUT_AN) == max(
            1, math.ceil(m_min(expected, REGION, theta, CFG)))
        assert solve_m_min(rs, replace(power, delta=1.0), REGION, theta, CFG,
                           Scheme.WITH_AN) == solve_m_min(rs, power, REGION, theta, CFG,
                                                          Scheme.WITHOUT_AN)

    def angular_width(across):
        "The angular-width formula as m_min and ellipse_semi_axes each wrote it out."
        return (BEAMWIDTH_CONSTANT_RAD * SPEED_OF_LIGHT * math.sqrt(max(1.0 - beta, 0.0))
                / (across * CFG.spacing_m * CFG.f0_hz * math.sin(theta)))

    assert m_min(beta, REGION, theta, CFG) == max(angular_width(REGION.dtheta_rad), 1.0)
    assert ellipse_semi_axes(CFG, 16, 10405.0, beta, theta)[1] == angular_width(16)


@settings(max_examples=300, deadline=None)
@given(beta=st.floats(0.0, 1.0), n=st.floats(1.0, 1e4), k_norm2=st.floats(1e-3, 1e9),
       dr=st.floats(1e-3, 1e4), delta_f=st.floats(1e3, 1e9))
def test_radial_pair_is_one_formula(beta, n, k_norm2, dr, delta_f):
    # the radial semi-axis and k_min as ellipse_semi_axes and k_min each wrote them out
    cfg = ArrayConfig(16, 1e9, delta_f, 0.15)
    rem = max(1.0 - beta, 0.0)
    radial_width = SPEED_OF_LIGHT * math.sqrt(n * rem / k_norm2) / (2.0 * math.pi * delta_f)
    scale = SPEED_OF_LIGHT / (2.0 * math.pi * delta_f * dr)
    assert ellipse_semi_axes(cfg, n, k_norm2, beta, THETA_B)[0] == pytest.approx(
        radial_width, rel=4 * sys.float_info.epsilon, abs=0.0)
    assert k_min(beta, SecrecyRegion(dr, 0.1), cfg, n) == scale * scale * rem * n


def test_solve_m_min_reference_points():
    assert solve_m_min(1.0, POWER30, REGION, THETA_B, CFG,
                       Scheme.WITHOUT_AN) == 15
    assert solve_m_min(1.0, POWER30, REGION, THETA_B, CFG, Scheme.WITH_AN) == 2
    # vanishing rate: admissible correlation goes to 1, counts hit the floors
    assert solve_m_min(1e-9, POWER30, REGION, THETA_B, CFG, Scheme.WITHOUT_AN) == 1
    assert solve_m_min(1e-9, POWER30, REGION, THETA_B, CFG, Scheme.WITH_AN) == 2
    with pytest.raises(InfeasibleRateError):
        solve_m_min(9.3, POWER30, REGION, THETA_B, CFG, Scheme.WITH_AN)
    # the iterates run 2, 9, 16, 17, 17: the error names the last two it reached
    for max_iter, last in ((0, "[2]"), (1, "[2, 9]"), (3, "[16, 17]")):
        with pytest.raises(ConvergenceError, match=re.escape(f"last iterates {last}")):
            solve_m_min(3.0, PowerConfig(20.0, delta=0.6), REGION, THETA_B, CFG,
                        Scheme.WITH_AN, max_iter=max_iter)


def test_solve_m_min_fixed_eta_override():
    got = solve_m_min(1.0, POWER30, REGION, THETA_B, CFG, Scheme.WITH_AN,
                      fixed_eta=1.0 / 15.0)
    beta = beta_max_an(POWER30, 1.0 / 15.0, 1.0)
    assert got == math.ceil(m_min(beta, REGION, THETA_B, CFG))
    assert got == 4


def test_solve_m_min_regression_series():
    # frozen from an independent hand computation of the fixed-point chain
    rs_grid = [0.5 * i for i in range(1, 13)]
    no_an = [solve_m_min(rs, POWER30, REGION, THETA_B, CFG, Scheme.WITHOUT_AN)
             for rs in rs_grid]
    with_an = [solve_m_min(rs, POWER30, REGION, THETA_B, CFG, Scheme.WITH_AN)
               for rs in rs_grid]
    assert no_an == [11, 15, 17, 18, 19, 20, 20, 20, 20, 20, 21, 21]
    assert with_an == [2, 2, 2, 2, 4, 6, 8, 11, 13, 15, 17, 18]


def test_solve_m_min_monotone_in_rate_and_power():
    rs_grid = [0.5 * i for i in range(1, 13)]
    for scheme in Scheme:
        for pt in (20.0, 30.0, 40.0):
            pw = PowerConfig(pt, 0.0, 0.0, 0.6)
            values = []
            for rs in rs_grid:
                try:
                    values.append(solve_m_min(rs, pw, REGION, THETA_B, CFG, scheme))
                except InfeasibleRateError:
                    values.append(None)
            feasible = [v for v in values if v is not None]
            assert all(a <= b for a, b in zip(feasible, feasible[1:]))
            # infeasibility is a tail, never a hole
            tail = values[len(feasible):]
            assert all(v is None for v in tail)
        for rs in rs_grid:
            per_power = []
            for pt in (20.0, 30.0, 40.0):
                try:
                    per_power.append(solve_m_min(rs, PowerConfig(pt, 0.0, 0.0, 0.6),
                                                 REGION, THETA_B, CFG, scheme))
                except InfeasibleRateError:
                    per_power.append(None)
            defined = [v for v in per_power if v is not None]
            assert all(a >= b for a, b in zip(defined, defined[1:]))


def test_resource_minima_confine_the_ellipse():
    # choosing M >= m_min and K >= k_min evaluated at that M keeps both
    # ellipse axes inside the region box
    for beta in (0.0, 0.2, 0.5, 0.9):
        m_floor = m_min(beta, REGION, THETA_B, CFG)
        for m_count in (math.ceil(m_floor), math.ceil(m_floor) + 1,
                        math.ceil(m_floor) + 7):
            for margin in (1.0, 1.3):
                k_floor = k_min(beta, REGION, CFG, m_count)
                k_norm2 = max(k_floor * margin, 1e-9)
                dr, dtheta = ellipse_semi_axes(CFG, m_count, k_norm2, beta, THETA_B)
                assert dr <= REGION.dr_m + 1e-9
                assert dtheta <= REGION.dtheta_rad + 1e-9


def test_taylor_matches_beta_at_radial_vertex():
    # the radial vertex of the confinement ellipse is an exact identity for
    # any vector with rho1 = 2MK and rho2 = 0
    for seed in (1, 2, 3):
        vec = generate_k(16, 10405.0, "projection", seed=seed)
        for beta in (0.1, 0.4, 0.8):
            dr, _ = ellipse_semi_axes(CFG, 16, vec @ vec, beta, BOB.theta_rad)
            probe = Location(BOB.r_m + dr, BOB.theta_rad)
            got = beampattern_taylor(CFG, vec, BOB, probe)
            assert got == pytest.approx(beta * 256.0, rel=1e-9)
