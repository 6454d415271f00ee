import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rfda_secrecy.arraymodel import (ArrayConfig, Location, SPEED_OF_LIGHT, _steering,
                                     _steering_rows, correlation2, correlation2_outer,
                                     half_wavelength_spacing, steering_vector)
from rfda_secrecy.freqdesign import generate_k
from rfda_secrecy.reference import (beampattern_exact, beampattern_taylor,
                                    correlation2_pointwise, phase_shift, pq_offsets)
from rfda_secrecy.scenario import FIXTURES
from rfda_secrecy.secrecyregion import Scheme, SecrecyRegion, beta_boundary
import rfda_secrecy
from rfda_secrecy import sweep
from rfda_secrecy.sweep import (FixtureK, GeneratedK, beampattern_grid, default_scenario,
                                fixture_vector, mc_capacity)

C = SPEED_OF_LIGHT


def brute_taylor(cfg, k, bob, eve):
    "Literal double sum over element pairs (oracle for beampattern_taylor)."
    p, q = pq_offsets(cfg, bob, eve)
    z = [p * km + q * m for m, km in enumerate(np.asarray(k, dtype=float))]
    return sum(1.0 - 0.5 * (zm - zn) ** 2 for zm in z for zn in z)


def random_case(rng, n_max=24):
    m = int(rng.integers(1, n_max + 1))
    f0 = rng.uniform(5e8, 5e9)
    df = rng.uniform(1e5, 1e7)
    if rng.random() < 0.5:
        cfg = ArrayConfig.half_wavelength(m, f0, df)
    else:
        cfg = ArrayConfig(m, f0, df, rng.uniform(0.01, 0.3))
    k = rng.standard_normal(m) * 3.0
    bob = Location(rng.uniform(0.0, 500.0), rng.uniform(0.1, math.pi - 0.1))
    eve = Location(rng.uniform(0.0, 500.0), rng.uniform(0.1, math.pi - 0.1))
    return cfg, k, bob, eve


def test_half_wavelength_spacing_values():
    assert half_wavelength_spacing(1e9) == pytest.approx(0.149896229, rel=1e-12)
    assert half_wavelength_spacing(2e9) == pytest.approx(
        half_wavelength_spacing(1e9) / 2.0, rel=1e-14)


@pytest.mark.parametrize("f0", [0.0, -1e9])
def test_half_wavelength_spacing_rejects_nonpositive(f0):
    with pytest.raises(ValueError):
        half_wavelength_spacing(f0)


def test_array_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(0, 1e9, 1e6, 0.15)
    with pytest.raises(ValueError):
        ArrayConfig(4, 1e9, -1e6, 0.15)
    cfg = ArrayConfig.half_wavelength(4, 1e9, 1e6)
    assert cfg.spacing_m * cfg.f0_hz == pytest.approx(SPEED_OF_LIGHT / 2.0, rel=0)


def test_location_validation():
    with pytest.raises(ValueError):
        Location(-1.0, 1.0)
    with pytest.raises(ValueError):
        Location(10.0, 0.0)
    with pytest.raises(ValueError):
        Location(10.0, math.pi)


def test_phase_shift_trivial_zeros():
    cfg = ArrayConfig.half_wavelength(4, 1e9, 1e6)
    assert phase_shift(cfg, 0.0, 1, Location(321.0, 1.0)) == 0.0
    # broadside: the index term carries cos(pi/2) ~ 1e-16
    assert abs(phase_shift(cfg, 0.0, 2, Location(50.0, math.pi / 2))) < 1e-9


def test_phase_shift_direct_value():
    cfg = ArrayConfig.half_wavelength(4, 1e9, 1e6)
    got = phase_shift(cfg, 1.0, 2, Location(100.0, math.pi / 2))
    expected = -2.0 * math.pi * (1e6 * 100.0 / C)  # index term vanishes broadside
    assert got == pytest.approx(expected, rel=1e-9)
    assert got == pytest.approx(-2.0958450, abs=5e-7)


def test_phase_shift_index_bounds():
    cfg = ArrayConfig.half_wavelength(4, 1e9, 1e6)
    for bad in (0, 5, -1):
        with pytest.raises(ValueError):
            phase_shift(cfg, 0.0, bad, Location(10.0, 1.0))


def test_steering_vector_single_element():
    cfg = ArrayConfig.half_wavelength(1, 1e9, 1e6)
    h = steering_vector(cfg, [0.0], Location(10.0, 1.0))
    assert h.shape == (1,)
    assert h[0] == pytest.approx(1.0 + 0j, abs=1e-15)


def test_steering_vector_all_phases_zero():
    cfg = ArrayConfig.half_wavelength(2, 1e9, 1e6)
    h = steering_vector(cfg, [0.0, 0.0], Location(0.0, math.pi / 2))
    np.testing.assert_allclose(h, np.ones(2) / math.sqrt(2), atol=1e-12)


def test_steering_vector_length_mismatch():
    cfg = ArrayConfig.half_wavelength(3, 1e9, 1e6)
    with pytest.raises(ValueError):
        steering_vector(cfg, [0.0, 0.0], Location(10.0, 1.0))


def test_pq_offsets_identical_locations():
    cfg = ArrayConfig.half_wavelength(8, 1e9, 1e6)
    loc = Location(100.0, math.radians(45))
    assert pq_offsets(cfg, loc, loc) == (0.0, 0.0)


def test_pq_offsets_half_wavelength_angle():
    # with d*f0 = c/2 the angle offset reduces to pi*(cos(e) - cos(b))
    cfg = ArrayConfig.half_wavelength(8, 1e9, 1e6)
    bob = Location(100.0, math.radians(90))
    eve = Location(100.0, math.radians(60))
    _, q = pq_offsets(cfg, bob, eve)
    assert q == pytest.approx(math.pi / 2, rel=1e-12)


def test_pq_offsets_range_term():
    cfg = ArrayConfig.half_wavelength(8, 1e9, 1e6)
    bob = Location(100.0, math.radians(45))
    eve = Location(175.0, math.radians(45))
    p, q = pq_offsets(cfg, bob, eve)
    assert p == pytest.approx(2.0 * math.pi * 1e6 * 75.0 / C, rel=1e-12)
    assert p == pytest.approx(1.5718837664637613, rel=1e-12)
    assert q == 0.0


def test_correlation2_at_bob_is_one():
    cfg = ArrayConfig.half_wavelength(8, 1e9, 1e6)
    loc = Location(100.0, math.radians(45))
    k = np.arange(8.0) - 3.5
    assert correlation2(cfg, k, loc, loc) == pytest.approx(1.0, abs=1e-12)


def test_correlation2_two_element_closed_form():
    # with k = [1, -1] and equal angles the sum collapses to cos^2(p)
    cfg = ArrayConfig.half_wavelength(2, 1e9, 1e6)
    bob = Location(100.0, math.radians(45))
    eve = Location(175.0, math.radians(45))
    p, _ = pq_offsets(cfg, bob, eve)
    got = correlation2(cfg, [1.0, -1.0], bob, eve)
    assert got == pytest.approx(math.cos(p) ** 2, rel=1e-9)
    assert got == pytest.approx(1.1825245672987104e-06, rel=1e-9)


def test_correlation2_no_frequency_diversity_is_range_blind():
    cfg = ArrayConfig.half_wavelength(8, 1e9, 1e6)
    bob = Location(100.0, math.radians(45))
    eve = Location(487.0, math.radians(45))
    assert correlation2(cfg, np.zeros(8), bob, eve) == pytest.approx(1.0, abs=1e-12)


def test_beampattern_exact_values():
    cfg = ArrayConfig.half_wavelength(2, 1e9, 1e6)
    bob = Location(100.0, math.radians(45))
    eve = Location(175.0, math.radians(45))
    assert beampattern_exact(cfg, [1.0, -1.0], bob, bob) == pytest.approx(4.0, abs=1e-9)
    p, _ = pq_offsets(cfg, bob, eve)
    assert beampattern_exact(cfg, [1.0, -1.0], bob, eve) == pytest.approx(
        4.0 * math.cos(p) ** 2, rel=1e-9)


def test_beampattern_exact_antipodal_cancellation():
    # full-wavelength spacing puts q = pi between 60 and 90 degrees
    f0 = 1e9
    cfg = ArrayConfig(2, f0, 1e6, C / f0)
    bob = Location(100.0, math.radians(90))
    eve = Location(100.0, math.radians(60))
    assert pq_offsets(cfg, bob, eve)[1] == pytest.approx(math.pi, rel=1e-12)
    assert beampattern_exact(cfg, [0.0, 0.0], bob, eve) == pytest.approx(0.0, abs=1e-12)


def test_beampattern_taylor_at_bob():
    cfg = ArrayConfig.half_wavelength(5, 1e9, 1e6)
    loc = Location(100.0, math.radians(45))
    k = np.linspace(-2, 2, 5)
    assert beampattern_taylor(cfg, k, loc, loc) == pytest.approx(25.0, abs=1e-9)


def test_beampattern_taylor_three_element_value():
    # pure range offset of p = 0.1 with the index-orthogonal vector [1,-2,1]
    cfg = ArrayConfig.half_wavelength(3, 1e9, 1e6)
    bob = Location(100.0, math.radians(45))
    dr = 0.1 * C / (2.0 * math.pi * cfg.delta_f_hz)
    eve = Location(bob.r_m + dr, bob.theta_rad)
    p, q = pq_offsets(cfg, bob, eve)
    assert p == pytest.approx(0.1, rel=1e-12)
    assert q == 0.0
    got = beampattern_taylor(cfg, [1.0, -2.0, 1.0], bob, eve)
    assert got == pytest.approx(8.82, rel=1e-9)
    assert got == pytest.approx(brute_taylor(cfg, [1.0, -2.0, 1.0], bob, eve), rel=1e-12)


def test_randomized_invariants():
    rng = np.random.default_rng(2024)
    for _ in range(250):
        cfg, k, bob, eve = random_case(rng)
        h = steering_vector(cfg, k, eve)
        assert abs(np.linalg.norm(h) - 1.0) < 1e-12
        np.testing.assert_allclose(np.abs(h), 1.0 / math.sqrt(cfg.n_elements),
                                   atol=1e-12)
        c2 = correlation2(cfg, k, bob, eve)
        assert -1e-12 <= c2 <= 1.0 + 1e-12
        exact = beampattern_exact(cfg, k, bob, eve)
        assert exact == pytest.approx(cfg.n_elements ** 2 * c2, rel=1e-12, abs=1e-12)
        taylor = beampattern_taylor(cfg, k, bob, eve)
        assert taylor <= exact + 1e-9
        assert beampattern_exact(cfg, k, bob, bob) == pytest.approx(
            cfg.n_elements ** 2, abs=1e-9 * cfg.n_elements ** 2)
        # direct inner product of steering vectors agrees with the p/q path
        hb = steering_vector(cfg, k, bob)
        assert abs(np.vdot(h, hb)) ** 2 == pytest.approx(c2, abs=1e-11)


def test_taylor_remainder_bound_small_offsets():
    # fourth-order remainder: |exact - taylor| <= M^2/24 * max|z_m - z_n|^4
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        cfg = ArrayConfig.half_wavelength(m, 1e9, 1e6)
        k = rng.standard_normal(m)
        bob = Location(100.0, rng.uniform(0.5, math.pi - 0.5))
        eve = Location(bob.r_m + rng.uniform(-2.0, 2.0),
                       bob.theta_rad + rng.uniform(-0.01, 0.01))
        p, q = pq_offsets(cfg, bob, eve)
        z = p * k + q * np.arange(m)
        spread = float(z.max() - z.min())
        bound = m * m / 24.0 * spread ** 4
        gap = abs(beampattern_exact(cfg, k, bob, eve)
                  - beampattern_taylor(cfg, k, bob, eve))
        assert gap <= bound + 1e-12


_angles = st.floats(0.1, math.pi - 0.1)


@st.composite
def _geometries(draw):
    "An array, a frequency vector and two locations, as random_case draws them."
    m = draw(st.integers(1, 24))
    cfg = ArrayConfig.half_wavelength(m, draw(st.floats(5e8, 5e9)), draw(st.floats(1e5, 1e7)))
    k = draw(st.lists(st.floats(-50.0, 50.0), min_size=m, max_size=m))
    bob, eve = (Location(draw(st.floats(0.0, 500.0)), draw(_angles)) for _ in range(2))
    return cfg, k, bob, eve


@settings(max_examples=200, deadline=None)
@given(_geometries())
def test_correlation2_lies_in_the_unit_interval_property(case):
    assert -1e-12 <= correlation2(*case) <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(_geometries())
# large, equal phases: the uncentred moments cancelled to 9.000000000014552 here
@example((ArrayConfig(3, 5e8, 779015.0, 0.299792458), [44.0, 44.0, 44.0],
          Location(120.0, 1.0), Location(0.0, 1.0)))
def test_taylor_pattern_never_exceeds_the_exact_pattern_property(case):
    # cos x >= 1 - x^2/2 term by term
    m = case[0].n_elements
    assert beampattern_taylor(*case) <= beampattern_exact(*case) + 1e-12 * m * m


@settings(max_examples=200, deadline=None)
@given(_geometries())
def test_correlation2_matches_the_pointwise_reference_property(case):
    assert correlation2(*case) == pytest.approx(correlation2_pointwise(*case),
                                                rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# the point kernel and the range x angle kernel against the scalar reference
# ---------------------------------------------------------------------------

_BOB = Location(100.0, math.radians(45))
# r = 0, Bob's own range and angle, and angles at the edges of (0, pi)
_GRID_R = [0.0, 37.5, _BOB.r_m, 100.25, 1e4]
_GRID_THETA = [5e-324, 1e-9, 1e-3, 0.7, _BOB.theta_rad, math.pi / 2, math.pi - 1e-3,
               math.pi - 1e-9, float(np.nextafter(math.pi, 0.0))]


def _vectors(m):
    "The frequency vectors a differential case runs: fixture rows and generated ones."
    if m == 16:
        yield from (fixture_vector(label) for label in FIXTURES)
    if m >= 3:
        yield from (generate_k(m, 10405.0, method, seed=3)
                    for method in ("projection", "eigen"))
    else:
        yield np.array([1.0, -1.0])


def _pointwise(cfg, k, bob, r_values, thetas):
    return np.array([[correlation2_pointwise(cfg, k, bob, Location(r, theta))
                      for theta in thetas] for r in r_values])


@pytest.mark.parametrize("m", [2, 3, 16, 64])
def test_correlation2_matches_the_scalar_path_at_the_edges_of_the_grid(m):
    cfg = ArrayConfig.half_wavelength(m, 1e9, 1e6)
    for k in _vectors(m):
        want = _pointwise(cfg, k, _BOB, _GRID_R, _GRID_THETA)
        got = np.array([[correlation2(cfg, k, _BOB, Location(r, theta)) for theta in _GRID_THETA]
                        for r in _GRID_R])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        # the range x angle kernel adds the range and angle phases in the product
        # of their phasors, so a cell may differ by the rounding of that sum:
        # a few ulps of the largest phase, about 1.7e4 rad at r = 1e4 m for M = 3
        p = [pq_offsets(cfg, _BOB, Location(r, _BOB.theta_rad))[0] for r in _GRID_R]
        q = [pq_offsets(cfg, _BOB, Location(_BOB.r_m, theta))[1] for theta in _GRID_THETA]
        largest_phase = np.abs(p).max() * np.abs(k).max() + np.abs(q).max() * (m - 1)
        outer = correlation2_outer(cfg, k, _BOB, _GRID_R, _GRID_THETA)
        assert outer.shape == want.shape
        np.testing.assert_allclose(outer, want, rtol=1e-12,
                                   atol=max(1e-15, 4 * np.finfo(float).eps * largest_phase))
        assert correlation2(cfg, k, _BOB, _BOB) == pytest.approx(1.0, rel=1e-12)


def test_the_correlation_kernels_reject_a_vector_of_the_wrong_length():
    cfg = ArrayConfig.half_wavelength(4, 1e9, 1e6)
    with pytest.raises(ValueError, match="frequency vector has length 5"):
        correlation2_outer(cfg, np.zeros(5), _BOB, [100.0], [1.0])
    with pytest.raises(ValueError, match="frequency vector has length 5"):
        correlation2(cfg, np.zeros(5), _BOB, Location(100.0, 1.0))


def test_a_phase_that_overflows_raises_in_every_correlation_path():
    # the mismatch phase of a 1e300 Hz increment overflows 1e16 m off Bob, where numpy
    # would warn and give NaN; each kernel refuses it, for its callers too
    cfg = ArrayConfig.half_wavelength(16, 1e9, 1e300)
    k = fixture_vector("K10405")
    assert 0.0 <= correlation2_outer(cfg, k, _BOB, [0.0], [_BOB.theta_rad]) <= 1.0 + 1e-12
    message = "a squared correlation is not finite: a range or frequency overflows the phase"
    for compute in (lambda: correlation2_outer(cfg, k, _BOB, [0.0, 1e16], [_BOB.theta_rad]),
                    lambda: correlation2(cfg, k, _BOB, Location(1e16, _BOB.theta_rad)),
                    lambda: beta_boundary(cfg, k, Location(1e17, _BOB.theta_rad),
                                          SecrecyRegion(1e16, 0.1)),
                    lambda: beampattern_grid(default_scenario(array=cfg), [1e16], [1.0])):
        with pytest.raises(ValueError, match=message):
            compute()


@pytest.mark.parametrize("m", [3, 16, 64])
def test_beta_boundary_is_the_largest_scalar_corner_correlation(m):
    cfg = ArrayConfig.half_wavelength(m, 1e9, 1e6)
    for region in (SecrecyRegion(8.0, math.radians(5)), SecrecyRegion(0.5, 1e-3),
                   SecrecyRegion(99.0, math.radians(44))):
        corners = [Location(_BOB.r_m + sr * region.dr_m, _BOB.theta_rad + st * region.dtheta_rad)
                   for sr in (1.0, -1.0) for st in (1.0, -1.0)]
        for k in _vectors(m):
            want = max(correlation2_pointwise(cfg, k, _BOB, corner) for corner in corners)
            assert beta_boundary(cfg, k, _BOB, region) == pytest.approx(want, rel=1e-12)


def _pointwise_rows(s, r_values, thetas, k=None):
    "The grid one location at a time, as rows of (r, theta_deg, power)."
    k = fixture_vector(s.k_source.label) if k is None else k
    return [(float(r), math.degrees(float(theta)),
             correlation2_pointwise(s.array, k, s.bob, Location(float(r), float(theta))))
            for r in r_values for theta in thetas]


def test_beampattern_grid_rows_match_the_pointwise_loop(monkeypatch):
    # 1 km off Bob, the range phases p * k_m reach about 1e3 rad
    r_values = [0.0, 76.0, 99.75, 100.0, 123.5, 1000.0]
    thetas = [math.radians(t) for t in (0.001, 30.0, 44.9, 45.0, 60.1, 179.999)]
    for m, k_source in ((16, FixtureK()), (2, FixtureK()), (3, GeneratedK(10405.0, "eigen", 3)),
                        (64, GeneratedK(10405.0, "projection", 5))):
        s = default_scenario(array=ArrayConfig.half_wavelength(m, 1e9, 1e6), k_source=k_source)
        with monkeypatch.context() as patch:
            if m == 2:  # no k source gives 2 entries, so the grid's k is patched in
                patch.setattr(sweep, "resolve_k", lambda _: np.array([30.0, -12.5]))
            k = sweep.resolve_k(s)
            got = beampattern_grid(s, r_values, thetas)
            assert beampattern_grid(s, [], thetas).shape == (0, len(thetas))
            assert beampattern_grid(s, r_values, []).shape == (len(r_values), 0)
        want = _pointwise_rows(s, r_values, thetas, k)
        # row i holds range i at every angle, so the row-major walk is the pointwise loop's
        assert got.shape == (len(r_values), len(thetas))
        np.testing.assert_allclose(got.ravel(), [row[2] for row in want], rtol=1e-12, atol=1e-15)


def test_beampattern_grid_bits_do_not_depend_on_the_blas_thread_count():
    # a re-run must give the same bytes (criterion 9), and the grid is one BLAS
    # product: 201 ranges x 300 angles x 16 elements is large enough for OpenBLAS
    # to split it over this process's threads, and the subprocess has one thread
    r_values = np.linspace(0.0, 200.0, 201).tolist()
    thetas = np.linspace(0.01, math.pi - 0.01, 300).tolist()
    code = ("import sys; from rfda_secrecy.sweep import beampattern_grid, default_scenario; "
            f"sys.stdout.buffer.write(beampattern_grid(default_scenario(), {r_values!r}, "
            f"{thetas!r}).tobytes())")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(rfda_secrecy.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=60, check=True)
    assert done.stdout == beampattern_grid(default_scenario(), r_values, thetas).tobytes()


@pytest.mark.parametrize("r_values, thetas", [
    ([-1.0, 5.0], [0.0, 1.0]),
    ([1.0, 5.0], [1.0, 0.0, 4.0]),
    ([1.0, 5.0, -2.0, math.nan], [1.0, 2.0]),
    ([1.0, -5.0], [1.0, math.pi]),
    ([math.inf], [1.0]),
])
def test_beampattern_grid_raises_at_the_first_bad_location_of_the_pointwise_loop(
        r_values, thetas):
    s = default_scenario()
    with pytest.raises(ValueError) as want:
        _pointwise_rows(s, r_values, thetas)
    with pytest.raises(ValueError) as got:
        beampattern_grid(s, r_values, thetas)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the steering-vector memo: every trial path shares it, reference included,
# so these tests check it against the uncached body and the per-element phases
# ---------------------------------------------------------------------------

def _uncached(cfg, k, loc):
    return _steering.__wrapped__(cfg.n_elements, cfg.f0_hz, cfg.delta_f_hz, cfg.spacing_m,
                                 np.asarray(k, dtype=float).tobytes(), loc.r_m, loc.theta_rad)


@pytest.mark.parametrize("m", [2, 16, 32])
def test_steering_vector_has_the_bits_of_the_uncached_body_and_the_element_phases(m):
    cfg = ArrayConfig.half_wavelength(m, 1e9, 1e6)
    for k in _vectors(m):
        for loc in (Location(0.0, _BOB.theta_rad), _BOB, Location(_BOB.r_m, 2.0)):
            got = steering_vector(cfg, k, loc)
            assert got.tobytes() == _uncached(cfg, k, loc).tobytes()
            phases = [phase_shift(cfg, km, i, loc) for i, km in enumerate(k, start=1)]
            np.testing.assert_allclose(got, np.exp(1j * np.array(phases)) / math.sqrt(m),
                                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("m", [2, 3, 16, 32, 64])
def test_steering_rows_have_the_bits_of_the_one_row_body_row_by_row(m):
    # mc_capacity computes a generated k's block of vectors in one call
    cfg = ArrayConfig.half_wavelength(m, 1e9, 1e6)
    generated = [generate_k(m, 10405.0, seed=seed) for seed in range(20)] if m >= 3 else []
    ks = np.array([*_vectors(m), *generated,
                   *np.random.default_rng(m).standard_normal((20, m)) * 100.0])
    for loc in (Location(0.0, _BOB.theta_rad), _BOB, Location(1e5, _BOB.theta_rad),
                Location(_BOB.r_m, 1e-9), Location(_BOB.r_m, math.pi - 1e-9)):
        rows = _steering_rows(cfg.n_elements, cfg.f0_hz, cfg.delta_f_hz, cfg.spacing_m, ks,
                              loc.r_m, loc.theta_rad)
        assert rows.shape == ks.shape
        for k, row in zip(ks, rows):
            assert row.tobytes() == _uncached(cfg, k, loc).tobytes()


def test_steering_vector_is_read_only():
    cfg = ArrayConfig.half_wavelength(16, 1e9, 1e6)
    h = steering_vector(cfg, fixture_vector("K10405"), _BOB)
    with pytest.raises(ValueError):
        h[0] = 1.0


def test_steering_vector_keys_the_content_of_k_not_its_identity():
    cfg = ArrayConfig.half_wavelength(16, 1e9, 1e6)
    k = fixture_vector("K10405").copy()
    before = steering_vector(cfg, k, _BOB).copy()
    k[3] += 1.0
    after = steering_vector(cfg, k, _BOB)
    assert after.tobytes() == _uncached(cfg, k, _BOB).tobytes()
    assert not np.array_equal(after, before)


def test_steering_vector_recomputes_an_evicted_key_to_the_same_bits():
    _steering.cache_clear()
    cfg = ArrayConfig.half_wavelength(16, 1e9, 1e6)
    k = fixture_vector("K12905")
    first = steering_vector(cfg, k, _BOB).tobytes()
    for r in range(1, 10):
        steering_vector(cfg, k, Location(float(r), _BOB.theta_rad))
    assert _steering.cache_info().currsize == 8
    assert steering_vector(cfg, k, _BOB).tobytes() == first
    assert _steering.cache_info().misses == 11


def test_steering_vector_at_signed_zero_ranges_shares_one_entry_with_the_uncached_bits():
    _steering.cache_clear()
    cfg = ArrayConfig.half_wavelength(16, 1e9, 1e6)
    k = fixture_vector("K15405")
    assert (k < 0).any()
    plus, minus = Location(0.0, 2.0), Location(-0.0, 2.0)
    assert plus == minus and hash(plus) == hash(minus)
    for loc in (plus, minus, plus):
        assert steering_vector(cfg, k, loc).tobytes() == _uncached(cfg, k, loc).tobytes()
    assert (_steering.cache_info().misses, _steering.cache_info().hits) == (1, 2)


def test_fixture_monte_carlo_builds_each_steering_vector_once():
    # a fixture k aims at Bob and Eve alike on every trial: two entries serve all
    _steering.cache_clear()
    mc_capacity(default_scenario(), 300, 0, Scheme.WITH_AN)
    assert (_steering.cache_info().misses, _steering.cache_info().hits) == (2, 598)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_generated_monte_carlo_draws_one_k_per_trial(scheme, monkeypatch):
    # one generate_k call per trial, whatever the scheme or the block, none for a fixture k
    import rfda_secrecy.sweep as sweep_mod

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return generate_k(*args, **kwargs)

    monkeypatch.setattr(sweep_mod, "generate_k", counted)
    s = default_scenario(array=ArrayConfig.half_wavelength(32, 1e9, 1e6),
                         k_source=GeneratedK(10405.0, "projection", 0))
    mc_capacity(s, 300, 0, scheme)
    assert len(calls) == 300
    mc_capacity(default_scenario(), 300, 0, scheme)
    assert len(calls) == 300
