"""Acceptance suite: the contract checks for this library, one per criterion.

Each test prints a single ``criterion N ... PASS/FAIL`` line with the measured
numbers, then asserts at the stated tolerance.

Three sub-checks (3a, 6b, 8b) encode prose claims that the implemented
closed-form math contradicts; they are asserted verbatim anyway and fail with
full diagnostics rather than being weakened.  The README's "known red
acceptance checks" section and each test's docstring explain why, with the
numbers.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from rfda_secrecy.arraymodel import ArrayConfig, Location, correlation2, steering_vector
from rfda_secrecy.dmsecurity import PowerConfig, an_vector, complex_gaussian, eta
from rfda_secrecy.errors import InfeasibleRateError
from rfda_secrecy.freqdesign import generate_k, rho1, rho2
from rfda_secrecy.reference import beampattern_exact, beampattern_taylor
from rfda_secrecy.secrecyregion import (Scheme, SecrecyRegion, ellipse_semi_axes, m_min,
                                        solve_m_min)
from rfda_secrecy.sweep import (GeneratedK, Mode, default_scenario, mc_capacity, result_csv_text,
                                sweep_bandwidth, sweep_delta, sweep_power, validate_fixtures,
                                write_run)

THETA_B = math.radians(45.0)
REGION = SecrecyRegion(8.0, math.radians(5.0))
CFG16 = ArrayConfig.half_wavelength(16, 1e9, 1e6)


def _report(line: str) -> None:
    print(line)


def _scenario_with_elements(n_elements: int, pt_dbm: float, seed: int = 1):
    return default_scenario(
        array=ArrayConfig.half_wavelength(n_elements, 1e9, 1e6),
        power=PowerConfig(pt_dbm, 0.0, 0.0, 0.6),
        k_source=GeneratedK(10405.0, "projection", seed))


def test_criterion_1_minimum_element_count():
    "Closed-form element minimum at beta=0.4 reproduces 15.73 +/- 0.05."
    start = time.perf_counter()
    value = m_min(0.4, REGION, THETA_B, CFG16)
    elapsed = time.perf_counter() - start
    ok = abs(value - 15.73) <= 0.05
    _report(f"criterion 1 (element minimum): {'PASS' if ok else 'FAIL'} — "
            f"m_min = {value:.4f}, target 15.73 +/- 0.05, {elapsed:.3f}s")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_fixture_consistency():
    "Fixture rows: squared norm within 0.5 %, span within 2 MHz of nominal."
    start = time.perf_counter()
    report = validate_fixtures()
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{r['label']}: |k|^2={r['k_squared']:.1f} "
                       f"span={r['span_mhz']:.1f}" for r in report["rows"])
    _report(f"criterion 2 (fixture consistency): "
            f"{'PASS' if report['ok'] else 'FAIL'} — {detail}, {elapsed:.3f}s")
    for row in report["rows"]:
        assert row["k_squared_ok"], row
        assert row["span_ok"], row
        assert row["sum_ok"], row
    assert report["ok"]
    assert elapsed < 1.0


def _power_series(n_elements: int):
    s = _scenario_with_elements(n_elements, pt_dbm=30.0)
    grid = [float(p) for p in range(0, 31)]
    result = sweep_power(s, grid)
    return grid, result.series["with_an"], result.series["without_an"]


def test_criterion_3a_small_array_an_dominates_everywhere():
    """With 15 elements the AN scheme is claimed to win at every power level.

    KNOWN RED: at low transmit power the bounds expand to
    C_AN ~ delta*mu*(1-beta/eps) and C ~ mu*(1-beta/eps), so the signal-only
    scheme exceeds the AN scheme by a factor 1/delta for any beta < 1; the
    crossover sits near 13 dBm here.  Asserted verbatim regardless.
    """
    start = time.perf_counter()
    grid, with_an, without_an = _power_series(15)
    elapsed = time.perf_counter() - start
    violations = [(pt, a, b) for pt, a, b in zip(grid, with_an, without_an)
                  if a < b]
    ok = not violations
    _report(f"criterion 3a (15-element power sweep): {'PASS' if ok else 'FAIL'} — "
            f"{len(violations)} of {len(grid)} points have signal-only above AN"
            + (f"; first at {violations[0][0]:.0f} dBm "
               f"(AN {violations[0][1]:.3f} vs {violations[0][2]:.3f})"
               if violations else "")
            + f", {elapsed:.1f}s")
    assert elapsed < 10.0
    assert ok, (f"AN lower bound falls below the signal-only bound at "
                f"{[v[0] for v in violations]} dBm")


def test_criterion_3b_large_array_single_crossover():
    "With 256 elements there is one crossover power below which AN loses."
    start = time.perf_counter()
    grid, with_an, without_an = _power_series(256)
    elapsed = time.perf_counter() - start
    diffs = [a - b for a, b in zip(with_an, without_an)]
    above = [d >= 0 for d in diffs]
    transitions = sum(1 for x, y in zip(above, above[1:]) if x != y)
    crossover_exists = any(above) and not above[0]
    ok = transitions == 1 and crossover_exists
    crossover = grid[above.index(True)] if any(above) else None
    _report(f"criterion 3b (256-element crossover): {'PASS' if ok else 'FAIL'} — "
            f"crossover at {crossover} dBm, {transitions} sign transition(s), "
            f"{elapsed:.1f}s")
    assert elapsed < 10.0
    assert ok


def test_criterion_4_bandwidth_ordering_monte_carlo():
    "Mean capacity rises across the fixture spread norms, beyond 2 sigma."
    start = time.perf_counter()
    s = default_scenario(power=PowerConfig(20.0, 0.0, 0.0, 0.6),
                         mode=Mode.MONTE_CARLO)
    result = sweep_bandwidth(s, trials=10000, seed=0)
    elapsed = time.perf_counter() - start
    ok = True
    details = []
    for scheme in ("with_an", "without_an"):
        means = result.series[scheme]
        errs = result.series[f"{scheme}_stderr"]
        for i in range(len(means) - 1):
            sep = means[i + 1] - means[i]
            combined = math.hypot(errs[i], errs[i + 1])
            ok = ok and sep > 2.0 * combined
        details.append(f"{scheme}: " + " -> ".join(f"{m:.3f}" for m in means))
    _report(f"criterion 4 (bandwidth ordering, MC): {'PASS' if ok else 'FAIL'} — "
            + "; ".join(details) + f", {elapsed:.1f}s")
    assert ok
    assert elapsed < 30.0


def _unimodal(values) -> bool:
    peak = values.index(max(values))
    rising = all(a <= b + 1e-12 for a, b in zip(values[:peak + 1],
                                                values[1:peak + 1]))
    falling = all(a >= b - 1e-12 for a, b in zip(values[peak:], values[peak + 1:]))
    return rising and falling


def test_criterion_5_power_split_unimodal():
    "AN capacity vs the power split is unimodal; the best split grows with M."
    start = time.perf_counter()
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    argmaxes = []
    all_unimodal = True
    for n_elements in (16, 32, 256):
        s = _scenario_with_elements(n_elements, pt_dbm=30.0)
        series = sweep_delta(s, grid, schemes=(Scheme.WITH_AN,)).series["with_an"]
        all_unimodal = all_unimodal and _unimodal(series)
        argmaxes.append(grid[series.index(max(series))])
    increasing = all(a <= b for a, b in zip(argmaxes, argmaxes[1:]))
    elapsed = time.perf_counter() - start
    ok = all_unimodal and increasing
    _report(f"criterion 5 (power-split sweep): {'PASS' if ok else 'FAIL'} — "
            f"argmax delta = {argmaxes} for M = [16, 32, 256], {elapsed:.1f}s")
    assert all_unimodal
    assert increasing
    assert elapsed < 10.0


def _rate_solver_table():
    rs_grid = [0.5 * i for i in range(1, 13)]
    powers = (20.0, 30.0, 40.0)
    table = {}
    for scheme in Scheme:
        for pt in powers:
            power = PowerConfig(pt, 0.0, 0.0, 0.6)
            column = []
            for rs in rs_grid:
                try:
                    column.append(solve_m_min(rs, power, REGION, THETA_B, CFG16,
                                              scheme))
                except InfeasibleRateError:
                    column.append(None)
            table[scheme, pt] = column
    return rs_grid, powers, table


def test_criterion_6a_rate_solver_monotone():
    "Element minimum grows with the rate target and shrinks with power."
    start = time.perf_counter()
    rs_grid, powers, table = _rate_solver_table()
    ok = True
    for (scheme, pt), column in table.items():
        feasible = [v for v in column if v is not None]
        ok = ok and all(a <= b for a, b in zip(feasible, feasible[1:]))
    for scheme in Scheme:
        for i, rs in enumerate(rs_grid):
            row = [table[scheme, pt][i] for pt in powers]
            defined = [v for v in row if v is not None]
            ok = ok and all(a >= b for a, b in zip(defined, defined[1:]))
    elapsed = time.perf_counter() - start
    _report(f"criterion 6a (rate solver monotonicity): {'PASS' if ok else 'FAIL'}"
            f" — grids over rs={rs_grid[0]}..{rs_grid[-1]}, power {powers} dBm, "
            f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 10.0


def test_criterion_6b_power_impact_comparison():
    """Power is claimed to move the signal-only minimum more than the AN one.

    KNOWN RED: the admissible correlation without AN tends to eps/2^rate and
    barely depends on power (the eavesdropper's SNR scales exactly like the
    intended receiver's), while the AN floor keeps growing with power; the
    measured variation across 20..40 dBm is 0..1 elements without AN versus
    up to ~16 with AN.  Asserted verbatim regardless.
    """
    start = time.perf_counter()
    rs_grid, powers, table = _rate_solver_table()

    def total_variation(scheme):
        total = 0
        per_rs = []
        for i in range(len(rs_grid)):
            row = [table[scheme, pt][i] for pt in powers]
            defined = [v for v in row if v is not None]
            tv = sum(abs(b - a) for a, b in zip(defined, defined[1:]))
            per_rs.append(tv)
            total += tv
        return total, per_rs

    tv_no_an, per_no_an = total_variation(Scheme.WITHOUT_AN)
    tv_an, per_an = total_variation(Scheme.WITH_AN)
    elapsed = time.perf_counter() - start
    ok = tv_no_an > tv_an
    _report(f"criterion 6b (power impact comparison): {'PASS' if ok else 'FAIL'}"
            f" — total variation across power: signal-only {tv_no_an} vs "
            f"AN {tv_an} (per-rate: {per_no_an} vs {per_an}), {elapsed:.1f}s")
    assert elapsed < 10.0
    assert ok, (f"power moves the AN minimum more (TV {tv_an}) than the "
                f"signal-only minimum (TV {tv_no_an})")


def test_criterion_7_randomized_invariant_suite():
    "Randomized structural invariants of the whole chain (>= 200 cases each)."
    start = time.perf_counter()
    rng = np.random.default_rng(123)

    # steering vectors stay unit norm
    for _ in range(200):
        m = int(rng.integers(1, 33))
        cfg = ArrayConfig.half_wavelength(m, rng.uniform(5e8, 5e9), 1e6)
        loc = Location(rng.uniform(0, 400), rng.uniform(0.1, math.pi - 0.1))
        h = steering_vector(cfg, rng.standard_normal(m) * 10, loc)
        assert abs(np.linalg.norm(h) - 1.0) < 1e-12

    # AN projection is orthogonal to the intended channel
    for _ in range(200):
        m = int(rng.integers(2, 33))
        h = complex_gaussian(rng, m)
        h /= np.linalg.norm(h)
        w = an_vector(h, complex_gaussian(rng, m))
        assert abs(np.vdot(h, w)) <= 1e-10

    # leakage factor equals the explicit projector-trace oracle
    for _ in range(200):
        m = int(rng.integers(2, 25))
        h = complex_gaussian(rng, m)
        h /= np.linalg.norm(h)
        projector = np.eye(m) - np.outer(h, np.conj(h))
        trace = float(np.trace(projector @ projector).real)
        assert eta(m) == pytest.approx(1.0 / trace, rel=1e-10)

    # second-order pattern never exceeds the exact one; exact peaks at M^2
    for _ in range(200):
        m = int(rng.integers(1, 25))
        cfg = ArrayConfig.half_wavelength(m, 1e9, 1e6)
        k = rng.standard_normal(m) * rng.uniform(0.5, 30)
        bob = Location(rng.uniform(0, 300), rng.uniform(0.2, math.pi - 0.2))
        eve = Location(rng.uniform(0, 300), rng.uniform(0.2, math.pi - 0.2))
        assert (beampattern_taylor(cfg, k, bob, eve)
                <= beampattern_exact(cfg, k, bob, eve) + 1e-9)
        assert beampattern_exact(cfg, k, bob, bob) == pytest.approx(
            m * m, abs=1e-9 * m * m)

    # generated vectors satisfy the ellipse conditions, both methods
    for method, m_lo, m_hi in (("projection", 3, 64), ("eigen", 3, 24)):
        for _ in range(200):
            m = int(rng.integers(m_lo, m_hi + 1))
            k_target = float(rng.uniform(1.0, 2e4))
            vec = generate_k(m, k_target, method, int(rng.integers(0, 2 ** 31)))
            scale = math.sqrt(k_target)
            assert vec @ vec == pytest.approx(k_target, rel=1e-9)
            assert rho1(vec) == pytest.approx(2 * m * k_target, rel=1e-9)
            assert abs(rho2(vec)) < 2 * m * 1e-9 * scale

    # AN leakage at a probe averages to eta * (1 - correlation)
    k = rng.standard_normal(16) * 25
    bob = Location(100.0, math.radians(45))
    eve = Location(108.0, math.radians(40))
    h_bob = steering_vector(CFG16, k, bob)
    h_eve = steering_vector(CFG16, k, eve)
    draws = 10000
    z = (rng.standard_normal((draws, 16))
         + 1j * rng.standard_normal((draws, 16))) / math.sqrt(2)
    proj = z - np.outer(z @ np.conj(h_bob), h_bob)
    w = proj / np.linalg.norm(proj, axis=1, keepdims=True)
    an2 = np.abs(w @ np.conj(h_eve)) ** 2
    expected = eta(16) * (1.0 - correlation2(CFG16, k, bob, eve))
    stderr = an2.std(ddof=1) / math.sqrt(draws)
    gap_sigmas = abs(an2.mean() - expected) / stderr
    assert gap_sigmas <= 4.0

    elapsed = time.perf_counter() - start
    _report(f"criterion 7 (invariant suite): PASS — 5 batches of 200 randomized "
            f"cases plus a {draws}-draw isotropy check ({gap_sigmas:.2f} sigma), "
            f"{elapsed:.1f}s")
    assert elapsed < 60.0


def _ellipse_probe_values():
    vec = generate_k(16, 10405.0, "projection", seed=1)
    bob = Location(100.0, THETA_B)
    beta = 0.4
    dr, dtheta = ellipse_semi_axes(CFG16, 16, vec @ vec, beta, THETA_B)
    radial = beampattern_taylor(CFG16, vec, bob, Location(bob.r_m + dr, THETA_B))
    angular = beampattern_taylor(CFG16, vec, bob,
                                 Location(bob.r_m, THETA_B + dtheta))
    return beta * 256.0, radial, angular


def test_criterion_8a_ellipse_radial_vertex():
    "Second-order pattern equals beta*M^2 at the radial ellipse vertex."
    start = time.perf_counter()
    target, radial, _ = _ellipse_probe_values()
    elapsed = time.perf_counter() - start
    rel = abs(radial - target) / target
    ok = rel <= 1e-3
    _report(f"criterion 8a (ellipse radial vertex): {'PASS' if ok else 'FAIL'} — "
            f"pattern {radial:.6f} vs target {target:.1f} (rel {rel:.2e}), "
            f"{elapsed:.3f}s")
    assert ok
    assert elapsed < 1.0


def test_criterion_8b_ellipse_angular_vertex():
    """Second-order pattern is claimed to equal beta*M^2 at the angular vertex.

    KNOWN RED: the 35.9-degree width constant is calibrated against the exact
    pattern (it is the uniform-aperture half-power constant, and indeed the
    exact pattern at this vertex lands within ~1 % of beta*M^2).  The
    second-order expansion would need ~31.6 degrees with a linearized angle
    map; with the 35.9-degree constant it undershoots the target by about
    60 %.  Asserted verbatim regardless.
    """
    start = time.perf_counter()
    target, _, angular = _ellipse_probe_values()
    elapsed = time.perf_counter() - start
    rel = abs(angular - target) / target
    ok = rel <= 1e-3
    _report(f"criterion 8b (ellipse angular vertex): {'PASS' if ok else 'FAIL'} — "
            f"pattern {angular:.4f} vs target {target:.1f} (rel {rel:.2e}), "
            f"{elapsed:.3f}s")
    assert elapsed < 1.0
    assert ok, (f"second-order pattern at the angular vertex is {angular:.2f}, "
                f"not {target:.1f} (relative gap {rel:.1%})")


def test_criterion_9_determinism():
    "Identical configs and seeds reproduce byte-identical sweep artifacts."
    start = time.perf_counter()
    s = default_scenario()
    grid = [0.0, 10.0, 20.0, 30.0]
    lb_text_1 = result_csv_text(sweep_power(s, grid))
    lb_text_2 = result_csv_text(sweep_power(s, grid))
    s_mc = default_scenario(mode=Mode.MONTE_CARLO)
    mc_text_1 = result_csv_text(sweep_power(s_mc, grid, trials=500, seed=21))
    mc_text_2 = result_csv_text(sweep_power(s_mc, grid, trials=500, seed=21))
    byte_identical = lb_text_1 == lb_text_2 and mc_text_1 == mc_text_2
    elapsed = time.perf_counter() - start
    _report(f"criterion 9 (determinism): {'PASS' if byte_identical else 'FAIL'} — "
            f"analytic rerun identical: {lb_text_1 == lb_text_2}, MC rerun "
            f"identical: {mc_text_1 == mc_text_2}, {elapsed:.1f}s")
    assert byte_identical
    assert elapsed < 30.0


def test_criterion_9_run_directory_reproducible(tmp_path):
    "Re-running an unchanged sweep rewrites byte-identical files on disk."
    s = default_scenario()
    result = sweep_power(s, [0.0, 15.0, 30.0])
    run_dir = write_run(result, tmp_path, "sweep-power")
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    result2 = sweep_power(s, [0.0, 15.0, 30.0])
    run_dir2 = write_run(result2, tmp_path, "sweep-power")
    after = {p.name: p.read_bytes() for p in run_dir2.iterdir()}
    identical = run_dir == run_dir2 and before == after
    _report(f"criterion 9 (run directory): {'PASS' if identical else 'FAIL'} — "
            f"{run_dir.name}")
    assert identical
