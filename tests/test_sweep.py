import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rfda_secrecy.arraymodel import (ArrayConfig, Location, _steering, correlation2,
                                     steering_vector)
from rfda_secrecy.dmsecurity import (PowerConfig, an_vector, capacity_bob, capacity_eve_an,
                                     complex_from_parts, complex_gaussian, secrecy_capacity)
from rfda_secrecy.errors import (ConfigError, ConvergenceError, FixtureError, InfeasibleRateError,
                                 RetryRequiredError)
from rfda_secrecy.freqdesign import FIXTURES, default_fixture_path
from rfda_secrecy.reference import c_lb, read_result_csv, trial_capacity, write_result_csv
from rfda_secrecy.secrecyregion import Scheme, SecrecyRegion
from rfda_secrecy.svgchart import line_chart
from rfda_secrecy.sweep import (DEFAULT_TRIALS, ESTIMATORS, LB_AT_BETA_READS, READS, _BLOCK,
                                FixtureK, GeneratedK, Mode, Scenario, SweepResult, _mc_draws, _point_seed,
                                _trial_streams, beampattern_grid, beta_for_scenario, config_hash,
                                default_scenario, estimator, fixture_vector, lb_capacity,
                                mc_capacity, resolve_k, result_csv_text, scenario_from_config,
                                scenario_to_config, sweep_bandwidth, sweep_delta, sweep_power,
                                sweep_rate, validate_fixtures, write_run)

FIXTURE_HEADER = "label," + ",".join(f"m{i}" for i in range(1, 17))


def test_default_scenario_reference_values():
    s = default_scenario()
    assert s.array.n_elements == 16
    assert s.array.f0_hz == 1e9
    assert s.array.delta_f_hz == 1e6
    assert s.array.spacing_m == pytest.approx(0.149896229, rel=1e-12)
    assert (s.bob.r_m, math.degrees(s.bob.theta_rad)) == (100.0, 45.0)
    assert (s.eve.r_m, math.degrees(s.eve.theta_rad)) == pytest.approx((108.0, 40.0))
    assert s.region.dr_m == 8.0
    assert math.degrees(s.region.dtheta_rad) == pytest.approx(5.0)
    assert (s.power.sigma_b2_dbm, s.power.sigma_e2_dbm) == (0.0, 0.0)
    assert s.power.delta == 0.6
    assert s.k_source == FixtureK("K10405")
    assert s.mode is Mode.ANALYTIC_LB


def test_scenario_config_round_trip():
    s = default_scenario(k_source=GeneratedK(10405.0, "eigen", 7),
                         mode=Mode.MONTE_CARLO)
    cfg = scenario_to_config(s)
    assert scenario_from_config(cfg) == s
    # and the dict itself survives a JSON round trip
    assert scenario_from_config(json.loads(json.dumps(cfg))) == s


def test_scenario_from_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="mystery"):
        scenario_from_config({"mystery": 1})
    with pytest.raises(ConfigError, match="array"):
        scenario_from_config({"array": {"M": 8, "turbo": True}})
    with pytest.raises(ConfigError):
        scenario_from_config({"array": {"spacing": {"feet": 2}}})
    with pytest.raises(ConfigError):
        scenario_from_config({"k_source": {"type": "quantum"}})
    with pytest.raises(ConfigError):
        scenario_from_config({"k_source": {"type": "generated"}})
    with pytest.raises(ConfigError):
        scenario_from_config({"mode": "magic"})
    with pytest.raises(ConfigError):
        scenario_from_config({"bob": {"r_m": -5.0}})


def test_scenario_from_config_spacing_forms():
    half = scenario_from_config({"array": {"M": 8, "spacing": "half_wavelength"}})
    assert half.array.spacing_m == pytest.approx(0.149896229, rel=1e-12)
    metric = scenario_from_config({"array": {"spacing": {"meters": 0.2}}})
    assert metric.array.spacing_m == 0.2
    bare = scenario_from_config({"array": {"spacing": 0.25}})
    assert bare.array.spacing_m == 0.25


def test_readme_config_example_is_a_valid_config():
    # the README's example must use only keys the schema has; its values are
    # the defaults, with a generated k source
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(examples) == 1
    assert scenario_from_config(json.loads(examples[0])) == default_scenario(
        k_source=GeneratedK(10405.0, "projection", 1))


def test_config_hash_sensitivity():
    a = scenario_to_config(default_scenario())
    b = scenario_to_config(default_scenario())
    assert config_hash(a) == config_hash(b)
    c = scenario_to_config(default_scenario(power=replace(default_scenario().power,
                                                          pt_dbm=20.0)))
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 12


def test_fixture_vector_lookup():
    k = fixture_vector("K12905")
    assert k @ k == pytest.approx(12905.0, rel=0.005)
    with pytest.raises(FixtureError):
        fixture_vector("K99999")


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("trials", [1, 300])
def test_fixture_monte_carlo_parses_the_table_once_per_call(tmp_path, monkeypatch, trials,
                                                            scheme):
    import rfda_secrecy.sweep as sweep_mod

    table = tmp_path / "table.csv"
    table.write_text(default_fixture_path().read_text())
    real, calls = sweep_mod.load_frequency_table, []
    monkeypatch.setattr(sweep_mod, "load_frequency_table",
                        lambda path: calls.append(path) or real(path))
    s = default_scenario(mode=Mode.MONTE_CARLO, k_source=FixtureK("K12905", str(table)))
    first = mc_capacity(s, trials, 3, scheme)
    assert calls == [str(table)]
    # nothing is kept between calls: the next one reads the table again
    assert mc_capacity(s, trials, 3, scheme) == first
    assert calls == [str(table)] * 2
    assert first == mc_capacity(replace(s, k_source=FixtureK("K12905")), trials, 3, scheme)


def test_resolve_k_generated_deterministic():
    s = default_scenario(k_source=GeneratedK(500.0, "projection", 3))
    a, b = resolve_k(s), resolve_k(s)
    np.testing.assert_array_equal(a, b)
    assert a @ a == pytest.approx(500.0, rel=1e-9)


def test_beta_for_scenario_fixture_and_generated():
    s = default_scenario()
    assert beta_for_scenario(s) == pytest.approx(0.22056263365266987, rel=1e-9)
    g = default_scenario(k_source=GeneratedK(10405.0, "projection", 1))
    b1 = beta_for_scenario(g, n_seeds=20)
    b2 = beta_for_scenario(g, n_seeds=20)
    assert b1 == b2
    assert 0.0 < b1 < 1.0


def test_beta_for_scenario_needs_a_seed_for_generated_k():
    g = default_scenario(k_source=GeneratedK(10405.0, "projection", 1))
    with pytest.raises(ValueError, match="n_seeds"):
        beta_for_scenario(g, n_seeds=0)
    # a fixture vector gives one deterministic value and draws no seeds
    assert beta_for_scenario(default_scenario(), n_seeds=0) == beta_for_scenario(
        default_scenario())


def test_lb_capacity_reference_points():
    s = default_scenario()
    assert lb_capacity(s, Scheme.WITH_AN, beta=0.4) == pytest.approx(
        5.313059472767647, rel=1e-12)
    assert lb_capacity(s, Scheme.WITH_AN, beta=0.0) == pytest.approx(
        capacity_bob(s.power), rel=1e-12)
    # delta = 1 makes the AN scheme collapse onto the signal-only bound
    s1 = default_scenario(power=replace(s.power, delta=1.0))
    assert lb_capacity(s1, Scheme.WITH_AN, beta=0.3) == c_lb(s1.power, 0.3)


@settings(max_examples=200, deadline=None)
@given(pt=st.floats(-30.0, 60.0), sigma_e2=st.floats(-20.0, 20.0),
       delta=st.floats(0.0, 1.0), beta=st.floats(0.0, 1.0), m=st.integers(1, 64))
def test_lb_capacity_signal_only_is_the_an_bound_at_delta_1(pt, sigma_e2, delta, beta, m):
    # bit for bit against the signal-only closed form, a 1-element array included
    s = default_scenario(array=ArrayConfig.half_wavelength(m, 1e9, 1e6),
                         power=PowerConfig(pt, 0.0, sigma_e2, delta))
    assert lb_capacity(s, Scheme.WITHOUT_AN, beta=beta) == c_lb(s.power, beta)


@pytest.mark.parametrize("delta", [0.6, 1.0])
def test_the_schemes_coincide_at_delta_1(delta):
    s = default_scenario(power=PowerConfig(20.0, delta=delta),
                         k_source=GeneratedK(10405.0, "projection", 2))
    beta = beta_for_scenario(s, n_seeds=4)
    lb = [lb_capacity(s, scheme, beta) for scheme in Scheme]
    mc = [mc_capacity(replace(s, mode=Mode.MONTE_CARLO), 30, 7, scheme) for scheme in Scheme]
    # the default scheme is the AN scheme at the scenario's own split
    assert mc_capacity(replace(s, mode=Mode.MONTE_CARLO), 30, 7) == mc[0]
    for values in (lb, mc):
        # at delta = 1 no power feeds AN, and the two schemes coincide
        assert (values[0] == values[1]) is (delta == 1.0)


def test_mc_capacity_validation_and_degenerate_case():
    s = default_scenario(mode=Mode.MONTE_CARLO)
    with pytest.raises(ValueError):
        mc_capacity(s, 0, seed=1)
    # an eavesdropper exactly on the intended receiver with all power on the
    # signal sees the same channel: zero secrecy capacity in every trial
    on_top = default_scenario(eve=s.bob, power=replace(s.power, delta=1.0),
                              mode=Mode.MONTE_CARLO)
    mean, err = mc_capacity(on_top, 64, seed=2)
    assert mean == 0.0
    assert err == 0.0


def test_mc_capacity_deterministic_and_parallel_invariant():
    s = default_scenario(mode=Mode.MONTE_CARLO,
                         power=replace(default_scenario().power, pt_dbm=20.0))
    a = mc_capacity(s, 400, seed=11)
    b = mc_capacity(s, 400, seed=11)
    c = mc_capacity(s, 400, seed=11)
    d = mc_capacity(s, 400, seed=12)
    assert a == b == c
    assert a != d
    g = default_scenario(mode=Mode.MONTE_CARLO,
                         k_source=GeneratedK(10405.0, "projection", 5))
    ga = mc_capacity(g, 100, seed=3)
    gb = mc_capacity(g, 100, seed=3)
    assert ga == gb


@pytest.mark.parametrize("failures, raises", [(63, False), (1000, True)])
def test_an_redraw_loop_is_capped_at_64_attempts(monkeypatch, failures, raises):
    import rfda_secrecy.sweep as sweep_mod

    real = sweep_mod.an_vector
    calls = []

    def flaky(h, z):
        calls.append(None)
        if len(calls) <= failures:
            raise RetryRequiredError("noise draw parallel to the channel")
        return real(h, z)

    monkeypatch.setattr(sweep_mod, "an_vector", flaky)
    s = default_scenario(mode=Mode.MONTE_CARLO)
    if raises:
        with pytest.raises(ConvergenceError):
            mc_capacity(s, 1, seed=0, scheme=Scheme.WITH_AN)
        assert len(calls) == 64
    else:
        mean, _ = mc_capacity(s, 1, seed=0, scheme=Scheme.WITH_AN)
        assert math.isfinite(mean)
        assert len(calls) == 64


def test_mc_capacity_fixture_regression():
    s = default_scenario(mode=Mode.MONTE_CARLO,
                         power=replace(default_scenario().power, pt_dbm=20.0))
    mean, err = mc_capacity(s, 10000, seed=0)
    assert mean == pytest.approx(4.761197063001958, rel=1e-9)
    assert err == pytest.approx(0.0046689783671470635, rel=1e-6)


POINT_SEED = _point_seed(3, 1)  # >= 2**63: Philox keys it through float64


def _mean_stderr(values) -> tuple[float, float]:
    "The reduction of mc_capacity, written out for the per-trial oracle."
    values = np.array(values)
    mean = float(values.mean())
    if values.size == 1 or values.max() == values.min():
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


_MC_CASES = {
    "fixture-an": (default_scenario(), Scheme.WITH_AN),
    "fixture-no-an": (default_scenario(), Scheme.WITHOUT_AN),
    "fixture-delta-1": (default_scenario(power=PowerConfig(30.0, delta=1.0)),
                        Scheme.WITH_AN),
    "projection": (default_scenario(k_source=GeneratedK(10405.0, "projection", 2)),
                   Scheme.WITH_AN),
    "eigen": (default_scenario(k_source=GeneratedK(10405.0, "eigen", 2)), Scheme.WITH_AN),
    "m3": (default_scenario(array=ArrayConfig.half_wavelength(3, 1e9, 1e6),
                            k_source=GeneratedK(50.0, "projection", 1)), Scheme.WITH_AN),
}


@pytest.mark.parametrize("seed", [0, 2 ** 53 + 1, POINT_SEED])
@pytest.mark.parametrize("case", sorted(_MC_CASES))
def test_mc_capacity_equals_the_per_trial_reference(case, seed):
    s, scheme = _MC_CASES[case]
    s = replace(s, mode=Mode.MONTE_CARLO, power=replace(s.power, pt_dbm=20.0))
    for trials in (1, 12):
        values = [trial_capacity(s, scheme, seed, t) for t in range(trials)]
        assert mc_capacity(s, trials, seed, scheme) == _mean_stderr(values)


_BLOCK_CASES = {
    "fixture": default_scenario(mode=Mode.MONTE_CARLO),
    "generated": default_scenario(mode=Mode.MONTE_CARLO,
                                  k_source=GeneratedK(10405.0, "projection", 2)),
    # the benchmark's generated-k array size, and the other k method
    "generated-m32": default_scenario(mode=Mode.MONTE_CARLO,
                                      array=ArrayConfig.half_wavelength(32, 1e9, 1e6),
                                      k_source=GeneratedK(10405.0, "projection", 2)),
    "eigen": default_scenario(mode=Mode.MONTE_CARLO, k_source=GeneratedK(10405.0, "eigen", 2)),
}


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_mc_capacity_blocks_equal_the_per_trial_reference(case, scheme):
    # the last block one short of full, full, holding one trial, and the third
    s = _BLOCK_CASES[case]
    values = [trial_capacity(s, scheme, POINT_SEED, t) for t in range(2 * _BLOCK + 1)]
    for trials in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        assert mc_capacity(s, trials, POINT_SEED, scheme) == _mean_stderr(values[:trials])


@pytest.mark.parametrize("case", ["generated", "generated-m32", "eigen"])
def test_generated_monte_carlo_computes_its_steering_vectors_outside_the_memo(case):
    # a generated k misses the memo on every trial, so its block computes them stacked
    before = _steering.cache_info()
    mc_capacity(_BLOCK_CASES[case], _BLOCK + 1, POINT_SEED)
    assert _steering.cache_info() == before


@pytest.mark.parametrize("m", [2, 3, 16, 32])
def test_block_noise_has_the_bits_of_complex_gaussian_row_by_row(m):
    # mc_capacity draws each trial's AN parts into its block row and converts the
    # block at once; two blocks of rows, each against its trial's complex_gaussian
    stream, fresh = _trial_streams(POINT_SEED), _trial_streams(POINT_SEED)
    noise = np.empty((_BLOCK, 2, m))
    for start in (0, _BLOCK):
        for j in range(_BLOCK):
            stream(start + j).standard_normal(out=noise[j])
        z = complex_from_parts(noise)
        for j in range(_BLOCK):
            assert z[j].tobytes() == complex_gaussian(fresh(start + j), m).tobytes()


@pytest.mark.parametrize("parallel", [63, 64])
@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_parallel_draws_mid_block_are_redrawn_from_the_trials_stream(case, parallel,
                                                                     monkeypatch):
    import rfda_secrecy.dmsecurity as dmsecurity_mod
    import rfda_secrecy.sweep as sweep_mod

    s = _BLOCK_CASES[case]
    # the first AN draws of one trial in the middle of the second block, each
    # turned parallel to that trial's channel to Bob wherever it is drawn: after
    # 63 of them the 64th draw, the last allowed, is used
    bad = _BLOCK + _BLOCK // 2
    rng = _trial_streams(POINT_SEED)(bad)
    k = resolve_k(s, rng)
    turned = {complex_gaussian(rng, s.array.n_elements).tobytes() for _ in range(parallel)}
    h_bob = steering_vector(s.array, k, s.bob)
    with pytest.raises(RetryRequiredError):
        an_vector(h_bob, (0.6 - 0.8j) * h_bob)

    def parallel_at_bad(parts):
        # every AN draw, of a block or of complex_gaussian, becomes complex here
        z = complex_from_parts(parts)
        for row in z.reshape(-1, z.shape[-1]):
            if row.tobytes() in turned:
                row[:] = (0.6 - 0.8j) * h_bob
        return z

    for module in (sweep_mod, dmsecurity_mod):
        monkeypatch.setattr(module, "complex_from_parts", parallel_at_bad)
    trials = 2 * _BLOCK + 1
    if parallel == 64:
        for run in (lambda: trial_capacity(s, Scheme.WITH_AN, POINT_SEED, bad),
                    lambda: mc_capacity(s, trials, POINT_SEED)):
            with pytest.raises(ConvergenceError, match=f"^trial {bad}: 64 AN draws"):
                run()
        return
    values = [trial_capacity(s, Scheme.WITH_AN, POINT_SEED, t) for t in range(trials)]
    assert mc_capacity(s, trials, POINT_SEED) == _mean_stderr(values)


@pytest.mark.parametrize("k_source, m", [
    (FixtureK("K12905"), 16),
    (GeneratedK(10405.0, "projection", 2), 16),
    (GeneratedK(10405.0, "eigen", 2), 32),
])
def test_one_draw_pass_priced_at_each_power_and_split_is_mc_capacity(k_source, m):
    # the draws do not depend on the power: one pass, priced at every point, gives
    # each point's mc_capacity at the same seed; 130 trials cross a block edge
    s = default_scenario(mode=Mode.MONTE_CARLO, k_source=k_source,
                         array=ArrayConfig.half_wavelength(m, 1e9, 1e6))
    trials = _BLOCK + 2
    corr2, an2 = _mc_draws(s, trials, POINT_SEED, an=True)
    signal_corr2, no_an2 = _mc_draws(s, trials, POINT_SEED, an=False)
    assert signal_corr2.tobytes() == corr2.tobytes() and no_an2 == 0.0
    for pt_dbm in (0.0, 20.0, 40.0):
        for delta in (0.2, 0.6, 0.95):
            point = replace(s, power=replace(s.power, pt_dbm=pt_dbm, delta=delta))
            values = secrecy_capacity(capacity_bob(point.power),
                                      capacity_eve_an(point.power, corr2, an2))
            assert mc_capacity(point, trials, POINT_SEED) == _mean_stderr(values)
        power = Scheme.WITHOUT_AN.power(point.power)
        values = secrecy_capacity(capacity_bob(power), capacity_eve_an(power, signal_corr2, 0.0))
        assert mc_capacity(point, trials, POINT_SEED, Scheme.WITHOUT_AN) == _mean_stderr(values)


def test_mc_capacity_memory_does_not_grow_with_trials():
    s = default_scenario(mode=Mode.MONTE_CARLO, array=ArrayConfig.half_wavelength(64, 1e9, 1e6),
                         k_source=GeneratedK(10405.0, "projection", 0))
    mc_capacity(s, 2, seed=1)  # fill the caches first
    peaks = {}
    for trials in (500, 5000):
        tracemalloc.start()
        try:
            mc_capacity(s, trials, seed=1)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the values array grows by 8 bytes a trial; one (trials, M) complex array
    # of channels or draws would grow by 1 KiB a trial
    assert peaks[5000] - peaks[500] <= 32 * 4500


@pytest.mark.parametrize("seed", [0, 2 ** 53 + 1, POINT_SEED, 2 ** 63 + 1, 2 ** 64 - 2 ** 11])
def test_trial_streams_draw_what_a_fresh_philox_draws(seed):
    def draws(rng):
        return np.concatenate([rng.standard_normal(9), rng.random(3),
                               rng.integers(0, 2 ** 32, 5, dtype=np.uint32)])

    stream = _trial_streams(seed)
    for t in (0, 1, 9999):
        # leave the previous trial's stream advanced, with a 32-bit half buffered
        stream(t + 5).integers(0, 2 ** 32, 3, dtype=np.uint32)
        expected = draws(np.random.Generator(np.random.Philox(key=[seed, t])))
        assert np.array_equal(draws(stream(t)), expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trial_streams_wrap_a_key_that_rounds_to_2_64():
    # through float64, 2**64 - 1 rounds to 2**64: the key wraps to 0 rather than
    # taking whatever an out-of-range cast gives, and nothing warns
    stream = _trial_streams(2 ** 64 - 1)
    for t in (0, 1, 9999):
        expected = np.random.Generator(np.random.Philox(key=[0, t])).standard_normal(9)
        assert np.array_equal(stream(t).standard_normal(9), expected)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 2 ** 12), trial=st.integers(0, 10 ** 6),
       m=st.integers(3, 40), eve_r=st.floats(0.0, 500.0),
       eve_theta=st.floats(0.01, math.pi - 0.01))
def test_an_leakage_never_exceeds_the_signal_free_share(seed, trial, m, eve_r, eve_theta):
    # per trial, an2 / (1 - corr2) lies in [0, 1]: the unit AN direction is
    # orthogonal to h_bob, so it sees at most the part of h_eve off h_bob
    s = default_scenario(array=ArrayConfig.half_wavelength(m, 1e9, 1e6),
                         eve=Location(eve_r, eve_theta),
                         k_source=GeneratedK(10405.0, "projection", 0))
    rng = _trial_streams(seed)(trial)
    k = resolve_k(s, rng)
    h_bob = steering_vector(s.array, k, s.bob)
    h_eve = steering_vector(s.array, k, s.eve)
    w = an_vector(h_bob, complex_gaussian(rng, m))
    an2 = float(np.abs(np.vdot(h_eve, w)) ** 2)
    corr2 = correlation2(s.array, k, s.bob, s.eve)
    assert 0.0 <= an2 <= (1.0 - corr2) * (1.0 + 1e-9) + 1e-12


def test_sweep_result_validation():
    with pytest.raises(ValueError):
        SweepResult("x", [], {})
    with pytest.raises(ValueError):
        SweepResult("x", [1.0, 1.0], {"y": [0.0, 0.0]})
    with pytest.raises(ValueError):
        SweepResult("x", [1.0, 2.0], {"y": [0.0]})


def test_csv_round_trip_with_gaps(tmp_path):
    result = SweepResult("rs_bits", [0.5, 1.0, 1.5],
                         {"with_an": [2.0, None, 17.0],
                          "without_an": [11.0, 15.0, None]})
    path = tmp_path / "result.csv"
    write_result_csv(result, path)
    loaded = read_result_csv(path)
    assert loaded.axis_name == result.axis_name
    assert loaded.axis_values == result.axis_values
    assert loaded.series == result.series
    text = result_csv_text(result)
    assert "np" not in text  # floats must serialize bare
    assert "1.0,,15.0" in text  # explicit gaps stay visible
    assert "1.5,17.0," in text


def test_csv_round_trip_preserves_full_precision(tmp_path):
    values = [0.1 + 0.7, math.pi, 1e-17, 12345.6789012345678]
    result = SweepResult("x", [1.0, 2.0, 3.0, 4.0], {"y": values})
    path = tmp_path / "prec.csv"
    write_result_csv(result, path)
    assert read_result_csv(path).series["y"] == values


def test_sweep_power_lb_shapes_and_delta_independence():
    s = default_scenario()
    grid = [0.0, 5.0, 10.0]
    result = sweep_power(s, grid)
    assert result.axis_name == "pt_dbm"
    assert result.axis_values == grid
    assert set(result.series) == {"with_an", "without_an"}
    assert all(v is not None for v in result.series["with_an"])
    # the signal-only series ignores the power split entirely
    s2 = default_scenario(power=replace(s.power, delta=0.3))
    result2 = sweep_power(s2, grid)
    assert result2.series["without_an"] == result.series["without_an"]
    assert result2.series["with_an"] != result.series["with_an"]


def test_sweep_delta_without_an_is_flat():
    s = default_scenario()
    result = sweep_delta(s, [0.2, 0.4, 0.6, 0.8])
    flat = result.series["without_an"]
    assert max(flat) - min(flat) == 0.0


def test_sweep_bandwidth_axis_and_mc_errors():
    s = default_scenario(mode=Mode.MONTE_CARLO,
                         power=replace(default_scenario().power, pt_dbm=20.0))
    result = sweep_bandwidth(s, trials=50, seed=1)
    assert result.axis_values == [10405.0, 12905.0, 15405.0]
    assert set(result.series) == {"with_an", "with_an_stderr",
                                  "without_an", "without_an_stderr"}
    # fixture vector fixed: the signal-only estimate carries no randomness
    assert result.series["without_an_stderr"] == [0.0, 0.0, 0.0]


def test_sweep_rate_gaps_and_all_infeasible():
    s = default_scenario(power=replace(default_scenario().power, pt_dbm=20.0))
    result = sweep_rate(s, [5.5, 6.0, 6.5])
    an = result.series["with_an"]
    no_an = result.series["without_an"]
    assert an[0] is not None and an[1] is None and an[2] is None
    assert no_an == [21.0, 21.0, 21.0]
    assert result.meta["sweep"]["fixed_eta"] is None
    with pytest.raises(InfeasibleRateError):
        sweep_rate(s, [9.0, 9.5], schemes=(Scheme.WITH_AN,))


def test_sweep_rate_refuses_fixed_eta_when_no_scheme_feeds_an():
    s = default_scenario()
    no_an = replace(s, power=replace(s.power, delta=1.0))
    for scenario, schemes in ((s, (Scheme.WITHOUT_AN,)), (no_an, tuple(Scheme))):
        with pytest.raises(ValueError, match=r"reads no fixed_eta \(--fixed-eta\)"):
            sweep_rate(scenario, [1.0], schemes, fixed_eta=0.5)
    # one scheme that feeds AN reads it
    assert sweep_rate(s, [1.0], fixed_eta=0.5).meta["sweep"]["fixed_eta"] == 0.5


_SETTINGS = {"seed": 3, "trials": 4}
_LB_SETTINGS = {"seed": 3}  # lb refuses a trial count, and accepts the seed unread


@pytest.mark.parametrize("mode, k_source, given, recorded", [
    (Mode.ANALYTIC_LB, FixtureK(), _LB_SETTINGS, {}),
    (Mode.ANALYTIC_LB, GeneratedK(10405.0), {**_LB_SETTINGS, "n_seeds": 5}, {"beta_seeds": 5}),
    (Mode.ANALYTIC_LB, GeneratedK(10405.0), {**_LB_SETTINGS, "beta": 0.3}, {"beta": 0.3}),
    (Mode.MONTE_CARLO, FixtureK(), _SETTINGS, _SETTINGS),
    (Mode.MONTE_CARLO, GeneratedK(10405.0), _SETTINGS, _SETTINGS),
], ids=["lb-fixture", "lb-generated", "lb-generated-at-beta", "mc-fixture", "mc-generated"])
def test_sweep_rate_manifest_records_no_evaluation_settings(mode, k_source, given, recorded):
    # the closed-form rate solver draws nothing and reads no mode, so a seed,
    # mode, trial or beta-seed count in its run id would only split equal runs
    s = default_scenario(mode=mode, k_source=k_source)
    meta = sweep_rate(s, [1.0]).meta
    assert set(meta) == {"config", "sweep", "config_hash", "tool_version"}
    # a capacity sweep records exactly the settings that its mode reads, and its
    # mode only in config: lb reads beta_seeds for a generated k alone, and not
    # at a given beta, which draws no k
    power_meta = sweep_power(s, [0.0], **given).meta
    assert {key: value for key, value in power_meta.items()
            if key not in {"config", "sweep", "config_hash", "tool_version"}} == recorded
    assert power_meta["config"]["mode"] == mode.value


@pytest.mark.parametrize("sweep, grid", [(sweep_power, ([0.0],)), (sweep_delta, ([0.5],)),
                                         (sweep_bandwidth, ())],
                         ids=["power", "delta", "bandwidth"])
def test_lb_sweep_over_a_fixture_k_refuses_a_beta_seed_count(sweep, grid):
    # a fixture row gives one beta whatever the count, so the library refuses the
    # count as the CLI does rather than run as without it
    s = default_scenario()
    with pytest.raises(ValueError, match=r"with a fixture k reads no beta_seeds"):
        sweep(s, *grid, n_seeds=5)


@pytest.mark.parametrize("k_source, extra", [(FixtureK(), {}), (GeneratedK(10405.0), {}),
                                             (GeneratedK(10405.0), {"beta": 0.3})],
                         ids=["fixture", "generated", "generated-at-beta"])
def test_lb_sweep_refuses_a_trial_count(k_source, extra):
    # the lower bound runs no trial, so a given count is refused, not recorded;
    # an unset one resolves to DEFAULT_TRIALS in mc alone
    s = default_scenario(k_source=k_source)
    with pytest.raises(ValueError, match=r"^lb mode reads no trials \(--trials\)$"):
        sweep_power(s, [0.0], trials=4, **extra)
    assert estimator(replace(s, mode=Mode.MONTE_CARLO))[1] == {"seed": 0,
                                                             "trials": DEFAULT_TRIALS}


def test_every_mode_has_an_estimator_whose_unread_keys_are_read_by_capacity():
    # a misspelt unread key would leave the key it meant in every run id, and a
    # misspelt setting the setting it meant in every manifest
    assert set(ESTIMATORS) == set(Mode)
    for unread, _ in ESTIMATORS.values():
        assert unread <= {*READS["capacity"], "beta", "beta_seeds", "seed", "trials"}


@pytest.mark.parametrize("mode, k_source, settings, message", [
    (Mode.MONTE_CARLO, FixtureK(), {"beta": 0.3}, "mc mode reads no beta (--beta)"),
    (Mode.MONTE_CARLO, GeneratedK(10405.0), {"n_seeds": 4},
     "mc mode reads no beta_seeds (--beta-seeds)"),
    (Mode.ANALYTIC_LB, FixtureK(), {"n_seeds": 4},
     "lb mode with a fixture k reads no beta_seeds (--beta-seeds)"),
    (Mode.ANALYTIC_LB, GeneratedK(10405.0), {"beta": 0.3, "n_seeds": 4},
     "lb mode at a given beta (--beta) reads no beta_seeds (--beta-seeds)"),
    (Mode.ANALYTIC_LB, FixtureK(), {"beta": 0.3, "n_seeds": 4},
     "lb mode at a given beta (--beta) reads no beta_seeds (--beta-seeds)"),
    (Mode.ANALYTIC_LB, GeneratedK(10405.0), {"trials": 5}, "lb mode reads no trials (--trials)"),
    # one trial gives no standard error
    (Mode.MONTE_CARLO, GeneratedK(10405.0), {"trials": 1},
     "mc mode needs 2 trials or more (--trials), got 1"),
], ids=["mc-beta", "mc-beta-seeds", "lb-fixture-beta-seeds", "lb-at-beta-beta-seeds",
        "lb-fixture-at-beta-beta-seeds", "lb-trials", "mc-one-trial"])
def test_estimator_refuses_a_setting_its_mode_leaves_unread(mode, k_source, settings, message):
    # one message per refusal, its flag spelt from the setting's name; a given beta
    # names the reason before a fixture k does
    s = default_scenario(mode=mode, k_source=k_source)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        estimator(s, **settings)


def test_a_library_sweep_at_a_given_beta_hashes_only_what_lb_reads_there():
    # lb at a given beta reads lb_capacity's keys alone: a receiver range that moves no
    # value leaves the run id, and the manifest's config holds LB_AT_BETA_READS keys only
    s = default_scenario()
    runs = [sweep_power(p, [0.0, 10.0], beta=0.3)
            for p in (s, replace(s, bob=Location(104.0, s.bob.theta_rad)))]
    assert runs[0].series == runs[1].series
    assert runs[0].meta["config_hash"] == runs[1].meta["config_hash"]
    # LB_AT_BETA_READS, less the power.pt_dbm that the axis sets
    assert runs[0].meta["config"] == {"array": {"M": 16}, "mode": "lb", "power": {
        "sigma_b2_dbm": 0.0, "sigma_e2_dbm": 0.0, "delta": 0.6}}
    assert LB_AT_BETA_READS == {"mode", "array.M", "power.pt_dbm", "power.sigma_b2_dbm",
                                "power.sigma_e2_dbm", "power.delta"}


def test_sweep_rate_csv_keeps_gaps_visible(tmp_path):
    s = default_scenario(power=replace(default_scenario().power, pt_dbm=20.0))
    result = sweep_rate(s, [5.5, 6.0])
    text = result_csv_text(result)
    lines = text.strip().splitlines()
    assert lines[0] == "rs_bits,with_an,without_an"
    assert lines[2].startswith("6.0,,")


def test_write_run_reproducible(tmp_path):
    s = default_scenario()
    result = sweep_power(s, [0.0, 10.0, 20.0])
    run_dir = write_run(result, tmp_path, "sweep-power")
    assert run_dir.name == f"sweep-power-{result.meta['config_hash']}"
    first_csv = (run_dir / "result.csv").read_bytes()
    first_manifest = (run_dir / "manifest.json").read_bytes()
    result2 = sweep_power(s, [0.0, 10.0, 20.0])
    run_dir2 = write_run(result2, tmp_path, "sweep-power")
    assert run_dir2 == run_dir
    assert (run_dir / "result.csv").read_bytes() == first_csv
    assert (run_dir / "manifest.json").read_bytes() == first_manifest
    manifest = json.loads(first_manifest)
    assert manifest["config"]["array"]["M"] == 16
    assert manifest["tool_version"]
    assert manifest["config"]["mode"] == "lb"
    assert manifest["config_hash"] == result.meta["config_hash"]
    loaded = read_result_csv(run_dir / "result.csv")
    assert loaded.axis_values == result.axis_values
    assert loaded.series == result.series


def test_validate_fixtures_pass_and_fail(tmp_path):
    report = validate_fixtures()
    assert report["ok"]
    assert [r["label"] for r in report["rows"]] == ["K10405", "K12905", "K15405"]
    for row in report["rows"]:
        assert row["k_squared_ok"] and row["span_ok"] and row["sum_ok"]
    # corrupt one increment enough to blow both the norm and the span
    rows = (tmp_path / "bad.csv")
    lines = [FIXTURE_HEADER,
             "K10405," + ",".join(["1.0"] * 16)]
    rows.write_text("\n".join(lines) + "\n")
    bad = validate_fixtures(rows)
    assert not bad["ok"]
    assert bad["rows"][0]["label"] == "K10405"
    assert not bad["rows"][0]["k_squared_ok"]
    unknown = tmp_path / "unknown.csv"
    unknown.write_text(FIXTURE_HEADER + "\nK123," + ",".join(["1.0"] * 16) + "\n")
    rep = validate_fixtures(unknown)
    assert not rep["ok"]
    assert rep["rows"][0]["reason"] == "unknown label"
    with pytest.raises(FixtureError):
        validate_fixtures(tmp_path / "missing.csv")


def test_beampattern_grid_normalization():
    s = default_scenario()
    power = beampattern_grid(s, [92.0, 100.0, 108.0],
                             [math.radians(40), math.radians(45)])
    assert power.shape == (3, 2)
    assert power[1, 1] == pytest.approx(1.0, abs=1e-12)  # at Bob, (100 m, 45 deg)
    assert all(0.0 <= p <= 1.0 + 1e-12 for p in power.ravel())


def test_line_chart_renders_series_and_gaps():
    result = SweepResult("pt_dbm", [0.0, 1.0, 2.0],
                         {"with_an": [0.1, None, 0.4],
                          "without_an": [0.2, 0.3, 0.5]})
    svg = line_chart(result, title="demo")
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert "with_an" in svg and "without_an" in svg
    assert "circle" in svg  # the gap isolates a single point
    # with_an is two one-point segments and without_an one polyline: a gap draws nothing
    assert (svg.count("<circle"), svg.count("<polyline")) == (2, 1)
    assert line_chart(result) == line_chart(result)
    # a one-point axis and a flat series each span zero width: both scale finitely
    one_point = line_chart(SweepResult("rs_bits", [1.0], {"with_an": [21.0]}))
    assert "<circle" in one_point
    flat = line_chart(SweepResult("delta", [0.1, 0.5, 0.9], {"without_an": [2.0, 2.0, 2.0]}))
    assert "<polyline" in flat
    for svg in (one_point, flat):
        assert "nan" not in svg and "inf" not in svg
    with pytest.raises(ValueError):
        line_chart(SweepResult("x", [0.0, 1.0], {"y": [None, None]}))


def test_line_chart_draws_the_values_of_an_mc_sweep_and_not_their_stderr():
    values = {"with_an": [1.2, 2.5, 3.1], "without_an": [0.6315, 0.9, 1.4]}
    mc = SweepResult("pt_dbm", [0.0, 1.0, 2.0],
                     {"with_an": values["with_an"], "with_an_stderr": [0.1, 0.2, 0.1],
                      "without_an": values["without_an"], "without_an_stderr": [0.0] * 3})
    svg = line_chart(mc, title="power sweep")
    # the chart of the values alone: same legend, colors and y range (from 0.6315)
    assert svg == line_chart(SweepResult("pt_dbm", [0.0, 1.0, 2.0], values), title="power sweep")
    assert "stderr" not in svg and ">0.6315</text>" in svg


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", [
    lambda v: ArrayConfig(16, v, 1e6, 0.15),
    lambda v: ArrayConfig(16, 1e9, v, 0.15),
    lambda v: ArrayConfig(16, 1e9, 1e6, v),
    lambda v: Location(v, 1.0),
    lambda v: Location(100.0, v),
    lambda v: PowerConfig(v),
    lambda v: PowerConfig(30.0, sigma_b2_dbm=v),
    lambda v: PowerConfig(30.0, sigma_e2_dbm=v),
    lambda v: PowerConfig(30.0, delta=v),
    lambda v: SecrecyRegion(v, 0.1),
    lambda v: SecrecyRegion(8.0, v),
], ids=["f0_hz", "delta_f_hz", "spacing_m", "r_m", "theta_rad",
        "pt_dbm", "sigma_b2_dbm", "sigma_e2_dbm", "delta", "dr_m", "dtheta_rad"])
def test_value_types_reject_non_finite_fields(make, bad):
    with pytest.raises(ValueError):
        make(bad)


def _finite_floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_scenarios = st.builds(
    Scenario,
    array=st.builds(ArrayConfig, st.integers(1, 128), _finite_floats(1e6, 1e11),
                    _finite_floats(1e3, 1e8), _finite_floats(1e-3, 10.0)),
    bob=st.builds(Location, _finite_floats(0.0, 1e4), _finite_floats(1e-3, 3.14)),
    eve=st.builds(Location, _finite_floats(0.0, 1e4), _finite_floats(1e-3, 3.14)),
    region=st.builds(SecrecyRegion, _finite_floats(1e-3, 1e3), _finite_floats(1e-4, 1.5)),
    power=st.builds(PowerConfig, _finite_floats(-50.0, 60.0), _finite_floats(-50.0, 30.0),
                    _finite_floats(-50.0, 30.0), _finite_floats(0.0, 1.0)),
    k_source=st.one_of(
        st.builds(GeneratedK, _finite_floats(1.0, 1e5),
                  st.sampled_from(["projection", "eigen"]), st.integers(0, 2**32)),
        st.builds(FixtureK, st.sampled_from(list(FIXTURES)),
                  st.none() | st.just("table.csv"))),
    mode=st.sampled_from(Mode))


def _angles(s):
    return s.bob.theta_rad, s.eve.theta_rad, s.region.dtheta_rad


def _without_angles(s):
    return replace(s, bob=replace(s.bob, theta_rad=1.0), eve=replace(s.eve, theta_rad=1.0),
                   region=replace(s.region, dtheta_rad=1.0))


@settings(max_examples=60, deadline=None)
@given(_scenarios)
def test_scenario_config_json_round_trip_property(s):
    got = scenario_from_config(json.loads(json.dumps(scenario_to_config(s))))
    # degrees <-> radians is exact for the defaults but not for every angle
    assert _without_angles(got) == _without_angles(s)
    assert _angles(got) == pytest.approx(_angles(s), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(_scenarios, _finite_floats(1e-3, 179.999), _finite_floats(1e-3, 179.999),
       _finite_floats(1e-4, 85.0))
@example(default_scenario(), 34.06, 32.08, 3.0)
def test_a_config_built_scenario_survives_its_config(s, bob_deg, eve_deg, dtheta_deg):
    # a manifest's degrees map back to the radians its run read, so it re-runs that run
    cfg = scenario_to_config(s)
    cfg["bob"]["theta_deg"], cfg["eve"]["theta_deg"] = bob_deg, eve_deg
    cfg["region"]["dtheta_deg"] = dtheta_deg
    built = scenario_from_config(cfg)
    assert scenario_from_config(json.loads(json.dumps(scenario_to_config(built)))) == built


def _number_paths(node, path=()):
    "Key paths of every numeric leaf of a configuration mapping."
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _number_paths(value, (*path, key))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield (*path, key)


@settings(max_examples=60, deadline=None)
@given(_scenarios, st.data())
def test_scenario_from_config_rejects_a_bad_number_anywhere(s, data):
    cfg = scenario_to_config(s)
    *parents, key = data.draw(st.sampled_from(sorted(_number_paths(cfg))))
    node = cfg
    for parent in parents:
        node = node[parent]
    node[key] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, None,
                                           "1", "many"]))
    with pytest.raises(ConfigError):
        scenario_from_config(cfg)
