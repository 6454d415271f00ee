import argparse
import ast
import gc
import importlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rfda_secrecy
from rfda_secrecy import __main__ as entry
from rfda_secrecy import cli, errors
from rfda_secrecy.arraymodel import _steering
from rfda_secrecy.cli import _scenario_from_args, build_parser, main
from rfda_secrecy.errors import ConfigError, ConvergenceError, FixtureError, InfeasibleRateError
from rfda_secrecy.scenario import Location, default_fixture_path, k_norm2
from rfda_secrecy.secrecyregion import ellipse_semi_axes
from rfda_secrecy.sweep import (READS, FixtureK, GeneratedK, default_scenario, fixture_vector,
                                read_config, scenario_from_config, scenario_to_config, unread)

MMIN_ARGS = ["mmin", "--beta", "0.4", "--dtheta-deg", "5", "--bob-theta-deg", "45"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mmin_prints_reference_value(capsys):
    code, out, _ = run(capsys, *MMIN_ARGS)
    assert code == 0
    assert out.strip() == "15.73"


def test_unknown_flag_exits_2(capsys):
    code, _, err = run(capsys, "mmin", "--beta", "0.4", "--dtheta-deg", "5",
                       "--bob-theta-deg", "45", "--warp-speed", "9")
    assert code == 2
    assert "usage" in err


def test_missing_required_flag_exits_2(capsys):
    code, _, err = run(capsys, "mmin", "--beta", "0.4")
    assert code == 2
    assert "usage" in err


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_kmin_value(capsys):
    code, out, _ = run(capsys, "kmin", "--beta", "0.4", "--dr-m", "8",
                       "--dtheta-deg", "5", "--bob-theta-deg", "45")
    assert code == 0
    assert out.strip() == "335.74"


def test_kmin_with_explicit_m_min(capsys):
    code, out, _ = run(capsys, "kmin", "--beta", "0.4", "--dr-m", "8",
                       "--m-min", "15.730591851548374")
    assert code == 0
    assert out.strip() == "335.74"


@pytest.mark.parametrize("flag, value, key", [
    ("--dtheta-deg", "5", "region.dtheta_deg"), ("--bob-theta-deg", "30", "bob.theta_deg"),
    ("--f0-hz", "2e9", "array.f0_hz"), ("--spacing-m", "0.3", "array.spacing"),
])
def test_kmin_at_a_given_count_refuses_the_flags_it_leaves_unread(capsys, flag, value, key):
    # k_min at a given count reads the range half-width and the increment
    # reference alone; the angular flags would set an element count it never finds
    code, out, err = run(capsys, "kmin", "--beta", "0.4", "--dr-m", "8", "--m-min", "10",
                         flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: kmin at a given element count (--m-min) reads no {key} ({flag})\n"


def test_kmin_without_enough_inputs(capsys):
    code, _, err = run(capsys, "kmin", "--beta", "0.4", "--dr-m", "8")
    assert code == 2
    assert "m-min" in err or "dtheta" in err


def test_gen_k_deterministic_output(capsys):
    code, out1, _ = run(capsys, "gen-k", "--m", "8", "--k-target", "100",
                        "--seed", "13")
    assert code == 0
    code, out2, _ = run(capsys, "gen-k", "--m", "8", "--k-target", "100",
                        "--seed", "13")
    assert code == 0
    assert out1 == out2
    assert out1.startswith("k=")
    fields = dict(line.split("=", 1) for line in out1.strip().splitlines())
    assert float(fields["K"]) == pytest.approx(100.0, rel=1e-9)
    assert abs(float(fields["rho2"])) < 1e-6


def test_gen_k_infeasible_size_exits_2(capsys):
    code, _, err = run(capsys, "gen-k", "--m", "2", "--k-target", "10")
    assert code == 2
    assert "infeasible" in err


def test_capacity_lb_with_beta_override(capsys):
    code, out, _ = run(capsys, "capacity", "--beta", "0.4", "--pt-dbm", "30")
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(lines["with_an"]) == pytest.approx(5.3131, abs=1e-4)
    assert float(lines["without_an"]) == pytest.approx(1.3198, abs=1e-4)


def test_capacity_at_a_given_beta_reads_the_array_size_and_the_power_flags(tmp_path, capsys):
    # lb_capacity at a given beta reads M (through the AN leakage) and the four
    # power keys; every other flag is refused, and the same keys from a file pass
    base = ("capacity", "--beta", "0.3")
    code, out, _ = run(capsys, *base)
    assert (code, out) == (0, "with_an=5.8875\nwithout_an=1.7336\n")
    for flag, value in (("--m", "12"), ("--pt-dbm", "20"), ("--sigma-b2-dbm", "3"),
                        ("--sigma-e2-dbm", "3"), ("--delta", "0.8")):
        code, moved, _ = run(capsys, *base, flag, value)
        assert code == 0 and moved != out, flag
    code, _, err = run(capsys, *base, "--bob-theta-deg", "60")
    assert (code, err) == (
        2, "error: lb mode at a given beta (--beta) reads no bob.theta_deg (--bob-theta-deg)\n")
    (tmp_path / "cfg.json").write_text(json.dumps({"bob": {"theta_deg": 60.0}}))
    assert run(capsys, *base, "--config", str(tmp_path / "cfg.json")) == (0, out, "")


def test_an_lb_capacity_may_be_negative_where_mc_clamps_at_0(capsys):
    # the lower bound is the paper's bound without [.]+, while each mc trial clamps
    code, out, _ = run(capsys, "capacity", "--sigma-b2-dbm", "300")
    assert (code, out) == (0, "with_an=-2.8227\nwithout_an=-7.7916\n")
    code, out, _ = run(capsys, "capacity", "--mode", "mc", "--trials", "20",
                       "--sigma-b2-dbm", "300")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["with_an=0.0000",
                                                               "without_an=0.0000"]


def test_capacity_mc_mode(capsys):
    code, out, _ = run(capsys, "capacity", "--mode", "mc", "--trials", "50",
                       "--seed", "2", "--scheme", "an", "--pt-dbm", "20")
    assert code == 0
    assert out.startswith("with_an=")
    assert "stderr=" in out


def test_capacity_invalid_delta_exits_2(capsys):
    code, _, err = run(capsys, "capacity", "--delta", "1.5")
    assert code == 2
    assert "delta" in err


def test_region_summary(capsys):
    code, out, _ = run(capsys, "region", "--beta", "0.4")
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(fields["m_min"]) == pytest.approx(15.73, abs=0.01)
    assert float(fields["k_min"]) == pytest.approx(335.74, abs=0.01)
    assert fields["fits_region"] == "yes"
    assert float(fields["ellipse_dtheta_deg"]) == pytest.approx(4.9158, abs=1e-3)


def _region_norm_lines(s, beta: float, norm2: float) -> tuple:
    "The lines of ``region``'s output that the fixture norm ``norm2`` sets, on ``s`` at ``beta``."
    dr, dtheta = ellipse_semi_axes(s.array, s.array.n_elements, norm2, beta, s.bob.theta_rad)
    fits = dr <= s.region.dr_m and dtheta <= s.region.dtheta_rad
    return f"ellipse_dr_m={dr:.6f}", f"fits_region={'yes' if fits else 'no'}"


@pytest.mark.parametrize("label", ["K10405", "K12905", "K15405"])
def test_region_prints_the_same_lines_under_the_blas_and_the_fsum_norm(label, capsys):
    # region squares a fixture row with math.fsum, where numpy's k @ k is a BLAS dot
    # whose last bit may differ (K15405: 15407.4625 against 15407.462500000001)
    k = fixture_vector(label)
    blas = float(k @ k)
    for theta_deg in range(5, 180, 5):
        s = default_scenario(k_source=FixtureK(label),
                             bob=Location(100.0, math.radians(theta_deg)))
        fsum = k_norm2(s)
        assert abs(fsum - blas) <= 2 * math.ulp(blas)
        for i in range(50):
            assert _region_norm_lines(s, i / 50, fsum) == _region_norm_lines(s, i / 50, blas)
    code, out, _ = run(capsys, "region", "--beta", "0.4", "--fixture-label", label)
    lines = out.splitlines()
    assert (code, (lines[0], lines[-1])) == (0, _region_norm_lines(default_scenario(
        k_source=FixtureK(label)), 0.4, blas))


def test_region_draws_no_generated_k(tmp_path, monkeypatch, capsys):
    # a generated k has the squared norm k_target whatever its method or seed,
    # so region reads the norm off the source and draws nothing
    import rfda_secrecy.sweep as sweep_mod

    def boom(*args, **kwargs):
        raise AssertionError("region drew a frequency vector")

    monkeypatch.setattr(sweep_mod, "generate_k", boom)
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"array": {"M": 64}, "k_source": {
        "type": "generated", "k_target": 10405, "method": "eigen", "seed": 3}}))
    code, from_config, _ = run(capsys, "region", "--beta", "0.4", "--config", str(cfg))
    assert code == 0
    code, from_flags, _ = run(capsys, "region", "--beta", "0.4", "--m", "64",
                              "--k-target", "10405")
    assert (code, from_flags) == (0, from_config)


def test_capacity_computes_beta_once(monkeypatch, capsys):
    # the lower bound of every scheme reads the same boundary correlation; the
    # evaluator calls beta_for_scenario by its name in the sweep module
    import rfda_secrecy.sweep as sweep_mod

    calls = []
    original = sweep_mod.beta_for_scenario

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sweep_mod, "beta_for_scenario", counted)
    code, out, _ = run(capsys, "capacity", "--k-target", "10405", "--beta-seeds", "2")
    assert (code, len(out.splitlines())) == (0, 2)
    assert len(calls) == 1


@pytest.mark.parametrize("config", [
    {"mode": "mc"}, {"array": {"M": 12}},
    {"k_source": {"type": "generated", "k_target": 500.0}},
    {"eve": {"r_m": 90.0, "theta_deg": 30.0}}, {"region": {"dr_m": 3.0}},
    {"array": {"delta_f_hz": 2e6}},
])
def test_sweep_rate_run_id_hashes_only_what_the_solver_reads(tmp_path, capsys, config):
    def run_dir(*argv):
        code, out, _ = run(capsys, "sweep", "rate", "--rs-max", "2", *argv,
                           "--out", str(tmp_path))
        assert code == 0
        return Path(out.strip())

    (tmp_path / "cfg.json").write_text(json.dumps(config))
    base = run_dir()
    assert run_dir("--config", str(tmp_path / "cfg.json")) == base
    assert run_dir("--pt-dbm", "20") != base


def _run_files(capsys, out_dir: Path, argv) -> tuple:
    "The run directory that ``argv`` writes, with its result.csv and manifest.json bytes."
    code, out, err = run(capsys, *argv, "--out", str(out_dir))
    assert code == 0, (argv, err)
    run_dir = Path(out.strip())
    return (run_dir, (run_dir / "result.csv").read_bytes(),
            (run_dir / "manifest.json").read_bytes())


# configuration key -> a value that differs from the default scenario's
_OTHER_VALUES = {
    "array.M": 12, "array.f0_hz": 2e9, "array.delta_f_hz": 2e6, "array.spacing": 0.1,
    "bob.r_m": 104.0, "bob.theta_deg": 60.0, "eve.r_m": 150.0, "eve.theta_deg": 60.0,
    "region.dr_m": 3.0, "region.dtheta_deg": 3.0, "power.pt_dbm": 10.0,
    "power.sigma_b2_dbm": 3.0, "power.sigma_e2_dbm": 3.0, "power.delta": 0.3,
    "k_source.k_target": 500.0, "k_source.method": "eigen", "k_source.seed": 7,
    "k_source.label": "K15405", "k_source.path": "table.csv",
}
# the keys that a command reading the mode leaves unread in each mode
_UNREAD_IN_MODE = {"lb": {"eve.r_m", "eve.theta_deg"},
                   "mc": {"k_source.seed", "region.dr_m", "region.dtheta_deg"}}
# k source type -> the k_source section of a base configuration, and the keys of the type
_K_SOURCES = {"fixture": ({"type": "fixture"}, {"k_source.label", "k_source.path"}),
              "generated": ({"type": "generated", "k_target": 10405.0},
                            {"k_source.k_target", "k_source.method", "k_source.seed"})}
# command that writes a run directory -> its arguments: small grids; an mc run adds
# few trials (_MC_TRIALS), since lb refuses --trials
_RUN_COMMANDS = {
    "beampattern": ["--r-step", "8", "--theta-step-deg", "5"],
    "sweep power": ["--pt-max", "2"],
    "sweep delta": ["--delta-max", "0.15"],
    "sweep bandwidth": [],
    "sweep rate": ["--rs-max", "2"],
}
_MC_TRIALS = ["--trials", "20"]


def _key_cases() -> list:
    """(command, base configuration, key, whether the command reads the key) for each
    key that the base's k source has.  Each command runs from a base of each k source
    type, in each mode when it reads the mode; the bandwidth axis is the fixture rows."""
    cases = []
    for command in _RUN_COMMANDS:
        reads = set(READS[command.split()[-1]])
        for mode in ("lb", "mc") if "mode" in reads else ("lb",):
            read = reads - _UNREAD_IN_MODE[mode] if "mode" in reads else reads
            for kind, (source, source_keys) in _K_SOURCES.items():
                if command != "sweep bandwidth" or kind == "fixture":
                    cases += [(command, {"mode": mode, "k_source": source}, key, key in read)
                              for key in READS["capacity"]
                              if not key.startswith("k_source.") or key in source_keys]
    return cases


def _changed(config: dict, key: str) -> dict:
    "``config`` with another value at the dotted ``key``."
    config = json.loads(json.dumps(config))
    if key == "mode":
        config["mode"] = "lb" if config["mode"] == "mc" else "mc"
    else:
        section, name = key.split(".")
        config.setdefault(section, {})[name] = _OTHER_VALUES[key]
    return config


def test_a_key_that_a_command_reads_is_part_of_its_run_id():
    # else two runs with different results would share a run directory
    for command, base, key, read in _key_cases():
        if read:
            kind = command.split()[-1]
            assert read_config(scenario_from_config(_changed(base, key)), kind) != \
                read_config(scenario_from_config(base), kind), (command, base, key)


# a fixture row has 16 entries, so the bandwidth sweep runs at no other M
_UNREAD_CASES = [(command, base, key) for command, base, key, read in _key_cases()
                 if not read and (command, key) != ("sweep bandwidth", "array.M")]


@pytest.mark.parametrize("command, base, key", _UNREAD_CASES,
                         ids=[f"{command}-{base['mode']}-{base['k_source']['type']}-{key}"
                              for command, base, key in _UNREAD_CASES])
def test_a_key_that_a_command_does_not_read_leaves_its_run_directory(tmp_path, capsys,
                                                                     command, base, key):
    # the run id hashes only what the command reads, so equal runs share a directory
    runs = []
    for name, config in (("base", base), ("changed", _changed(base, key))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        runs.append(_run_files(capsys, tmp_path / "out",
                               [*command.split(), *_RUN_COMMANDS[command],
                                *_MC_TRIALS * (base["mode"] == "mc"), "--config", str(path)]))
    assert runs[0] == runs[1]


# mode -> angles whose degrees come back one ulp off through radians and math.degrees
_ANGLES = {"lb": ["--bob-theta-deg", "34.06", "--dtheta-deg", "3"],
           "mc": ["--bob-theta-deg", "34.06", "--eve-theta-deg", "32.08"]}


@pytest.mark.parametrize("command, mode", [
    *((command, mode) for command in ("sweep power", "sweep delta", "sweep bandwidth")
      for mode in ("lb", "mc")),
    ("sweep rate", None)])  # the rate solver reads no mode
def test_a_manifest_re_runs_its_own_run(tmp_path, capsys, command, mode):
    evaluation = [*command.split(), *_RUN_COMMANDS[command], *_MC_TRIALS * (mode == "mc")]
    first = _run_files(capsys, tmp_path / "out", [
        *evaluation, *_ANGLES[mode or "lb"], *["--mode", mode] * (mode is not None)])
    config = json.loads(first[2])["config"]
    assert config["bob"]["theta_deg"] == 34.06
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    again = _run_files(capsys, tmp_path / "out", [*evaluation, "--config",
                                                  str(tmp_path / "cfg.json")])
    assert again == first


_CONFIG = "--config {cfg}"


@pytest.mark.parametrize("argv, base, changed, config", [
    pytest.param("beampattern --r-step 2 --theta-step-deg 1", "", _CONFIG,
                 {"power": {"pt_dbm": 10.0}, "mode": "mc",
                  "eve": {"r_m": 150.0, "theta_deg": 60.0}}, id="beampattern-power-mode-eve"),
    pytest.param("sweep power --pt-max 3", "", _CONFIG,
                 {"eve": {"r_m": 150.0, "theta_deg": 60.0}}, id="power-lb-eve"),
    pytest.param("sweep power --mode mc --trials 50 --pt-max 2 --k-target 10405",
                 "--k-seed 1", "--k-seed 2", None, id="power-mc-k_seed"),
    pytest.param("sweep bandwidth", "", _CONFIG,
                 {"k_source": {"type": "fixture", "label": "K15405"}}, id="bandwidth-label"),
    pytest.param("sweep power --pt-max 3 --delta 0.6", "", _CONFIG,
                 {"power": {"pt_dbm": 10.0, "delta": 0.3}}, id="power-pt_dbm"),
    pytest.param("sweep delta --pt-dbm 30", "", _CONFIG,
                 {"power": {"pt_dbm": 10.0, "delta": 0.3}}, id="delta-delta"),
    pytest.param("beampattern --r-min 90 --r-max 110 --r-step 5 --theta-min-deg 40 "
                 "--theta-max-deg 50 --theta-step-deg 2", "", "--dr-m 3 --dtheta-deg 2", None,
                 id="beampattern-region-with-every-bound"),
])
def test_equal_runs_share_one_run_directory(tmp_path, capsys, argv, base, changed, config):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    runs = [_run_files(capsys, tmp_path / "out",
                       [*argv.split(), *extra.format(cfg=tmp_path / "cfg.json").split()])
            for extra in (base, changed)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("region", [["--dr-m", "3"], ["--dtheta-deg", "2"]])
def test_a_region_that_moves_the_default_beampattern_grid_is_a_new_run(tmp_path, capsys,
                                                                       region):
    # the region reaches a beampattern only through its default grid bounds
    argv = ["beampattern", "--r-step", "8", "--theta-step-deg", "5"]
    base = _run_files(capsys, tmp_path, argv)
    moved = _run_files(capsys, tmp_path, [*argv, *region])
    assert base[0] != moved[0] and base[1] != moved[1]


def test_sweep_rate_infeasible_exits_3(capsys):
    code, _, err = run(capsys, "sweep", "rate", "--scheme", "no-an",
                       "--pt-dbm", "40", "--rs-min", "13.5", "--rs-max", "13.5")
    assert code == 3
    assert "infeasible" in err


def test_sweep_rate_of_a_rate_whose_gain_overflows_exits_3(capsys):
    # 2**1100 overflows a float: the rate is infeasible, not a traceback
    code, out, err = run(capsys, "sweep", "rate", "--rs-min", "1100", "--rs-max", "1100")
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: infeasible rate: ")


def test_sweep_rate_gaps_at_rates_whose_gain_overflows(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "rate", "--rs-min", "1", "--rs-max", "2001",
                       "--rs-step", "1000", "--out", str(tmp_path))
    assert code == 0
    rows = (Path(out.strip()) / "result.csv").read_text().splitlines()
    assert rows[0] == "rs_bits,with_an,without_an"
    assert [row.split(",")[0] for row in rows[1:]] == ["1.0", "1001.0", "2001.0"]
    assert all(rows[1].split(",")[1:])
    assert [row.split(",")[1:] for row in rows[2:]] == [["", ""], ["", ""]]


def test_sweep_rate_gaps_in_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "rate", "--pt-dbm", "20",
                       "--rs-min", "5.5", "--rs-max", "6.5", "--rs-step", "0.5",
                       "--out", str(tmp_path))
    assert code == 0
    run_dir = tmp_path / out.strip().split("/")[-1]
    text = (run_dir / "result.csv").read_text()
    assert text.splitlines()[0] == "rs_bits,with_an,without_an"
    assert any(line.split(",")[1] == "" for line in text.splitlines()[1:])


def test_sweep_power_outputs_and_determinism(tmp_path, capsys):
    argv = ["sweep", "power", "--pt-min", "0", "--pt-max", "6", "--pt-step", "2",
            "--out", str(tmp_path), "--svg"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    run_dir = tmp_path / out.strip().split("/")[-1]
    assert (run_dir / "result.csv").exists()
    assert (run_dir / "manifest.json").exists()
    assert (run_dir / "plot.svg").exists()
    before = (run_dir / "result.csv").read_bytes()
    svg_before = (run_dir / "plot.svg").read_bytes()
    code, out2, _ = run(capsys, *argv)
    assert code == 0
    assert out2 == out
    assert (run_dir / "result.csv").read_bytes() == before
    assert (run_dir / "plot.svg").read_bytes() == svg_before
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["sweep"]["kind"] == "power"
    assert run_dir.name.endswith(manifest["config_hash"])


def test_sweep_mc_workers_identical(tmp_path, capsys):
    base = ["sweep", "power", "--mode", "mc", "--trials", "60", "--seed", "7",
            "--pt-min", "0", "--pt-max", "4", "--pt-step", "2"]
    code, out1, _ = run(capsys, *base, "--out", str(tmp_path / "a"))
    assert code == 0
    code, out2, _ = run(capsys, *base, "--workers", "4", "--out", str(tmp_path / "b"))
    assert code == 0
    csv_a = (tmp_path / "a" / out1.strip().split("/")[-1] / "result.csv").read_bytes()
    csv_b = (tmp_path / "b" / out2.strip().split("/")[-1] / "result.csv").read_bytes()
    assert csv_a == csv_b


def test_sweep_bandwidth_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "bandwidth", "--out", str(tmp_path))
    assert code == 0
    run_dir = tmp_path / out.strip().split("/")[-1]
    lines = (run_dir / "result.csv").read_text().splitlines()
    assert lines[0] == "k_nominal,with_an,without_an"
    assert [line.split(",")[0] for line in lines[1:]] == ["10405.0", "12905.0",
                                                          "15405.0"]


def test_validate_fixtures_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "validate-fixtures")
    assert code == 0
    assert "all fixture checks passed" in out
    missing = tmp_path / "nope.csv"
    code, _, err = run(capsys, "validate-fixtures", "--fixture-path", str(missing))
    assert code == 5
    assert "fixture" in err
    bad = tmp_path / "bad.csv"
    bad.write_text("label," + ",".join(f"m{i}" for i in range(1, 17))
                   + "\nK10405," + ",".join(["1.0"] * 16) + "\n")
    code, out, err = run(capsys, "validate-fixtures", "--fixture-path", str(bad))
    assert code == 5
    assert "FAIL" in out
    unknown = tmp_path / "unknown.csv"
    unknown.write_text(bad.read_text().replace("K10405", "K99999"))
    code, out, _ = run(capsys, "validate-fixtures", "--fixture-path", str(unknown))
    assert code == 5
    assert "K99999: FAIL (unknown label)" in out


def test_a_missing_or_bad_fixture_table_exits_5_on_every_read(tmp_path, capsys):
    # the table is read and parsed on every use, so a table that failed to load
    # fails again on the next read
    table = tmp_path / "table.csv"
    argv = ("capacity", "--fixture-path", str(table))
    bad_header = "label,m1\nK10405,1\n"
    for text, message in ((None, "fixture file not found"), (bad_header, "bad header")):
        if text is not None:
            table.write_text(text)
        for _ in range(2):
            code, _, err = run(capsys, *argv)
            assert code == 5
            assert message in err
    table.write_text(default_fixture_path().read_text())
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("argv", [
    ["capacity"], ["beampattern", "--r-step", "5", "--theta-step-deg", "1"],
    ["sweep", "bandwidth"], ["region", "--beta", "0.4"], ["validate-fixtures"],
])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_a_non_finite_table_increment_exits_5_naming_its_cell(tmp_path, capsys, argv, cell):
    # float() parses nan and inf, which would otherwise fail far downstream with exit 2
    table = tmp_path / "table.csv"
    lines = default_fixture_path().read_text().splitlines()
    cells = lines[2].split(",")
    cells[7] = cell
    lines[2] = ",".join(cells)
    table.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    extra = ["--out", str(out_dir)] if argv[0] in ("beampattern", "sweep") else []
    assert run(capsys, *argv, "--fixture-path", str(table), *extra) == (
        5, "", f"error: fixture: {table}: row 3, column m7: '{cell}' is not a finite increment\n")
    assert not out_dir.exists()


def test_beampattern_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "beampattern", "--r-min", "95", "--r-max", "105",
                       "--r-step", "5", "--theta-min-deg", "44",
                       "--theta-max-deg", "46", "--theta-step-deg", "1",
                       "--out", str(tmp_path))
    assert code == 0
    run_dir = tmp_path / out.strip().split("/")[-1]
    lines = (run_dir / "result.csv").read_text().splitlines()
    assert lines[0] == "r_m,theta_deg,normalized_power"
    assert len(lines) == 1 + 3 * 3
    # the aim point row carries full normalized power
    aim = [line for line in lines if line.startswith("100.0,45.0,")]
    assert aim and float(aim[0].split(",")[2]) == pytest.approx(1.0, abs=1e-12)
    # the run id follows the sweeps' rule: the hash of the manifest without its version
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert run_dir.name == f"beampattern-{manifest['config_hash']}"


def test_a_beampattern_csv_prints_the_angles_of_its_manifest_grid(tmp_path, capsys):
    # 30.0 sent through radians and back would print as 29.999999999999996
    _, csv, manifest = _run_files(capsys, tmp_path, [
        "beampattern", "--r-min", "100", "--r-max", "100", "--theta-min-deg", "30",
        "--theta-max-deg", "31", "--theta-step-deg", "0.1"])
    cells = [float(line.split(",")[1]) for line in csv.decode().splitlines()[1:]]
    assert cells == json.loads(manifest)["grid"]["theta_deg"]


@pytest.mark.parametrize("argv, flag, bob", [
    (["--bob-r-m", "1e300"], "--dr-m 8", "1e+300"),
    (["--dtheta-deg", "1e-15"], "--dtheta-deg 1e-15", "45.0"),
])
def test_beampattern_refuses_a_default_axis_that_rounds_onto_bob(tmp_path, capsys, argv,
                                                                 flag, bob):
    code, out, err = run(capsys, "beampattern", *argv, "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert f"{flag} rounds away at Bob's coordinate {bob}" in err


def test_beampattern_keeps_an_explicit_one_point_range_axis(tmp_path, capsys):
    code, out, _ = run(capsys, "beampattern", "--r-min", "100", "--r-max", "100",
                       "--out", str(tmp_path))
    assert code == 0
    rows = (Path(out.strip()) / "result.csv").read_text().splitlines()[1:]
    assert len(rows) > 1 and {row.split(",")[0] for row in rows} == {"100.0"}


def test_config_file_with_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"array": {"M": 8}, "rogue": 1}))
    code, _, err = run(capsys, "capacity", "--config", str(cfg))
    assert code == 2
    assert "rogue" in err


def test_config_file_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"power": {"pt_dbm": 10.0}}))
    code, out, _ = run(capsys, "capacity", "--config", str(cfg), "--beta", "0.4",
                       "--pt-dbm", "30", "--scheme", "an")
    assert code == 0
    assert float(out.strip().split("=")[1]) == pytest.approx(5.3131, abs=1e-4)


def test_config_file_invalid_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _, err = run(capsys, "capacity", "--config", str(cfg))
    assert code == 2


def test_config_file_missing_exits_5(tmp_path, capsys):
    code, _, err = run(capsys, "capacity", "--config", str(tmp_path / "gone.json"))
    assert code == 5


def test_convergence_error_maps_to_exit_4(monkeypatch, capsys):
    import rfda_secrecy.secrecyregion as secrecyregion  # where sweep_rate looks it up

    def boom(*args, **kwargs):
        raise ConvergenceError("stuck in a two-cycle")

    monkeypatch.setattr(secrecyregion, "solve_m_min", boom)
    code, _, err = run(capsys, "sweep", "rate", "--rs-min", "1.0", "--rs-max", "1.0")
    assert code == 4
    assert "converge" in err


_HUGE = "1" + "0" * 400  # an integer beyond the float range
# (configuration file, argv, the key that the one error line names)
_HUGE_INTEGERS = [
    (None, ["capacity", "--m", _HUGE], "array.M"),
    (f'{{"array": {{"M": {_HUGE}}}}}', ["capacity"], "array.M"),
    (f'{{"power": {{"pt_dbm": {_HUGE}}}}}', ["capacity"], "power.pt_dbm"),
    (f'{{"k_source": {{"type": "generated", "k_target": {_HUGE}}}}}', ["capacity"],
     "k_source.k_target"),
    (f'{{"array": {{"spacing": {_HUGE}}}}}', ["capacity"], "array.spacing"),
    (f'{{"array": {{"spacing": {{"meters": {_HUGE}}}}}}}', ["capacity"],
     "array.spacing.meters"),
    (None, ["gen-k", "--m", _HUGE, "--k-target", "1"], "k_target"),
]


@pytest.mark.parametrize("config, argv", [
    ('{"array": {"f0_hz": NaN}}', ["capacity"]),
    ('{"bob": {"r_m": NaN}}', ["capacity"]),
    ('{"power": {"pt_dbm": Infinity}}', ["capacity"]),
    ('{"array": {"M": 16.9}}', ["capacity"]),
    ('{"rs_bits": -3}', ["capacity"]),
    (None, ["sweep", "rate", "--rs-min", "-1", "--rs-max", "-1"]),
    (None, ["sweep", "rate", "--rs-min", "-1"]),
    (None, ["mmin", "--beta", "1.7", "--dtheta-deg", "5", "--bob-theta-deg", "45"]),
    (None, ["capacity", "--beta", "-0.1"]),
    (None, ["region", "--beta", "nan"]),
    ('{"bob": 5}', ["capacity"]),
    ('{"array": null}', ["capacity"]),
    ('{"power": []}', ["capacity"]),
    ('{"k_source": {"type": "generated", "k_target": 100, "seed": null}}', ["capacity"]),
    ('{"k_source": {"type": "generated", "k_target": 100, "seed": 1.7}}', ["capacity"]),
    (None, ["mmin", "--beta", "0.4", "--dtheta-deg", "nan", "--bob-theta-deg", "45"]),
    (None, ["mmin", "--beta", "0.4", "--dtheta-deg", "5", "--bob-theta-deg", "45",
            "--dr-m", "0"]),
    (None, ["kmin", "--beta", "0.4", "--dr-m", "nan", "--m-min", "10"]),
    (None, ["kmin", "--beta", "0.4", "--dr-m", "8", "--m-min", "inf"]),
    (None, ["region", "--beta", "0.4", "--k-norm2", "nan"]),
    (None, ["capacity", "--k-target", "10405", "--beta-seeds", "0"]),
    (None, ["sweep", "power", "--pt-max", "inf"]),
    (None, ["sweep", "rate", "--rs-max", "inf"]),
    (None, ["beampattern", "--r-step", "1e-300"]),
    (None, ["beampattern", "--r-step", "0.01", "--theta-step-deg", "0.01"]),
    (None, ["gen-k", "--m", "8", "--k-target", "nan"]),
    (None, ["gen-k", "--m", "8", "--k-target", "inf"]),
    ('{"k_source": {"type": "fixture", "path": 5}}', ["capacity"]),
    ('{"k_source": {"type": "fixture", "label": 5}}', ["capacity"]),
    (None, ["capacity", "--mode", "mc", "--seed", "18446744073709551617"]),
    (None, ["capacity", "--mode", "mc", "--seed", "-1"]),
    ('{"k_source": {"type": "generated", "k_target": 100, "seed": -1}}', ["capacity"]),
    (None, ["sweep", "power", "--mode", "mc", "--seed", "-1"]),
    (None, ["capacity", "--k-target", "100", "--k-seed", "9223372036854775808"]),
    (None, ["gen-k", "--m", "8", "--k-target", "100", "--seed", "-1"]),
    ('{"k_source": {"type": "generated", "k_target": 100, "seed": 9223372036854775808}}',
     ["capacity"]),
    (None, ["sweep", "rate", "--fixed-eta", "-1"]),
    (None, ["sweep", "rate", "--fixed-eta", "0"]),
    (None, ["sweep", "rate", "--fixed-eta", "1.5"]),
    (None, ["sweep", "rate", "--fixed-eta", "nan"]),
    (None, ["gen-k", "--m", "8", "--k-target", "1e308"]),
    ('{"bob": 5}', ["capacity", "--bob-r-m", "90"]),
    ('[1, 2]', ["capacity", "--pt-dbm", "10"]),
    ('{"k_source": 5}', ["capacity", "--k-seed", "5"]),
    (None, ["capacity", "--k-seed", "5"]),
    (None, ["capacity", "--k-method", "eigen"]),
    (None, ["capacity", "--k-target", "10405", "--fixture-path", "table.csv"]),
    ('{"k_source": {"type": []}}', ["capacity"]),
    (None, ["sweep", "bandwidth", "--k-target", "10405", "--k-seed", "3"]),
    (None, ["capacity", "--mode", "mc", "--beta", "0.1"]),
    (None, ["beampattern", "--r-min", "-1", "--r-max", "5", "--r-step", "1"]),
    (None, ["beampattern", "--theta-min-deg", "0", "--theta-max-deg", "10"]),
    (None, ["beampattern", "--theta-min-deg", "170", "--theta-max-deg", "181"]),
    (None, ["capacity", "--trials", "0"]),
    (None, ["capacity", "--mode", "mc", "--trials", "-3"]),
    (None, ["sweep", "power", "--mode", "mc", "--trials", "1.5"]),
    (None, ["capacity", "--beta-seeds", "0"]),
    (None, ["sweep", "rate", "--beta-seeds", "-1"]),
    (None, ["capacity", "--mode", "mc", "--trials", "50", "--beta-seeds", "0"]),
    (None, ["capacity", "--mode", "mc", "--trials", "50", "--beta-seeds", "-7"]),
    (None, ["capacity", "--mode", "mc", "--trials", "50", "--beta-seeds", "5"]),
    (None, ["sweep", "power", "--mode", "mc", "--trials", "5", "--beta-seeds", "5"]),
    (None, ["capacity", "--beta-seeds", "4"]),
    (None, ["sweep", "delta", "--beta-seeds", "4"]),
    (None, ["kmin", "--beta", "0.4", "--dr-m", "8", "--m-min", "10", "--delta", "0.5"]),
    (None, ["mmin", "--beta", "0.4", "--dtheta-deg", "5", "--bob-theta-deg", "45",
            "--dr-m", "3"]),
    (None, ["region", "--beta", "0.4", "--eve-r-m", "90"]),
    (None, ["beampattern", "--mode", "mc"]),
    (None, ["sweep", "power", "--pt-dbm", "10"]),
    (None, ["sweep", "delta", "--delta", "0.5"]),
    (None, ["sweep", "bandwidth", "--fixture-label", "K12905"]),
    (None, ["sweep", "rate", "--trials", "5"]),
    (None, ["sweep", "rate", "--seed", "5"]),
    (None, ["sweep", "--out", "out", "power"]),
    (None, ["capacity", "--workers", "2"]),
    (None, ["sweep", "delta", "--workers", "2"]),
    (None, ["sweep", "bandwidth", "--workers", "2"]),
    ('{"k_source": {"type": "generated", "k_target": 10405}}', ["sweep", "bandwidth"]),
    (None, ["region", "--beta", "0.4", "--k-norm2", "5"]),
    (None, ["mmin", "--beta", "0.4", "--dtheta-deg", "5", "--bob-theta-deg", "45",
            "--theta-b-deg", "45"]),
    (None, ["sweep", "rate", "--rs", "1"]),
    (None, ["validate-fixtures", "--fixtures", "x"]),
    (None, ["capacity", "--pt-dbm", "4000"]),
    (None, ["sweep", "rate", "--pt-dbm", "4000"]),
    (None, ["capacity", "--sigma-b2-dbm", "-4000"]),
    (None, ["capacity", "--pt-dbm", "3000", "--sigma-b2-dbm", "-300", "--beta", "0.2"]),
    ('{"power": {"pt_dbm": true}}', ["capacity"]),
    ('{"k_source": {"type": "generated", "k_target": 100, "seed": true}}', ["capacity"]),
    (None, ["region", "--beta", "0.4", "--m", "12"]),
    (None, ["region", "--beta", "0.4", "--m", "2", "--k-target", "100"]),
    (None, ["kmin", "--beta", "0.4", "--dr-m", "8", "--m-min", "0"]),
    (None, ["kmin", "--beta", "0.4", "--dr-m", "8", "--m-min", "0.5"]),
    (None, ["sweep", "power", "--pt-step", "0"]),
    (None, ["sweep", "delta", "--delta-min", "0.9", "--delta-max", "0.1"]),
    ('[]', ["capacity"]),
    (b'\xff{}', ["capacity"]),
    ('{"array": {"M": 12}}', ["sweep", "bandwidth"]),
    (None, ["kmin", "--beta", "0.4", "--dr-m", "8", "--m-min", "1e308"]),
    (None, ["kmin", "--beta", "0.4", "--dr-m", "1e-300", "--dtheta-deg", "5",
            "--bob-theta-deg", "45"]),
    (None, ["mmin", "--beta", "0.4", "--dtheta-deg", "1e-320", "--bob-theta-deg", "45"]),
    (None, ["region", "--beta", "0.4", "--dr-m", "1e-300"]),
    (None, ["sweep", "rate", "--dtheta-deg", "1e-320", "--rs-max", "1"]),
    (None, ["mmin", "--beta", "0.4", "--dtheta-deg", "1e-300", "--bob-theta-deg", "45",
            "--f0-hz", "1e-20", "--spacing-m", "1e-20"]),
    (None, ["kmin", "--beta", "0.4", "--dr-m", "1e-200", "--m-min", "2",
            "--delta-f-hz", "1e-200"]),
    (None, ["capacity", "--mode", "mc", "--trials", "5", "--bob-r-m", "1e300"]),
    (None, ["capacity", "--mode", "mc", "--trials", "5", "--eve-r-m", "1e300"]),
    (None, ["sweep", "power", "--mode", "mc", "--trials", "5", "--pt-max", "1",
            "--bob-r-m", "1e300"]),
    (None, ["capacity", "--bob-r-m", "1e300"]),
    (None, ["capacity", "--bob-r-m", "1e300", "--dr-m", "1e280"]),
    (None, ["capacity", "--dtheta-deg", "1e-15"]),
    (None, ["sweep", "power", "--bob-r-m", "1e300", "--pt-max", "1"]),
    (None, ["beampattern", "--bob-r-m", "1e300"]),
    (None, ["beampattern", "--bob-r-m", "1e300", "--dr-m", "1e280"]),
    (None, ["beampattern", "--dtheta-deg", "1e-15"]),
    (None, ["beampattern", "--dtheta-deg", "1e-12", "--theta-step-deg", "1e-12",
            "--r-min", "100", "--r-max", "100"]),
    (None, ["capacity", "--trials", "5"]),
    (None, ["sweep", "power", "--k-target", "10405", "--trials", "5"]),
    (None, ["sweep", "bandwidth", "--trials", "5"]),
    # one trial gives no standard error
    (None, ["capacity", "--mode", "mc", "--trials", "1"]),
    (None, ["sweep", "power", "--mode", "mc", "--trials", "1"]),
    (None, ["capacity", "--delta-f-hz", "1e300", "--bob-r-m", "1e17", "--dr-m", "1e16"]),
    (None, ["capacity", "--delta-f-hz", "1e300", "--bob-r-m", "1e17", "--dr-m", "1e16",
            "--k-target", "10405"]),
    (None, ["sweep", "power", "--delta-f-hz", "1e300", "--bob-r-m", "1e17", "--dr-m", "1e16"]),
    (None, ["sweep", "delta", "--delta-f-hz", "1e300", "--bob-r-m", "1e17", "--dr-m", "1e16"]),
    (None, ["beampattern", "--delta-f-hz", "1e300", "--r-min", "0", "--r-max", "1e16",
            "--r-step", "1e16", "--theta-step-deg", "5"]),
    (None, ["region", "--beta", "0.4", "--k-target", "1e-310", "--m", "3"]),
    *[case[:2] for case in _HUGE_INTEGERS],
])
def test_invalid_values_exit_2(tmp_path, monkeypatch, capsys, recwarn, config, argv):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(config) if isinstance(config, bytes) else cfg.write_text(config)
        argv = [*argv, "--config", "cfg.json"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


@pytest.mark.parametrize("config, argv, key", _HUGE_INTEGERS)
def test_an_integer_beyond_the_float_range_exits_2_naming_its_key(
        tmp_path, monkeypatch, capsys, config, argv, key):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv = [*argv, "--config", "cfg.json"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {key} must be ")
    assert err.count("\n") == 1


def test_a_config_file_that_is_not_utf8_is_named_in_its_refusal(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff{}")
    assert run(capsys, "capacity", "--config", str(cfg)) == (
        2, "", f"error: {cfg}: 'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte\n")


@pytest.mark.parametrize("argv", [
    "capacity --mode mc --trials 5 --bob-r-m 1e300",
    "capacity --mode mc --trials 5 --eve-r-m 1e300",
    "sweep power --mode mc --trials 5 --pt-max 1 --bob-r-m 1e300",
])
def test_an_overflowing_mc_phase_prints_only_its_refusal(tmp_path, monkeypatch, capsys,
                                                         recwarn, argv):
    # the NaN capacities of the phase are refused once, with no numpy warning before;
    # an empty steering memo computes every vector, as a fresh process does
    monkeypatch.chdir(tmp_path)
    _steering.cache_clear()
    assert run(capsys, *argv.split()) == (
        2, "", "error: Monte Carlo capacity nan: a range or frequency overflows the phase\n")
    assert not recwarn.list


@pytest.mark.parametrize("argv, message", [
    ("capacity --eve-r-m 150", "lb mode reads no eve.r_m (--eve-r-m)"),
    ("capacity --eve-theta-deg 60", "lb mode reads no eve.theta_deg (--eve-theta-deg)"),
    ("capacity --mode mc --trials 5 --dr-m 3", "mc mode reads no region.dr_m (--dr-m)"),
    ("capacity --mode mc --trials 5 --dtheta-deg 3",
     "mc mode reads no region.dtheta_deg (--dtheta-deg)"),
    ("sweep power --pt-max 3 --eve-r-m 150 --eve-theta-deg 60",
     "lb mode reads no eve.r_m (--eve-r-m)"),
    ("sweep delta --eve-theta-deg 60", "lb mode reads no eve.theta_deg (--eve-theta-deg)"),
    ("sweep bandwidth --mode mc --trials 5 --dr-m 3", "mc mode reads no region.dr_m (--dr-m)"),
    ("sweep power --config {mc} --dtheta-deg 3",
     "mc mode reads no region.dtheta_deg (--dtheta-deg)"),
])
def test_a_flag_whose_key_the_mode_leaves_unread_exits_2(tmp_path, monkeypatch, capsys, argv,
                                                        message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mc.json").write_text('{"mode": "mc"}')
    assert run(capsys, *argv.format(mc="mc.json").split()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    # the benchmark passes --k-seed in mc mode and --seed in lb mode
    "capacity --mode mc --trials 5 --k-target 10405 --k-seed 3",
    "capacity --seed 3",
    # the rate sweep reads the region and not the mode
    "sweep rate --config {mc} --dtheta-deg 4 --rs-max 1",
])
def test_a_flag_the_mode_leaves_unread_but_that_stays_accepted(tmp_path, monkeypatch, capsys,
                                                             argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mc.json").write_text('{"mode": "mc"}')
    assert run(capsys, *argv.format(mc="mc.json").split())[0] == 0


# scenario flag -> the default scenario's value, which every refusal case can take
_DEFAULT_FLAG_VALUES = {
    "--m": "16", "--f0-hz": "1e9", "--delta-f-hz": "1e6", "--spacing-m": "0.15",
    "--bob-r-m": "100", "--bob-theta-deg": "45", "--eve-r-m": "108", "--eve-theta-deg": "40",
    "--dr-m": "8", "--dtheta-deg": "5", "--pt-dbm": "30", "--sigma-b2-dbm": "0",
    "--sigma-e2-dbm": "0", "--delta": "0.6", "--k-target": "10405", "--k-method": "projection",
    "--k-seed": "0", "--fixture-label": "K10405", "--fixture-path": str(default_fixture_path()),
}
_K_CONFIGS = {"fixture": {"type": "fixture"},
              "generated": {"type": "generated", "k_target": 10405.0}}


def _refusal_cases() -> list:
    """(argv, configuration or None, beta, m_min) of each run whose refusals are checked:
    capacity and the capacity sweeps in each mode from a configuration of each k source
    type (the bandwidth axis is the fixture rows), capacity in lb at a given beta too, and
    kmin at a given element count.  The k source comes from the file, since at a given
    beta lb reads no k flag."""
    cases = [pytest.param(["kmin", "--beta", "0.4", "--dr-m", "8", "--m-min", "10"], None,
                          None, 10.0, id="kmin-m-min")]
    for command, grid in (("capacity", []), ("sweep power", ["--pt-max", "1"]),
                          ("sweep delta", ["--delta-max", "0.1"]), ("sweep bandwidth", [])):
        for mode, kind in [(mode, kind) for mode in ("lb", "mc") for kind in _K_CONFIGS]:
            if command == "sweep bandwidth" and kind == "generated":
                continue
            for beta in (None, 0.3) if (command, mode) == ("capacity", "lb") else (None,):
                argv = [*command.split(), *grid, *["--trials", "2"] * (mode == "mc"),
                        *["--beta", str(beta)] * (beta is not None)]
                cases.append(pytest.param(
                    argv, {"mode": mode, "k_source": _K_CONFIGS[kind]}, beta, None,
                    id="-".join([*command.split(), mode, kind, *["beta"] * (beta is not None)])))
    return cases


@pytest.mark.parametrize("argv, config, beta, m_min", _refusal_cases())
def test_a_run_refuses_exactly_the_flags_whose_keys_it_leaves_unread(tmp_path, capsys, argv,
                                                                     config, beta, m_min):
    # sweep.unread decides what a run reads, and the CLI refuses exactly the flags of
    # its keys, in its reader's name; --k-seed in mc alone stays accepted unread, since
    # the benchmark passes it
    command = argv[1] if argv[0] == "sweep" else argv[0]
    skip = unread(scenario_from_config(config or {}), command, beta, m_min)
    mode = config["mode"] if config else None
    fixture = config is not None and config["k_source"]["type"] == "fixture"
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(tmp_path / "out")]
    for flag in cli._reads(command):
        if fixture and flag in ("--k-method", "--k-seed"):
            continue  # they set nothing of a fixture row, so they exit 2 on every one
        key = cli._SCENARIO_FLAGS[flag][1]
        code, out, err = run(capsys, *argv, flag, mode if flag == "--mode" else
                             _DEFAULT_FLAG_VALUES[flag])
        if key in skip and (flag, mode) != ("--k-seed", "mc"):
            assert (code, out, err) == (2, "", f"error: {skip[key]} reads no {key} ({flag})\n")
        else:
            assert code == 0, (flag, err)


@pytest.mark.parametrize("error, code, line", [
    (InfeasibleRateError("too fast"), 3, "error: infeasible rate: too fast"),
    (ConvergenceError("stuck"), 4, "error: solver did not converge: stuck"),
    (FixtureError("bad row"), 5, "error: fixture: bad row"),
    (FileNotFoundError("gone"), 5, "error: i/o: gone"),
    (MemoryError("7.11 PiB"), 2, "error: out of memory: 7.11 PiB"),
    (ConfigError("bad key"), 2, "error: bad key"),
    (ValueError("bad value"), 2, "error: bad value"),
])
def test_each_error_type_maps_to_its_exit_code(monkeypatch, capsys, error, code, line):
    # InfeasibleRateError, FixtureError and ConfigError are ValueErrors: the first
    # two keep their own codes
    def handler(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_mmin", handler)
    assert run(capsys, *MMIN_ARGS) == (code, "", line + "\n")


_HUGE = str(10 ** 15)  # 7.11 PiB of float64, beyond any 64-bit address space: never overcommitted


@pytest.mark.parametrize("argv", [
    ("gen-k", "--m", _HUGE, "--k-target", "1"),
    ("capacity", "--mode", "mc", "--trials", _HUGE),
    ("sweep", "power", "--k-target", "10405", "--m", _HUGE),
])
def test_a_size_that_cannot_be_allocated_exits_2_with_one_line(tmp_path, capsys, argv):
    out = ("--out", str(tmp_path / "out")) if argv[0] == "sweep" else ()
    code, stdout, err = run(capsys, *argv, *out)
    assert (code, stdout) == (2, "")
    assert re.fullmatch(r"error: out of memory: Unable to allocate 7\.11 PiB .*\n", err), err
    assert not (tmp_path / "out").exists()


def test_every_error_type_has_an_exit_code():
    # an error type outside _EXITS would escape the command line as a traceback
    types = [value for value in vars(errors).values()
             if isinstance(value, type) and value.__module__ == errors.__name__]
    assert types
    for error in types:
        assert issubclass(error, tuple(cli._EXITS)), error


def test_an_unmapped_error_propagates(monkeypatch):
    def handler(args):
        raise KeyError("no exit code")

    monkeypatch.setattr(cli, "_cmd_mmin", handler)
    with pytest.raises(KeyError, match="no exit code"):
        main(MMIN_ARGS)


def test_sweep_rate_names_the_power_at_which_beta_overflows(tmp_path, capsys):
    code, out, err = run(capsys, "sweep", "rate", "--pt-dbm", "3080", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert "pt_dbm=3080.0" in err


@pytest.mark.parametrize("argv, path, expected", [
    (["--m", "12"], "array.M", 12),
    (["--f0-hz", "2e9"], "array.f0_hz", 2e9),
    (["--delta-f-hz", "2e6"], "array.delta_f_hz", 2e6),
    (["--spacing-m", "0.07"], "array.spacing.meters", 0.07),
    (["--bob-r-m", "90"], "bob.r_m", 90.0),
    (["--bob-theta-deg", "30"], "bob.theta_deg", 30.0),
    (["--eve-r-m", "95"], "eve.r_m", 95.0),
    (["--eve-theta-deg", "33"], "eve.theta_deg", 33.0),
    (["--dr-m", "6"], "region.dr_m", 6.0),
    (["--dtheta-deg", "4"], "region.dtheta_deg", 4.0),
    (["--pt-dbm", "25"], "power.pt_dbm", 25.0),
    (["--sigma-b2-dbm", "1"], "power.sigma_b2_dbm", 1.0),
    (["--sigma-e2-dbm", "2"], "power.sigma_e2_dbm", 2.0),
    (["--delta", "0.7"], "power.delta", 0.7),
    (["--mode", "mc"], "mode", "mc"),
    (["--k-target", "150"], "k_source.k_target", 150.0),
    (["--k-target", "150", "--k-method", "eigen"], "k_source.method", "eigen"),
    (["--k-target", "150", "--k-seed", "9"], "k_source.seed", 9),
    (["--fixture-label", "K12905"], "k_source.label", "K12905"),
    (["--fixture-path", "table.csv"], "k_source.path", "table.csv"),
])
def test_scenario_flag_sets_its_config_path(argv, path, expected):
    args = build_parser().parse_args(["capacity", *argv])
    value = scenario_to_config(_scenario_from_args(args))
    for key in path.split("."):
        value = value[key]
    if isinstance(expected, float):
        expected = pytest.approx(expected)
    assert value == expected


def _parsers(parser=None, words=()):
    "Every parser of the command tree, with the command words that select it."
    parser = parser or build_parser()
    yield words, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parsers(child, (*words, name))


# command -> its flags; each sweep kind is a command of its own
_COMMAND_FLAGS = {" ".join(words): {flag for action in parser._actions
                                    if not isinstance(action, argparse._HelpAction)
                                    for flag in action.option_strings}
                  for words, parser in _parsers()
                  if words and not parser._subparsers}
# --config stands in for the scenario flags, --out only says where a result
# goes, and --workers has no effect: it stays on sweep power for the benchmark
_NO_OUTPUT_FLAGS = {"--config", "--out", "--workers"}
# command -> the arguments every case of it starts from: small grids, few draws
_BASES = {
    "mmin": MMIN_ARGS[1:],
    "kmin": ["--beta", "0.4", "--dr-m", "8", "--dtheta-deg", "5", "--bob-theta-deg", "45"],
    "region": ["--beta", "0.4"],
    "gen-k": ["--m", "8", "--k-target", "100"],
    "beampattern": ["--r-step", "8", "--theta-step-deg", "5"],
    "capacity": [],
    "sweep power": ["--pt-max", "2"],
    "sweep delta": ["--delta-max", "0.15"],
    "sweep bandwidth": [],
    "sweep rate": ["--rs-max", "2"],
    "validate-fixtures": [],
}
_MC = (("--mode", "mc"), ("--trials", "2"))  # lb refuses --trials
_GENERATED = (("--k-target", "10405"), ("--beta-seeds", "2"))
# flag -> the (flag, value) pairs the base needs before the flag can show; a pair
# whose flag the command does not take is left out
_NEEDS = {
    # half-wavelength spacing holds f0 * d at c / 2, so f0 shows only at a fixed d
    "--f0-hz": (("--spacing-m", "0.15"),),
    # the lower bound reads the region around bob, not his range or the probe
    "--bob-r-m": _MC, "--eve-r-m": _MC, "--eve-theta-deg": _MC,
    "--trials": _MC, "--seed": _MC,
    # a fixture vector has 16 entries
    "--m": _GENERATED,
    "--k-method": _GENERATED, "--k-seed": _GENERATED, "--beta-seeds": _GENERATED,
}
# flag -> a value that differs from the base's (None: a switch)
_VALUES = {
    "--m": "12", "--f0-hz": "2e9", "--delta-f-hz": "2e6", "--spacing-m": "0.1",
    "--bob-r-m": "104", "--bob-theta-deg": "60", "--eve-r-m": "103",
    "--eve-theta-deg": "43", "--dr-m": "4", "--dtheta-deg": "3", "--pt-dbm": "20",
    "--sigma-b2-dbm": "3", "--sigma-e2-dbm": "3", "--delta": "0.8", "--k-target": "500",
    "--k-method": "eigen", "--k-seed": "5", "--fixture-label": "K15405",
    "--fixture-path": "{table}", "--mode": "mc", "--scheme": "an", "--trials": "3",
    "--seed": "3", "--beta-seeds": "3", "--beta": "0.5",
    "--m-min": "20", "--method": "eigen", "--r-min": "90",
    "--r-max": "110", "--r-step": "4", "--theta-min-deg": "40", "--theta-max-deg": "50",
    "--theta-step-deg": "2.5", "--pt-min": "1", "--pt-max": "4", "--pt-step": "0.5",
    "--delta-min": "0.1", "--delta-max": "0.3", "--delta-step": "0.1",
    "--rs-min": "1", "--rs-max": "3", "--rs-step": "1", "--fixed-eta": "0.5",
    "--svg": None,
}
# (command, flag) -> the value of that flag on that command alone: validate-fixtures
# checks the table, so it needs one that passes
_COMMAND_VALUES = {("validate-fixtures", "--fixture-path"): "{valid}"}
# (command, flag) -> the base of that case alone: a given count refuses the
# angular flags of the kmin base, which it leaves unread
_COMMAND_BASES = {("kmin", "--m-min"): ["--beta", "0.4", "--dr-m", "8", "--m-min", "10"]}


def test_every_scenario_flag_changes_an_output(tmp_path, capsys):
    # a flag that no computation reads is dead weight: every flag of every
    # command must move its stdout, result.csv or plot.svg
    table = default_fixture_path().read_text().splitlines()
    rows = {line.split(",", 1)[0]: line.split(",", 1)[1] for line in table[1:]}
    # the K10405 row of this table holds the packaged K12905 increments
    (tmp_path / "table.csv").write_text(
        "\n".join([table[0], f"K10405,{rows['K12905']}", *table[2:]]) + "\n")
    (tmp_path / "valid.csv").write_text(f"{table[0]}\n{table[1]}\n")
    outputs = {}

    def output(command, argv):
        argv = [*command.split(), *(a.format(table=tmp_path / "table.csv",
                                             valid=tmp_path / "valid.csv") for a in argv)]
        if tuple(argv) in outputs:
            return outputs[tuple(argv)]
        writes = "--out" in _COMMAND_FLAGS[command]
        # each run writes to a directory of its own, so no file of another run shows
        out_dir = ["--out", str(tmp_path / str(len(outputs)))] if writes else []
        code, out, err = run(capsys, *argv, *out_dir)
        assert code == 0, (argv, err)
        if writes:
            run_dir = Path(out.strip())
            out = {name: (run_dir / name).read_bytes() for name in ("result.csv", "plot.svg")
                   if (run_dir / name).exists()}
        outputs[tuple(argv)] = out
        return out

    assert set(_BASES) == set(_COMMAND_FLAGS)
    for command, flags in _COMMAND_FLAGS.items():
        for flag in sorted(flags - _NO_OUTPUT_FLAGS):
            base = [*_COMMAND_BASES.get((command, flag), _BASES[command]),
                    *(word for pair in _NEEDS.get(flag, ()) if pair[0] in flags for word in pair)]
            value = _COMMAND_VALUES.get((command, flag), _VALUES[flag])
            setting = [flag] if value is None else [flag, value]
            assert output(command, base) != output(command, [*base, *setting]), \
                (command, flag)


@pytest.mark.parametrize("config, argv, flag", [
    ({"bob": 5}, ["--bob-r-m", "90"], "--bob-r-m"),
    ([1, 2], ["--pt-dbm", "10"], "--pt-dbm"),
    ({"k_source": 5}, ["--k-seed", "5"], "--k-seed"),
    (None, ["--k-seed", "5"], "--k-seed"),
    (None, ["--k-method", "eigen"], "--k-method"),
    ({"k_source": {"type": "fixture", "label": "K12905"}}, ["--k-seed", "5"], "--k-seed"),
    (None, ["--k-target", "10405", "--fixture-label", "K12905"], "--k-target"),
    (None, ["--k-target", "10405", "--fixture-path", "table.csv"], "--k-target"),
    (None, ["--mode", "mc", "--trials", "5", "--beta-seeds", "5"], "--beta-seeds"),
    # at a given beta lb reads no k flag, so the generated source comes from the file
    ({"k_source": {"type": "generated", "k_target": 10405}},
     ["--beta", "0.3", "--beta-seeds", "4"], "--beta-seeds"),
    (None, ["--beta-seeds", "4"], "--beta-seeds"),
    (None, ["--trials", "5"], "--trials"),
    (None, ["--beta", "0.3", "--trials", "5"], "--trials"),
    # at a given beta lb reads the array size and the power keys alone
    *((config, ["--beta", "0.3", flag, value], flag) for config, flag, value in (
        (None, "--f0-hz", "2e9"), (None, "--delta-f-hz", "2e6"), (None, "--spacing-m", "0.1"),
        (None, "--bob-r-m", "104"), (None, "--bob-theta-deg", "60"), (None, "--dr-m", "4"),
        (None, "--dtheta-deg", "3"), (None, "--k-target", "500"),
        ({"k_source": {"type": "generated", "k_target": 10405}}, "--k-method", "eigen"),
        ({"k_source": {"type": "generated", "k_target": 10405}}, "--k-seed", "5"),
        (None, "--fixture-label", "K15405"), (None, "--fixture-path", "/nonexistent.csv"))),
    # a sweep row names its command; the others run capacity
    (None, ["sweep", "rate", "--scheme", "no-an", "--fixed-eta", "0.5"], "--fixed-eta"),
    (None, ["sweep", "rate", "--delta", "1", "--fixed-eta", "0.5"], "--fixed-eta"),
    ({"power": {"delta": 1.0}}, ["sweep", "rate", "--fixed-eta", "0.9"], "--fixed-eta"),
])
def test_a_flag_that_cannot_apply_is_named_in_the_error(tmp_path, capsys, config, argv,
                                                          flag):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    if argv[0] != "sweep":
        argv = ["capacity", *argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert flag in err


_GENERATED = {"type": "generated", "k_target": 10405.0, "method": "eigen", "seed": 1}
_FIXTURE = {"type": "fixture", "label": "K12905"}


@pytest.mark.parametrize("k_source, argv, expected", [
    (_GENERATED, ["--k-seed", "5"], GeneratedK(10405.0, "eigen", 5)),
    (_GENERATED, ["--k-method", "projection"], GeneratedK(10405.0, "projection", 1)),
    (_GENERATED, ["--k-target", "500"], GeneratedK(500.0, "eigen", 1)),
    (_GENERATED, ["--fixture-label", "K15405"], FixtureK("K15405")),
    (_FIXTURE, ["--fixture-path", "table.csv"], FixtureK("K12905", "table.csv")),
    (_FIXTURE, ["--k-target", "500"], GeneratedK(500.0)),
    (_FIXTURE, ["--k-target", "500", "--k-seed", "3"], GeneratedK(500.0, seed=3)),
])
def test_k_flags_override_one_config_key(tmp_path, k_source, argv, expected):
    # a flag naming the other source type starts a fresh k_source section;
    # every other k flag overrides its one key and keeps the rest of the file
    (tmp_path / "cfg.json").write_text(json.dumps({"k_source": k_source}))
    args = build_parser().parse_args(["capacity", "--config", str(tmp_path / "cfg.json"),
                                      *argv])
    assert _scenario_from_args(args).k_source == expected


def test_beta_seeds_is_part_of_the_run_id(tmp_path, capsys):
    # beta_seeds changes an lb sweep over a generated k, so two counts must not
    # share a run directory; mc mode draws no beta, so it records no count
    def sweep(*argv, k=("--k-target", "10405")):
        code, out, _ = run(capsys, "sweep", "power", *k, "--pt-max", "2",
                           *argv, "--out", str(tmp_path))
        assert code == 0
        run_dir = Path(out.strip())
        return run_dir, json.loads((run_dir / "manifest.json").read_text()).get("beta_seeds")

    (few_dir, few), (many_dir, many) = sweep("--beta-seeds", "5"), sweep("--beta-seeds", "50")
    assert (few, many) == (5, 50)
    assert few_dir != many_dir
    mc = ("--mode", "mc", "--trials", "20")
    assert sweep(*mc)[1] is None
    # a fixture k gives one beta whatever the count, so it takes none and records none
    assert sweep(k=())[1] is None
    code, out, err = run(capsys, "sweep", "power", "--pt-max", "2", "--beta-seeds", "5",
                         "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert "--beta-seeds" in err


def test_seed_is_part_of_the_run_id_only_in_mc_mode(tmp_path, capsys):
    # the lower bound never reads the master seed, so lb seeds share one run
    # directory that records no seed and no trials; each mc seed is a run
    def run_dirs(*argv):
        dirs = set()
        for seed in ("5", "6"):
            code, out, _ = run(capsys, "sweep", "power", "--pt-max", "2", *argv,
                               "--seed", seed, "--out", str(tmp_path))
            assert code == 0
            dirs.add(Path(out.strip()))
        return dirs

    (lb_dir,) = run_dirs()
    assert not {"seed", "trials"} & set(json.loads((lb_dir / "manifest.json").read_text()))
    assert len(run_dirs("--mode", "mc", "--trials", "20")) == 2


@pytest.mark.parametrize("words, parser", _parsers(),
                         ids=[" ".join(words) or "rfda-secrecy" for words, _ in _parsers()])
def test_help_exits_0(capsys, words, parser):
    assert main([*words, "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: rfda-secrecy")
    # an abbreviation would let kmin read --delta as --delta-f-hz
    assert not parser.allow_abbrev


def _readme_commands() -> list[list[str]]:
    "The arguments of every ``rfda-secrecy`` line in the README's ``sh`` blocks."
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    return [shlex.split(line.split("#")[0])[1:] for block in blocks
            for line in block.splitlines() if line.startswith("rfda-secrecy ")]


def test_every_readme_command_parses():
    commands = _readme_commands()
    assert commands
    for argv in commands:
        build_parser().parse_args(argv)


def test_every_readme_command_runs(tmp_path, monkeypatch, capsys):
    # an example that parses can still exit 2 on a flag its run leaves unread
    monkeypatch.chdir(tmp_path)
    for argv in _readme_commands():
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_the_package_exports_only_its_version():
    # the package root binds no library name: each is imported from a module of the package
    assert rfda_secrecy.__all__ == ["__version__"]
    namespace: dict = {}
    exec("from rfda_secrecy import *", namespace)
    assert set(namespace) - {"__builtins__"} == {"__version__"}


def _fresh_interpreter_env() -> dict:
    "The environment of a fresh interpreter that imports this package from the tree under test."
    return {**os.environ, "PYTHONPATH": str(Path(rfda_secrecy.__file__).parents[1])}


def _loaded_by(statement: str) -> list[str]:
    "The package modules, and numpy if it is, that a fresh interpreter loads to run ``statement``."
    code = (f"import json, sys; {statement}; print(json.dumps(sorted(name for name in "
            "sys.modules if name == 'numpy' or name.startswith('rfda_secrecy.'))))")
    done = subprocess.run([sys.executable, "-c", code], env=_fresh_interpreter_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def test_cli_import_does_not_load_the_reference_module():
    # the scalar oracles in rfda_secrecy.reference exist for the tests; the
    # package and the command line must run without them
    assert "rfda_secrecy.reference" not in _loaded_by("import rfda_secrecy.cli")


def test_the_package_import_loads_only_the_version():
    assert _loaded_by("import rfda_secrecy") == ["rfda_secrecy.version"]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_version_is_written_once():
    import tomllib
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    attr = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert attr == "rfda_secrecy.version.VERSION"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_installed_script_and_python_dash_m_share_one_entry_point():
    import tomllib
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    target = pyproject["project"]["scripts"]["rfda-secrecy"]
    assert target == "rfda_secrecy.__main__:run"
    module_name, _, function_name = target.partition(":")
    module = importlib.import_module(module_name)
    assert getattr(module, function_name) is entry.run
    # `python -m rfda_secrecy` executes rfda_secrecy.__main__, whose guard calls run() alone
    guard = ast.parse(Path(module.__file__).read_text()).body[-1]
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    run()"


def test_run_calls_main_with_the_collector_off_and_freezes_after_it_returns(monkeypatch):
    seen = {}

    def stub_main():
        seen.update(enabled=gc.isenabled(), frozen=gc.get_freeze_count())
        return 3

    monkeypatch.setattr(cli, "main", stub_main)
    gc.freeze()  # moves everything alive so far, so that the stub's marker is all run() freezes
    before = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exited:
            entry.run()
        after = gc.get_freeze_count()
    finally:
        gc.unfreeze()  # the rest of the suite keeps its collector
    assert exited.value.code == 3
    assert seen == {"enabled": False, "frozen": before}
    assert after > before
    assert gc.isenabled()


def test_a_usage_error_in_run_freezes_and_leaves_the_collector_on(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["rfda-secrecy", "gen-k", "--k-target", "10405"])
    try:
        with pytest.raises(SystemExit) as exited:
            entry.run()
        frozen = gc.get_freeze_count()
    finally:
        gc.unfreeze()
    assert exited.value.code == 2
    assert "required: --m" in capsys.readouterr().err
    assert gc.isenabled()
    assert frozen > 0


def test_the_numpy_free_layer_loads_no_numpy():
    assert _loaded_by("import rfda_secrecy.scenario, rfda_secrecy.secrecyregion, "
                      "rfda_secrecy.svgchart") == [
        "rfda_secrecy.errors", "rfda_secrecy.scenario", "rfda_secrecy.schema",
        "rfda_secrecy.secrecyregion", "rfda_secrecy.svgchart", "rfda_secrecy.version"]


def test_parsing_loads_nothing_numeric():
    assert _loaded_by("import rfda_secrecy.cli; rfda_secrecy.cli.build_parser()") == [
        "rfda_secrecy.cli", "rfda_secrecy.errors", "rfda_secrecy.schema",
        "rfda_secrecy.version"]


def _run_in_a_fresh_interpreter(argv, cwd: Path) -> tuple:
    """Exit code of ``rfda_secrecy.__main__.run()`` on ``argv`` in a fresh interpreter, with
    the modules loaded at its exit, for each ``gc.freeze()`` the number of unreachable
    objects that ``gc.collect()`` finds just before it, and its stderr."""
    script = ("import atexit, gc, json, pathlib, sys\n"
              "garbage, freeze = [], gc.freeze\n"
              "gc.freeze = lambda: (garbage.append(gc.collect()), freeze())\n"
              "atexit.register(lambda: pathlib.Path('modules.json').write_text(json.dumps(\n"
              "[sorted(sys.modules), garbage])))\n"
              "from rfda_secrecy.__main__ import run\n"
              "run()\n")
    done = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd,
                          env=_fresh_interpreter_env(), capture_output=True, text=True,
                          timeout=120)
    return (done.returncode, *json.loads((cwd / "modules.json").read_text()), done.stderr)


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["sweep", "--help"], 0), (["--version"], 0),
    (["gen-k", "--k-target", "10405"], 2), (["mmin", "--beta", "2"], 2),
])
def test_help_version_and_usage_errors_exit_before_numpy_loads(tmp_path, argv, code):
    exit_code, modules, garbage, _ = _run_in_a_fresh_interpreter(argv, tmp_path)
    assert (exit_code, len(garbage)) == (code, 1)
    assert "numpy" not in modules
    assert {name for name in modules if name.startswith("rfda_secrecy.")} == {
        "rfda_secrecy.__main__", "rfda_secrecy.cli", "rfda_secrecy.errors",
        "rfda_secrecy.schema", "rfda_secrecy.version"}


@pytest.mark.parametrize("argv", [
    ["sweep", "bandwidth", "--mode", "mc", "--trials", "{n}"],
    ["sweep", "power", "--mode", "mc", "--k-target", "10405", "--m", "32", "--pt-max", "1",
     "--trials", "{n}"],
    ["sweep", "power", "--k-target", "10405", "--k-method", "eigen", "--pt-max", "1",
     "--beta-seeds", "{n}"],
], ids=["bandwidth-mc", "power-mc-generated", "power-lb-eigen"])
def test_the_garbage_a_command_leaves_does_not_grow_with_its_work(tmp_path, argv):
    # run() keeps the collector off while the command runs, which holds only
    # while the cyclic garbage that the command leaves is bounded
    garbage = []
    for n in (20, 2_000):
        cwd = tmp_path / str(n)
        cwd.mkdir()
        code, _, found, _ = _run_in_a_fresh_interpreter(
            [arg.format(n=n) for arg in [*argv, "--out", "out"]], cwd)
        assert (code, len(found)) == (0, 1)
        garbage += found
    assert garbage[0] == garbage[1]


# the package modules that every command running on the numpy-free layer alone loads
_NUMPY_FREE_MODULES = {"rfda_secrecy.__main__", "rfda_secrecy.cli", "rfda_secrecy.errors",
                       "rfda_secrecy.schema", "rfda_secrecy.version", "rfda_secrecy.scenario"}
_SECRECYREGION = "rfda_secrecy.secrecyregion"
_INFEASIBLE = ("error: infeasible rate: every grid point is infeasible for the requested "
               "scheme(s); raise the transmit power or lower the rate\n")


def _numpy_free(argv) -> bool:
    "Whether ``argv`` runs without numpy: mmin, kmin, region, sweep rate and validate-fixtures."
    return (argv[0] in ("mmin", "kmin", "region", "validate-fixtures")
            or argv[:2] == ["sweep", "rate"])


@pytest.mark.parametrize("argv, code, stderr, loads", [
    (MMIN_ARGS, 0, "", {_SECRECYREGION}),
    (["kmin", "--beta", "0.4", "--dr-m", "8", "--dtheta-deg", "5", "--bob-theta-deg", "45"],
     0, "", {_SECRECYREGION}),
    (["kmin", "--beta", "0.4", "--dr-m", "8", "--dtheta-deg", "5", "--bob-theta-deg", "45",
      "--f0-hz", "2e9", "--delta-f-hz", "2e6", "--spacing-m", "0.1"], 0, "", {_SECRECYREGION}),
    (["kmin", "--beta", "0.4", "--dr-m", "8", "--m-min", "16"], 0, "", {_SECRECYREGION}),
    (["sweep", "rate", "--pt-dbm", "30", "--out", "out"], 0, "", {_SECRECYREGION}),
    (["sweep", "rate", "--svg", "--out", "out"], 0, "", {_SECRECYREGION, "rfda_secrecy.svgchart"}),
    (["sweep", "rate", "--config", "config.json", "--out", "out"], 0, "", {_SECRECYREGION}),
    # rates 1001 and 2001 are gaps (their gain overflows), and a gap loads no numpy
    (["sweep", "rate", "--rs-min", "1", "--rs-max", "2001", "--rs-step", "1000", "--out", "out"],
     0, "", {_SECRECYREGION}),
    (["sweep", "rate", "--pt-dbm", "-200"], 3, _INFEASIBLE, {_SECRECYREGION}),
    (["region", "--beta", "0.4"], 0, "", {_SECRECYREGION}),
    (["region", "--beta", "0.4", "--fixture-label", "K15405"], 0, "", {_SECRECYREGION}),
    (["region", "--beta", "0.4", "--fixture-path", "table.csv"], 0, "", {_SECRECYREGION}),
    (["region", "--beta", "0.4", "--k-target", "10405"], 0, "", {_SECRECYREGION}),
    (["region", "--beta", "0.4", "--config", "region.json"], 0, "", {_SECRECYREGION}),
    (["region", "--beta", "0.4", "--m", "8"], 2,
     "error: frequency vector has length 16, array has 8 elements\n", {_SECRECYREGION}),
    (["region", "--beta", "0.4", "--fixture-label", "K99"], 5,
     "error: fixture: fixture row 'K99' not found\n", {_SECRECYREGION}),
    (["validate-fixtures"], 0, "", set()),
    (["validate-fixtures", "--fixture-path", "bad.csv"], 5, "fixture checks FAILED\n", set()),
    (["validate-fixtures", "--fixture-path", "missing.csv"], 5,
     "error: fixture: fixture file not found: missing.csv\n", set()),
], ids=["mmin", "kmin", "kmin-array", "kmin-m-min", "sweep-rate", "sweep-rate-svg",
        "sweep-rate-config", "sweep-rate-gaps", "sweep-rate-infeasible", "region",
        "region-label", "region-path", "region-k-target", "region-config", "region-m-8",
        "region-no-row", "validate-fixtures", "validate-fixtures-fail",
        "validate-fixtures-missing"])
def test_the_closed_form_commands_never_load_numpy(tmp_path, argv, code, stderr, loads):
    (tmp_path / "config.json").write_text('{"power": {"pt_dbm": 25.0, "delta": 0.5}}')
    (tmp_path / "region.json").write_text(
        '{"array": {"f0_hz": 2e9}, "k_source": {"type": "fixture", "label": "K12905"}}')
    table = default_fixture_path().read_text()
    (tmp_path / "table.csv").write_text(table)
    (tmp_path / "bad.csv").write_text(table.replace("-15.2,", "-40.0,", 1))
    exit_code, modules, garbage, err = _run_in_a_fresh_interpreter(argv, tmp_path)
    assert _numpy_free(argv)
    assert (exit_code, len(garbage), err) == (code, 1, stderr)
    assert "numpy" not in modules
    assert {name for name in modules if name.startswith("rfda_secrecy.")} == {
        *_NUMPY_FREE_MODULES, *loads}


def _benchmark_argvs(out: Path) -> list[list[str]]:
    "Every distinct command line of ``bench/run.py``'s workloads, at program seed 0."
    source = Path(__file__).parents[1] / "bench" / "run.py"
    module = types.ModuleType("bench_run_argvs")
    module.__file__ = str(source)
    sys.modules[module.__name__] = module  # dataclasses resolve annotations through it
    try:
        exec(compile(source.read_text(), source, "exec"), module.__dict__)
        commands = {cmd.argv: cmd.name for workload in module.WORKLOADS.values()
                    for cmd in workload.commands}
    finally:
        del sys.modules[module.__name__]
    return [[arg.format(seed=0, out=out / name) for arg in argv]
            for argv, name in commands.items()]


def test_every_benchmark_and_readme_command_exits_0_and_freezes_once(tmp_path):
    argvs = [*_benchmark_argvs(tmp_path / "bench"), *_readme_commands()]
    assert len(argvs) > 15
    # numpy loads for exactly the commands outside the numpy-free set, and both kinds run
    assert {_numpy_free(argv) for argv in argvs} == {False, True}
    outcomes, expected = {}, {}
    for argv in argvs:
        code, modules, garbage, _ = _run_in_a_fresh_interpreter(argv, tmp_path)
        outcomes[shlex.join(argv)] = (code, len(garbage), "numpy" in modules)
        expected[shlex.join(argv)] = (0, 1, not _numpy_free(argv))
    assert outcomes == expected


def _run_dir_files(out: Path) -> dict:
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("argv, code", [
    (["gen-k", "--m", "16", "--k-target", "10405", "--seed", "3"], 0),
    (["sweep", "bandwidth", "--mode", "mc", "--trials", "130", "--seed", "3", "--out", "{out}"], 0),
    (["capacity", "--mode", "mc", "--trials", "1"], 2),
    (["mmin", "--no-such-flag"], 2),
])
def test_python_dash_m_and_cli_main_give_the_same_outputs(argv, code, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [arg.replace("{out}", str(out)) for arg in argv]
    done = subprocess.run([sys.executable, "-m", "rfda_secrecy", *argv],
                          env=_fresh_interpreter_env(), capture_output=True, text=True,
                          timeout=60)
    by_module = (done.returncode, done.stdout, done.stderr, _run_dir_files(out))
    shutil.rmtree(out, ignore_errors=True)
    by_main = (*run(capsys, *argv), _run_dir_files(out))
    assert by_module == by_main
    assert by_main[0] == code
    assert bool(by_main[3]) == ("--out" in argv)
