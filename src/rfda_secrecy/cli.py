"""Command-line interface.

Subcommands mirror the library surface: closed-form resource minima (mmin,
kmin, region), frequency-vector synthesis (gen-k), beampattern export,
capacity evaluation and the four sweep families, plus fixture validation.

Exit codes: 0 success, 2 invalid arguments or configuration, 3 infeasible
rate, 4 solver non-convergence, 5 fixture or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import (ConfigError, ConvergenceError, FixtureError,
                     InfeasibleRateError)
from .freqdesign import generate_k, rho1, rho2
from .secrecyregion import Scheme, ellipse_semi_axes, k_min, m_min
from .svgchart import line_chart
from .sweep import (READS, SEED_LIMIT, Scenario, beampattern_csv_text, beampattern_grid,
                    estimator, k_norm2, read_config, run_manifest, scenario_from_config,
                    sweep_bandwidth, sweep_delta, sweep_power, sweep_rate, unread,
                    validate_fixtures, write_run, write_run_dir)
from .version import VERSION

_SCHEME_CHOICES = {"an": (Scheme.WITH_AN,), "no-an": (Scheme.WITHOUT_AN,), "both": tuple(Scheme)}
_MAX_AXIS_POINTS = 10_000
_MAX_BEAMPATTERN_POINTS = 1_000_000
# error -> (exit code, message prefix), each subclass before its base; ConfigError is a ValueError
_EXITS = {InfeasibleRateError: (3, "infeasible rate: "),
          ConvergenceError: (4, "solver did not converge: "), FixtureError: (5, "fixture: "),
          OSError: (5, "i/o: "), ValueError: (2, "")}


def _grid(lo: float, hi: float, step: float) -> list[float]:
    if not all(math.isfinite(value) for value in (lo, hi, step)):
        raise ValueError(f"grid bounds and step must be finite, got {lo}, {hi}, {step}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"grid upper bound {hi} below lower bound {lo}")
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_AXIS_POINTS:
        raise ValueError(f"grid {lo}:{hi}:{step} has more than {_MAX_AXIS_POINTS} points")
    points = [round(lo + i * step, 10) for i in range(int(math.floor(span)) + 1)]
    if any(b <= a for a, b in zip(points, points[1:])):  # rounding can merge neighbours
        raise ValueError(f"grid step {step} repeats points rounded to 10 decimals")
    return points


def _number_in(lo: float, hi: float):
    "argparse type: a finite float in the closed interval [lo, hi]."
    def number(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and lo <= value <= hi):
            raise argparse.ArgumentTypeError(
                f"must be a finite number in [{lo:g}, {hi:g}], got {text}")
        return value
    return number


def _integer_in(lo: int, hi: float):
    "argparse type: an integer in the half-open interval [lo, hi)."
    def integer(text: str) -> int:
        value = int(text)
        if not lo <= value < hi:
            raise argparse.ArgumentTypeError(f"must be an integer in [{lo}, {hi}), got {text}")
        return value
    return integer


# scenario flag -> (type, or a tuple of choices; configuration key it overrides; help)
_SCENARIO_FLAGS = {
    "--m": (int, "array.M", "number of array elements"),
    "--f0-hz": (float, "array.f0_hz", "carrier frequency in Hz"),
    "--delta-f-hz": (float, "array.delta_f_hz", "frequency-increment reference in Hz"),
    "--spacing-m": (float, "array.spacing",
                    "element spacing in meters (default: half wavelength)"),
    "--bob-r-m": (float, "bob.r_m", "intended receiver range"),
    "--bob-theta-deg": (float, "bob.theta_deg", "intended receiver angle"),
    "--eve-r-m": (float, "eve.r_m", "eavesdropper probe range"),
    "--eve-theta-deg": (float, "eve.theta_deg", "eavesdropper probe angle"),
    "--dr-m": (float, "region.dr_m", "region half-width in range"),
    "--dtheta-deg": (float, "region.dtheta_deg", "region half-width in angle"),
    "--pt-dbm": (float, "power.pt_dbm", "transmit power in dBm"),
    "--sigma-b2-dbm": (float, "power.sigma_b2_dbm", "intended noise floor"),
    "--sigma-e2-dbm": (float, "power.sigma_e2_dbm", "eavesdropper noise floor"),
    "--delta": (float, "power.delta", "signal power fraction"),
    "--k-target": (float, "k_source.k_target", "generate k with this squared norm"),
    "--k-method": (("projection", "eigen"), "k_source.method", "k generation method"),
    "--k-seed": (_integer_in(0, SEED_LIMIT), "k_source.seed", "k generation seed"),
    "--fixture-label": (str, "k_source.label", "use this fixture-table row as k"),
    "--fixture-path": (str, "k_source.path", "fixture table file (default: the packaged one)"),
    "--mode": (("lb", "mc"), "mode", "evaluation mode"),
}
# flag -> its argparse keywords: every scenario flag, and each flag of several commands
_FLAGS = {
    **{flag: {"choices" if isinstance(kind, tuple) else "type": kind, "help": text}
       for flag, (kind, _, text) in _SCENARIO_FLAGS.items()},
    "--config": dict(help="JSON configuration file"),
    "--beta": dict(type=_number_in(0.0, 1.0), help="boundary correlation"),
    "--scheme": dict(choices=sorted(_SCHEME_CHOICES), default="both"),
    "--trials": dict(type=_integer_in(1, math.inf)),
    "--seed": dict(type=_integer_in(0, SEED_LIMIT), default=0),
    "--beta-seeds": dict(type=_integer_in(1, math.inf)),
    "--out": dict(default="out"),
    "--svg": dict(action="store_true"),
}
_EVALUATION_FLAGS = ("--scheme", "--trials", "--seed", "--beta-seeds")


def _reads(command: str) -> tuple:
    "The scenario flags of the keys that ``command`` reads: it accepts no other."
    return tuple(flag for key in READS[command]
                 for flag, (_, path, _) in _SCENARIO_FLAGS.items() if path == key)


def _add_command(sub, name: str, text: str, flags, required=(), **defaults):
    "The parser of one command, with ``flags`` (``required`` among them) and ``defaults``."
    # no abbreviated flag: kmin must not read --delta as --delta-f-hz
    p = sub.add_parser(name, help=text, allow_abbrev=False)
    for flag in flags:
        p.add_argument(flag, required=flag in required, **_FLAGS[flag])
    p.set_defaults(**defaults)
    return p


def _flag_config(args: argparse.Namespace, cfg) -> dict:
    "Write every scenario flag given on the command line into ``cfg`` at its key."
    for flag, (_, path, _) in _SCENARIO_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            if not isinstance(cfg, dict):
                raise ConfigError(f"{flag}: the configuration root is not a JSON object")
            section, _, key = path.rpartition(".")
            target = cfg.setdefault(section, {}) if section else cfg
            if not isinstance(target, dict):
                raise ConfigError(f"{flag}: configuration section {section} is not a "
                                  f"JSON object, got {target!r}")
            target[key] = value
    return cfg


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    "The scenario of the flags given, over ``--config`` where the command has that flag."
    cfg: dict = {}
    if getattr(args, "config", None):
        try:
            cfg = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: {exc}") from exc
    k_flags = _flag_config(args, {}).get("k_source", {})
    fixture = "label" in k_flags or "path" in k_flags
    if "k_target" in k_flags and fixture:
        raise ConfigError("--k-target excludes --fixture-label and --fixture-path")
    kind = "generated" if "k_target" in k_flags else "fixture" if fixture else None
    if kind and isinstance(cfg, dict):
        # a flag naming a source type starts a fresh section over one of the other type
        sec = cfg.setdefault("k_source", {"type": kind})
        if isinstance(sec, dict) and sec.get("type", kind) != kind:
            cfg["k_source"] = {"type": kind}
    _flag_config(args, cfg)
    for flag, key in (("--k-method", "method"), ("--k-seed", "seed")):
        if key in k_flags and cfg["k_source"].get("type") != "generated":
            raise ConfigError(f"{flag} needs a generated k source: give --k-target or "
                              f"a configuration k_source of type 'generated'")
    return scenario_from_config(cfg)


def _refuse(args: argparse.Namespace, skip: dict[str, str]) -> None:
    "Refuse the first flag given of the first reader in ``skip``, bar --k-seed in mc (benchmark)."
    for reader in dict.fromkeys(skip.values()):
        for flag, (_, key, _) in _SCENARIO_FLAGS.items():
            if (skip.get(key) == reader and (key, reader) != ("k_source.seed", "mc mode")
                    and getattr(args, flag[2:].replace("-", "_"), None) is not None):
                raise ValueError(f"{reader} reads no {key} ({flag})")


def _scenario(args: argparse.Namespace, command: str) -> Scenario:
    "The scenario of the flags given; a flag whose key ``command`` leaves unread on it is refused."
    s = _scenario_from_args(args)
    _refuse(args, unread(s, command, getattr(args, "beta", None), getattr(args, "m_min", None)))
    return s


def _cmd_mmin(args: argparse.Namespace) -> int:
    s = _scenario(args, "mmin")
    print(f"{m_min(args.beta, s.region, s.bob.theta_rad, s.array):.2f}")
    return 0


def _cmd_kmin(args: argparse.Namespace) -> int:
    s = _scenario(args, "kmin")
    if args.m_min is None and None in (args.dtheta_deg, args.bob_theta_deg):
        raise ConfigError("kmin needs either --m-min or both --dtheta-deg and --bob-theta-deg")
    m_value = args.m_min or m_min(args.beta, s.region, s.bob.theta_rad, s.array)
    print(f"{k_min(args.beta, s.region, s.array, m_value):.2f}")
    return 0


def _cmd_region(args: argparse.Namespace) -> int:
    s = _scenario(args, "region")
    axes = ellipse_semi_axes(s.array, s.array.n_elements, k_norm2(s), args.beta,
                             s.bob.theta_rad)
    m_value = m_min(args.beta, s.region, s.bob.theta_rad, s.array)
    k_value = k_min(args.beta, s.region, s.array, m_value)
    fits = axes[0] <= s.region.dr_m and axes[1] <= s.region.dtheta_rad
    print(f"ellipse_dr_m={axes[0]:.6f}")
    print(f"ellipse_dtheta_deg={math.degrees(axes[1]):.6f}")
    print(f"m_min={m_value:.2f}")
    print(f"k_min={k_value:.2f}")
    print(f"fits_region={'yes' if fits else 'no'}")
    return 0


def _cmd_gen_k(args: argparse.Namespace) -> int:
    k = generate_k(args.m, args.k_target, args.method, args.seed)
    print("k=" + ",".join(repr(float(v)) for v in k))
    print(f"K={float(k @ k)!r}")
    print(f"sum={float(k.sum())!r}")
    print(f"rho1={rho1(k)!r}")
    print(f"rho2={rho2(k)!r}")
    return 0


def _axis(given_lo, given_hi, step: float, bob: float, half: float, flag: str) -> list[float]:
    "A grid axis between the bounds given, else Bob's coordinate -/+ 3 half-widths ``half``."
    bounds = []
    for given, bound in ((given_lo, bob - 3 * half), (given_hi, bob + 3 * half)):
        if given is None and bound == bob:
            raise ValueError(f"{flag} {half:g} rounds away at Bob's coordinate {bob!r}: the "
                             f"default grid would hold that one value")
        bounds.append(bound if given is None else given)
    return _grid(*bounds, step)


def _cmd_beampattern(args: argparse.Namespace) -> int:
    s = _scenario(args, "beampattern")
    # the region sets nothing but the default grid, which the manifest records
    config = read_config(s, "beampattern")
    bob, region = config["bob"], config.pop("region")
    r_values = _axis(args.r_min, args.r_max, args.r_step, bob["r_m"], region["dr_m"], "--dr-m")
    theta_deg = _axis(args.theta_min_deg, args.theta_max_deg, args.theta_step_deg,
                      bob["theta_deg"], region["dtheta_deg"], "--dtheta-deg")
    if len(r_values) * len(theta_deg) > _MAX_BEAMPATTERN_POINTS:
        raise ValueError(f"beampattern grid exceeds {_MAX_BEAMPATTERN_POINTS} points")
    power = beampattern_grid(s, r_values, [math.radians(t) for t in theta_deg])
    manifest = run_manifest({"config": config, "grid": {"r": r_values, "theta_deg": theta_deg}})
    print(write_run_dir(args.out, "beampattern", beampattern_csv_text(r_values, theta_deg, power),
                        manifest))
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    s = _scenario(args, "capacity")
    evaluate, _ = estimator(s, args.trials, args.seed, args.beta_seeds, args.beta)
    for scheme in _SCHEME_CHOICES[args.scheme]:
        value, err = evaluate(s, scheme)
        print(f"{scheme.value}={value:.4f}" + ("" if err is None else f" stderr={err:.4f}"))
    return 0


def _evaluation(args: argparse.Namespace) -> dict:
    return dict(schemes=_SCHEME_CHOICES[args.scheme], trials=args.trials, seed=args.seed,
                n_seeds=getattr(args, "beta_seeds", None))


def _cmd_sweep(args: argparse.Namespace) -> int:
    result = args.run(_scenario(args, args.kind), args)
    run_dir = write_run(result, args.out, f"sweep-{args.kind}")
    if args.svg:
        (run_dir / "plot.svg").write_text(line_chart(result, title=f"{args.kind} sweep"))
    print(run_dir)
    return 0


def _cmd_validate_fixtures(args: argparse.Namespace) -> int:
    report = validate_fixtures(args.fixture_path)
    for row in report["rows"]:
        if "reason" in row:
            print(f"{row['label']}: FAIL ({row['reason']})")
            continue
        print(f"{row['label']}: k_squared={row['k_squared']:.2f} "
              f"({'ok' if row['k_squared_ok'] else 'FAIL'}) "
              f"span={row['span_mhz']:.1f} MHz "
              f"({'ok' if row['span_ok'] else 'FAIL'}) "
              f"sum={row['sum']:.2f} ({'ok' if row['sum_ok'] else 'FAIL'})")
    if report["ok"]:
        print("all fixture checks passed")
        return 0
    print("fixture checks FAILED", file=sys.stderr)
    return 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfda-secrecy", allow_abbrev=False,
        description="Secrecy-region analysis for random frequency diverse array "
                    "directional modulation")
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "mmin", "minimum element count for a region", ("--beta", *_reads("mmin")),
                 {"--beta", "--bob-theta-deg", "--dtheta-deg"}, handler=_cmd_mmin)

    p = _add_command(sub, "kmin", "minimum squared frequency-spread norm",
                     ("--beta", *_reads("kmin")), {"--beta", "--dr-m"}, handler=_cmd_kmin)
    p.add_argument("--m-min", type=_number_in(1.0, math.inf))

    _add_command(sub, "region", "confinement ellipse and resource minima",
                 ("--config", "--beta", *_reads("region")), {"--beta"}, handler=_cmd_region)

    p = _add_command(sub, "gen-k", "draw a frequency-increment vector",
                     ("--m", "--k-target", "--seed"), {"--m", "--k-target"}, handler=_cmd_gen_k)
    p.add_argument("--method", choices=("projection", "eigen"), default="projection")

    p = _add_command(sub, "beampattern", "export a beampattern grid as CSV",
                     ("--config", *_reads("beampattern"), "--out"), handler=_cmd_beampattern)
    p.add_argument("--r-min", type=float)
    p.add_argument("--r-max", type=float)
    p.add_argument("--r-step", type=float, default=0.5)
    p.add_argument("--theta-min-deg", type=float)
    p.add_argument("--theta-max-deg", type=float)
    p.add_argument("--theta-step-deg", type=float, default=0.25)

    _add_command(sub, "capacity", "secrecy capacity for one scenario",
                 ("--config", *_reads("capacity"), *_EVALUATION_FLAGS, "--beta"),
                 handler=_cmd_capacity)

    kinds = _add_command(sub, "sweep", "run a parameter sweep", (), handler=_cmd_sweep
                         ).add_subparsers(dest="kind", required=True)
    p = _add_command(kinds, "power", "secrecy capacity versus transmit power",
                     ("--config", *_reads("power"), *_EVALUATION_FLAGS, "--out", "--svg"),
                     run=lambda s, a: sweep_power(s, _grid(a.pt_min, a.pt_max, a.pt_step),
                                                  **_evaluation(a)))
    p.add_argument("--pt-min", type=float, default=0.0)
    p.add_argument("--pt-max", type=float, default=30.0)
    p.add_argument("--pt-step", type=float, default=1.0)
    # read by nothing; kept because the benchmark passes it to this sweep
    p.add_argument("--workers", type=int, default=1, help="no effect; trials run serially")
    p = _add_command(kinds, "delta", "secrecy capacity versus the signal power fraction",
                     ("--config", *_reads("delta"), *_EVALUATION_FLAGS, "--out", "--svg"),
                     run=lambda s, a: sweep_delta(
                         s, _grid(a.delta_min, a.delta_max, a.delta_step), **_evaluation(a)))
    p.add_argument("--delta-min", type=float, default=0.05)
    p.add_argument("--delta-max", type=float, default=0.95)
    p.add_argument("--delta-step", type=float, default=0.05)
    _add_command(kinds, "bandwidth", "secrecy capacity across the fixture vectors",
                 ("--config", *_reads("bandwidth"), "--scheme", "--trials", "--seed", "--out",
                  "--svg"), run=lambda s, a: sweep_bandwidth(s, **_evaluation(a)))
    p = _add_command(kinds, "rate", "minimum element count versus the target rate",
                     ("--config", *_reads("rate"), "--scheme", "--out", "--svg"),
                     run=lambda s, a: sweep_rate(s, _grid(a.rs_min, a.rs_max, a.rs_step),
                                                 _SCHEME_CHOICES[a.scheme], fixed_eta=a.fixed_eta))
    p.add_argument("--rs-min", type=_number_in(0.0, math.inf), default=0.5)
    p.add_argument("--rs-max", type=float, default=6.0)
    p.add_argument("--rs-step", type=float, default=0.5)
    p.add_argument("--fixed-eta", type=_number_in(0.0, 1.0),
                   help="override the element-count feedback in the rate solver")

    _add_command(sub, "validate-fixtures", "check the frequency table", ("--fixture-path",),
                 handler=_cmd_validate_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except tuple(_EXITS) as exc:  # any other error propagates
        code, prefix = next(rule for error, rule in _EXITS.items() if isinstance(exc, error))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
