"""Experiment orchestration: scenarios, Monte Carlo estimation, sweeps, output.

A :class:`Scenario` bundles everything one experiment needs (array, the two
receiver locations, region, powers, frequency-vector source and evaluation
mode).  Sweeps vary one axis, evaluate both transmit schemes per point and
return a :class:`SweepResult` that serializes to a CSV plus a JSON manifest
carrying the configuration keys that the sweep reads (:data:`READS`) and their
content hash.

Reproducibility contract: every random quantity is drawn from a counter-based
stream keyed by (master seed, trial index), so results are bit-identical for
a given seed.  Trials are drawn serially and evaluated in blocks.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from collections.abc import Callable
from dataclasses import asdict, astuple, dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .arraymodel import (ArrayConfig, Location, _as_k, _correlation2, _pq, _steering_rows,
                         correlation2_outer, half_wavelength_spacing, steering_vector)
from .dmsecurity import (PowerConfig, an_leakage, an_vector, capacity_bob, capacity_eve_an,
                         complex_from_parts, secrecy_capacity, c_an_lb, eta)
from .errors import ConfigError, FixtureError, InfeasibleRateError
from .freqdesign import FIXTURES, generate_k, load_frequency_table, require_feasible
from .secrecyregion import Scheme, SecrecyRegion, beta_boundary, solve_m_min
from .version import VERSION

SEED_LIMIT = 2 ** 63  # user seeds, master and frequency-vector, lie in [0, SEED_LIMIT)
DEFAULT_BETA_SEEDS = 100  # draws of a generated k whose boundary correlations lb averages
DEFAULT_TRIALS = 10000  # Monte Carlo trials per point of an mc evaluation


class Mode(Enum):
    "Evaluation mode: closed-form lower bound or Monte Carlo average."

    ANALYTIC_LB = "lb"
    MONTE_CARLO = "mc"


@dataclass(frozen=True)
class GeneratedK:
    "Frequency vector drawn per seed with a target squared norm."

    k_target: float
    method: str = "projection"
    seed: int = 0


@dataclass(frozen=True)
class FixtureK:
    "Frequency vector taken from a labeled fixture-table row."

    label: str = "K10405"
    path: str | None = None


@dataclass(frozen=True)
class Scenario:
    array: ArrayConfig
    bob: Location
    eve: Location
    region: SecrecyRegion
    power: PowerConfig
    k_source: GeneratedK | FixtureK
    mode: Mode


def default_scenario(**overrides) -> Scenario:
    """Baseline scenario: 16 half-wavelength elements at 1 GHz, 1 MHz increment
    reference, receiver at (100 m, 45 deg), eavesdropper probe at
    (108 m, 40 deg), region half-widths (8 m, 5 deg), 0 dBm noise floors and a
    60/40 signal/AN power split."""
    base = Scenario(
        array=ArrayConfig.half_wavelength(16, 1e9, 1e6),
        bob=Location(100.0, math.radians(45.0)),
        eve=Location(108.0, math.radians(40.0)),
        region=SecrecyRegion(8.0, math.radians(5.0)),
        power=PowerConfig(pt_dbm=30.0, sigma_b2_dbm=0.0, sigma_e2_dbm=0.0, delta=0.6),
        k_source=FixtureK(),
        mode=Mode.ANALYTIC_LB,
    )
    return replace(base, **overrides) if overrides else base


# ---------------------------------------------------------------------------
# configuration mapping (JSON round trip)
# ---------------------------------------------------------------------------

def _degrees(rad: float) -> float:
    """``math.degrees(rad)``, or where that maps back to other radians, its neighbour
    that maps back to ``rad``, so that a configuration re-runs its own scenario.
    Radians that no degree value maps to (built in Python) keep ``math.degrees``."""
    deg = math.degrees(rad)
    near = (deg, math.nextafter(deg, -math.inf), math.nextafter(deg, math.inf))
    return next((d for d in near if math.radians(d) == rad), deg)


def scenario_to_config(s: Scenario) -> dict:
    "Fully resolved, JSON-serializable configuration, from which the scenario is rebuilt."
    k_type = "generated" if isinstance(s.k_source, GeneratedK) else "fixture"
    return {
        "array": {"M": s.array.n_elements, "f0_hz": s.array.f0_hz,
                  "delta_f_hz": s.array.delta_f_hz,
                  "spacing": {"meters": s.array.spacing_m}},
        "bob": {"r_m": s.bob.r_m, "theta_deg": _degrees(s.bob.theta_rad)},
        "eve": {"r_m": s.eve.r_m, "theta_deg": _degrees(s.eve.theta_rad)},
        "region": {"dr_m": s.region.dr_m, "dtheta_deg": _degrees(s.region.dtheta_rad)},
        "power": {"pt_dbm": s.power.pt_dbm, "sigma_b2_dbm": s.power.sigma_b2_dbm,
                  "sigma_e2_dbm": s.power.sigma_e2_dbm, "delta": s.power.delta},
        "k_source": {"type": k_type, **asdict(s.k_source)},
        "mode": s.mode.value,
    }


# command -> the configuration keys it reads, in the order of its flags: a command
# takes the scenario flags of these keys, and its run id hashes them (read_config)
READS = {"mmin": ("region.dtheta_deg", "bob.theta_deg", "array.f0_hz", "array.spacing")}
READS["kmin"] = (*READS["mmin"], "region.dr_m", "array.delta_f_hz")
READS["region"] = (*READS["kmin"], "array.M", "k_source.k_target", "k_source.label",
                   "k_source.path")
READS["beampattern"] = (*READS["region"], "bob.r_m", "k_source.method", "k_source.seed")
READS["capacity"] = ("array.M", "array.f0_hz", "array.delta_f_hz", "array.spacing", "bob.r_m",
                     "bob.theta_deg", "eve.r_m", "eve.theta_deg", "region.dr_m",
                     "region.dtheta_deg", "power.pt_dbm", "power.sigma_b2_dbm",
                     "power.sigma_e2_dbm", "power.delta", "k_source.k_target",
                     "k_source.method", "k_source.seed", "k_source.label", "k_source.path",
                     "mode")
# a capacity sweep reads no key that its axis sets; the bandwidth axis sets k to a
# 16-entry row of the table at k_source.path
READS["power"] = tuple(key for key in READS["capacity"] if key != "power.pt_dbm")
READS["delta"] = tuple(key for key in READS["capacity"] if key != "power.delta")
READS["bandwidth"] = tuple(key for key in READS["capacity"] if key == "k_source.path"
                           or key != "array.M" and not key.startswith("k_source."))
# the rate solver draws no k and sizes the array itself
READS["rate"] = ("array.f0_hz", "array.spacing", "bob.theta_deg", "region.dtheta_deg",
                 "power.pt_dbm", "power.sigma_b2_dbm", "power.sigma_e2_dbm", "power.delta")


def _lower_bound(settings: dict) -> Callable:
    "The lower bound at the beta override, else at beta once per (array, bob, region, k_source)."
    betas: dict[tuple, float] = {}

    def evaluate(p: Scenario, scheme: Scheme, _i: int | None = None) -> tuple[float, None]:
        key = (p.array, p.bob, p.region, p.k_source)
        if key not in betas:
            beta = settings["beta"]
            betas[key] = beta_for_scenario(p, settings["beta_seeds"]) if beta is None else beta
        return lb_capacity(p, scheme, betas[key]), None
    return evaluate


def _monte_carlo(settings: dict) -> Callable:
    "The Monte Carlo estimate at the seed, or at the seed derived for sweep point ``i``."
    seed, trials = settings["seed"], settings["trials"]
    return lambda p, scheme, i=None: mc_capacity(
        p, trials, seed if i is None else _point_seed(seed, i), scheme)


# mode -> (each READS["capacity"] key and evaluation setting it leaves unread, its
# evaluator).  lb looks at no eavesdropper and runs no trial; an mc trial draws k from
# its own stream and probes eve, not the region's corners, so it finds no beta.
# Evaluators call mc_capacity and beta_for_scenario by name, so patches see them
ESTIMATORS = {
    Mode.ANALYTIC_LB: ({"eve.r_m", "eve.theta_deg", "seed", "trials"}, _lower_bound),
    Mode.MONTE_CARLO: ({"k_source.seed", "region.dr_m", "region.dtheta_deg", "beta",
                        "beta_seeds"}, _monte_carlo),
}
# the READS["capacity"] keys that lb reads at a given beta: lb_capacity's alone
LB_AT_BETA_READS = {"mode", "array.M", "power.pt_dbm", "power.sigma_b2_dbm",
                    "power.sigma_e2_dbm", "power.delta"}


def unread(s: Scenario, command: str, beta: float | None = None,
           m_min: float | None = None) -> dict[str, str]:
    """Each ``READS[command]`` key and evaluation setting that ``command`` leaves unread on
    ``s``, at ``beta`` or element count ``m_min`` if given -> the reader that its refusal
    names, ``{reader} reads no {key}``; readers in the order in which refusals rank."""
    if m_min is not None:  # the count stands in for m_min, so none of the keys mmin reads is read
        return dict.fromkeys(READS["mmin"], "kmin at a given element count (--m-min)")
    if "mode" not in READS[command]:
        return {}
    skip = dict.fromkeys(ESTIMATORS[s.mode][0], f"{s.mode.value} mode")
    if s.mode is Mode.ANALYTIC_LB and beta is not None:  # lb draws k to find beta, and no other
        skip |= {key: "lb mode at a given beta (--beta)" for key in (*READS[command], "beta_seeds")
                 if key not in {*LB_AT_BETA_READS, *skip}}
    elif s.mode is Mode.ANALYTIC_LB and isinstance(s.k_source, FixtureK):
        skip["beta_seeds"] = "lb mode with a fixture k"
    return skip


def estimator(s: Scenario, trials: int | None = None, seed: int = 0,
              n_seeds: int | None = None, beta: float | None = None) -> tuple[Callable, dict]:
    """The evaluator of the scenario's mode, ``(point, scheme, sweep index or None) -> (value,
    stderr or None)``, and the settings with a value that :func:`unread` does not list, which a
    manifest records.  A ``trials``, ``n_seeds`` or ``beta`` given that it lists is refused;
    ``seed`` always holds a value, so it is accepted unread."""
    skip = unread(s, "capacity", beta)
    for name, value in (("beta", beta), ("beta_seeds", n_seeds), ("trials", trials)):
        if value is not None and name in skip:
            raise ValueError(f"{skip[name]} reads no {name} (--{name.replace('_', '-')})")
    if trials is not None and trials < 2:  # one trial has no standard error
        raise ValueError(f"mc mode needs 2 trials or more (--trials), got {trials}")
    settings = {"beta": beta, "beta_seeds": DEFAULT_BETA_SEEDS if n_seeds is None else n_seeds,
                "seed": seed, "trials": DEFAULT_TRIALS if trials is None else trials}
    return ESTIMATORS[s.mode][1](settings), {name: value for name, value in settings.items()
                                             if name not in skip and value is not None}


def read_config(s: Scenario, command: str, beta: float | None = None) -> dict:
    """The part of ``scenario_to_config(s)`` that ``command`` reads on ``s`` at ``beta``, less
    what :func:`unread` lists, with the type of a ``k_source`` it reads: its run id's hash."""
    keys = set(READS[command]) - unread(s, command, beta).keys()
    config = {}
    for name, value in scenario_to_config(s).items():
        if name in keys:
            config[name] = value
        elif isinstance(value, dict) and any(f"{name}.{key}" in keys for key in value):
            config[name] = {key: v for key, v in value.items()
                            if f"{name}.{key}" in keys or key == "type"}
    return config


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _finite(value, where: str) -> float:
    "A configuration number as a float; NaN, infinities, booleans and non-numbers are rejected."
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _integer(value, where: str) -> int:
    number = _finite(value, where)
    if not number.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(number)


def _seed(value, where: str) -> int:
    "A user seed: an integer in [0, SEED_LIMIT), read exactly (not through a float)."
    exact = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    seed = int(value) if exact else _integer(value, where)
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"{where} must be an integer in [0, 2**63), got {value!r}")
    return seed


def _string(value, where: str, nullable: bool = False) -> str | None:
    if isinstance(value, str) or nullable and value is None:
        return value
    raise ConfigError(f"{where} must be a string{' or null' * nullable}, got {value!r}")


# k_source type -> (its dataclass, the reader of each key); absent keys take its defaults
_K_SOURCES = {
    "generated": (GeneratedK, {"k_target": _finite, "method": _string, "seed": _seed}),
    "fixture": (FixtureK, {"label": _string, "path": lambda v, at: _string(v, at, True)}),
}


def _section(cfg: dict, name: str, defaults: dict, other_keys=()) -> dict:
    """The numbers of one configuration section, each read through :func:`_finite`
    and falling back to ``defaults``.  The section must be a JSON object whose
    keys are those of ``defaults`` plus ``other_keys``."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    _check_keys(section, {*defaults, *other_keys}, name)
    return {key: _finite(section.get(key, value), f"{name}.{key}")
            for key, value in defaults.items()}


def scenario_from_config(cfg: dict) -> Scenario:
    """Build a scenario from a configuration mapping.

    Missing sections and keys fall back to the defaults; unknown keys anywhere
    are rejected.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("configuration root must be a JSON object")
    defaults = scenario_to_config(default_scenario())
    _check_keys(cfg, set(defaults), "configuration")
    # an absent spacing is half a wavelength of the resolved carrier
    del defaults["array"]["spacing"]
    array = _section(cfg, "array", defaults["array"], other_keys={"spacing"})
    bob, eve, region, power = (_section(cfg, name, defaults[name])
                               for name in ("bob", "eve", "region", "power"))
    spacing = cfg.get("array", {}).get("spacing", "half_wavelength")
    if spacing == "half_wavelength":
        d = half_wavelength_spacing(array["f0_hz"])
    elif isinstance(spacing, dict) and set(spacing) == {"meters"}:
        d = _finite(spacing["meters"], "array.spacing.meters")
    elif isinstance(spacing, numbers.Real):
        d = _finite(spacing, "array.spacing")
    else:
        raise ConfigError(f"array.spacing must be 'half_wavelength', a number "
                          f"or {{'meters': value}}, got {spacing!r}")

    sec = cfg.get("k_source", defaults["k_source"])
    # a tuple, so that the type is compared, not hashed: it may be any JSON value
    if not isinstance(sec, dict) or sec.get("type") not in tuple(_K_SOURCES):
        raise ConfigError(f"k_source must be an object whose 'type' is 'generated' "
                          f"or 'fixture', got {sec!r}")
    kind, readers = _K_SOURCES[sec["type"]]
    _check_keys(sec, {"type", *readers}, "k_source")
    if kind is GeneratedK and "k_target" not in sec:
        raise ConfigError("generated k_source needs 'k_target'")
    k_source = kind(**{key: read(sec[key], f"k_source.{key}")
                       for key, read in readers.items() if key in sec})

    try:
        mode = Mode(cfg.get("mode", defaults["mode"]))
    except ValueError:
        raise ConfigError(f"mode must be 'lb' or 'mc', got {cfg['mode']!r}") from None

    m = _integer(array["M"], "array.M")
    try:
        return Scenario(
            array=ArrayConfig(m, array["f0_hz"], array["delta_f_hz"], d),
            bob=Location(bob["r_m"], math.radians(bob["theta_deg"])),
            eve=Location(eve["r_m"], math.radians(eve["theta_deg"])),
            region=SecrecyRegion(region["dr_m"], math.radians(region["dtheta_deg"])),
            power=PowerConfig(**power), k_source=k_source, mode=mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_hash(payload: dict) -> str:
    "Content hash of a configuration payload (canonical JSON, sha256, 12 hex)."
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# frequency-vector resolution and randomness plumbing
# ---------------------------------------------------------------------------

def _trial_streams(seed: int):
    """``stream(t)`` returns a generator that draws what
    ``Generator(Philox(key=[seed, t]))`` draws.  One bit generator is reset per
    trial (key, counter 0, empty buffer), because building a ``Philox`` costs
    far more: its constructor collects OS entropy that a given key overrides."""
    bits = np.random.Philox(key=0)
    rng, state = np.random.Generator(bits), bits.state
    # the setter reads Python ints faster than numpy scalars, so the state's arrays
    # become lists, and one key list serves every trial
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    # as in Philox's own key conversion, a seed >= 2**63 goes through float64 and
    # loses its low bits, as the recorded runs did; one rounded up to 2**64 wraps to 0
    key = state["state"]["key"] = [(seed if seed < 2 ** 63 else int(float(seed))) % 2 ** 64, 0]

    def stream(trial: int) -> np.random.Generator:
        key[1] = trial
        bits.state = state
        return rng

    return stream


def _point_seed(seed: int, index: int) -> int:
    "Derived master seed for one sweep point."
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def fixture_vector(label: str, path: str | None = None) -> np.ndarray:
    "The first row labeled ``label`` of the fixture table at ``path``."
    for row_label, vec in load_frequency_table(path):
        if row_label == label:
            return vec
    raise FixtureError(f"fixture row {label!r} not found")


def resolve_k(s: Scenario, rng: np.random.Generator | None = None) -> np.ndarray:
    "Materialize the scenario's frequency vector (one draw if generated)."
    if isinstance(s.k_source, FixtureK):
        return fixture_vector(s.k_source.label, s.k_source.path)
    src = s.k_source
    return generate_k(s.array.n_elements, src.k_target, src.method,
                      seed=rng if rng is not None else src.seed)


def k_norm2(s: Scenario) -> float:
    """Squared norm of the scenario's k, which must have an entry per element; a
    generated one has norm k_target, so none is drawn."""
    if isinstance(s.k_source, FixtureK):
        k = _as_k(resolve_k(s), s.array.n_elements)
        return float(k @ k)
    require_feasible(s.array.n_elements)
    return s.k_source.k_target


def beta_for_scenario(s: Scenario, n_seeds: int = DEFAULT_BETA_SEEDS) -> float:
    """Boundary correlation for the scenario's frequency-vector source.

    A fixture vector gives a single deterministic value; a generated source is
    averaged over ``n_seeds`` independent draws so sweep curves are smooth.
    """
    if isinstance(s.k_source, FixtureK):
        return beta_boundary(s.array, resolve_k(s), s.bob, s.region)
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    stream = _trial_streams(s.k_source.seed)
    values = [beta_boundary(s.array, resolve_k(s, stream(i)), s.bob, s.region)
              for i in range(n_seeds)]
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# capacity evaluation
# ---------------------------------------------------------------------------

def lb_capacity(s: Scenario, scheme: Scheme, beta: float) -> float:
    """Closed-form secrecy-capacity lower bound for the scenario at the boundary
    correlation ``beta`` (see :func:`beta_for_scenario`).

    It is the AN bound at the scheme's split: delta = 1 for signal-only.  With
    no power on AN it needs no leakage factor, so one element is enough.  The
    bound is not clamped at 0, unlike each Monte Carlo trial, so it may be negative.
    """
    power = scheme.power(s.power)
    eta_value = eta(s.array.n_elements) if power.delta < 1.0 else 0.0
    return c_an_lb(power, beta, eta_value)


_BLOCK = 128
"Trials drawn before they are evaluated together; bounds the kernel's temporaries."


def _mc_draws(s: Scenario, trials: int, seed: int,
              an: bool) -> tuple[np.ndarray, np.ndarray | float]:
    """The draw pass of :func:`mc_capacity`: every trial's ``(corr2, an2)``, Eve's
    squared correlation and, when ``an``, her AN leakage (0.0 without AN).  Neither
    depends on the transmit power or the split.

    A fixture row is read and checked once, and its one ``corr2`` stands for every
    trial, so without AN nothing is drawn.  Otherwise trial t draws from
    ``Philox(key=[seed, t])`` (a seed >= 2**63 keyed through float64, dropping its
    low bits): a generated ``k``, then the AN noise as standard-normal parts into
    the block's buffer; a fixture ``k`` takes its two steering vectors from the
    ``steering_vector`` memo, whose call count the benchmark pins.  Each block of up
    to 128 trials is then evaluated in stacked products that give every trial the
    bits of its one-trial evaluation (``reference.trial_capacity``).  Each trial
    draws once: an AN draw parallel to the intended channel raises ``ValueError``.
    """
    m = s.array.n_elements
    pq = _pq(s.array, s.bob, s.eve.r_m, s.eve.theta_rad)
    fixture = isinstance(s.k_source, FixtureK)
    if fixture:
        k = _as_k(resolve_k(s), m)
        corr2 = np.full(trials, _correlation2(s.array, k, *pq))
        if not an:
            return corr2, 0.0
    else:
        corr2 = np.empty(trials)
    an2 = np.empty(trials) if an else 0.0
    stream = _trial_streams(seed)
    # one block's draws, written in place: row j holds trial start + j, its AN
    # noise as the standard-normal real parts, then imaginary parts
    rows = min(trials, _BLOCK)
    ks, noise = np.empty((rows, m)), np.empty((rows, 2, m))
    h_bob, h_eve = (np.empty((rows, m), dtype=complex) for _ in range(2))
    for start in range(0, trials, _BLOCK):
        n = min(_BLOCK, trials - start)
        for j in range(n):
            rng = stream(start + j)
            if fixture:  # memo calls the benchmark pins
                h_bob[j] = steering_vector(s.array, k, s.bob)
                h_eve[j] = steering_vector(s.array, k, s.eve)
            else:
                ks[j] = resolve_k(s, rng)
            if an:
                rng.standard_normal(out=noise[j])
        if not fixture:
            corr2[start:start + n] = _correlation2(s.array, ks[:n], *pq)
            if not an:
                continue
            # a generated k's steering vectors, one stacked exp per location
            h_bob[:n], h_eve[:n] = (_steering_rows(*astuple(s.array), ks[:n], loc.r_m,
                                                   loc.theta_rad) for loc in (s.bob, s.eve))
        w = an_vector(h_bob[:n], complex_from_parts(noise[:n]))  # rows as complex_gaussian's
        an2[start:start + n] = an_leakage(h_eve[:n], w)
    return corr2, an2


# an overflowing phase gives a NaN capacity, which the mean check refuses with no warning
@np.errstate(over="ignore", invalid="ignore")
def mc_capacity(s: Scenario, trials: int, seed: int,
                scheme: Scheme = Scheme.WITH_AN) -> tuple[float, float]:
    """Monte Carlo mean secrecy capacity and its standard error, in two steps.

    The draw pass (:func:`_mc_draws`) gives every trial's ``(corr2, an2)``, which
    do not depend on the power; the price is one secrecy-capacity expression at
    the scheme's power over all trials, then their mean and its standard error.
    Identical inputs give bit-identical output.  A capacity that is not finite
    raises ``ValueError``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    power = scheme.power(s.power)
    corr2, an2 = _mc_draws(s, trials, seed, power.delta < 1.0)
    values = secrecy_capacity(capacity_bob(power), capacity_eve_an(power, corr2, an2))
    mean = float(values.mean())
    if not math.isfinite(mean):  # some trial's capacity is NaN or infinite
        raise ValueError(f"Monte Carlo capacity {mean}: a range or frequency overflows the phase")
    constant = trials == 1 or values.max() == values.min()
    return mean, 0.0 if constant else float(values.std(ddof=1) / math.sqrt(trials))


# ---------------------------------------------------------------------------
# sweep results and serialization
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    axis_name: str
    axis_values: list[float]
    series: dict[str, list[float | None]]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.axis_values:
            raise ValueError("sweep axis must not be empty")
        if any(b <= a for a, b in zip(self.axis_values, self.axis_values[1:])):
            raise ValueError("sweep axis values must be strictly increasing")
        for name, values in self.series.items():
            if len(values) != len(self.axis_values):
                raise ValueError(f"series {name!r} length does not match the axis")


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def result_csv_text(result: SweepResult) -> str:
    "Render a sweep as CSV; floats use shortest round-trip formatting."
    lines = [",".join([result.axis_name, *result.series])]
    for i, axis in enumerate(result.axis_values):
        cells = [_fmt(axis)] + [_fmt(values[i]) for values in result.series.values()]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_manifest(payload: dict) -> dict:
    """The manifest of a run directory: ``payload`` plus its ``config_hash``, which
    names the directory, and the ``tool_version``, which the hash leaves out."""
    return {**payload, "config_hash": config_hash(payload), "tool_version": VERSION}


def write_run_dir(out_dir: str | Path, run_name: str, csv_text: str, manifest: dict) -> Path:
    """Write ``result.csv`` and a sorted-key ``manifest.json`` under
    ``out/<run_name>-<config_hash>/``, so re-running an unchanged configuration
    rewrites the same directory with byte-identical content."""
    run_dir = Path(out_dir) / f"{run_name}-{manifest['config_hash']}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "result.csv").write_text(csv_text)
    (run_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2)
                                           + "\n")
    return run_dir


def write_run(result: SweepResult, out_dir: str | Path, run_name: str) -> Path:
    "Write a sweep's run directory (see :func:`write_run_dir`)."
    return write_run_dir(out_dir, run_name, result_csv_text(result), result.meta)


def _sweep_meta(s: Scenario, kind: str, grid: list[float], schemes: list[Scheme],
                evaluation: dict, **extra) -> dict:
    return run_manifest({
        "config": read_config(s, kind, evaluation.get("beta")),
        "sweep": {"kind": kind, "grid": list(grid),
                  "schemes": [sch.value for sch in schemes], **extra},
        **evaluation,
    })


def _sweep_series(schemes: list[Scheme], n_points: int,
                  evaluate) -> dict[str, list[float | None]]:
    """Call ``evaluate(scheme, i) -> (value, stderr | None)`` at every grid point
    of every scheme.  A ``<scheme>_stderr`` column follows a scheme's values
    when its evaluator reported standard errors."""
    series: dict[str, list[float | None]] = {}
    for scheme in schemes:
        points = [evaluate(scheme, i) for i in range(n_points)]
        series[scheme.value] = [value for value, _ in points]
        if any(err is not None for _, err in points):
            series[f"{scheme.value}_stderr"] = [err for _, err in points]
    return series


def _capacity_sweep(s: Scenario, kind: str, axis_name: str, grid: list[float],
                    points: list[Scenario], schemes, settings: dict) -> SweepResult:
    "Secrecy capacity at each point scenario, by the evaluator of the scenario's mode."
    schemes = list(schemes)
    evaluate, reads = estimator(s, **settings)
    series = _sweep_series(schemes, len(grid), lambda scheme, i: evaluate(points[i], scheme, i))
    return SweepResult(axis_name, grid, series, _sweep_meta(s, kind, grid, schemes, reads))


def sweep_power(s: Scenario, grid_dbm, schemes=tuple(Scheme), **settings) -> SweepResult:
    "Secrecy capacity versus transmit power (dBm) for each scheme, at :func:`estimator` settings."
    grid = [float(pt) for pt in grid_dbm]
    points = [replace(s, power=replace(s.power, pt_dbm=pt)) for pt in grid]
    return _capacity_sweep(s, "power", "pt_dbm", grid, points, schemes, settings)


def sweep_delta(s: Scenario, grid_delta, schemes=tuple(Scheme), **settings) -> SweepResult:
    "Secrecy capacity versus the signal power fraction delta (see :func:`sweep_power`)."
    grid = [float(delta) for delta in grid_delta]
    points = [replace(s, power=replace(s.power, delta=delta)) for delta in grid]
    return _capacity_sweep(s, "delta", "delta", grid, points, schemes, settings)


def sweep_bandwidth(s: Scenario, schemes=tuple(Scheme), **settings) -> SweepResult:
    """Secrecy capacity across the fixture frequency vectors (see :func:`sweep_power`).

    The axis carries each row's nominal squared norm (a bandwidth proxy), in
    the increasing order of :data:`~rfda_secrecy.freqdesign.FIXTURES`.  The
    rows are the frequency vectors, so a generated source is rejected.
    """
    if isinstance(s.k_source, GeneratedK):
        raise ValueError("the bandwidth sweep runs over the fixture rows; it takes no "
                         "generated k source (k_target)")
    grid = [k_nominal for k_nominal, _ in FIXTURES.values()]
    points = [replace(s, k_source=FixtureK(label, s.k_source.path)) for label in FIXTURES]
    return _capacity_sweep(s, "bandwidth", "k_nominal", grid, points, schemes, settings)


def sweep_rate(s: Scenario, grid_rs, schemes=tuple(Scheme),
               fixed_eta: float | None = None) -> SweepResult:
    """Minimum element count versus the target secrecy rate for each scheme.

    Rates beyond a scheme's feasibility limit appear as explicit gaps (empty
    CSV cells).  Raises :class:`InfeasibleRateError` only when the entire
    grid is infeasible for every requested scheme.  ``fixed_eta`` fixes the
    AN leakage factor, so it is refused when no requested scheme feeds AN.
    """
    grid = [float(g) for g in grid_rs]
    schemes = list(schemes)
    if fixed_eta is not None and all(sch.power(s.power).delta == 1.0 for sch in schemes):
        raise ValueError("no requested scheme feeds AN, so the rate solver reads no "
                         "fixed_eta (--fixed-eta)")

    def evaluate(scheme: Scheme, i: int) -> tuple[float | None, None]:
        try:
            return float(solve_m_min(grid[i], s.power, s.region, s.bob.theta_rad,
                                     s.array, scheme, fixed_eta=fixed_eta)), None
        except InfeasibleRateError:
            return None, None

    series = _sweep_series(schemes, len(grid), evaluate)
    if all(value is None for values in series.values() for value in values):
        raise InfeasibleRateError(
            "every grid point is infeasible for the requested scheme(s); "
            "raise the transmit power or lower the rate")
    return SweepResult("rs_bits", grid, series,
                       _sweep_meta(s, "rate", grid, schemes, {}, fixed_eta=fixed_eta))


# ---------------------------------------------------------------------------
# fixture validation and beampattern export
# ---------------------------------------------------------------------------

def validate_fixtures(path: str | Path | None = None) -> dict:
    """Check every fixture row: squared norm within 0.5 % of its label,
    increment span within 2 MHz of the nominal bandwidth, entry sum within
    0.1 of zero.  Returns a per-row report with an overall ``ok`` flag."""
    rows = load_frequency_table(path)
    report_rows = []
    for label, k in rows:
        entry: dict = {"label": label}
        if label not in FIXTURES:
            entry.update(ok=False, reason="unknown label")
            report_rows.append(entry)
            continue
        k2_expected, span_expected = FIXTURES[label]
        entry["k_squared"] = float(k @ k)
        entry["k_squared_expected"] = k2_expected
        entry["k_squared_ok"] = abs(entry["k_squared"] - k2_expected) <= 0.005 * k2_expected
        entry["span_mhz"] = float(k.max() - k.min())
        entry["span_expected_mhz"] = span_expected
        entry["span_ok"] = abs(entry["span_mhz"] - span_expected) <= 2.0
        entry["sum"] = float(k.sum())
        entry["sum_ok"] = abs(entry["sum"]) <= 0.1
        entry["ok"] = entry["k_squared_ok"] and entry["span_ok"] and entry["sum_ok"]
        report_rows.append(entry)
    return {"rows": report_rows, "ok": all(r["ok"] for r in report_rows)}


def beampattern_grid(s: Scenario, r_values, theta_values_rad) -> np.ndarray:
    """Normalized beampattern power / M^2 on a grid: entry ``[i, j]`` is at range
    ``r_values[i]`` and angle ``theta_values_rad[j]``, an empty array if either is.

    One frequency vector is drawn (or loaded) for the whole grid, so the rows
    describe a single realized pattern.  Every range and angle is checked as a
    :class:`Location` first, so the first bad value of a row-major walk over
    the grid raises; then the whole grid is one :func:`correlation2_outer` call.
    """
    k = resolve_k(s)
    r_values = [float(r) for r in r_values]
    thetas = [float(theta) for theta in theta_values_rad]
    if r_values and thetas:  # row-major: the first range at every angle, then each other range
        walk = [(r_values[0], t) for t in thetas] + [(r, thetas[0]) for r in r_values[1:]]
        for r, theta in walk:
            Location(r, theta)
    return correlation2_outer(s.array, k, s.bob, r_values, thetas)


def beampattern_csv_text(r_values, theta_deg, power) -> str:
    """CSV of a :func:`beampattern_grid` ``power`` array, one line per point in
    row-major order: the range ``r_values[i]``, the angle ``theta_deg[j]`` as given
    and ``power[i, j]``.  Each range and angle is formatted once."""
    angles = [_fmt(t) for t in theta_deg]
    rows = zip(map(_fmt, r_values), np.asarray(power).tolist())
    return "r_m,theta_deg,normalized_power\n" + "".join(
        [f"{r},{t},{p!r}\n" for r, row in rows for t, p in zip(angles, row)])
