"""Scenarios, their configuration and run directories: the layer without numpy.

A :class:`Scenario` bundles everything one experiment needs (array, the two
receiver locations, region, powers, frequency-vector source and evaluation
mode).  Beside the data classes live the fixture table (its reader, checks
and the squared norm ``k_norm2``), the configuration mapping and the
:class:`SweepResult` with its CSV and run-directory writer.  Nothing here
imports numpy, so ``mmin``, ``kmin``, ``region``, ``sweep rate`` and
``validate-fixtures`` never load it."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from pathlib import Path

from .errors import ConfigError, FixtureError
from .schema import READS, SEED_LIMIT
from .version import VERSION

SPEED_OF_LIGHT = 299792458.0
"Propagation speed in m/s (vacuum)."


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear RFDA: element count, carriers and spacing.

    ``delta_f_hz`` is the unit of the random per-element frequency
    increments ``k``: a float array of M dimensionless entries whose squared
    norm ``K = k.k`` is the conventional bandwidth proxy.
    """

    n_elements: int
    f0_hz: float
    delta_f_hz: float
    spacing_m: float

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")
        for name in ("f0_hz", "delta_f_hz", "spacing_m"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")

    @classmethod
    def half_wavelength(cls, n_elements: int, f0_hz: float, delta_f_hz: float) -> "ArrayConfig":
        "Construct with element spacing of half the carrier wavelength."
        return cls(n_elements, f0_hz, delta_f_hz, half_wavelength_spacing(f0_hz))


@dataclass(frozen=True)
class Location:
    """Polar receiver location: range in meters, angle from the array axis.

    ``theta_rad`` must lie strictly inside (0, pi); the angular beamwidth
    formulas divide by ``sin(theta)``.
    """

    r_m: float
    theta_rad: float

    def __post_init__(self):
        if not 0 <= self.r_m < math.inf:
            raise ValueError(f"range must be finite and >= 0, got {self.r_m}")
        if not 0.0 < self.theta_rad < math.pi:
            raise ValueError(f"theta must be in (0, pi), got {self.theta_rad}")


def half_wavelength_spacing(f0_hz: float) -> float:
    "Element spacing equal to half the carrier wavelength, c / (2 f0)."
    if f0_hz <= 0:
        raise ValueError("f0_hz must be positive")
    return SPEED_OF_LIGHT / (2.0 * f0_hz)


@dataclass(frozen=True)
class SecrecyRegion:
    "Half-widths of the protected box around the intended receiver."

    dr_m: float
    dtheta_rad: float

    def __post_init__(self):
        if not (0 < self.dr_m < math.inf and 0 < self.dtheta_rad < math.inf):
            raise ValueError("region half-widths must be strictly positive and finite")


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


def eta(n_elements: int) -> float:
    """Average AN leakage factor 1 / (M - 1).

    The AN projector ``I - h h^H`` is idempotent with trace M - 1, so the
    normalizing trace of its square is M - 1 as well.
    """
    if n_elements < 2:
        raise ValueError("eta is undefined for a single-element array")
    return 1.0 / (n_elements - 1)


class Scheme(Enum):
    "Transmit scheme: with artificial noise, or signal-only (the AN scheme at delta = 1)."

    WITH_AN = "with_an"
    WITHOUT_AN = "without_an"

    def power(self, power: PowerConfig) -> PowerConfig:
        "``power`` with this scheme's split: delta = 1 for signal-only, as given with AN."
        return replace(power, delta=1.0) if self is Scheme.WITHOUT_AN else power


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


# fixture label -> (nominal squared norm K, nominal increment span in MHz),
# in increasing K: the bandwidth sweep's axis
FIXTURES = {
    "K10405": (10405.0, 90.0),
    "K12905": (12905.0, 100.0),
    "K15405": (15405.0, 110.0),
}


def default_fixture_path() -> Path:
    "Path of the packaged frequency-increment table."
    return Path(__file__).parent / "fixtures" / "table1.csv"


def read_frequency_table(path: str | Path | None = None) -> list[tuple[str, list[float]]]:
    """Labeled frequency vectors of the fixture CSV, each a list of floats.

    Schema: header ``label,m1,...,m16``, one row per vector, increments in
    MHz.  With the reference increment of 1 MHz the printed numbers are the
    dimensionless k entries themselves.
    """
    path = Path(path) if path is not None else default_fixture_path()
    if not path.exists():
        raise FixtureError(f"fixture file not found: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise FixtureError(f"{path}: empty fixture file")
    expected_header = ["label"] + [f"m{i}" for i in range(1, 17)]
    if rows[0] != expected_header:
        raise FixtureError(f"{path}: bad header {rows[0]!r}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 17:
            raise FixtureError(f"{path}: row {lineno} has {len(row)} columns, expected 17")
        try:
            values = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise FixtureError(f"{path}: row {lineno}: {exc}") from exc
        for column, cell, value in zip(expected_header[1:], row[1:], values):
            if not math.isfinite(value):  # float() parses nan and inf
                raise FixtureError(f"{path}: row {lineno}, column {column}: "
                                   f"{cell!r} is not a finite increment")
        out.append((row[0], values))
    if not out:
        raise FixtureError(f"{path}: no data rows")
    return out


def fixture_row(rows, label: str):
    "The vector of the first of the ``(label, vector)`` ``rows`` labeled ``label``."
    for row_label, vec in rows:
        if row_label == label:
            return vec
    raise FixtureError(f"fixture row {label!r} not found")


def check_k_length(shape: tuple, n_elements: int) -> None:
    "The one check that a frequency vector of ``shape`` has an entry per element."
    if shape != (n_elements,):
        raise ValueError(f"frequency vector has length {math.prod(shape)}, "
                         f"array has {n_elements} elements")


def require_feasible(n_elements: int) -> None:
    "Raise unless an ``n_elements`` array has a k orthogonal to the ones and index vectors."
    if n_elements < 3:
        raise ValueError(
            "generate_k is infeasible for n_elements < 3: no direction is orthogonal "
            "to both the all-ones and the index vector")


def k_norm2(s: Scenario) -> float:
    """Squared norm of the scenario's k, which must have an entry per element: ``math.fsum``
    of a fixture row's squares; a generated k has norm k_target, so none is drawn."""
    if isinstance(s.k_source, FixtureK):
        k = fixture_row(read_frequency_table(s.k_source.path), s.k_source.label)
        check_k_length((len(k),), s.array.n_elements)
        return math.fsum(v * v for v in k)
    require_feasible(s.array.n_elements)
    return s.k_source.k_target


def validate_fixtures(path: str | Path | None = None) -> dict:
    """Check every fixture row: squared norm within 0.5 % of its label,
    increment span within 2 MHz of the nominal bandwidth, entry sum within
    0.1 of zero.  Returns a per-row report with an overall ``ok`` flag."""
    report_rows = []
    for label, k in read_frequency_table(path):
        if label not in FIXTURES:
            report_rows.append({"label": label, "ok": False, "reason": "unknown label"})
            continue
        entry: dict = {"label": label}
        k2_expected, span_expected = FIXTURES[label]
        entry["k_squared"] = math.fsum(v * v for v in k)
        entry["k_squared_expected"] = k2_expected
        entry["k_squared_ok"] = abs(entry["k_squared"] - k2_expected) <= 0.005 * k2_expected
        entry["span_mhz"] = max(k) - min(k)
        entry["span_expected_mhz"] = span_expected
        entry["span_ok"] = abs(entry["span_mhz"] - span_expected) <= 2.0
        entry["sum"] = math.fsum(k)
        entry["sum_ok"] = abs(entry["sum"]) <= 0.1
        entry["ok"] = entry["k_squared_ok"] and entry["span_ok"] and entry["sum_ok"]
        report_rows.append(entry)
    return {"rows": report_rows, "ok": all(r["ok"] for r in report_rows)}


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


# mode -> each READS["capacity"] key and evaluation setting it leaves unread.  lb
# looks at no eavesdropper and runs no trial; an mc trial draws k from its own
# stream and probes eve, not the region's corners, so it finds no beta
MODE_UNREAD = {
    Mode.ANALYTIC_LB: {"eve.r_m", "eve.theta_deg", "seed", "trials"},
    Mode.MONTE_CARLO: {"k_source.seed", "region.dr_m", "region.dtheta_deg", "beta",
                       "beta_seeds"},
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
    skip = dict.fromkeys(MODE_UNREAD[s.mode], f"{s.mode.value} mode")
    if s.mode is Mode.ANALYTIC_LB and beta is not None:  # lb draws k to find beta, and no other
        skip |= {key: "lb mode at a given beta (--beta)" for key in (*READS[command], "beta_seeds")
                 if key not in {*LB_AT_BETA_READS, *skip}}
    elif s.mode is Mode.ANALYTIC_LB and isinstance(s.k_source, FixtureK):
        skip["beta_seeds"] = "lb mode with a fixture k"
    return skip


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
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
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
