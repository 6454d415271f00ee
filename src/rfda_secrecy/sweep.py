"""Experiment numerics: Monte Carlo estimation, capacity sweeps, beampattern export.

Sweeps vary one axis of a scenario, evaluate both transmit schemes per point
and return a sweep result.  The numpy-free layer holds the scenario, its
configuration and the run-directory writer (``scenario``) and the closed-form
rate sweep (``secrecyregion``); this module binds those names too.

Reproducibility contract: every random quantity is drawn from a counter-based
stream keyed by (master seed, trial index), so results are bit-identical for
a given seed.  Trials are drawn serially and evaluated in blocks.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import astuple, replace

import numpy as np

from .arraymodel import (_as_k, _correlation2, _pq, _steering_rows, correlation2_outer,
                         steering_vector)
from .dmsecurity import (an_leakage, an_vector, capacity_bob, capacity_eve_an,
                         complex_from_parts, secrecy_capacity, c_an_lb)
from .freqdesign import generate_k, load_frequency_table
from .scenario import (FIXTURES, LB_AT_BETA_READS, MODE_UNREAD, READS, FixtureK, GeneratedK,
                       Location, Mode, Scenario, Scheme, SweepResult, _fmt, _sweep_meta,
                       _sweep_series, config_hash, default_scenario, eta, fixture_row,
                       read_config, result_csv_text, scenario_from_config, scenario_to_config,
                       unread, write_run)
from .secrecyregion import beta_boundary, sweep_rate

DEFAULT_BETA_SEEDS = 100  # draws of a generated k whose boundary correlations lb averages
DEFAULT_TRIALS = 10000  # Monte Carlo trials per point of an mc evaluation


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


# mode -> (keys and settings it leaves unread, evaluator); evaluators call by name: patches apply
ESTIMATORS = {Mode.ANALYTIC_LB: (MODE_UNREAD[Mode.ANALYTIC_LB], _lower_bound),
              Mode.MONTE_CARLO: (MODE_UNREAD[Mode.MONTE_CARLO], _monte_carlo)}


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
    return fixture_row(load_frequency_table(path), label)


def resolve_k(s: Scenario, rng: np.random.Generator | None = None) -> np.ndarray:
    "Materialize the scenario's frequency vector (one draw if generated)."
    if isinstance(s.k_source, FixtureK):
        return fixture_vector(s.k_source.label, s.k_source.path)
    src = s.k_source
    return generate_k(s.array.n_elements, src.k_target, src.method,
                      seed=rng if rng is not None else src.seed)


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
    the increasing order of :data:`~rfda_secrecy.scenario.FIXTURES`.  The
    rows are the frequency vectors, so a generated source is rejected.
    """
    if isinstance(s.k_source, GeneratedK):
        raise ValueError("the bandwidth sweep runs over the fixture rows; it takes no "
                         "generated k source (k_target)")
    grid = [k_nominal for k_nominal, _ in FIXTURES.values()]
    points = [replace(s, k_source=FixtureK(label, s.k_source.path)) for label in FIXTURES]
    return _capacity_sweep(s, "bandwidth", "k_nominal", grid, points, schemes, settings)


# ---------------------------------------------------------------------------
# beampattern export
# ---------------------------------------------------------------------------

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
