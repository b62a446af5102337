"""Scenario configuration, geometry sampling, Monte Carlo experiments, and CSV output."""

import csv
from dataclasses import astuple, dataclass, fields

import numpy as np

from .arrays import ArraySpec, grid_directions
from .channel import CascadeChannel, PhysicalConstants, cascade_loss
from .codebook import build_codebook
# unused here, but perfbench/test_smoke.py looks cooperative_estimate up here
from .training import (AngleEstimate, ScenarioAssets,  # noqa: F401
                       SlotCount, chain_gains, channel_cores,
                       composite_losses, cooperative_estimate, design_pass,
                       estimate_angles, misalignment_curve, noise_tape,
                       slot_count)
from .transmission import parallel_rate, power_factors, spectral_efficiency

# The four benchmark curves, in CSV column order.
RATE_KEYS = ("rate_proposed_est", "rate_proposed_perfect", "rate_fdb_upper",
             "rate_no_irs")


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# Config keys whose values, or each of whose values, count something.
_COUNT_KEYS = ("num_tx_antennas", "num_rx_antennas", "num_irs_elements",
              "num_irs", "num_tx_rf_chains", "num_rx_rf_chains", "num_streams",
              "pilot_repetitions", "mp_antenna_counts", "trials")
# dB-valued config keys, each with its conversion to a linear value.
_DB_KEYS = {"noise_power_dbm": dbm_to_watts, "power_grid_dbm": dbm_to_watts,
            "tx_gain_dbi": db_to_linear, "rx_gain_dbi": db_to_linear,
            "irs_element_gain_dbi": db_to_linear, "mp_snr_grid_db": db_to_linear}


@dataclass(frozen=True)
class ScenarioConfig:
    """Every knob of the simulated scene, in config-file units (dB quantities in dB)."""

    frequency_hz: float = 3e11
    absorption_per_m: float = 0.0033
    noise_power_dbm: float = -80.0
    tx_gain_dbi: float = 18.0
    rx_gain_dbi: float = 18.0
    irs_element_gain_dbi: float = 0.0
    reflection_amplitude: float = 1.0
    num_tx_antennas: int = 32
    num_rx_antennas: int = 32
    num_irs_elements: int = 32
    num_irs: int = 3
    num_tx_rf_chains: int = 4
    num_rx_rf_chains: int = 4
    num_streams: int = 3
    beam_ratio: float = 2.0       # K / N at both terminals
    irs_sweep_ratio: float = 2.0  # K_r / N_r for the phase-1 sweep
    branching: int = 2
    alice_y_range: tuple = (0.0, 5.0)
    bob_y_range: tuple = (5.0, 10.0)
    irs_positions: tuple = ((5.0, 4.0), (5.0, 5.0), (5.0, 6.0))
    pilot_repetitions: int = 10
    power_grid_dbm: tuple = (0.0, 10.0, 20.0, 30.0)
    mp_snr_grid_db: tuple = tuple(float(v) for v in range(-10, 21, 2))
    mp_antenna_counts: tuple = (32, 64)
    mp_beam_ratios: tuple = (2.0, 3.0)
    trials: int = 10000
    seed: int = 1

    def __post_init__(self):
        """Reject every bad value here, naming its key, so that each config
        error surfaces as a ValueError from the constructor."""
        for key in (f.name for f in fields(self)):
            try:
                value = np.asarray(getattr(self, key), float)
                finite = value.size > 0 and np.isfinite(value).all()
            except (TypeError, ValueError):
                finite = False
            if not finite:
                raise ValueError(f"{key} must hold one or more finite numbers")
        for key, to_linear in _DB_KEYS.items():
            with np.errstate(over="ignore"):
                linear = to_linear(np.asarray(getattr(self, key), float))
            if not np.all((linear > 0.0) & (linear < np.inf)):
                raise ValueError(f"{key} must give a finite, positive linear "
                                 "value")
        for key in _COUNT_KEYS + ("branching", "seed"):
            value = getattr(self, key)
            if not all(isinstance(v, (int, np.integer))
                       for v in (value if np.ndim(value) else [value])):
                raise ValueError(f"{key} must hold integers")
        lowest = dict.fromkeys(_COUNT_KEYS, 1)
        lowest.update(branching=2, beam_ratio=1.0, irs_sweep_ratio=1.0,
                      mp_beam_ratios=1.0, absorption_per_m=0.0,
                      reflection_amplitude=0.0, seed=0,
                      num_tx_antennas=self.num_irs, num_rx_antennas=self.num_irs)
        for key, low in lowest.items():
            if np.any(np.asarray(getattr(self, key)) < low):
                raise ValueError(f"{key} must be >= {low}")
        for side in ("tx", "rx"):
            if getattr(self, f"num_{side}_beams") < 2:
                raise ValueError(f"beam_ratio * num_{side}_antennas must "
                                 "give at least 2 beams")
        if not self.frequency_hz > 0.0:
            raise ValueError("frequency_hz must be positive")
        if self.reflection_amplitude > 1.0:
            raise ValueError("reflection_amplitude must lie in [0, 1]")
        if len(self.irs_positions) != self.num_irs:
            raise ValueError(
                f"num_irs={self.num_irs} but {len(self.irs_positions)} "
                "irs_positions given"
            )
        if len(set(self.irs_positions)) != len(self.irs_positions):
            raise ValueError("irs_positions must be distinct")
        if any(x <= 0.0 for x, _ in self.irs_positions):
            raise ValueError("irs_positions must have x > 0, off the x = 0 wall")
        for name in ("alice_y_range", "bob_y_range"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} must be an increasing pair")
        if not self.num_irs <= self.num_streams <= min(self.num_tx_rf_chains,
                                                       self.num_rx_rf_chains):
            raise ValueError("need num_irs <= num_streams <= RF chains")
        if self.num_irs_sweep_beams % 2 != 0:
            raise ValueError("irs_sweep_ratio * num_irs_elements must give "
                             "an even sweep grid size K_r")
        self.physical_constants()

    @property
    def num_tx_beams(self) -> int:
        return int(round(self.beam_ratio * self.num_tx_antennas))

    @property
    def num_rx_beams(self) -> int:
        return int(round(self.beam_ratio * self.num_rx_antennas))

    @property
    def num_irs_sweep_beams(self) -> int:
        return int(round(self.irs_sweep_ratio * self.num_irs_elements))

    @property
    def noise_power_watts(self) -> float:
        return dbm_to_watts(self.noise_power_dbm)

    def physical_constants(self) -> PhysicalConstants:
        return PhysicalConstants(
            carrier_frequency=self.frequency_hz,
            absorption_coefficient=self.absorption_per_m,
            tx_gain=db_to_linear(self.tx_gain_dbi),
            rx_gain=db_to_linear(self.rx_gain_dbi),
            irs_element_gain=db_to_linear(self.irs_element_gain_dbi),
            reflection_amplitude=self.reflection_amplitude,
        )


@dataclass(frozen=True)
class SampledGeometry:
    """Terminal y on the x = 0 wall, and the room redraws it took."""

    alice_y: float
    bob_y: float
    resamples: int


@dataclass(frozen=True)
class TrialResult:
    """One trial at every configured power, powers in grid order.

    `truth` (N_i, 5) and `estimates` (P, N_i, 5) hold `AngleEstimate`
    fields in order, `rates` (P, 4) the `RATE_KEYS` columns and `search`
    (P,) the phase-2 pilots of each power's estimation pass.
    """

    geometry: SampledGeometry
    truth: np.ndarray
    estimates: np.ndarray
    rates: np.ndarray
    search: np.ndarray


def scenario_assets(config: ScenarioConfig) -> ScenarioAssets:
    """Build the per-config assets. The terminals share one codebook when
    their arrays and grid sizes agree."""
    tx_spec = ArraySpec(config.num_tx_antennas)
    rx_spec = ArraySpec(config.num_rx_antennas)
    tx_codebook = build_codebook(tx_spec, config.branching,
                                 config.num_tx_beams)
    shared = (rx_spec, config.num_rx_beams) == (tx_spec, config.num_tx_beams)
    return ScenarioAssets(
        consts=config.physical_constants(),
        tx_spec=tx_spec,
        rx_spec=rx_spec,
        irs_spec=ArraySpec(config.num_irs_elements),
        tx_codebook=tx_codebook,
        rx_codebook=tx_codebook if shared else build_codebook(
            rx_spec, config.branching, config.num_rx_beams),
        sweep_grid=grid_directions(config.num_irs_elements,
                                   config.num_irs_sweep_beams),
        powers=np.array([dbm_to_watts(p) for p in config.power_grid_dbm]),
        noise_power=config.noise_power_watts,
    )


class _DegenerateRay(ValueError):
    """A drawn ray the link model cannot represent; the room is redrawn."""


def _path_geometry(terminal_y, irs_position) -> tuple:
    """Distances and transverse sines of terminal-to-IRS rays.

    Terminals sit on the x = 0 wall with broadside +x; IRSs sit on the far
    wall with broadside -x; all arrays run along +y, so the angle off
    broadside has sine (other endpoint's y - own y) / distance on each side.
    `terminal_y` and the coordinates (x, y) = `irs_position` broadcast, so
    arrays of them give every ray at once. Raises _DegenerateRay when a
    terminal sits on an IRS or a ray runs parallel to an array axis.
    """
    x_i, y_i = irs_position
    distance = np.hypot(x_i, y_i - terminal_y)
    if np.any(distance < 1e-9):
        raise _DegenerateRay("degenerate geometry: terminal on top of an IRS")
    sine_at_terminal = (y_i - terminal_y) / distance
    sine_at_irs = (terminal_y - y_i) / distance
    if np.max(np.abs(sine_at_terminal)) >= 1.0 - 1e-12:   # |sine_at_irs| too
        raise _DegenerateRay("ray parallel to an array axis")
    return distance, sine_at_terminal, sine_at_irs


def sample_scenario(config: ScenarioConfig, rng: np.random.Generator,
                    assets: ScenarioAssets):
    """Draw terminal positions and build the cascade channel they induce.

    Every ray is computed at once: one row per terminal (Alice, then Bob),
    one column per IRS. Returns (CascadeChannel, SampledGeometry). Draws with
    a degenerate ray are redrawn and counted; the 1000th raises ConfigError.
    """
    for attempt in range(1000):
        alice_y = rng.uniform(*config.alice_y_range)
        bob_y = rng.uniform(*config.bob_y_range)
        try:
            distances, terminal_sines, irs_sines = _path_geometry(
                np.array([[alice_y], [bob_y]]),
                np.transpose(config.irs_positions))
        except _DegenerateRay:
            continue
        angles = np.arcsin(np.stack([terminal_sines[0], irs_sines[0],
                                     irs_sines[1], terminal_sines[1]], -1))
        return (CascadeChannel(assets.consts, angles, distances.T,
                               assets.tx_spec, assets.rx_spec,
                               assets.irs_spec),
                SampledGeometry(alice_y, bob_y, attempt))
    raise ConfigError("irs_positions: a degenerate ray in all 1000 draws")


def true_composite_loss(cascade: CascadeChannel, irs_index):
    """Exact bridged end-to-end amplitude beta * cascade_loss(d_in, d_out)
    of IRS `irs_index`, or of every IRS an index array or slice selects."""
    d_in, d_out = np.transpose(cascade.distances[irs_index])
    return cascade.consts.reflection_amplitude * cascade_loss(
        cascade.consts, cascade.irs_spec.num_elements, d_in, d_out)


def _truth(cascade: CascadeChannel) -> np.ndarray:
    """The genie's estimates (N_i, 5) in `AngleEstimate` field order."""
    return np.concatenate([cascade.angles, true_composite_loss(
        cascade, slice(None))[:, None]], axis=1)


def perfect_estimates(cascade: CascadeChannel):
    """Estimates an ideal genie would report: true angles and true losses."""
    return [AngleEstimate(*map(float, row)) for row in _truth(cascade)]


def _trial_seed(seed: int, trial: int, stream: int) -> np.random.Generator:
    # counter-based derivation keeps trials independent and order-free
    return np.random.default_rng(np.random.SeedSequence((seed, trial, stream)))


def _hybrid_rates(blocks, gains, factors, powers, noise_power):
    """Rates of the `design_pass` designs (`blocks`, `gains`) at stream
    factors S: on H = R diag(g) T, W^H H F = (W^H R) diag(g) (T F) diag(S)^1/2."""
    return spectral_efficiency(blocks[2], (blocks[1] * gains[..., None, :]) @ (
        blocks[0] * np.sqrt(factors)[..., None, :]), powers, noise_power)


def _designed_rates(cascade, estimates, power, noise_power, config):
    """The hybrid rate of a list of estimates at one power, over the
    channel of IRSs in direction mode on their angles."""
    rows = np.array([[astuple(e) for e in estimates]])
    powers = np.array([power])
    factors = power_factors(rows[..., 4], powers, noise_power)
    return float(_hybrid_rates(*design_pass(cascade, rows[..., :4]), factors,
                               powers, noise_power)[0])


def _trial_rates(blocks, gains, losses, powers, noise_power, cores):
    """The (P, 4) `RATE_KEYS` rates of a trial from one water-filling call
    over 4P rows: 2P hybrid pairs of the P + 1 `design_pass` designs
    (`blocks`, `gains`) with composite `losses` (P estimated at their power,
    the genie's, last, at each) and the 2P fully digital bounds: water-filling
    over the singular values of the genie and random channel `cores`."""
    count, half = powers.size, 2 * powers.size
    rows = np.minimum(np.arange(half), count)
    sv = np.linalg.svd(cores, compute_uv=False)
    # a singular value at or below 1e-14 of its core's largest is a zero gain
    sv *= sv > 1e-14 * sv.max(axis=-1, keepdims=True)
    amplitudes = np.concatenate([losses[rows], sv.repeat(count, axis=0)])
    power = np.concatenate([powers] * 4)
    factors = power_factors(amplitudes, power, noise_power)
    # a pair with all-zero factors has no active stream and scores 0
    hybrid = _hybrid_rates([block[rows] for block in blocks], gains[rows],
                           factors[:half], power[:half], noise_power)
    bounds = parallel_rate(amplitudes[half:], factors[half:],
                           power[half:, None], noise_power)
    return np.reshape([hybrid, bounds], (4, count)).T


def run_trial(config: ScenarioConfig, assets: ScenarioAssets,
              trial: int) -> TrialResult:
    """One Monte Carlo trial, scored at every configured power.

    Samples the room (stream 0) and draws the random IRS phases (stream 1).
    Then, in one pass over every power at once, reading power p's noise
    tape row from stream 2 + p, runs the cooperative estimation. One
    `design_pass` forms the L x L blocks and chain gains of the P estimated
    designs and the genie's, which the composite-loss pilots and the scoring
    (`_trial_rates`) read; the bounds read the genie and random IRSs'
    N_i x N_i cores (`channel_cores`).
    """
    cascade, geometry = sample_scenario(
        config, _trial_seed(config.seed, trial, 0), assets)
    # the L random_mode states of an irs_control loop, from one draw
    random_states = config.reflection_amplitude * np.exp(
        1j * _trial_seed(config.seed, trial, 1).uniform(
            0.0, 2.0 * np.pi, (config.num_irs, config.num_irs_elements)))
    powers, noise_power = assets.powers, assets.noise_power
    tape = noise_tape(cascade, assets, config.pilot_repetitions,
                      [_trial_seed(config.seed, trial, 2 + p_index)
                       for p_index in range(powers.size)])
    angles, search = estimate_angles(cascade, assets, powers, noise_power,
                                     tape)
    truth = _truth(cascade)
    # each power's estimated design, then the genie design
    blocks, gains = design_pass(cascade, np.concatenate([angles,
                                                          [cascade.angles]]))
    losses = composite_losses([block[:-1] for block in blocks[:2]],
                              gains[:-1], powers, noise_power, tape.pilots)
    cores = channel_cores(cascade, np.stack([
        gains[-1], chain_gains(cascade, random_states)]))
    rates = _trial_rates(blocks, gains, np.vstack([losses, truth[:, 4]]),
                         powers, noise_power, cores)
    return TrialResult(geometry=geometry, truth=truth,
                       estimates=np.concatenate([angles, losses[..., None]],
                                                -1),
                       rates=rates, search=search)


@dataclass
class RateExperimentResult:
    rows: list
    ordering_violations: int
    slot_totals: SlotCount   # summed over every trial and power point


def run_rate_experiment(config: ScenarioConfig,
                        progress=None) -> RateExperimentResult:
    """Average the four benchmark curves of `run_trial` over random placements.

    Per-trial estimated-vs-random ordering violations are counted, not
    failed; they are possible at low power. `progress(done, total)` is
    called after every trial.
    """
    assets = scenario_assets(config)
    sums = np.zeros((len(config.power_grid_dbm), len(RATE_KEYS)))
    violations = search = 0
    for trial in range(config.trials):
        result = run_trial(config, assets, trial)
        sums += result.rates
        violations += np.count_nonzero(result.rates[:, 3] > result.rates[:, 0])
        search += result.search.sum()
        if progress is not None:
            progress(trial + 1, config.trials)

    rows = [{"power_dbm": float(p_dbm),
             **dict(zip(RATE_KEYS, sums[p_index] / config.trials))}
            for p_index, p_dbm in enumerate(config.power_grid_dbm)]
    return RateExperimentResult(
        rows=rows, ordering_violations=violations,
        slot_totals=slot_count(config.num_irs, assets.sweep_grid.num_beams,
                               len(rows) * config.trials, search))


def run_mp_experiment(config: ScenarioConfig):
    """Misalignment curves for every configured (N_a, K) pair."""
    rows = []
    for num_elements in config.mp_antenna_counts:
        for ratio in config.mp_beam_ratios:
            num_beams = int(round(ratio * num_elements))
            rng = np.random.default_rng(
                np.random.SeedSequence((config.seed, num_elements, num_beams)))
            curve = misalignment_curve(num_elements, num_beams,
                                       config.mp_snr_grid_db, config.trials,
                                       rng=rng)
            for snr_db, mp in curve:
                rows.append({
                    "snr_db": snr_db,
                    "mp": mp,
                    "trials": config.trials,
                    "num_elements": num_elements,
                    "num_beams": num_beams,
                })
    return rows


def _format_cell(key, value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            raise ValueError(f"{key}: refusing to write {value!r} to a CSV")
        return repr(float(value))
    return str(value)


def write_csv(path: str, header, rows) -> None:
    """Fixed column order, full-precision floats, no locale dependence.
    Raises ValueError, before the file is opened, on a NaN or infinity."""
    lines = [[_format_cell(key, row[key]) for key in header] for row in rows]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(lines)


def _parse_pair(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected 'lo,hi', got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _parse_positions(text: str) -> tuple:
    points = tuple(_parse_pair(c) for c in text.split(";") if c.strip())
    if not points:
        raise ValueError("no IRS positions given")
    return points


def _parse_list(kind, text: str) -> tuple:
    expected = ("expected one or more comma-separated "
                + ("integers" if kind is int else "numbers"))
    values = []
    for part in filter(None, map(str.strip, text.split(","))):
        try:
            values.append(kind(part))
        except ValueError:
            raise ValueError(f"{expected}, got {part!r}") from None
    if not values:
        raise ValueError(expected)
    return tuple(values)


def _parse_floats(text: str) -> tuple:
    return _parse_list(float, text)


def _parse_ints(text: str) -> tuple:
    return _parse_list(int, text)


# Scalar keys parse as the type of their default.
_CONFIG_PARSERS = {f.name: type(f.default) for f in fields(ScenarioConfig)}
_CONFIG_PARSERS.update(
    alice_y_range=_parse_pair, bob_y_range=_parse_pair,
    irs_positions=_parse_positions, power_grid_dbm=_parse_floats,
    mp_snr_grid_db=_parse_floats, mp_antenna_counts=_parse_ints,
    mp_beam_ratios=_parse_floats)


class ConfigError(Exception):
    """Raised for malformed config files or inconsistent settings."""


def load_config_file(path: str) -> dict:
    """Parse the flat `key = value` config format; '#' starts a comment."""
    values = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONFIG_PARSERS[key](text.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from exc
    return values


def make_config(file_path: str = None, **overrides) -> ScenarioConfig:
    """Build a ScenarioConfig from an optional file plus keyword overrides."""
    values = load_config_file(file_path) if file_path else {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value
    try:
        return ScenarioConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
