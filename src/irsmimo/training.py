"""Noisy beam measurements, hierarchical search, and the cooperative estimation protocol.

Reciprocity convention: the uplink channel is the plain transpose of the
downlink one. Under that convention an uplink arrival response is the
conjugate of the downlink departure response, so uplink searches sweep
conjugated codewords and monostatic round trips through an IRS double the
per-element phase slope. The doubled slope makes the return-mode sweep
pattern periodic in the sine with period one, which leaves a two-way
ambiguity (a grating twin offset by exactly 1 in sine) that no per-sweep
argmax rule can resolve; phase 1 therefore ends with a two-slot bridge
check that keeps the parity-consistent member of the twin pair.
"""

from dataclasses import dataclass

import numpy as np

from .arrays import (ArraySpec, BeamGrid, BeamVector, element_phases,
                     grid_directions, pattern_gain, steering_coefficients)
from .channel import CascadeChannel, PhysicalConstants
from .codebook import HierarchicalCodebook


@dataclass(frozen=True)
class MeasurementModel:
    """Transmit power and receiver noise power, both Watts."""

    transmit_power: float
    noise_power: float

    def __post_init__(self):
        if self.transmit_power < 0 or self.noise_power < 0:
            raise ValueError("powers must be nonnegative")


@dataclass(frozen=True)
class AngleEstimate:
    """Estimated path angles for one IRS, all members of their search grids."""

    tx_departure: float    # toward the IRS, from the transmit codebook grid
    irs_arrival: float     # at the IRS, from the sweep grid
    irs_departure: float   # at the IRS, from the sweep grid
    rx_arrival: float      # from the IRS, from the receive codebook grid
    composite_loss: float = float("nan")


@dataclass(frozen=True)
class SlotCount:
    """Pilot-slot bookkeeping for one full estimation pass."""

    irs_sweep: int   # phase-1 return-mode slots
    parity: int      # phase-1 bridge-disambiguation slots
    search: int      # phase-2 hierarchical-search measurements


@dataclass(frozen=True)
class ScenarioAssets:
    """Per-config values reused across trials; `powers` is in Watts."""

    consts: PhysicalConstants
    tx_spec: ArraySpec
    rx_spec: ArraySpec
    irs_spec: ArraySpec
    tx_codebook: HierarchicalCodebook
    rx_codebook: HierarchicalCodebook
    sweep_grid: BeamGrid
    sweep_phasors: np.ndarray   # `sweep_phasors(irs_spec, sweep_grid)`
    powers: np.ndarray
    noise_power: float


def sweep_phasors(irs_spec: ArraySpec, grid: BeamGrid) -> np.ndarray:
    """exp(j * return-mode phases) of every sweep slot, one row each. The
    phases are -2 (2 pi d) n sin(direction)."""
    return np.exp(1j * element_phases(irs_spec.num_elements,
                                      irs_spec.spacing_wavelengths,
                                      -2.0 * grid.sines[:, None]))


def complex_noise(rng: np.random.Generator, power: float, size=None) -> np.ndarray:
    """Circularly symmetric complex Gaussian samples with the given mean power."""
    scale = np.sqrt(power / 2.0)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def measure_power(tx_beam: BeamVector, rx_beam: BeamVector, channel: np.ndarray,
                  model: MeasurementModel, rng: np.random.Generator,
                  trials: int = 1) -> float:
    """Received power |y|^2 for one pilot, y = sqrt(P) w^H H f + w^H n.

    The symbol is 1; each trial draws fresh noise and the result is the
    average over `trials`.
    """
    channel = np.asarray(channel)
    f = tx_beam.coefficients
    w = rx_beam.coefficients
    if channel.shape != (w.shape[0], f.shape[0]):
        raise ValueError(
            f"channel shape {channel.shape} does not match beams "
            f"({w.shape[0]}, {f.shape[0]})"
        )
    if trials < 1:
        raise ValueError("trials must be >= 1")
    signal = np.sqrt(model.transmit_power) * np.vdot(w, channel @ f)
    noise = complex_noise(rng, model.noise_power * np.vdot(w, w).real, size=trials)
    return float(np.mean(np.abs(signal + noise) ** 2))


@dataclass(frozen=True)
class NoiseTape:
    """Unit complex Gaussian pilot noise of one trial, row p for power p.

    A pilot reads a fixed position whatever path the search takes. Side 0
    is the transmit terminal: `sweep[p, l, side, slot]`, `bridge[p, l, c]`
    (departure candidate, then its twin), `search[p, l, side, stage - 1,
    child]` (by sibling position, null ones included), `pilots[p, l, r]`.
    Row p is one generator's (real, imaginary) pairs, fields in this order.
    """

    sweep: np.ndarray
    bridge: np.ndarray
    search: np.ndarray
    pilots: np.ndarray


def noise_tape(cascade: CascadeChannel, assets: ScenarioAssets,
               pilot_repetitions: int, rngs) -> NoiseTape:
    """Draw the tape of one trial, one row from each generator in `rngs`."""
    books = (assets.tx_codebook, assets.rx_codebook)
    num_irs = cascade.num_irs
    shapes = ((num_irs, 2, assets.sweep_grid.num_beams), (num_irs, 2),
              (num_irs, 2, max(b.num_stages for b in books),
               max(b.branching for b in books)),
              (num_irs, pilot_repetitions))
    sizes = [int(np.prod(shape)) for shape in shapes]
    rows = np.array([rng.standard_normal((sum(sizes), 2)).view(complex)[:, 0]
                     for rng in rngs])
    parts = np.split(rows, np.cumsum(sizes)[:-1], axis=1)
    return NoiseTape(*(part.reshape(len(rows), *shape)
                       for part, shape in zip(parts, shapes)))


def _descend(codebook: HierarchicalCodebook, measure, batch: int = 1) -> tuple:
    """Stage-by-stage descent of `batch` searches at once to their best leaves.

    `measure(stage, children)` returns the powers measured on the slots
    `children` (batch, M), each search's current children; null slots are
    ignored. Powers are weighted by the squared boundary calibration, ties
    go to the lowest index. Returns the leaf indices and live children
    measured, both (batch,).
    """
    index = np.zeros(batch, dtype=int)
    measurements = np.zeros(batch, dtype=int)
    for stage in range(1, codebook.num_stages + 1):
        children = index[:, None] * codebook.branching + np.arange(
            codebook.branching)
        live = codebook.live[stage][children]
        stats = np.where(live, measure(stage, children)
                         * codebook.weights[stage][children], -np.inf)
        index = children[np.arange(batch), np.argmax(stats, axis=1)]
        measurements += live.sum(axis=1)
    return index, measurements


def hierarchical_search(codebook: HierarchicalCodebook, gain_oracle) -> int:
    """Calibrated descent to the best leaf; returns the leaf's grid index.

    `gain_oracle` maps a candidate BeamVector to a measured power and is
    called once per live child, in slot order.
    """
    def measure(stage, children):
        return np.array([[gain_oracle(codebook.beam(stage, c))
                          if codebook.live[stage][c] else 0.0
                          for c in children[0]]])
    return int(_descend(codebook, measure)[0][0])


def direction_states(cascade: CascadeChannel, incident_sine,
                     departure_sine) -> np.ndarray:
    """Diagonals of the direction-mode IRS states between arrays of sines."""
    spec = cascade.irs_spec
    return cascade.consts.reflection_amplitude * np.exp(1j * element_phases(
        spec.num_elements, spec.spacing_wavelengths,
        np.subtract(departure_sine, incident_sine)[..., None]))


def channel_factors(cascade: CascadeChannel, states) -> tuple:
    """Channels with IRS l in the state of diagonal states[..., l, :], as
    factors (Q_a, cores, Q_b^T): H = rx_dir^T diag(g) tx_dir = Q_a core Q_b^T
    with g_l = sum_n chain_ln states_ln, core = R_a diag(g) R_b^T (..., N_i,
    N_i) and the reduced QRs rx_dir^T = Q_a R_a and tx_dir^T = Q_b R_b."""
    chain, rx_dir, tx_dir, _ = cascade.bridge_terms
    q_a, r_a = np.linalg.qr(rx_dir.T)
    q_b, r_b = np.linalg.qr(tx_dir.T)
    gains = np.sum(chain * states, axis=-1)
    return q_a, (r_a * gains[..., None, :]) @ r_b.T, q_b.T


def _sweep_responses(cascade: CascadeChannel,
                     assets: ScenarioAssets) -> np.ndarray:
    """Noise-free return-mode responses (N_i, side, K_r) of every sweep slot:
    a terminal sending and receiving on its first element through state
    Theta hears eta G_t G_r sum_n Theta_nn h_n^2, h the omni entries of its
    hop (the transposed return hop repeats them, unconjugated)."""
    consts = cascade.consts
    weights = (cascade.eta * consts.tx_gain * consts.rx_gain
               * cascade.bridge_terms[3] ** 2)
    return consts.reflection_amplitude * (weights @ assets.sweep_phasors.T)


def estimate_angles(cascade: CascadeChannel, assets: ScenarioAssets, powers,
                    noise_power: float, tape: NoiseTape) -> tuple:
    """The cooperative estimation of every IRS at every power, from `tape`.

    Phase 1, per IRS with the others absorbing: return-mode sweeps by the
    transmit terminal (arrival at the IRS) and the receive terminal (the
    negated departure, un-negated via the grid's sine mirror), then two
    bridge slots pick between the departure and its grating twin. Phase 2,
    with the IRS in direction mode on those angles: codebook searches by
    the receive terminal (w^H H[:, 0]) and the transmit terminal (w^T
    H[0, :]), the other terminal omni. Returns (angles, search): per
    (power, IRS) the transmit departure, IRS arrival, IRS departure and
    receive arrival (P, N_i, 4), and the phase-2 pilots per power (P,).
    """
    grid = assets.sweep_grid
    amplitude = np.sqrt(np.asarray(powers, dtype=float))[:, None]
    scale = np.sqrt(noise_power / 2.0)
    chain, rx_dir, tx_dir, _ = cascade.bridge_terms

    heard = np.abs(amplitude[..., None, None]
                   * _sweep_responses(cascade, assets)
                   + scale * tape.sweep) ** 2
    slots = np.argmax(heard, axis=-1)
    arrival = slots[..., 0]
    departure = grid.num_beams - 1 - slots[..., 1]
    candidates = np.stack(
        [departure, (departure + grid.num_beams // 2) % grid.num_beams], -1)
    gains = np.sum(chain[:, None] * direction_states(
        cascade, grid.sines[arrival][..., None], grid.sines[candidates]), -1)
    heard = np.abs(amplitude[..., None] * gains + scale * tape.bridge) ** 2
    pick = np.argmax(heard, axis=-1)[..., None]
    departure = np.take_along_axis(candidates, pick, axis=-1)[..., 0]
    reach = (amplitude * np.take_along_axis(gains, pick, axis=-1)[..., 0])

    # the pair's H[:, 0] is H[0, 0] rx_dir and its H[0, :] is H[0, 0] tx_dir
    owner = np.broadcast_to(np.arange(reach.shape[1]), reach.shape).ravel()
    leaves, search = [], 0
    for side, (book, direction) in enumerate(
            ((assets.tx_codebook, tx_dir), (assets.rx_codebook, rx_dir))):
        responses = {s: beams.T @ direction.T for s, beams in (
            book.uplink_stages if side else book.stages).items()}
        draws = tape.search[:, :, side].reshape(owner.size, -1,
                                                tape.search.shape[-1])

        def measure(stage, children):
            signal = reach.reshape(-1, 1) * responses[stage][children, owner[:, None]]
            return np.abs(signal + scale * draws[:, stage - 1,
                                                 :book.branching]) ** 2
        leaf, count = _descend(book, measure, owner.size)
        leaves.append(book.leaf_grid.directions[leaf].reshape(reach.shape))
        search = search + count.reshape(reach.shape).sum(axis=1)
    return np.stack([leaves[0], grid.directions[arrival],
                     grid.directions[departure], leaves[1]], axis=-1), search


def composite_losses(cascade: CascadeChannel, irs, angles, powers,
                     noise_power: float, noise) -> np.ndarray:
    """Measured end-to-end amplitudes (P, len(irs)) of bridged IRS links.

    IRS `irs[j]` alone reflects, in direction mode on `angles[p, j]`
    (ordered as `estimate_angles` returns them), both terminals beamform on
    those angles, and the amplitude comes from the power averaged over the
    pilots `noise[p, j]` less the noise floor, clipped at zero.
    """
    chain, rx_dir, tx_dir, _ = cascade.bridge_terms
    angles = np.asarray(angles, dtype=float)
    tx_spec, rx_spec = cascade.tx_spec, cascade.rx_spec
    w = steering_coefficients(rx_spec.num_elements, rx_spec.spacing_wavelengths,
                              angles[..., 3, None])
    f = steering_coefficients(tx_spec.num_elements, tx_spec.spacing_wavelengths,
                              angles[..., 0, None])
    sines = np.sin(angles)
    signal = (np.sum(chain[irs] * direction_states(cascade, sines[..., 1],
                                                   sines[..., 2]), axis=-1)
              * np.sum(w.conj() * rx_dir[irs], axis=-1)
              * np.sum(tx_dir[irs] * f, axis=-1))
    powers = np.asarray(powers, dtype=float)[:, None]
    heard = np.mean(np.abs((np.sqrt(powers) * signal)[..., None]
                           + np.sqrt(noise_power / 2.0) * noise) ** 2, axis=-1)
    return np.sqrt(np.maximum(heard - noise_power, 0.0) / powers)


def cooperative_estimate(cascade: CascadeChannel, assets: ScenarioAssets,
                         model: MeasurementModel, rng: np.random.Generator):
    """`estimate_angles` at one power on a tape row drawn from `rng`.

    Returns one AngleEstimate per IRS (composite loss NaN) and the slot
    totals. The row's composite-loss pilots come next on the same generator.
    """
    angles, search = estimate_angles(
        cascade, assets, [model.transmit_power], model.noise_power,
        noise_tape(cascade, assets, 0, [rng]))
    return ([AngleEstimate(*map(float, row)) for row in angles[0]],
            slot_count(cascade.num_irs, assets.sweep_grid.num_beams, 1,
                       search[0]))


def slot_count(num_irs: int, sweep_beams: int, passes: int,
               search) -> SlotCount:
    """Slots of `passes` estimation passes over `num_irs` IRSs and a
    `sweep_beams`-slot sweep grid whose phase-2 searches used `search`."""
    return SlotCount(irs_sweep=2 * sweep_beams * num_irs * passes,
                     parity=2 * num_irs * passes, search=int(search))


# gains per misalignment block, so its terms stay in L2 while every SNR runs
_BLOCK_VALUES = 1 << 14


def misalignment_curve(num_elements: int, num_beams: int, snr_grid_db,
                       trials: int, rng: np.random.Generator):
    """Bottom-stage misalignment probability versus per-measurement SNR.

    Each trial draws one true angle uniform over the full angular range and
    scans all K leaf beams; a trial misaligns when the chosen leaf's
    direction is off the true angle by more than one beam spacing (2/K) in
    circular sine distance. Circular because the half-wavelength pattern is
    2-periodic in the sine, making +-1 the same endfire seam and the first
    and last grid beams neighbors. The one-spacing slack excludes ties
    between the two beams sharing the edge the angle sits on, whose flip
    odds stay bounded at any SNR; every farther beam faces a gain gap
    bounded away from zero, so this statistic reaches exactly zero beyond a
    finite SNR threshold.

    SNR is P * (path amplitude)^2 / noise referenced at a single receive
    element, so a beamformed measurement additionally collects the array
    gain sqrt(N_a). Angles and noise draws are shared across the SNR grid
    (common random numbers). Gains g are real, so each SNR's power
    |a g + n|^2 = a^2 g^2 + 2 a g Re(n) + |n|^2 reuses three real terms.

    `rng` draws the angles, the noise real parts, then the imaginary parts,
    as one complex draw would. Trials run in blocks of `_BLOCK_VALUES` gains
    with each SNR's argmax in cache; only the real parts span every trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    leaf_sines = grid_directions(num_elements, num_beams).sines
    sines = np.sin(rng.uniform(-np.pi / 2.0, 3.0 * np.pi / 2.0, size=trials))
    scale = np.sqrt(0.5)
    real = rng.standard_normal((trials, num_beams))
    real *= scale
    amps = [np.sqrt(10.0 ** (snr_db / 10.0) * num_elements)
            for snr_db in snr_grid_db]
    chosen = np.empty((len(amps), trials), dtype=np.intp)
    rows = max(1, _BLOCK_VALUES // num_beams)
    for start in range(0, trials, rows):
        block = slice(start, start + rows)
        noise = real[block]
        gains = pattern_gain(num_elements, sines[block, None] - leaf_sines)
        square, cross = gains * gains, 2.0 * gains * noise
        floor = noise ** 2 + (scale * rng.standard_normal(noise.shape)) ** 2
        powers = np.empty_like(square)
        for row, amp in zip(chosen, amps):
            np.multiply(amp * amp, square, out=powers)
            powers += amp * cross
            powers += floor
            np.argmax(powers, axis=1, out=row[block])
    diff = np.abs(sines - leaf_sines[chosen])
    missed = np.minimum(diff, 2.0 - diff) > 2.0 / num_beams * (1.0 + 1e-12)
    return [(float(snr_db), float(np.mean(row)))
            for snr_db, row in zip(snr_grid_db, missed)]
