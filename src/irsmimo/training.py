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

from .arrays import BeamGrid, BeamVector, grid_directions, omni, pattern_gain
from .channel import CascadeChannel, PhysicalConstants, assemble
from .codebook import HierarchicalCodebook
from .irs_control import absorbing, direction_mode


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
class LinkScenario:
    """Everything the protocol needs about one sampled scene."""

    consts: PhysicalConstants
    cascade: CascadeChannel
    sweep_grid: BeamGrid
    tx_codebook: HierarchicalCodebook
    rx_codebook: HierarchicalCodebook


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


def hierarchical_search(codebook: HierarchicalCodebook, gain_oracle) -> int:
    """Stage-by-stage descent to the best leaf; returns the leaf's grid index.

    `gain_oracle` maps a candidate BeamVector to a measured power. Measured
    powers are weighted by the codebook's boundary calibration before
    comparison; null padding slots are never measured. Ties go to the lowest
    index.
    """
    index = 0
    for stage in range(1, codebook.num_stages + 1):
        best = None
        best_stat = -np.inf
        for child in codebook.children(stage - 1, index):
            beam = codebook.beam(stage, child)
            if beam is None:
                continue
            stat = gain_oracle(beam) * codebook.scale(stage, child) ** 2
            if stat > best_stat:
                best, best_stat = child, stat
        if best is None:
            raise RuntimeError(f"every candidate at stage {stage} is null")
        index = best
    return index


def search_path_measurements(codebook: HierarchicalCodebook, leaf: int) -> int:
    """Measurements a search ending at `leaf` made: M * S_M minus skipped nulls."""
    count = 0
    for stage in range(1, codebook.num_stages + 1):
        parent = leaf // codebook.branching ** (codebook.num_stages - stage + 1)
        count += sum(1 for c in codebook.children(stage - 1, parent)
                     if codebook.beam(stage, c) is not None)
    return count


def _roundtrip_weights(scenario: LinkScenario, irs_index: int,
                       side: str) -> np.ndarray:
    """Per-IRS-element weights of one terminal's monostatic round trip.

    With the terminal transmitting and receiving on its first element, the
    round-trip response under IRS state Theta is
    eta * G_t * G_r * sum_n Theta_nn * weight_n, where weight_n is the
    squared omni-column entry of that terminal's hop matrix (the transposed
    return hop contributes the same entry again, unconjugated).
    """
    link = scenario.cascade.links[irs_index]
    if side == "tx":
        hop = link.incident[:, 0]      # transmit terminal -> IRS, omni column
    elif side == "rx":
        hop = link.departing[0, :]     # transpose of receive-terminal uplink hop
    else:
        raise ValueError("side must be 'tx' or 'rx'")
    gains = link.eta * scenario.consts.tx_gain * scenario.consts.rx_gain
    return gains * hop ** 2


def _bridge_scalar(scenario: LinkScenario, irs_index: int, theta) -> complex:
    """Omni-to-omni downlink response through a single IRS in state `theta`."""
    link = scenario.cascade.links[irs_index]
    chain = link.departing[0, :] * theta.entries() * link.incident[:, 0]
    return (link.eta * scenario.consts.tx_gain * scenario.consts.rx_gain
            * chain.sum())


def _sweep_side(scenario: LinkScenario, irs_index: int, side: str,
                model: MeasurementModel, rng: np.random.Generator) -> int:
    """Measure all K_r return-mode slots for one terminal; returns the best slot."""
    irs_spec = scenario.cascade.irs_spec
    weights = _roundtrip_weights(scenario, irs_index, side)
    # all slots at once: return-mode phases are
    # -2 (2 pi d) n sin(slot direction), one row per slot
    n = np.arange(irs_spec.num_elements)
    phases = (-2.0 * (2.0 * np.pi * irs_spec.spacing_wavelengths)
              * np.outer(scenario.sweep_grid.sines, n))
    responses = (scenario.consts.reflection_amplitude
                 * (np.exp(1j * phases) @ weights))
    noise = complex_noise(rng, model.noise_power, size=responses.shape[0])
    powers = np.abs(np.sqrt(model.transmit_power) * responses + noise) ** 2
    return int(np.argmax(powers))


def _grating_twin(grid: BeamGrid, slot: int) -> int:
    """Grid index whose sine differs by exactly 1 from the given slot's sine."""
    half = grid.num_beams // 2
    if grid.num_beams % 2 != 0:
        raise ValueError("IRS sweep grid size must be even")
    return slot - half if slot >= half else slot + half


def phase1(scenario: LinkScenario, irs_index: int, model: MeasurementModel,
           rng: np.random.Generator):
    """Return-mode sweeps with the far terminal silent.

    The transmit terminal's sweep locates the arrival direction at the IRS;
    the receive terminal's sweep locates the negated departure direction,
    un-negated here via the grid's sine mirror. The final two bridge slots
    keep the parity-consistent member of the departure's grating twin pair.

    Returns (irs_arrival_hat, irs_departure_hat), both sweep-grid members.
    """
    grid = scenario.sweep_grid
    irs_spec = scenario.cascade.irs_spec
    beta = scenario.consts.reflection_amplitude

    tx_slot = _sweep_side(scenario, irs_index, "tx", model, rng)
    rx_slot = _sweep_side(scenario, irs_index, "rx", model, rng)
    arrival = float(grid.directions[tx_slot])
    departure_slot = grid.num_beams - 1 - rx_slot

    candidates = (departure_slot, _grating_twin(grid, departure_slot))
    bridge_powers = []
    for slot in candidates:
        theta = direction_mode(irs_spec.num_elements,
                               irs_spec.spacing_wavelengths,
                               arrival, float(grid.directions[slot]),
                               amplitude=beta)
        signal = np.sqrt(model.transmit_power) * _bridge_scalar(
            scenario, irs_index, theta)
        noise = complex_noise(rng, model.noise_power)
        bridge_powers.append(abs(signal + noise) ** 2)
    best = candidates[int(np.argmax(bridge_powers))]
    return arrival, float(grid.directions[best])


def phase2(scenario: LinkScenario, irs_index: int, phase1_result,
           model: MeasurementModel, rng: np.random.Generator):
    """Hierarchical terminal sweeps through the phase-1 bridged IRS.

    Fixes the IRS to direction mode on the phase-1 angles (all other IRSs
    absorbing), then the receive terminal searches its codebook against an
    omni transmitter; roles swap for the transmit-side angle, searching the
    transposed channel with conjugated codewords.

    Returns (rx_arrival_hat, tx_departure_hat).
    """
    H = _bridged_channel(scenario, irs_index, phase1_result)

    tx_omni = omni(scenario.cascade.tx_spec)
    leaf_rx = hierarchical_search(
        scenario.rx_codebook,
        lambda w: measure_power(tx_omni, w, H, model, rng=rng))

    rx_omni = omni(scenario.cascade.rx_spec)
    H_up = H.T
    leaf_tx = hierarchical_search(
        scenario.tx_codebook,
        lambda w: measure_power(rx_omni, w.conj(), H_up, model, rng=rng))
    return (scenario.rx_codebook.leaf_angle(leaf_rx),
            scenario.tx_codebook.leaf_angle(leaf_tx))


def _bridged_channel(scenario: LinkScenario, irs_index: int,
                     phase1_result) -> np.ndarray:
    arrival_hat, departure_hat = phase1_result
    irs_spec = scenario.cascade.irs_spec
    thetas = [absorbing(irs_spec.num_elements)
              for _ in range(scenario.cascade.num_irs)]
    thetas[irs_index] = direction_mode(
        irs_spec.num_elements, irs_spec.spacing_wavelengths,
        arrival_hat, departure_hat,
        amplitude=scenario.consts.reflection_amplitude)
    return assemble(scenario.cascade, thetas, scenario.consts)


def cooperative_estimate(scenario: LinkScenario, model: MeasurementModel,
                         rng: np.random.Generator):
    """Run both phases for every IRS; the others stay absorbing meanwhile.

    Returns (estimates, slots): one AngleEstimate per IRS (composite loss
    left NaN for the transmission stage to fill) and the slot totals.
    """
    estimates = []
    search_slots = 0
    for irs_index in range(scenario.cascade.num_irs):
        p1 = phase1(scenario, irs_index, model, rng=rng)
        rx_arrival, tx_departure = phase2(scenario, irs_index, p1, model,
                                          rng=rng)
        leaf_rx = int(np.argmin(np.abs(
            scenario.rx_codebook.leaf_grid.directions - rx_arrival)))
        leaf_tx = int(np.argmin(np.abs(
            scenario.tx_codebook.leaf_grid.directions - tx_departure)))
        search_slots += search_path_measurements(scenario.rx_codebook, leaf_rx)
        search_slots += search_path_measurements(scenario.tx_codebook, leaf_tx)
        estimates.append(AngleEstimate(
            tx_departure=tx_departure,
            irs_arrival=p1[0],
            irs_departure=p1[1],
            rx_arrival=rx_arrival,
        ))
    slots = SlotCount(
        irs_sweep=2 * scenario.sweep_grid.num_beams * scenario.cascade.num_irs,
        parity=2 * scenario.cascade.num_irs,
        search=search_slots,
    )
    return estimates, slots


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
    (common random numbers).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = grid_directions(num_elements, num_beams)
    angles = rng.uniform(-np.pi / 2.0, 3.0 * np.pi / 2.0, size=trials)
    sines = np.sin(angles)
    gains = pattern_gain(num_elements, sines[:, None] - grid.sines[None, :])
    noise = complex_noise(rng, 1.0, size=gains.shape)
    spacing = 2.0 / num_beams
    curve = []
    for snr_db in snr_grid_db:
        amp = np.sqrt(10.0 ** (snr_db / 10.0) * num_elements)
        powers = np.abs(amp * gains + noise) ** 2
        chosen = np.argmax(powers, axis=1)
        diff = np.abs(sines - grid.sines[chosen])
        circular = np.minimum(diff, 2.0 - diff)
        missed = circular > spacing * (1.0 + 1e-12)
        curve.append((float(snr_db), float(np.mean(missed))))
    return curve
