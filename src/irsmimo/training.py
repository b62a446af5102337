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
from functools import cached_property

import numpy as np

from .arrays import BeamGrid, BeamVector, grid_directions, pattern_gain
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

    @cached_property
    def sweep_phasors(self) -> np.ndarray:
        """exp(j * return-mode phases) of every sweep slot, one row each;
        built once per scene. The phases are -2 (2 pi d) n sin(direction)."""
        irs_spec = self.cascade.irs_spec
        n = np.arange(irs_spec.num_elements)
        phases = (-2.0 * (2.0 * np.pi * irs_spec.spacing_wavelengths)
                  * np.outer(self.sweep_grid.sines, n))
        return np.exp(1j * phases)


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


def _descend(codebook: HierarchicalCodebook, measure) -> tuple:
    """Stage-by-stage descent to the best leaf; returns (leaf, measurements).

    At each stage `measure(stage, children)` returns the measured powers of
    the current candidate's live children, the slot slice `children`: among
    siblings the live slots come first, so null padding slots are never
    measured. Powers are weighted by the squared boundary calibration before
    comparison; ties go to the lowest index. `leaf` is the leaf's grid index
    and `measurements` the number of powers measured.
    """
    index = 0
    measurements = 0
    for stage in range(1, codebook.num_stages + 1):
        first = index * codebook.branching
        children = slice(first, first + np.count_nonzero(
            codebook.live[stage][first:first + codebook.branching]))
        stats = measure(stage, children) * codebook.weights[stage][children]
        index = first + int(np.argmax(stats))
        measurements += children.stop - first
    return index, measurements


def hierarchical_search(codebook: HierarchicalCodebook, gain_oracle) -> int:
    """Calibrated descent to the best leaf; returns the leaf's grid index.

    `gain_oracle` maps a candidate BeamVector to a measured power and is
    called once per live child, in slot order.
    """
    leaf, _ = _descend(codebook, lambda stage, children: np.array(
        [gain_oracle(codebook.beam(stage, c))
         for c in range(children.start, children.stop)]))
    return leaf


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
    weights = _roundtrip_weights(scenario, irs_index, side)
    responses = (scenario.consts.reflection_amplitude
                 * (scenario.sweep_phasors @ weights))
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
    transposed channel with conjugated codewords. Omni is the first
    element, so the receive search combines w^H with the first column of the
    bridged channel and the transmit search w^T with its first row.

    Returns (rx_leaf, tx_leaf, measurements): the chosen leaf grid indices
    of the receive and transmit codebooks, and the pilots both searches used.
    """
    H = bridged_channel(scenario, irs_index, phase1_result)
    amplitude = np.sqrt(model.transmit_power)

    def search(codebook, response, conjugate):
        # one product and one noise draw per stage for its live children;
        # pilot by pilot, the same draws and powers as `measure_power`
        def measure(stage, children):
            beams = codebook.stages[stage][:, children]
            signal = amplitude * ((beams.conj() if conjugate else beams).T
                                  @ response)
            # (real, imaginary) pairs: complex draws in measure_power's order
            draws = rng.standard_normal((beams.shape[1], 2)).view(complex)
            scale = np.sqrt(model.noise_power * codebook.norms[stage][children]
                            / 2.0)
            return np.abs(signal + scale * draws[:, 0]) ** 2
        return _descend(codebook, measure)

    rx_leaf, rx_count = search(scenario.rx_codebook, H[:, 0], True)
    tx_leaf, tx_count = search(scenario.tx_codebook, H[0, :], False)
    return rx_leaf, tx_leaf, rx_count + tx_count


def bridged_channel(scenario: LinkScenario, irs_index: int,
                    irs_angles) -> np.ndarray:
    """End-to-end channel with IRS `irs_index` in direction mode on
    `irs_angles` = (arrival, departure) and every other IRS absorbing."""
    irs_spec = scenario.cascade.irs_spec
    thetas = [absorbing(irs_spec.num_elements)] * scenario.cascade.num_irs
    thetas[irs_index] = direction_mode(
        irs_spec.num_elements, irs_spec.spacing_wavelengths, *irs_angles,
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
        irs_arrival, irs_departure = phase1(scenario, irs_index, model, rng=rng)
        rx_leaf, tx_leaf, measurements = phase2(
            scenario, irs_index, (irs_arrival, irs_departure), model, rng=rng)
        search_slots += measurements
        estimates.append(AngleEstimate(
            tx_departure=scenario.tx_codebook.leaf_angle(tx_leaf),
            irs_arrival=irs_arrival,
            irs_departure=irs_departure,
            rx_arrival=scenario.rx_codebook.leaf_angle(rx_leaf),
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
