"""Noisy beam measurements, hierarchical search, and the cooperative estimation protocol.

Reciprocity convention: the uplink channel is the plain transpose of the
downlink one. Under that convention an uplink arrival response is the
conjugate of the downlink departure response, so uplink searches sweep
conjugated codewords and monostatic round trips through an IRS double the
per-element phase slope. Each return-mode sweep slot is therefore one
Dirichlet value D_N(2 x) of the sine offset x, and since D_N has period 2
the sweep pattern is periodic in the sine with period one. That leaves a
two-way ambiguity (a grating twin offset by exactly 1 in sine) that no
per-sweep argmax rule can resolve; phase 1 therefore ends with a two-slot
bridge check that keeps the parity-consistent member of the twin pair.
"""

from dataclasses import dataclass
from math import prod

import numpy as np

from .arrays import (ArraySpec, BeamGrid, BeamVector, _pattern_gain_into,
                     dirichlet, grid_directions)
from .channel import CascadeChannel, PhysicalConstants
from .codebook import HierarchicalCodebook, stage_offset


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
    """Per-config values reused across trials; `powers` is in Watts. The
    phase-1 sweep reads only the sines of `sweep_grid`."""

    consts: PhysicalConstants
    tx_spec: ArraySpec
    rx_spec: ArraySpec
    irs_spec: ArraySpec
    tx_codebook: HierarchicalCodebook
    rx_codebook: HierarchicalCodebook
    sweep_grid: BeamGrid
    powers: np.ndarray
    noise_power: float


def measure_power(tx_beam: BeamVector, rx_beam: BeamVector, channel: np.ndarray,
                  model: MeasurementModel, rng: np.random.Generator,
                  trials: int = 1) -> float:
    """Received power |y|^2 for one pilot, y = sqrt(P) w^H H f + w^H n.

    The symbol is 1; each trial draws fresh circularly symmetric complex
    Gaussian noise n and the result is the average over `trials`.
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
    scale = np.sqrt(model.noise_power * np.vdot(w, w).real / 2.0)
    noise = scale * (rng.standard_normal(trials)
                     + 1j * rng.standard_normal(trials))
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
    sizes = [prod(shape) for shape in shapes]
    pairs = np.empty((len(rngs), sum(sizes), 2))
    for row, rng in zip(pairs, rngs):
        rng.standard_normal(out=row)
    rows, fields = pairs.view(complex)[..., 0], []
    for size, shape in zip(sizes, shapes):
        fields.append(rows[:, :size].reshape(len(rows), *shape))
        rows = rows[:, size:]
    return NoiseTape(*fields)


def _descend(codebook: HierarchicalCodebook, measure, batch: int = 1) -> tuple:
    """Stage-by-stage descent of `batch` searches at once to their best leaves.

    `measure(stage, children)` returns the finite powers measured on the
    slots `children` (batch, M), each search's current children. Powers are
    weighted by the squared boundary calibration, ties go to the lowest
    index; a null slot weighs 0 and follows its live siblings, so it never
    wins. Returns the leaf indices and live children measured, (batch,).
    """
    index = np.zeros(batch, dtype=int)
    slots = np.arange(codebook.branching)
    measured = np.zeros((batch, codebook.branching), dtype=int)
    for stage in range(1, codebook.num_stages + 1):
        index *= codebook.branching
        children = index[:, None] + slots
        measured += codebook.live[stage][children]
        index += (measure(stage, children)
                  * codebook.weights[stage][children]).argmax(axis=1)
    return index, measured.sum(axis=1)


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


def chain_gains(cascade: CascadeChannel, states) -> np.ndarray:
    """Gains g_l = sum_n chain_ln states_ln (..., N_i), the H[0, 0] of each
    IRS l reflecting alone in the state of diagonal states[..., l, :]."""
    return (cascade.bridge_terms[0] * states).sum(axis=-1)


def design_pass(cascade: CascadeChannel, angles) -> tuple:
    """Everything the closed-form design takes from `angles` (..., N_i, 4),
    ordered as `estimate_angles` returns them, from one `dirichlet` call:
    the blocks (T F, W^H R, W^H W) (..., N_i, N_i) and the chain gains
    (..., N_i) of the IRSs in direction mode on their angles. F and W steer
    stream m to its departure phi_m and arrival psi_m with unit norm, and
    H = R diag(g) T on the scene's directions t_l, r_l: (T F)[l, m] =
    D_Nt(phi_m - t_l) / sqrt(N_t), (W^H R)[m, l] = D_Nu(r_l - psi_m) /
    sqrt(N_u), (W^H W)[m, k] = D_Nu(psi_k - psi_m) / N_u and g_l = beta
    chain_0 D_Ni(s_1 - s_2 + s^_2 - s^_1), true (s) and designed (s^) sines.
    """
    sines, true = np.sin(angles), cascade.sines
    arrival = sines[..., 3]
    count = cascade.num_irs
    tx, rx, irs = (spec.num_elements for spec in (
        cascade.tx_spec, cascade.rx_spec, cascade.irs_spec))
    sizes, scales = np.repeat([[tx, rx, rx, irs], [
        tx ** -0.5, rx ** -0.5, 1.0 / rx, cascade.consts.reflection_amplitude]],
        [count] * 3 + [1], axis=1)
    values = scales * dirichlet(sizes, np.concatenate([
        sines[..., None, :, 0] - true[:, :1], true[:, 3] - arrival[..., None],
        arrival[..., None, :] - arrival[..., None],
        (true[:, 1] - true[:, 2] + sines[..., 2] - sines[..., 1])[..., None]],
        axis=-1))
    return ((values[..., :count], values[..., count:2 * count],
             values[..., 2 * count:-1]),
            cascade.bridge_terms[0][:, 0] * values[..., -1])


def channel_cores(cascade: CascadeChannel, gains) -> np.ndarray:
    """Cores R_a diag(g) R_b^T (..., N_i, N_i), with the singular values of
    H = rx_dir^T diag(g) tx_dir = Q_a core Q_b^T (QRs rx_dir^T = Q_a R_a,
    tx_dir^T = Q_b R_b), of IRS l at `chain_gains` gains[..., l]."""
    _, rx_dir, tx_dir, _ = cascade.bridge_terms
    # one QR call; zero rows pad the shorter of the pair and keep its R
    pair = np.zeros((2, max(rx_dir.shape[1], tx_dir.shape[1]),
                     cascade.num_irs), dtype=complex)
    pair[0, :rx_dir.shape[1]] = rx_dir.T
    pair[1, :tx_dir.shape[1]] = tx_dir.T
    r_a, r_b = np.linalg.qr(pair, mode="r")
    return (r_a * gains[..., None, :]) @ r_b.T


def _sweep_responses(cascade: CascadeChannel,
                     assets: ScenarioAssets) -> np.ndarray:
    """Noise-free return-mode responses (N_i, side, K_r) of every sweep slot
    from one `dirichlet` call. A terminal sending and receiving on its first
    element through the state of sweep sine x_k hears beta eta G_t G_r sum_n
    h_n^2 e^(-j 2 pi n x_k), h its hop's omni entries (the transposed return
    hop repeats them, unconjugated): h_0 e^(j pi n s_1) in and h_0 e^(-j pi n
    s_2) out, h_0 the `bridge_terms` hop head and s the IRS sines, so it is
    beta eta G_t G_r h_0^2 D_Ni(2(s_1 - x_k)), resp. D_Ni(-2(s_2 + x_k))."""
    consts, grid = cascade.consts, assets.sweep_grid.sines
    weights = (consts.reflection_amplitude * cascade.eta * consts.tx_gain
               * consts.rx_gain * cascade.bridge_terms[3] ** 2)
    sides = cascade.sines[:, 1:3, None] * [[1.0], [-1.0]]   # s_1 and -s_2
    return weights[..., None] * dirichlet(cascade.irs_spec.num_elements,
                                          2.0 * (sides - grid))


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
    slots = heard.argmax(axis=-1)
    arrival = slots[..., 0]
    departure = grid.num_beams - 1 - slots[..., 1]
    candidates = (departure[..., None] + [0, grid.num_beams // 2]) % grid.num_beams
    # chain_n = chain_0 e^(j pi n (s_1 - s_2)), so each gain is one D_N value
    sines = cascade.sines
    gains = (cascade.consts.reflection_amplitude * chain[:, :1] * dirichlet(
        cascade.irs_spec.num_elements, (sines[:, 1] - sines[:, 2])[:, None]
        + grid.sines[candidates] - grid.sines[arrival][..., None]))
    heard = np.abs(amplitude[..., None] * gains + scale * tape.bridge) ** 2
    twin = heard.argmax(axis=-1) == 1
    angles = np.empty(twin.shape + (4,))
    angles[..., 1] = grid.directions[arrival]
    angles[..., 2] = grid.directions[np.where(twin, candidates[..., 1],
                                              candidates[..., 0])]
    reach = amplitude * np.where(twin, gains[..., 1], gains[..., 0])

    # the pair's H[:, 0] is H[0, 0] rx_dir and its H[0, :] is H[0, 0] tx_dir;
    # sides sharing a codebook descend as one batch, hearing visited nodes
    books = (assets.tx_codebook, assets.rx_codebook)
    directions = (tx_dir, rx_dir.conj())
    count = 0
    for sides in ((0, 1),) if books[0] is books[1] else ((0,), (1,)):
        book = books[sides[0]]
        # row (l, side): IRS l's response on that side at every node
        rows = np.stack([directions[s] for s in sides], axis=1)
        responses = rows.reshape(-1, rows.shape[-1]) @ book.table
        if sides[-1]:   # an uplink search hears conj(table^T conj(rx_dir))
            uplink = responses[len(sides) - 1::len(sides)]
            np.conjugate(uplink, out=uplink)
        # search (power, IRS, side) reads row (IRS, side), `starts` holding
        # each stage's first node in it; child c of stage s reads tape slot
        # (s - 1, c % M), its place among its siblings
        starts = ((np.arange(reach.size * len(sides)) % len(responses))[:, None]
                  * responses.shape[1] + stage_offset(book.branching, np.arange(
                      1, book.num_stages + 1)))
        reached = np.repeat(reach.ravel(), len(sides))[:, None]
        draws = scale * tape.search[:, :, sides[0]:sides[-1] + 1,
                                    :book.num_stages, :book.branching].reshape(
            len(starts), book.num_stages, book.branching)

        def measure(stage, children):
            return np.abs(reached * responses.take(
                children + starts[:, stage - 1, None]) + draws[:, stage - 1]) ** 2
        leaf, measured = _descend(book, measure, len(starts))
        angles[..., [3 * s for s in sides]] = book.leaf_grid.directions[
            leaf].reshape(reach.shape + (len(sides),))
        count = count + measured.reshape(len(reach), -1).sum(axis=1)
    return angles, count


def composite_losses(blocks, gains, powers, noise_power: float,
                     noise) -> np.ndarray:
    """Measured end-to-end amplitudes (P, N_i) of bridged IRS links: IRS l
    alone reflects at chain gain g = `gains[p, l]` to the terminals steered
    as stream l, a signal g (W^H R)_ll (T F)_ll of the `design_pass` blocks
    (T F, W^H R, ...) [p], and the amplitude comes from the power averaged
    over the pilots `noise[p, l]` less the noise floor, clipped at zero."""
    signal = (gains * blocks[1].diagonal(0, -2, -1)
              * blocks[0].diagonal(0, -2, -1))
    powers = np.asarray(powers, dtype=float)[:, None]
    heard = (np.abs((np.sqrt(powers) * signal)[..., None]
                    + np.sqrt(noise_power / 2.0) * noise) ** 2).mean(axis=-1)
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
    |a g + n|^2 = (a^2 g^2 + a 2 g Re(n)) + |n|^2 reuses three real terms;
    ties go to the lowest leaf index.

    `rng` draws every angle, then trial by trial the K noise real parts and
    the K imaginary parts, so the curve does not depend on the block size.
    Trials run in blocks of about `_BLOCK_VALUES` gains, each SNR's argmax
    and miss count taken while the block is in cache, in buffers allocated
    once; only the angles' sines span every trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    limit = 2.0 / num_beams * (1.0 + 1e-12)
    leaf_sines = grid_directions(num_elements, num_beams).sines
    sines = rng.uniform(-np.pi / 2.0, 3.0 * np.pi / 2.0, size=trials)
    np.sin(sines, out=sines)
    amps = [np.sqrt(10.0 ** (snr_db / 10.0) * num_elements)
            for snr_db in snr_grid_db]
    misses = np.zeros(len(amps), dtype=np.intp)
    rows = min(trials, max(1, _BLOCK_VALUES // num_beams))
    noise = np.empty((rows, 2, num_beams))
    gains, square, cross, floor, powers = np.empty((5, rows, num_beams))
    aligned = np.empty((rows, num_beams), dtype=bool)
    chosen = np.empty((len(amps), rows), dtype=np.intp)
    for start in range(0, trials, rows):
        block = sines[start:start + rows]
        if len(block) < rows:   # the ragged last block
            noise, gains, square, cross, floor, powers, aligned = (
                buffer[:len(block)] for buffer in (
                    noise, gains, square, cross, floor, powers, aligned))
            chosen = chosen[:, :len(block)]
        rng.standard_normal(out=noise)
        noise *= np.sqrt(0.5)
        real, imag = noise[:, 0], noise[:, 1]
        np.subtract(block[:, None], leaf_sines, out=powers)
        _pattern_gain_into(num_elements, powers, gains, floor, aligned)
        np.multiply(gains, gains, out=square)
        np.multiply(gains, 2.0, out=cross)
        cross *= real
        np.square(real, out=floor)
        floor += np.square(imag, out=imag)
        for amp, row in zip(amps, chosen):
            np.multiply(square, amp * amp, out=powers)
            powers += np.multiply(cross, amp, out=gains)
            powers += floor
            np.argmax(powers, axis=1, out=row)
        diff = np.abs(block - leaf_sines[chosen])
        misses += np.count_nonzero(np.minimum(diff, 2.0 - diff) > limit, axis=1)
    return [(float(snr_db), float(count / trials))
            for snr_db, count in zip(snr_grid_db, misses)]
