"""Closed-form IRS and hybrid transceiver designs, water-filling, and rate evaluation."""

from dataclasses import dataclass

import numpy as np

from .arrays import ArraySpec, steering
from .irs_control import direction_mode
from .training import (LinkScenario, MeasurementModel, bridged_channel,
                       measure_power)

_LN2 = np.log(2.0)


@dataclass(frozen=True)
class HybridBeamformer:
    """Analog/digital precoder and combiner pair.

    Analog entries are unit modulus on active columns and zero on padding
    columns; the digital precoder carries the per-stream power weights and
    the 1/sqrt(N) steering normalization so that the analog-digital product
    has unit Frobenius norm.
    """

    analog_precoder: np.ndarray    # N_t x N_RF^t
    digital_precoder: np.ndarray   # N_RF^t x N_s
    analog_combiner: np.ndarray    # N_u x N_RF^u
    digital_combiner: np.ndarray   # N_RF^u x N_s

    def precoder(self) -> np.ndarray:
        return self.analog_precoder @ self.digital_precoder

    def combiner(self) -> np.ndarray:
        return self.analog_combiner @ self.digital_combiner


@dataclass(frozen=True)
class PowerAllocation:
    """Water-filling result: nonnegative factors summing to 1 plus the level."""

    factors: np.ndarray
    water_level: float

    def __post_init__(self):
        object.__setattr__(self, "factors",
                           np.asarray(self.factors, dtype=float))


def design_irs(estimates, irs_spec: ArraySpec,
               reflection_amplitude: float = 1.0):
    """Direction-mode state per IRS from its estimated arrival/departure pair."""
    if not estimates:
        raise ValueError("no estimates to design from")
    thetas = []
    for est in estimates:
        if est is None:
            raise ValueError("missing estimate for an IRS")
        thetas.append(direction_mode(
            irs_spec.num_elements, irs_spec.spacing_wavelengths,
            est.irs_arrival, est.irs_departure,
            amplitude=reflection_amplitude))
    return thetas


def estimate_composite_loss(scenario: LinkScenario, irs_index: int, estimates,
                            model: MeasurementModel, rng: np.random.Generator,
                            pilot_repetitions: int = 10) -> float:
    """Measured end-to-end amplitude of one bridged IRS link.

    IRS `irs_index` is set in direction mode on its estimated angles, as
    `design_irs` sets it, while the others absorb; both
    terminals beamform on their estimated angles; the amplitude is recovered
    from the pilot-averaged received power with the known noise floor
    subtracted (clipped at zero).
    """
    if model.transmit_power <= 0:
        raise ValueError("composite-loss estimation needs positive power")
    est = estimates[irs_index]
    H = bridged_channel(scenario, irs_index,
                        (est.irs_arrival, est.irs_departure))
    tx_beam = steering(scenario.cascade.tx_spec, est.tx_departure)
    rx_beam = steering(scenario.cascade.rx_spec, est.rx_arrival)
    mean_power = measure_power(tx_beam, rx_beam, H, model, rng=rng,
                               trials=pilot_repetitions)
    corrected = max(mean_power - model.noise_power, 0.0)
    return float(np.sqrt(corrected / model.transmit_power))


def water_filling(gains, total_power: float, noise_power: float) -> PowerAllocation:
    """Optimal unit-sum power split over parallel channels with amplitudes `gains`.

    Solves max sum log2(1 + P a_l^2 S_l / sigma^2) subject to sum S_l = 1,
    S_l >= 0. The factors are S_l = max(1/(ln2 mu) - f_l, 0) with floors
    f_l = sigma^2/(P a_l^2). The level is the exact sorted water level
    (Palomar & Fonollosa, IEEE TSP 2005): with the floors sorted ascending,
    the k cheapest channels are active for the largest k whose floor lies
    below their common level (1 + f_1 + ... + f_k) / k. Levels and factors
    are taken relative to the lowest floor, so a floor far above 1 loses
    no precision to the unit power budget.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size == 0 or np.any(gains < 0):
        raise ValueError("gains must be a nonempty nonnegative vector")
    if total_power <= 0 or noise_power <= 0:
        raise ValueError("powers must be positive")

    with np.errstate(divide="ignore"):   # a zero gain has an infinite floor
        floors = noise_power / (total_power * gains ** 2)
    lowest = floors.min()
    if not np.isfinite(lowest):
        raise ValueError("water-filling needs a positive gain with a finite "
                         "floor sigma^2 / (P a^2)")
    excess = floors - lowest
    ordered = np.sort(excess)
    levels = (1.0 + np.cumsum(ordered)) / np.arange(1, ordered.size + 1)
    # the active set is a prefix of the sorted floors; channel 1 is always in
    level = levels[np.count_nonzero(ordered < levels) - 1]
    factors = np.maximum(level - excess, 0.0)
    return PowerAllocation(factors=factors,
                           water_level=1.0 / (_LN2 * (lowest + level)))


def build_beamformers(estimates, allocation: PowerAllocation,
                      tx_spec: ArraySpec, rx_spec: ArraySpec,
                      num_tx_chains: int, num_rx_chains: int,
                      num_streams: int) -> HybridBeamformer:
    """Steering-column hybrid design from estimated angles and power factors.

    Analog columns 1..N_i hold the unit-modulus phase profiles of the
    estimated departure/arrival steering vectors, the rest are zero; the
    digital precoder is diagonal in sqrt(S_l) (with the steering
    normalization folded in) and the digital combiner is the identity block.
    """
    num_irs = len(estimates)
    if num_irs > num_tx_chains or num_irs > num_rx_chains:
        raise ValueError(
            f"{num_irs} IRSs exceed the RF chain counts "
            f"({num_tx_chains} tx, {num_rx_chains} rx)"
        )
    if not num_irs <= num_streams <= min(num_tx_chains, num_rx_chains):
        raise ValueError("need N_i <= N_s <= RF chains")
    if allocation.factors.shape[0] != num_irs:
        raise ValueError("one power factor per IRS required")

    n_t, n_u = tx_spec.num_elements, rx_spec.num_elements
    analog_precoder = np.zeros((n_t, num_tx_chains), dtype=complex)
    analog_combiner = np.zeros((n_u, num_rx_chains), dtype=complex)
    digital_precoder = np.zeros((num_tx_chains, num_streams), dtype=complex)
    digital_combiner = np.eye(num_rx_chains, num_streams, dtype=complex)
    for l, est in enumerate(estimates):
        analog_precoder[:, l] = (np.sqrt(n_t)
                                 * steering(tx_spec, est.tx_departure).coefficients)
        analog_combiner[:, l] = (np.sqrt(n_u)
                                 * steering(rx_spec, est.rx_arrival).coefficients)
        digital_precoder[l, l] = np.sqrt(allocation.factors[l] / n_t)
    return HybridBeamformer(
        analog_precoder=analog_precoder,
        digital_precoder=digital_precoder,
        analog_combiner=analog_combiner,
        digital_combiner=digital_combiner,
    )


def spectral_efficiency(H: np.ndarray, bf: HybridBeamformer, power: float,
                        noise_power: float) -> float:
    """Rate of the hybrid design over channel H, bits/s/Hz.

    log2 det(I + P C^-1 W^H H F F^H H^H W) with C = sigma^2 W^H W, evaluated
    on the streams whose combined and precoded columns are both nonzero
    (padding columns carry no signal and would make C singular).
    """
    H = np.asarray(H)
    F = bf.precoder()
    W = bf.combiner()
    active = (np.linalg.norm(W, axis=0) > 1e-12) & \
             (np.linalg.norm(F, axis=0) > 1e-12)
    if power <= 0 or not active.any():
        return 0.0
    Fa = F[:, active]
    Wa = W[:, active]
    C = noise_power * (Wa.conj().T @ Wa)
    G = Wa.conj().T @ H @ Fa
    A = np.eye(G.shape[0]) + power * np.linalg.solve(C, G @ G.conj().T)
    _, logdet = np.linalg.slogdet(A)
    return float(logdet / _LN2)


def parallel_rate(gains, factors, power: float, noise_power: float) -> float:
    """Parallel-subchannel rate sum log2(1 + P a_l^2 S_l / sigma^2)."""
    gains = np.asarray(gains, dtype=float)
    factors = np.asarray(factors, dtype=float)
    snr = power * gains ** 2 * factors / noise_power
    return float(np.sum(np.log2(1.0 + snr)))


def fdb_upper_bound(singular_values, power: float, noise_power: float) -> float:
    """Fully digital bound: water-filling over a channel's singular values.

    Pass `np.linalg.svd(H, compute_uv=False)`. Singular values at or below
    1e-14 of the largest are numerical zeros of a rank-deficient H and are
    dropped.
    """
    sv = np.asarray(singular_values, dtype=float)
    if sv.ndim != 1:
        raise ValueError("expected a vector of singular values")
    if sv.size == 0 or power <= 0 or sv.max() <= 0:
        return 0.0
    sv = sv[sv > sv.max() * 1e-14]
    allocation = water_filling(sv, power, noise_power)
    return parallel_rate(sv, allocation.factors, power, noise_power)
