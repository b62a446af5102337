"""Closed-form hybrid transceiver design, water-filling, and rate evaluation."""

from dataclasses import dataclass

import numpy as np

from .arrays import ArraySpec, steering_coefficients
# unused here, but perfbench/test_smoke.py looks measure_power up here
from .training import measure_power  # noqa: F401

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


def water_filling(gains, total_power, noise_power: float) -> PowerAllocation:
    """Optimal unit-sum power split over parallel channels with amplitudes `gains`.

    Solves max sum log2(1 + P a_l^2 S_l / sigma^2) subject to sum S_l = 1,
    S_l >= 0. The factors are S_l = max(1/(ln2 mu) - f_l, 0) with floors
    f_l = sigma^2/(P a_l^2). The level is the exact sorted water level
    (Palomar & Fonollosa, IEEE TSP 2005): with the floors sorted ascending,
    the k cheapest channels are active for the largest k whose floor lies
    below their common level (1 + f_1 + ... + f_k) / k. Levels and factors
    are taken relative to the lowest floor, so a floor far above 1 loses
    no precision to the unit power budget. Leading axes solve a stack.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim == 0 or gains.size == 0 or np.any(gains < 0):
        raise ValueError("gains must be a nonempty nonnegative vector")
    total_power = np.asarray(total_power, dtype=float)
    if np.any(total_power <= 0) or noise_power <= 0:
        raise ValueError("powers must be positive")

    floors, usable = _floors(gains, total_power, noise_power)
    lowest = floors.min(axis=-1, keepdims=True)
    if not np.all(usable):
        raise ValueError("water-filling needs a positive gain with a finite "
                         "floor sigma^2 / (P a^2)")
    excess = floors - lowest
    ordered = np.sort(excess, axis=-1)
    levels = (1.0 + np.cumsum(ordered, axis=-1)) / np.arange(
        1, ordered.shape[-1] + 1)
    # the active set is a prefix of the sorted floors; channel 1 is always in
    active = np.count_nonzero(ordered < levels, axis=-1)[..., None]
    level = np.take_along_axis(levels, active - 1, axis=-1)
    factors = np.maximum(level - excess, 0.0)
    water_level = 1.0 / (_LN2 * (lowest + level))
    return PowerAllocation(factors=factors, water_level=water_level[..., 0][()])


def build_beamformers(estimates, factors: np.ndarray,
                      tx_spec: ArraySpec, rx_spec: ArraySpec,
                      num_tx_chains: int, num_rx_chains: int,
                      num_streams: int) -> HybridBeamformer:
    """Steering-column hybrid design from estimated angles and power factors.

    Analog columns 1..N_i hold the unit-modulus phase profiles of the
    estimated departure/arrival steering vectors, the rest are zero; the
    digital precoder is diagonal in sqrt(S_l) (with the steering
    normalization folded in) and the digital combiner is the identity block.
    `estimates` holds the (..., N_i, 4) angles in `AngleEstimate` field
    order and `factors` the streams' (..., N_i) `water_filling` factors.
    Analog parts take the leading axes of `estimates`, digital ones those of
    `factors` (broadcast), so a design is steered once.
    """
    num_irs = estimates.shape[-2]
    if not num_irs <= num_streams <= min(num_tx_chains, num_rx_chains):
        raise ValueError("need N_i <= N_s <= RF chains")
    if factors.shape[-1] != num_irs:
        raise ValueError("one power factor per IRS required")

    batch = estimates.shape[:-2]
    n_t, n_u = tx_spec.num_elements, rx_spec.num_elements
    analog_precoder = np.zeros(batch + (n_t, num_tx_chains), dtype=complex)
    analog_combiner = np.zeros(batch + (n_u, num_rx_chains), dtype=complex)
    digital_precoder = np.zeros(factors.shape[:-1] + (num_tx_chains,
                                                      num_streams), dtype=complex)
    analog_precoder[..., :num_irs] = np.sqrt(n_t) * steering_coefficients(
        n_t, tx_spec.spacing_wavelengths, estimates[..., 0, None]).swapaxes(-1, -2)
    analog_combiner[..., :num_irs] = np.sqrt(n_u) * steering_coefficients(
        n_u, rx_spec.spacing_wavelengths, estimates[..., 3, None]).swapaxes(-1, -2)
    streams = np.arange(num_irs)
    digital_precoder[..., streams, streams] = np.sqrt(factors / n_t)
    return HybridBeamformer(
        analog_precoder=analog_precoder,
        digital_precoder=digital_precoder,
        analog_combiner=analog_combiner,
        digital_combiner=np.eye(num_rx_chains, num_streams, dtype=complex),
    )


def spectral_efficiency(channel, bf: HybridBeamformer, power,
                        noise_power: float):
    """Rate of the hybrid design over a channel H, bits/s/Hz.

    log2 det(I + P C^-1 W^H H F F^H H^H W), C = sigma^2 W^H W, on the
    streams whose combined and precoded columns are both nonzero, taken as
    log2 det(I + (P / sigma^2) G G^H), G = Q^H H F with Q an orthonormal
    basis of those combiner columns, as the `parallel_rate` of G's singular
    values (exact also where (P / sigma^2) |G|^2 dwarfs the identity); this
    holds when two streams share a combiner column and C is singular too.
    `channel` holds the factors (A, core, B) of H = A core B
    (`training.channel_factors`), and G is (Q^H A) core (B F); a dense H is
    (I, H, I). Leading axes broadcast.
    """
    A, core, B = channel
    F = bf.precoder()
    W = bf.combiner()
    active = ((np.linalg.norm(W, axis=-2) > 1e-12)
              & (np.linalg.norm(F, axis=-2) > 1e-12))[..., None, :]
    U, s, _ = np.linalg.svd(W * active, full_matrices=False)
    Q = U * (s > 1e-10 * s.max(axis=-1, keepdims=True))[..., None, :]
    G = (Q.conj().swapaxes(-1, -2) @ A) @ core @ (B @ (F * active))
    power = np.maximum(np.asarray(power, dtype=float), 0.0)[..., None]
    return parallel_rate(np.linalg.svd(G, compute_uv=False), 1.0, power,
                         noise_power)[()]


def parallel_rate(gains, factors, power, noise_power: float):
    """Parallel-subchannel rate sum log2(1 + P a_l^2 S_l / sigma^2).

    The sum runs over the last axis; leading axes give a stack of rates.
    """
    gains = np.asarray(gains, dtype=float)
    factors = np.asarray(factors, dtype=float)
    snr = power * gains ** 2 * factors / noise_power
    return np.sum(np.log2(1.0 + snr), axis=-1)


def digital_gains(singular_values):
    """Singular values of one H or a stack as gains, a numerical zero of a
    rank-deficient H (at or below 1e-14 of its row's largest) as 0."""
    sv = np.asarray(singular_values, dtype=float)
    if sv.ndim == 0:
        raise ValueError("expected a vector of singular values")
    return sv * (sv > 1e-14 * sv.max(axis=-1, initial=0.0, keepdims=True))


def _floors(gains, powers, noise_power: float) -> tuple:
    """Floors sigma^2 / (P a^2) of the rows of `gains` at `powers` (infinite
    where a^2 is 0 or underflows), and whether each row's lowest is finite."""
    with np.errstate(divide="ignore"):
        floors = noise_power / (powers[..., None] * gains ** 2)
    return floors, np.isfinite(floors.min(axis=-1))


def power_factors(gains, powers, noise_power: float) -> np.ndarray:
    """`water_filling` factors of each row of `gains` at `powers`, in one
    call; a row without a positive power, or without a gain whose floor is
    finite, gets zero factors."""
    factors = np.zeros(gains.shape)
    live = (powers > 0) & _floors(gains, powers, noise_power)[1]
    if live.any():
        factors[live] = water_filling(gains[live], powers[live],
                                      noise_power).factors
    return factors


def fdb_upper_bound(singular_values, power, noise_power: float):
    """Fully digital bound: water-filling over a channel's singular values.

    Pass `np.linalg.svd(H, compute_uv=False)` of one H or a stack of them;
    the gains are their `digital_gains`. Powers add axes after the stack's;
    a row without a positive gain or power scores 0.
    """
    gains = digital_gains(singular_values)
    power = np.asarray(power, dtype=float)[..., None]
    gains, power = np.broadcast_arrays(gains.reshape(
        gains.shape[:-1] + (1,) * (power.ndim - 1) + gains.shape[-1:]), power)
    factors = power_factors(gains, power[..., 0], noise_power)
    return parallel_rate(gains, factors, power, noise_power)[()]
