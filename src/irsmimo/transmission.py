"""Closed-form hybrid transceiver design, water-filling, and rate evaluation."""

from dataclasses import dataclass

import numpy as np

# unused here, but perfbench/test_smoke.py looks measure_power up here
from .training import measure_power  # noqa: F401

_LN2 = np.log(2.0)


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

    floors = _floors(gains, total_power, noise_power)
    lowest = floors.min(axis=-1, keepdims=True)
    if not np.isfinite(lowest).all():
        raise ValueError("water-filling needs a positive gain with a finite "
                         "floor sigma^2 / (P a^2)")
    return _fill(floors, lowest)


def _fill(floors, lowest) -> PowerAllocation:
    """`water_filling` from the floors of its channels and each row's
    lowest, which must be finite."""
    excess = floors - lowest
    ordered = np.sort(excess, axis=-1)
    channels = np.arange(ordered.shape[-1])
    levels = (1.0 + ordered.cumsum(axis=-1)) / (channels + 1)
    # the active set is a prefix of the sorted floors; channel 1 is always in
    last = (ordered < levels).sum(axis=-1, keepdims=True) - 1
    level = np.maximum.reduce(levels, axis=-1, keepdims=True,
                              where=channels == last, initial=-np.inf)
    factors = np.maximum(level - excess, 0.0)
    water_level = 1.0 / (_LN2 * (lowest + level))
    return PowerAllocation(factors=factors, water_level=water_level[..., 0][()])


def build_beamformers(steering, factors) -> tuple:
    """Precoder F and combiner W (..., N, N_i) of the closed-form hybrid
    design, from the unit-norm steering pair (f, w) of
    `training.design_pass` (..., N_i, N) and the streams' `water_filling`
    factors S (..., N_i): column l of F is sqrt(S_l) f_l, column l of W is
    w_l. On RF chains these are the unit-modulus analog columns sqrt(N) f_l
    and sqrt(N) w_l with a diagonal digital precoder sqrt(S_l / N) and an
    identity digital combiner; further chains and streams would carry zero
    columns, which `spectral_efficiency` leaves out."""
    f, w = steering
    return (f.swapaxes(-1, -2) * np.sqrt(factors)[..., None, :],
            w.swapaxes(-1, -2))


def spectral_efficiency(channel, precoder, combiner, power,
                        noise_power: float):
    """Rate of a precoder F and a combiner W over a channel H, bits/s/Hz.

    log2 det(I + P C^-1 W^H H F F^H H^H W), C = sigma^2 W^H W, on the
    streams whose combiner and precoder columns are both nonzero (norm
    above 1e-12), taken as log2 det(I + (P / sigma^2) G G^H), G = Q^H H F
    with Q an orthonormal basis of those combiner columns, as the
    `parallel_rate` of G's singular values (exact also where (P / sigma^2)
    |G|^2 dwarfs the identity); this holds when two streams share a
    combiner column and C is singular too. `channel` holds the factors (A,
    core, B) of H = A core B (`training.channel_factors`), and G is (Q^H A)
    core (B F); a dense H is (I, H, I). Leading axes broadcast.
    """
    A, core, B = channel
    F, W = precoder, combiner
    # the column norms of np.linalg.norm(X, axis=-2), without its checks
    active = ((np.sqrt(np.add.reduce((W.conj() * W).real, axis=-2)) > 1e-12)
              & (np.sqrt(np.add.reduce((F.conj() * F).real, axis=-2))
                 > 1e-12))[..., None, :]
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


def _floors(gains, powers, noise_power: float) -> np.ndarray:
    """Floors sigma^2 / (P a^2) of the rows of `gains` at `powers`, infinite
    where P a^2 is 0 or so small that the floor overflows."""
    scale = powers[..., None] * gains ** 2
    return np.divide(noise_power, scale, out=np.full(scale.shape, np.inf),
                     where=scale > noise_power / np.finfo(float).max)


def power_factors(gains, powers, noise_power: float) -> np.ndarray:
    """`water_filling` factors of each row of `gains` at `powers`, in one
    call; a row without a positive power, or without a gain whose floor is
    finite, gets zero factors."""
    factors = np.zeros(gains.shape)
    floors = _floors(gains, powers, noise_power)
    lowest = floors.min(axis=-1, keepdims=True)
    live = (powers > 0) & np.isfinite(lowest[..., 0])
    if live.any():
        factors[live] = _fill(floors[live], lowest[live]).factors
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
