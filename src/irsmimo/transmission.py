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
    factors, level = _fill(floors, lowest)
    return PowerAllocation(factors=factors, water_level=(
        1.0 / (_LN2 * (lowest + level)))[..., 0][()])


def _fill(floors, lowest) -> tuple:
    """`water_filling` factors and level above `lowest` from the floors of
    its channels and each row's lowest, which must be finite."""
    excess = floors - lowest
    ordered = np.sort(excess, axis=-1)
    channels = np.arange(ordered.shape[-1])
    levels = (1.0 + ordered.cumsum(axis=-1)) / (channels + 1)
    # the active set is a prefix of the sorted floors; channel 1 is always in
    last = (ordered < levels).sum(axis=-1, keepdims=True) - 1
    level = np.maximum.reduce(levels, axis=-1, keepdims=True,
                              where=channels == last, initial=-np.inf)
    return np.maximum(level - excess, 0.0), level


def spectral_efficiency(gram, cross, power, noise_power: float):
    """Rate of a precoder F and a combiner W over a channel H, bits/s/Hz,
    from the Gram W^H W and the cross term W^H H F (..., L, L).

    log2 det(I + P C^+ W^H H F F^H H^H W), C = sigma^2 W^H W, on the
    streams whose combiner column (norm above 1e-12) and column of W^H H F
    (zero for a zero precoder column) are nonzero. With W^H W = V diag(lam)
    V^H on them, G = diag(lam)^-1/2 V^H W^H H F is Q^H H F for an
    orthonormal basis Q of their combiner columns, and the rate is the
    `parallel_rate` of G's singular values (exact also where (P / sigma^2)
    |G|^2 dwarfs the identity). An eigenvalue at or below 1e-14 of the
    largest is a null direction, as where two streams share a combiner
    column: such a null's rounding floor measured at most 7.7e-16 of the
    largest (repeated columns, up to 8 streams and 512 antennas), 13x below
    the cut, which keeps singular values of W down to 1e-7 of the largest.
    Leading axes broadcast.
    """
    active = ((gram.diagonal(0, -2, -1).real > 1e-24)
              & (cross != 0.0).any(axis=-2))
    both = active[..., :, None] & active[..., None, :]
    lam, vectors = np.linalg.eigh(gram * both)
    keep = lam > 1e-14 * lam[..., -1:]
    G = ((keep / np.sqrt(np.where(keep, lam, 1.0)))[..., None]
         * (vectors.conj().swapaxes(-1, -2) @ (cross * both)))
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
    floors = _floors(gains, powers, noise_power)
    lowest = floors.min(axis=-1, keepdims=True)
    # a row with no finite floor is filled as if its floors were 0, then zeroed
    live = np.isfinite(lowest)
    return _fill(np.where(live, floors, 0.0),
                 np.where(live, lowest, 0.0))[0] * live


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
