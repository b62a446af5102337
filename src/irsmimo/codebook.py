"""Arbitrary-K M-tree hierarchical codebook with projection wide beams.

Stages are numbered 1..num_stages; stage s holds M**s candidate slots, indexed
from 0. The bottom stage holds the K narrow grid beams in grid order followed
by null padding; upper stages hold projection-designed wide beams, with a slot
null whenever none of its descendant leaves is live.
"""

from dataclasses import dataclass

import numpy as np

from .arrays import (ArraySpec, BeamGrid, BeamVector, dirichlet,
                     grid_directions, lattice_phasors)


def num_stages(branching: int, num_leaves: int) -> int:
    """Smallest S with branching**S >= num_leaves."""
    if branching < 2:
        raise ValueError("branching factor must be >= 2")
    if num_leaves < 1:
        raise ValueError("leaf count must be >= 1")
    stages = 0
    while branching ** stages < num_leaves:
        stages += 1
    return stages


def two_rf_factorization(w: BeamVector):
    """Exact two-RF-chain hybrid realization of an arbitrary beam.

    Returns (analog, digital) with analog of shape (N_a, 2), every entry of
    modulus 1, and analog @ digital == w.coefficients. Rows where w is zero get
    antipodal analog phases.
    """
    x = np.asarray(w.coefficients, dtype=complex)
    mags = np.abs(x)
    peak = mags.max()
    if peak == 0.0:
        raise ValueError("cannot factorize the zero beam")
    scale = peak / 2.0
    base = np.angle(x)
    split = np.arccos(np.clip(mags / (2.0 * scale), -1.0, 1.0))
    analog = np.stack([np.exp(1j * (base + split)),
                       np.exp(1j * (base - split))], axis=1)
    digital = np.array([scale, scale], dtype=complex)
    return analog, digital


@dataclass(frozen=True)
class HierarchicalCodebook:
    """Full M-tree of beam candidates over a K-leaf sine-uniform grid.

    `table` holds every stage in order, one column per tree node, so one
    matrix product measures every node; `stages[s]` is the view of stage
    s's M**s columns from `stage_offset(M, s)`, a zero column at each null
    slot, and `live[s]` marks the others, each of unit norm. An uplink
    search sweeps the conjugate codewords: its responses to x are
    conj(table^T conj(x)). `weights[s]` squares the per-slot multipliers,
    known from the codebook alone, that equalize adjacent siblings' gains
    at their shared cell edge, so that weighted powers split each stage
    decision exactly at leaf-cell boundaries even when siblings cover
    unequal numbers of leaves. Every array is read-only, so one codebook
    can serve both terminals.
    """

    branching: int
    num_leaves: int
    num_stages: int
    table: np.ndarray
    stages: dict
    live: dict
    weights: dict
    leaf_grid: BeamGrid
    spec: ArraySpec

    def beam(self, stage: int, index: int):
        """Candidate `index` of `stage`, or None for a null slot."""
        if not self.live[stage][index]:
            return None
        return BeamVector(self.stages[stage][:, index].copy())


def stage_offset(branching: int, stage: int) -> int:
    """First table column of `stage`: the M + M**2 + ... + M**(stage - 1)
    slots of the stages above it."""
    return (branching ** stage - branching) // (branching - 1)


def build_codebook(spec: ArraySpec, branching: int,
                   num_leaves: int) -> HierarchicalCodebook:
    """Construct the hierarchical codebook for one terminal array in closed
    form on the grid's phasor lattice (README, "Codebook and search layout")."""
    grid = grid_directions(spec.num_elements, num_leaves)
    total = num_stages(branching, num_leaves)
    if total < 1:
        raise ValueError("degenerate tree: need at least two leaves")

    size = spec.num_elements
    table = np.zeros((size, stage_offset(branching, total + 1)), dtype=complex)
    stages = dict(enumerate(np.split(table, [
        stage_offset(branching, s) for s in range(2, total + 1)], axis=1), 1))
    # leaf i is (-1)^n w^(n(2i + 1)) / sqrt(N), w = exp(j pi / K)
    sums = stages[total]
    sums[:, :num_leaves] = lattice_phasors(2 * num_leaves, np.multiply.outer(
        np.arange(size), 2 * np.arange(num_leaves) + 1 + num_leaves),
        1.0 / np.sqrt(size))
    # D_N((2d - 1)/K) / sqrt(N) is a leaf's response r(d) at the left edge
    # of the leaf d later, D_N(2d/K) / N the Gram entry of leaves d apart;
    # c leaves have norm^2 c + 2 sum_{d<c} (c - d) Re D_N(2d/K)/N and
    # left-edge gain |r(1) + ... + r(c)| / norm, as r(1 - d) = conj r(d)
    kernel = dirichlet(size, np.arange(1, 2 * branching ** (total - 1) + 1)
                       / num_leaves)
    norms = np.sqrt(np.arange(1, kernel.size // 2 + 1) + 2.0 / size * np.cumsum(
        np.cumsum(np.concatenate([[0.0], kernel[1:-1:2].real]))))
    gains = np.abs(np.cumsum(kernel[::2])) / np.sqrt(size) / norms
    calibration = {total: (np.arange(branching ** total) < num_leaves) * 1.0}
    for s in range(total - 1, 0, -1):
        span = branching ** (total - s)
        counts = np.clip(num_leaves - span * np.arange(branching ** s), 0, span)
        live = counts > 0
        sums = sum((sums[:, m::branching] for m in range(1, branching)),
                   sums[:, ::branching])
        np.multiply(sums, np.where(live, 1.0 / norms[counts - 1], 0.0),
                    out=stages[s])
        # full siblings' gains agree at their shared edge; a partial slot after
        # its group's first takes its left sibling's gain over its own
        calibration[s] = np.divide(gains[span - 1], gains[counts - 1],
                                   out=np.zeros(counts.shape), where=live)
        calibration[s][::branching] = live[::branching]
    live = {s: c > 0.0 for s, c in calibration.items()}
    weights = {s: c ** 2 for s, c in calibration.items()}
    for values in (table, *stages.values(), *live.values(), *weights.values()):
        values.flags.writeable = False
    return HierarchicalCodebook(
        branching=branching,
        num_leaves=num_leaves,
        num_stages=total,
        table=table,
        stages=stages,
        live=live,
        weights=weights,
        leaf_grid=grid,
        spec=spec,
    )
