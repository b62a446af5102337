"""Arbitrary-K M-tree hierarchical codebook with projection wide beams.

Stages are numbered 1..num_stages; stage s holds M**s candidate slots, indexed
from 0. The bottom stage holds the K narrow grid beams in grid order followed
by null padding; upper stages hold projection-designed wide beams, with a slot
null whenever none of its descendant leaves is live. Each stage is one
(N_a, M**s) matrix whose null slots are zero columns, and the stages sit
side by side in one (N_a, M + M**2 + ... + M**S) table, so a search
measures every node of the tree with one matrix product.
"""

from dataclasses import dataclass

import numpy as np

from .arrays import (ArraySpec, BeamGrid, BeamVector, element_phases,
                     grid_directions, require_half_wavelength,
                     steering_coefficients)


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


def selection_matrix(stage: int, branching: int, num_leaves: int) -> np.ndarray:
    """Zero-one matrix D_s of shape (K, M**stage) mapping candidates to live leaves.

    Column i selects leaf rows i*M**(S-s) .. (i+1)*M**(S-s) - 1, with rows
    beyond K - 1 dropped.
    """
    total = num_stages(branching, num_leaves)
    if not 1 <= stage <= total:
        raise ValueError(f"stage must lie in 1..{total}, got {stage}")
    owner = np.arange(num_leaves) // branching ** (total - stage)
    return (owner[:, None] == np.arange(branching ** stage)).astype(float)


def projection_beam(leaves: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Raw minimum-residual solution of leaves^H w = target, i.e. (L L^H)^-1 L d.

    The general formula; on the beam grid it reduces to (N/K) L d.
    """
    gram = leaves @ leaves.conj().T
    return np.linalg.solve(gram, leaves @ target)


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

    The per-stage fields are dicts keyed by stage s = 1..num_stages.
    `stages[s]` is the stage's (N_a, M**s) codeword matrix, with a zero
    column at every null padding slot, and `live[s]` marks the other
    columns, each of unit norm. `table` holds every stage in order, one
    column per tree node, and `stages[s]` is the view of its M**s columns
    from `stage_offset(M, s)`; `uplink_table` is its conjugate, the
    codewords of an uplink search. `weights[s]` holds the squares of
    per-candidate multipliers, known to the receiver from the codebook
    alone, that equalize adjacent siblings' amplitude responses at their
    shared territory edge; they multiply measured powers. Comparing calibrated
    measurements makes the stage decision split exactly at leaf-cell
    boundaries even when siblings cover unequal numbers of leaves, which
    plain unit-norm beams do not guarantee. Every array is read-only, so
    one codebook can serve both terminals.
    """

    branching: int
    num_leaves: int
    num_stages: int
    table: np.ndarray
    uplink_table: np.ndarray
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


def _read_only(*arrays):
    for values in arrays:
        values.flags.writeable = False


def build_codebook(spec: ArraySpec, branching: int,
                   num_leaves: int) -> HierarchicalCodebook:
    """Construct the hierarchical codebook for one terminal array.

    On this grid the leaves' Gram matrix is (K/N) I, so each projection
    wide beam is the normalized sum of its slot's live leaves.
    """
    require_half_wavelength(spec)
    grid = grid_directions(spec.num_elements, num_leaves)
    total = num_stages(branching, num_leaves)
    if total < 1:
        raise ValueError("degenerate tree: need at least two leaves")

    table = np.zeros((spec.num_elements, stage_offset(branching, total + 1)),
                     dtype=complex)
    columns = {s: slice(stage_offset(branching, s),
                        stage_offset(branching, s + 1))
               for s in range(1, total + 1)}
    bottom = table[:, columns[total]]
    bottom[:, :num_leaves] = steering_coefficients(
        spec.num_elements, spec.spacing_wavelengths, grid.directions[:, None]).T
    edge_sines = -1.0 + np.arange(bottom.shape[1])[:, None] * 2.0 / num_leaves
    edges = np.exp(1j * np.ascontiguousarray(element_phases(
        spec.num_elements, spec.spacing_wavelengths, edge_sines).T))
    calibration = {total: bottom.any(axis=0) * 1.0}
    for s in range(1, total):
        sums = bottom.reshape(spec.num_elements, branching ** s, -1).sum(axis=2)
        norm = np.linalg.norm(sums, axis=0)
        live = norm > 0.0
        beams = table[:, columns[s]] = sums / np.where(live, norm, 1.0)
        # at its left cell edge, a live slot takes its left sibling's multiplier
        # times their gain ratio; a group's first slot gets 1, a dead slot 0
        probes = edges[:, ::branching ** (total - s)]
        own = np.abs(np.sum(beams.conj() * probes, axis=0))
        left = np.abs(np.sum(beams[:, :-1].conj() * probes[:, 1:], axis=0))
        ratio = np.zeros(branching ** s)
        np.divide(left, own[1:], out=ratio[1:], where=live[1:])
        ratio[::branching] = live[::branching]
        calibration[s] = np.cumprod(ratio.reshape(-1, branching), 1).ravel()
    uplink_table = table.conj()
    _read_only(table, uplink_table)
    stages = {s: table[:, cols] for s, cols in columns.items()}
    live = {s: beams.any(axis=0) for s, beams in stages.items()}
    weights = {s: c ** 2 for s, c in calibration.items()}
    _read_only(*live.values(), *weights.values())
    return HierarchicalCodebook(
        branching=branching,
        num_leaves=num_leaves,
        num_stages=total,
        table=table,
        uplink_table=uplink_table,
        stages=stages,
        live=live,
        weights=weights,
        leaf_grid=grid,
        spec=spec,
    )
