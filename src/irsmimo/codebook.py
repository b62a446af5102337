"""Arbitrary-K M-tree hierarchical codebook with projection wide beams.

Stages are numbered 1..num_stages; stage s holds M**s candidate slots, indexed
from 0. The bottom stage holds the K narrow grid beams in grid order followed
by null padding; upper stages hold projection-designed wide beams, with a slot
null whenever none of its descendant leaves is live. Each stage is one
(N_a, M**s) matrix whose null slots are zero columns, so a search measures
a parent's children with one matrix product.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import (ArraySpec, BeamGrid, BeamVector, grid_directions,
                     require_half_wavelength, steering_coefficients)


def num_stages(branching: int, num_leaves: int) -> int:
    """Smallest S with branching**S >= num_leaves."""
    if branching < 2:
        raise ValueError("branching factor must be >= 2")
    if num_leaves < 1:
        raise ValueError("leaf count must be >= 1")
    stages = 0
    capacity = 1
    while capacity < num_leaves:
        capacity *= branching
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
    """Raw minimum-residual solution of leaves^H w = target, i.e. (L L^H)^-1 L d."""
    gram = leaves @ leaves.conj().T
    return np.linalg.solve(gram, leaves @ target)


def _stage_beams(leaves: np.ndarray, stage: int, branching: int) -> np.ndarray:
    """Normalized projection wide beams of one stage, one column per slot.

    `leaves` is the N_a x K matrix of bottom-stage codewords; dead slots get
    zero columns. Each slot is `projection_beam`'s own solve on one shared
    Gram matrix, so no beam's bits depend on how many slots the stage holds.
    """
    D = selection_matrix(stage, branching, leaves.shape[1])
    gram = leaves @ leaves.conj().T
    beams = np.zeros((leaves.shape[0], D.shape[1]), dtype=complex)
    for col in np.flatnonzero(D.any(axis=0)):
        raw = np.linalg.solve(gram, leaves @ D[:, col])
        beams[:, col] = raw / np.linalg.norm(raw)
    return beams


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
    columns. `norms[s]` holds each column's squared norm, which scales its
    pilot noise. `weights[s]` holds the squares of per-candidate
    multipliers, known to the receiver from the codebook alone, that
    equalize adjacent siblings' amplitude responses at their shared
    territory edge; they multiply measured powers. Comparing calibrated
    measurements makes the stage decision split exactly at leaf-cell
    boundaries even when siblings cover unequal numbers of leaves, which
    plain unit-norm beams do not guarantee. Every array is read-only, so
    one codebook can serve both terminals.
    """

    branching: int
    num_leaves: int
    num_stages: int
    stages: dict
    live: dict
    norms: dict
    weights: dict
    leaf_grid: BeamGrid
    spec: ArraySpec

    def beam(self, stage: int, index: int):
        """Candidate `index` of `stage`, or None for a null slot."""
        if not self.live[stage][index]:
            return None
        return BeamVector(self.stages[stage][:, index].copy())

    @cached_property
    def uplink_stages(self) -> dict:
        """`stages` conjugated: the codewords of an uplink search."""
        return _read_only({s: beams.conj() for s, beams in self.stages.items()})


def _read_only(arrays: dict) -> dict:
    for values in arrays.values():
        values.flags.writeable = False
    return arrays


def build_codebook(spec: ArraySpec, branching: int,
                   num_leaves: int) -> HierarchicalCodebook:
    """Construct the hierarchical codebook for one terminal array."""
    require_half_wavelength(spec)
    grid = grid_directions(spec.num_elements, num_leaves)
    total = num_stages(branching, num_leaves)
    if total < 1:
        raise ValueError("degenerate tree: need at least two leaves")

    leaves = np.stack(
        [steering_coefficients(spec.num_elements, spec.spacing_wavelengths, ang)
         for ang in grid.directions],
        axis=1,
    )
    stages = {s: _stage_beams(leaves, s, branching) for s in range(1, total)}
    stages[total] = np.zeros((spec.num_elements, branching ** total),
                             dtype=complex)
    stages[total][:, :num_leaves] = leaves
    live = {s: beams.any(axis=0) for s, beams in stages.items()}
    calibration = _boundary_calibration(spec, branching, num_leaves, stages,
                                        live)
    return HierarchicalCodebook(
        branching=branching,
        num_leaves=num_leaves,
        num_stages=total,
        stages=_read_only(stages),
        live=_read_only(live),
        norms=_read_only({s: np.array([np.vdot(w, w).real for w in beams.T])
                          for s, beams in stages.items()}),
        # squared one by one with pow, as the per-beam search squared them;
        # np.square differs from pow in the last bit for some values
        weights=_read_only({s: np.array([c ** 2 for c in values])
                            for s, values in calibration.items()}),
        leaf_grid=grid,
        spec=spec,
    )


def _boundary_calibration(spec: ArraySpec, branching: int, num_leaves: int,
                          stages: dict, live: dict) -> dict:
    """Sibling-chain multipliers equalizing responses at shared cell edges."""
    n = np.arange(spec.num_elements)
    total = len(stages)

    def gain_at_sine(beam: np.ndarray, x: float) -> float:
        a = np.exp(1j * 2.0 * np.pi * spec.spacing_wavelengths * n * x)
        return abs(np.vdot(beam, a)) / np.sqrt(spec.num_elements)

    calibration = {total: live[total].astype(float)}
    for s in range(1, total):
        beams = stages[s]
        span = branching ** (total - s)
        out = np.zeros(branching ** s)
        for first in range(0, branching ** s, branching):
            group = first + np.flatnonzero(live[s][first:first + branching])
            if not group.size:
                continue
            out[group[0]] = 1.0
            for left, right in zip(group, group[1:]):
                edge_sine = -1.0 + int(right) * span * 2.0 / num_leaves
                out[right] = (out[left] * gain_at_sine(beams[:, left], edge_sine)
                              / gain_at_sine(beams[:, right], edge_sine))
        calibration[s] = out
    return calibration
