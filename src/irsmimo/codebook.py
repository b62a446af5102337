"""Arbitrary-K M-tree hierarchical codebook with projection wide beams.

Stages are numbered 1..num_stages; stage s holds M**s candidate slots, indexed
from 0. The bottom stage holds the K narrow grid beams in grid order followed
by null padding; upper stages hold projection-designed wide beams, with a slot
null whenever none of its descendant leaves is live.
"""

from dataclasses import dataclass

import numpy as np

from .arrays import (ArraySpec, BeamGrid, BeamVector, grid_directions,
                     require_half_wavelength, steering, steering_coefficients)


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
    span = branching ** (total - stage)
    D = np.zeros((num_leaves, branching ** stage))
    for col in range(D.shape[1]):
        lo = col * span
        hi = min(lo + span, num_leaves)
        if lo < num_leaves:
            D[lo:hi, col] = 1.0
    return D


def projection_beam(leaves: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Raw minimum-residual solution of leaves^H w = target, i.e. (L L^H)^-1 L d."""
    gram = leaves @ leaves.conj().T
    return np.linalg.solve(gram, leaves @ target)


def wide_beam(leaves: np.ndarray, stage: int, index: int, branching: int):
    """Normalized projection wide beam for one tree slot, or None if the slot is dead.

    `leaves` is the N_a x K matrix of bottom-stage codewords.
    """
    num_leaves = leaves.shape[1]
    D = selection_matrix(stage, branching, num_leaves)
    if not 0 <= index < D.shape[1]:
        raise ValueError(f"candidate index {index} out of range for stage {stage}")
    target = D[:, index]
    if not target.any():
        return None
    raw = projection_beam(leaves, target)
    return BeamVector(raw / np.linalg.norm(raw))


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

    `stages[s]` (a dict key, s = 1..num_stages) lists the stage's candidates;
    entries are None for padded slots. `calibration[s]` holds per-candidate
    multipliers, known to the receiver from the codebook alone, that equalize
    adjacent siblings' amplitude responses at their shared territory edge.
    Comparing calibrated measurements makes the stage decision split exactly
    at leaf-cell boundaries even when siblings cover unequal numbers of
    leaves, which plain unit-norm beams do not guarantee.
    """

    branching: int
    num_leaves: int
    num_stages: int
    stages: dict
    calibration: dict
    leaf_grid: BeamGrid
    spec: ArraySpec

    def beam(self, stage: int, index: int):
        return self.stages[stage][index]

    def scale(self, stage: int, index: int) -> float:
        return self.calibration[stage][index]

    def children(self, stage: int, index: int) -> list:
        """Candidate indices one stage down (empty at the bottom stage)."""
        if not 0 <= stage <= self.num_stages:
            raise ValueError(f"stage must lie in 0..{self.num_stages}")
        if not 0 <= index < self.branching ** stage:
            raise ValueError(f"index {index} out of range at stage {stage}")
        if stage == self.num_stages:
            return []
        return [index * self.branching + j for j in range(self.branching)]

    def leaf_angle(self, leaf_index: int) -> float:
        return float(self.leaf_grid.directions[leaf_index])


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

    stages = {}
    for s in range(1, total):
        D = selection_matrix(s, branching, num_leaves)
        beams = []
        for col in range(D.shape[1]):
            target = D[:, col]
            if not target.any():
                beams.append(None)
                continue
            raw = projection_beam(leaves, target)
            beams.append(BeamVector(raw / np.linalg.norm(raw)))
        stages[s] = tuple(beams)

    bottom = []
    for slot in range(branching ** total):
        if slot < num_leaves:
            bottom.append(steering(spec, float(grid.directions[slot])))
        else:
            bottom.append(None)
    stages[total] = tuple(bottom)

    return HierarchicalCodebook(
        branching=branching,
        num_leaves=num_leaves,
        num_stages=total,
        stages=stages,
        calibration=_boundary_calibration(spec, branching, num_leaves, total,
                                          stages),
        leaf_grid=grid,
        spec=spec,
    )


def _boundary_calibration(spec: ArraySpec, branching: int, num_leaves: int,
                          total: int, stages: dict) -> dict:
    """Sibling-chain multipliers equalizing responses at shared cell edges."""
    n = np.arange(spec.num_elements)

    def gain_at_sine(beam: BeamVector, x: float) -> float:
        a = np.exp(1j * 2.0 * np.pi * spec.spacing_wavelengths * n * x)
        return abs(np.vdot(beam.coefficients, a)) / np.sqrt(spec.num_elements)

    calibration = {
        total: tuple(1.0 if b is not None else 0.0 for b in stages[total])
    }
    for s in range(1, total):
        span = branching ** (total - s)
        out = [0.0] * (branching ** s)
        parents = [None] if s == 1 else range(branching ** (s - 1))
        for parent in parents:
            group = (range(branching) if parent is None
                     else range(parent * branching, (parent + 1) * branching))
            live = [i for i in group if stages[s][i] is not None]
            if not live:
                continue
            out[live[0]] = 1.0
            for left, right in zip(live, live[1:]):
                edge_sine = -1.0 + right * span * 2.0 / num_leaves
                g_left = gain_at_sine(stages[s][left], edge_sine)
                g_right = gain_at_sine(stages[s][right], edge_sine)
                out[right] = out[left] * g_left / g_right
        calibration[s] = tuple(out)
    return calibration
