"""Closed-form worst-case and integral average quantization error of beam training."""

from dataclasses import dataclass

import numpy as np

from .arrays import edge_energy, grid_directions, pattern_gain


@dataclass(frozen=True)
class QuantizationReport:
    """Worst-case and average beam-training loss for one (N_a, K) design point."""

    num_elements: int
    num_beams: int
    worst_error: float
    average_error: float


def worst_error(num_elements: int, num_beams: int) -> float:
    """Amplitude lost when the true angle sits on a coverage edge: 1 - rho."""
    return 1.0 - edge_energy(num_elements, num_beams)


_NODES, _WEIGHTS = np.hstack([np.polynomial.legendre.leggauss(m) for m in (24, 48)])


def average_error(num_elements: int, num_beams: int,
                  abs_tol: float = 1e-8) -> float:
    """Expected amplitude loss for a true angle uniform over the full angular range.

    Integrates the nearest-beam gain cell by cell against y = sin(angle)'s density
    1 / (pi sqrt(1 - y^2)), singular only at y = +-1. Interior cells, a cell width
    or more away, take the rule in x = y - c_k on one shared gain vector; the edge
    cell takes u = asin(y), free of the singularity. Mirrored cells are integrated
    once and doubled (K = 1: the one cell's halves). FloatingPointError if the
    48- and 24-node rules differ by more than `abs_tol` or an integrand is not finite.
    """
    edge = grid_directions(num_elements, num_beams).sines[-1]
    half = np.arccos(max(1.0 - 2.0 / num_beams, 0.0)) / 2.0   # u = pi/2 - half (1 - t)
    m = np.arange(num_beams - 3, -1, -2)[:, None]   # interior cells at c = m / K >= 0
    # pairs count 2, m = 0 once; K sqrt(1 - y^2) = sqrt((K - m - t)(K + m + t))
    density = np.sum((2.0 - (m == 0)) / np.sqrt((num_beams - m - _NODES)
                                                * (num_beams + m + _NODES)), axis=0)
    values = (2 * half * pattern_gain(num_elements, np.cos(half - half * _NODES) - edge)
              + density * pattern_gain(num_elements, _NODES / num_beams))
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"non-finite quadrature integrand (abs_tol={abs_tol})")
    coarse, fine = 1.0 - np.add.reduceat(values * _WEIGHTS, [0, 24]) / np.pi
    if abs(fine - coarse) > abs_tol:
        raise FloatingPointError(f"24- and 48-node quadrature differ by "
                                 f"{abs(fine - coarse):.3g} > abs_tol={abs_tol}")
    return float(fine)


def quantization_report(num_elements: int, num_beams: int) -> QuantizationReport:
    return QuantizationReport(
        num_elements=num_elements,
        num_beams=num_beams,
        worst_error=worst_error(num_elements, num_beams),
        average_error=average_error(num_elements, num_beams),
    )

