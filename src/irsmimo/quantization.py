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


_COARSE_RULE, _FINE_RULE = (np.polynomial.legendre.leggauss(m) for m in (24, 48))


def average_error(num_elements: int, num_beams: int,
                  abs_tol: float = 1e-8) -> float:
    """Expected amplitude loss for a true angle uniform over the full angular range.

    Evaluates the piecewise expectation of the nearest-beam gain against the
    sine-of-uniform-angle density 1 / (pi sqrt(1 - y^2)), one piece per beam
    cell. The substitution y = sin(u) removes the endpoint singularity at
    y = +-1. The gain is smooth inside a cell (half-width 1/K <= 1/N, inside
    the main lobe), so all cells take one fixed 48-node Gauss-Legendre rule
    in u, checked by a 24-node rule on the same cells: FloatingPointError if
    the two differ by more than `abs_tol` or an integrand value is not finite.
    """
    centers = grid_directions(num_elements, num_beams).sines
    edges = np.arcsin((2.0 * np.arange(num_beams + 1) - num_beams) / num_beams)
    mid, half = (edges[1:] + edges[:-1]) / 2.0, np.diff(edges) / 2.0
    nodes = np.concatenate([_COARSE_RULE[0], _FINE_RULE[0]])
    values = pattern_gain(num_elements, np.sin(mid[:, None] + half[:, None] * nodes)
                          - centers[:, None])
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"non-finite quadrature integrand (abs_tol={abs_tol})")
    coarse = 1.0 - half @ (values[:, :24] @ _COARSE_RULE[1]) / np.pi
    fine = 1.0 - half @ (values[:, 24:] @ _FINE_RULE[1]) / np.pi
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

