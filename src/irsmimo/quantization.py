"""Closed-form worst-case and integral average quantization error of beam training."""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .arrays import edge_energy, grid_directions, pattern_gain


@dataclass(frozen=True)
class QuantizationReport:
    """Worst-case and average beam-training loss for one (N_a, K) design point."""

    num_elements: int
    num_beams: int
    worst_error: float
    average_error: float
    quadrature_abs_tol: float


def worst_error(num_elements: int, num_beams: int) -> float:
    """Amplitude lost when the true angle sits on a coverage edge: 1 - rho."""
    return 1.0 - edge_energy(num_elements, num_beams)


def average_error(num_elements: int, num_beams: int,
                  abs_tol: float = 1e-8) -> float:
    """Expected amplitude loss for a true angle uniform over the full angular range.

    Evaluates the piecewise expectation of the nearest-beam gain against the
    sine-of-uniform-angle density 1 / (pi sqrt(1 - y^2)), one piece per beam
    cell. The substitution y = sin(u) removes the endpoint singularity at
    y = +-1; each piece is then handled by adaptive quadrature to `abs_tol`.
    """
    K = num_beams
    _require(num_elements, K)
    total = 0.0
    for n in range(1, K + 1):
        center = (2.0 * n - 1.0 - K) / K
        y_lo = (2.0 * n - 2.0 - K) / K
        y_hi = (2.0 * n - K) / K
        u_lo = np.arcsin(max(y_lo, -1.0))
        u_hi = np.arcsin(min(y_hi, 1.0))

        def integrand(u, c=center):
            value = pattern_gain(num_elements, np.sin(u) - c)
            if not np.isfinite(value):
                raise FloatingPointError("non-finite quadrature integrand")
            return value

        piece, _ = quad(integrand, u_lo, u_hi, epsabs=abs_tol, limit=200)
        if not np.isfinite(piece):
            raise FloatingPointError("quadrature failed to converge")
        total += piece
    return 1.0 - total / np.pi


def estimated_power_ratio(num_elements: int, num_beams: int,
                          true_angle: float) -> float:
    """Best amplitude gain the K-beam grid achieves on a path at `true_angle`.

    Maximum over all grid beams of |a(true_angle)^H a(phi_i)|; 1 when the
    angle lies on a beam direction, rho when it lies on a coverage edge.
    """
    _require(num_elements, num_beams)
    grid = grid_directions(num_elements, num_beams)
    gains = pattern_gain(num_elements, np.sin(true_angle) - grid.sines)
    return float(np.max(gains))


def quantization_report(num_elements: int, num_beams: int,
                        abs_tol: float = 1e-8) -> QuantizationReport:
    return QuantizationReport(
        num_elements=num_elements,
        num_beams=num_beams,
        worst_error=worst_error(num_elements, num_beams),
        average_error=average_error(num_elements, num_beams, abs_tol=abs_tol),
        quadrature_abs_tol=abs_tol,
    )


def _require(num_elements: int, num_beams: int) -> None:
    if num_beams < num_elements:
        raise ValueError(
            f"quantization formulas need K >= N_a (got K={num_beams}, "
            f"N_a={num_elements})"
        )
