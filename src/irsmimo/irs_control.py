"""IRS phase-profile synthesis: return mode, direction mode, and benchmark states."""

import numpy as np

from .arrays import element_phases
from .channel import PhaseShiftMatrix


def return_mode(num_elements: int, spacing_wavelengths: float, incident_angle: float,
                amplitude: float = 1.0) -> PhaseShiftMatrix:
    """Phase profile that reflects an incident narrow beam back along its arrival path.

    theta_n = -2 * (2 pi d) * (n - 1) * sin(incident_angle).
    """
    return PhaseShiftMatrix(phases=element_phases(
        num_elements, spacing_wavelengths, -2.0 * np.sin(incident_angle)),
        amplitude=amplitude)


def direction_mode(num_elements: int, spacing_wavelengths: float,
                   incident_angle: float, departure_angle: float,
                   amplitude: float = 1.0) -> PhaseShiftMatrix:
    """Phase profile that redirects an incident narrow beam toward `departure_angle`.

    theta_n = (2 pi d)(n - 1)(sin(departure) - sin(incident)); applying the
    result to the incident steering vector yields exactly amplitude times the
    departure steering vector.
    """
    return PhaseShiftMatrix(phases=element_phases(
        num_elements, spacing_wavelengths,
        np.sin(departure_angle) - np.sin(incident_angle)), amplitude=amplitude)


def random_mode(num_elements: int, rng: np.random.Generator,
                amplitude: float = 1.0) -> PhaseShiftMatrix:
    """Uniform-random phases, the non-optimized benchmark state."""
    return PhaseShiftMatrix(phases=rng.uniform(0.0, 2.0 * np.pi, num_elements),
                            amplitude=amplitude)


def absorbing(num_elements: int) -> PhaseShiftMatrix:
    """Zero-amplitude state used to deactivate an IRS during another IRS's slots."""
    return PhaseShiftMatrix(phases=np.zeros(num_elements), amplitude=0.0)
