"""Uniform linear arrays: steering vectors, beam gains, and the sine-uniform beam grid."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArraySpec:
    """A uniform linear array of `num_elements` antenna elements, spaced
    half a carrier wavelength apart."""

    num_elements: int

    def __post_init__(self):
        if self.num_elements < 1:
            raise ValueError("num_elements must be >= 1")


@dataclass(frozen=True)
class BeamVector:
    """Complex beamforming weights of unit Euclidean norm.

    Narrow and wide beams are normalized by construction; a single-element
    excitation has norm one as well.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", coeffs)
        if abs(np.linalg.norm(coeffs) - 1.0) > 1e-9:
            raise ValueError("beams must have unit norm")


@dataclass(frozen=True)
class BeamGrid:
    """K narrow-beam directions whose sines uniformly partition (-1, 1).

    `directions` holds the front-range representatives; back-range twins are
    pi minus them, and `sines` their sines.
    """

    num_beams: int
    directions: np.ndarray
    sines: np.ndarray


def element_phases(num_elements: int, spacing_wavelengths: float, sine):
    """Phases 2 pi d n x of every array response at x = `sine`, which
    broadcasts against the elements n = 0..N-1 on the result's last axis."""
    return 2.0 * np.pi * spacing_wavelengths * np.arange(num_elements) * sine


def lattice_phasors(order: int, exponents, amplitude: float = 1.0):
    """`amplitude` exp(2 pi j m / `order`) at the integers m = `exponents`."""
    return (amplitude * np.exp(2j * np.pi / order * np.arange(order)))[
        np.mod(exponents, order)]


def dirichlet(num_elements, sine_offset) -> np.ndarray:
    """D_N(x) = sum_{n<N} exp(j pi n x), the half-wavelength array sum, as
    exp(j pi (N - 1) x / 2) sin(N pi x / 2) / sin(pi x / 2) after reducing x
    into [-1, 1] (its period is 2), with the limit N at x = 0; an array of
    sizes N broadcasts to x's shape."""
    x = np.asarray(sine_offset, dtype=float)
    half = np.pi / 2 * (x - 2.0 * np.rint(x / 2.0))
    ratio = np.divide(np.sin(num_elements * half), np.sin(half),
                      out=np.full(half.shape, num_elements, dtype=float),
                      where=half != 0.0)
    return np.exp(1j * (num_elements - 1) * half) * ratio


def steering_coefficients(num_elements: int, spacing_wavelengths: float,
                          angle: float) -> np.ndarray:
    return np.exp(1j * element_phases(num_elements, spacing_wavelengths,
                                      np.sin(angle))) / np.sqrt(num_elements)


def steering(spec: ArraySpec, angle: float) -> BeamVector:
    """Unit-norm array response vector of `spec` in direction `angle` (radians)."""
    return BeamVector(steering_coefficients(spec.num_elements, 0.5, angle))


def beam_gain(w: BeamVector, spec: ArraySpec, probe: float) -> float:
    """Amplitude gain |w^H a(probe)| of beam `w` toward direction `probe`.

    For a unit-norm `w` the value lies in [0, 1].
    """
    coeffs = w.coefficients
    if coeffs.shape[0] != spec.num_elements:
        raise ValueError(
            f"beam length {coeffs.shape[0]} does not match array "
            f"size {spec.num_elements}"
        )
    a = steering_coefficients(spec.num_elements, 0.5, probe)
    return float(abs(np.vdot(coeffs, a)))


def pattern_gain(num_elements: int, sine_offset) -> np.ndarray:
    """Half-wavelength beam pattern |sin(N pi x / 2) / (N sin(pi x / 2))|.

    `sine_offset` is sin(probe) - sin(beam direction); the result keeps its
    shape. Where |sin(pi x / 2)| < 1e-7 (x at 0 or at the +-2 endfire seam)
    the value is the limit 1. Works in place on its own copy of the argument.
    """
    half = np.multiply(sine_offset, np.pi / 2, out=np.empty(np.shape(sine_offset)))
    below = np.sin(half, out=np.empty_like(half))   # out= keeps a 0-d result an array
    aligned = np.abs(below) < 1e-7
    np.copyto(below, 1.0, where=aligned)
    below *= num_elements
    np.sin(np.multiply(half, num_elements, out=half), out=half)
    half /= below
    np.copyto(half, 1.0, where=aligned)
    return np.abs(half, out=half)[()]   # [()] makes a 0-d result a numpy scalar


def edge_energy(num_elements: int, num_beams: int) -> float:
    """Common coverage-edge amplitude rho for `num_beams` beams on `num_elements` antennas."""
    _require_grid_regime(num_elements, num_beams)
    return float(np.sin(num_elements * np.pi / (2 * num_beams))
                 / (num_elements * np.sin(np.pi / (2 * num_beams))))


def grid_directions(num_elements: int, num_beams: int) -> BeamGrid:
    """Front-range beam directions with sines (2i - 1)/K - 1, i = 1..K."""
    _require_grid_regime(num_elements, num_beams)
    i = np.arange(1, num_beams + 1)
    directions = np.arcsin((2.0 * i - 1.0) / num_beams - 1.0)
    return BeamGrid(
        num_beams=num_beams,
        directions=directions,
        sines=np.sin(directions),
    )


def nearest_direction(grid: BeamGrid, angle: float) -> int:
    """Index of the grid beam closest to `angle` in sine-domain distance."""
    return int(np.argmin(np.abs(grid.sines - np.sin(angle))))


def _require_grid_regime(num_elements: int, num_beams: int) -> None:
    if num_elements < 1:
        raise ValueError("num_elements must be >= 1")
    if num_beams < num_elements:
        raise ValueError(
            f"need at least as many beams as antennas (K={num_beams} < "
            f"N={num_elements})"
        )
