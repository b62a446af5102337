"""THz path loss, rank-one reflecting links, IRS phase states, and channel assembly."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import ArraySpec, element_phases, steering_coefficients

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class PhysicalConstants:
    """Carrier, medium, and gain constants. All gains are linear power ratios."""

    carrier_frequency: float
    absorption_coefficient: float
    tx_gain: float = 1.0
    rx_gain: float = 1.0
    irs_element_gain: float = 1.0
    reflection_amplitude: float = 1.0

    def __post_init__(self):
        for name in ("carrier_frequency", "tx_gain", "rx_gain",
                     "irs_element_gain"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.absorption_coefficient < 0:
            raise ValueError("absorption_coefficient must be nonnegative")
        if not 0.0 <= self.reflection_amplitude <= 1.0:
            raise ValueError("reflection_amplitude must lie in [0, 1]")


@dataclass(frozen=True)
class PhaseShiftMatrix:
    """Diagonal IRS operator diag(beta * exp(j theta_n)), stored as a phase list."""

    phases: np.ndarray
    amplitude: float = 1.0

    def __post_init__(self):
        phases = np.mod(np.asarray(self.phases, dtype=float), 2.0 * np.pi)
        object.__setattr__(self, "phases", phases)
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must lie in [0, 1]")

    @property
    def num_elements(self) -> int:
        return self.phases.shape[0]

    def entries(self) -> np.ndarray:
        return self.amplitude * np.exp(1j * self.phases)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Element-wise product, i.e. Theta @ vec without forming the matrix."""
        vec = np.asarray(vec)
        if vec.shape[0] != self.num_elements:
            raise ValueError("vector length does not match phase count")
        return self.entries() * vec


@dataclass(frozen=True)
class CascadeChannel:
    """Every reflecting path of a scene, one row per IRS: `angles` (N_i, 4)
    ordered as (transmit departure, IRS arrival, IRS departure, receive
    arrival) and hop lengths in and out `distances` (N_i, 2) in meters."""

    consts: PhysicalConstants
    angles: np.ndarray
    distances: np.ndarray
    tx_spec: ArraySpec
    rx_spec: ArraySpec
    irs_spec: ArraySpec

    @property
    def num_irs(self) -> int:
        return len(self.angles)

    @property
    def eta(self) -> float:
        """The compensation factor of the IRS arrays."""
        return compensation_factor(self.consts, self.irs_spec.num_elements)

    @cached_property
    def sines(self) -> np.ndarray:
        """The sines of `angles` (N_i, 4), which every trial step reads."""
        return np.sin(self.angles)

    @cached_property
    def bridge_terms(self) -> tuple:
        """(chain, rx_dir, tx_dir, hop_heads), stacked by IRS, from the rays.

        With IRS l alone reflecting in state Theta, H = eta G_t G_r N Theta M
        has rank one: H = H[0, 0] outer(rx_dir, tx_dir), where H[0, 0] =
        sum_n chain_n Theta_nn and chain = eta G_t G_r N[0, :] M[:, 0].
        rx_dir = N[:, 0] / N[0, 0] and tx_dir = M[0, :] / M[0, 0] are formed
        as exp(+-j 2 pi d n sin theta) of the receive arrival and transmit
        departure, free of path amplitudes that may underflow. `hop_heads`
        (N_i, 2) holds M[0, 0] and N[0, 0], each as `make_link` has it.
        """
        tx, irs, rx = self.tx_spec, self.irs_spec, self.rx_spec
        sines = self.sines
        tx_dir = np.exp(-1j * element_phases(tx.num_elements, 0.5, sines[:, :1]))
        rx_dir = np.exp(1j * element_phases(rx.num_elements, 0.5, sines[:, 3:]))
        a_in, a_out = np.moveaxis(np.exp(1j * element_phases(
            irs.num_elements, 0.5, sines[:, 1:3, None]))
            / np.sqrt(irs.num_elements), 1, 0)
        amp_in, amp_out = path_loss(self.consts, self.distances).T[..., None]
        # the first entry of a terminal's steering vector is 1 / sqrt(N)
        hop_in = amp_in * (a_in * (1.0 / np.sqrt(tx.num_elements)))
        hop_out = amp_out * (np.conj(a_out)
                             * (1.0 / np.sqrt(rx.num_elements)))
        gain = self.consts.tx_gain * self.consts.rx_gain
        return (self.eta * gain * hop_out * hop_in, rx_dir, tx_dir,
                np.stack([hop_in[:, 0], hop_out[:, 0]], axis=1))


def path_loss(consts: PhysicalConstants, distance: float) -> float:
    """Free-spread times molecular-absorption amplitude loss at `distance`
    meters, elementwise over an array of distances."""
    if np.any(np.asarray(distance) <= 0):
        raise ValueError("distance must be positive")
    spread = SPEED_OF_LIGHT / (4.0 * np.pi * consts.carrier_frequency * distance)
    return spread * np.exp(-0.5 * consts.absorption_coefficient * distance)


def compensation_factor(consts: PhysicalConstants, num_irs_elements: int) -> float:
    """Path-loss compensation factor eta = 2 sqrt(pi) f G N_r / c."""
    return (2.0 * np.sqrt(np.pi) * consts.carrier_frequency
            * consts.irs_element_gain * num_irs_elements / SPEED_OF_LIGHT)


def cascade_loss(consts: PhysicalConstants, num_irs_elements: int,
                 distance_in: float, distance_out: float) -> float:
    """Closed-form cascade amplitude of a terminal-IRS-terminal link.

    Identical to tx_gain * rx_gain * eta * path_loss(d_in) * path_loss(d_out);
    arrays of distances give one amplitude per pair.
    """
    if np.any(np.minimum(distance_in, distance_out) <= 0):
        raise ValueError("distances must be positive")
    f = consts.carrier_frequency
    numer = (consts.tx_gain * consts.rx_gain * consts.irs_element_gain
             * num_irs_elements * SPEED_OF_LIGHT)
    denom = 8.0 * np.sqrt(np.pi ** 3) * f * distance_in * distance_out
    absorption = np.exp(-0.5 * consts.absorption_coefficient
                        * (distance_in + distance_out))
    return numer / denom * absorption


def make_link(consts: PhysicalConstants, tx_spec: ArraySpec, rx_spec: ArraySpec,
              departure_angle: float, arrival_angle: float,
              distance: float) -> np.ndarray:
    """Rank-one hop matrix a(f, d) * a_rx(aoa) a_tx(aod)^H, shape (N_rx, N_tx)."""
    amp = path_loss(consts, distance)
    a_rx = steering_coefficients(rx_spec.num_elements, 0.5, arrival_angle)
    a_tx = steering_coefficients(tx_spec.num_elements, 0.5, departure_angle)
    return amp * np.outer(a_rx, np.conj(a_tx))


def assemble(cascade: CascadeChannel, thetas) -> np.ndarray:
    """End-to-end channel H = sum_l eta G_t G_r N_l Theta_l M_l, from the
    dense hops of `make_link`."""
    if len(thetas) != cascade.num_irs:
        raise ValueError(
            f"got {len(thetas)} phase matrices for {cascade.num_irs} IRSs"
        )
    consts, irs_spec = cascade.consts, cascade.irs_spec
    H = np.zeros((cascade.rx_spec.num_elements,
                  cascade.tx_spec.num_elements), dtype=complex)
    for (aod, aoa, dep, arr), (d_in, d_out), theta in zip(
            cascade.angles.tolist(), cascade.distances.tolist(), thetas):
        if theta.num_elements != irs_spec.num_elements:
            raise ValueError("phase matrix size does not match the IRS array")
        if theta.amplitude == 0.0:
            continue   # an absorbing IRS adds exactly zero
        incident = make_link(consts, cascade.tx_spec, irs_spec, aod, aoa, d_in)
        departing = make_link(consts, irs_spec, cascade.rx_spec, dep, arr,
                              d_out)
        # diagonal Theta applied row-wise, O(N_r N_t) instead of a matmul
        reflected = theta.entries()[:, None] * incident
        H += (cascade.eta * consts.tx_gain * consts.rx_gain
              * (departing @ reflected))
    return H
