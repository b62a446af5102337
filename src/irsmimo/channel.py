"""THz path loss, rank-one reflecting links, IRS phase states, and channel assembly."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import ArraySpec, steering_coefficients

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
class LinkAngles:
    """True azimuth angles of one reflecting path, radians, front-range."""

    tx_departure: float   # AoD at the transmit terminal toward the IRS
    irs_arrival: float    # AoA at the IRS from the transmit terminal
    irs_departure: float  # AoD at the IRS toward the receive terminal
    rx_arrival: float     # AoA at the receive terminal from the IRS


@dataclass(frozen=True)
class IrsLink:
    """One IRS's dense rank-one hop channels and its true angles."""

    incident: np.ndarray     # transmit terminal -> IRS, shape (N_r, N_t)
    departing: np.ndarray    # IRS -> receive terminal, shape (N_u, N_r)
    angles: LinkAngles


@dataclass(frozen=True)
class CascadeChannel:
    """Every reflecting path of a scene, one row per IRS: `angles` (N_i, 4)
    in `LinkAngles` field order, hop lengths in and out `distances` (N_i, 2)
    in meters, and the shared compensation factor `eta`. Dense hops are
    formed only on demand (`links`)."""

    consts: PhysicalConstants
    angles: np.ndarray
    distances: np.ndarray
    eta: float
    tx_spec: ArraySpec
    rx_spec: ArraySpec
    irs_spec: ArraySpec

    @property
    def num_irs(self) -> int:
        return len(self.angles)

    @cached_property
    def bridge_terms(self) -> tuple:
        """(chain, rx_dir, tx_dir, hops), stacked by IRS, from the rays.

        With IRS l alone reflecting in state Theta, H = eta G_t G_r N Theta M
        has rank one: H = H[0, 0] outer(rx_dir, tx_dir), with
        rx_dir = N[:, 0] / N[0, 0], tx_dir = M[0, :] / M[0, 0] and
        H[0, 0] = sum_n chain_n Theta_nn, chain = eta G_t G_r N[0, :] M[:, 0];
        `hops` (N_i, 2, N_r) holds M[:, 0] and N[0, :]. Each hop entry is
        computed as in the dense hop of `make_link`.
        """
        a_tx, a_in, a_out, a_rx = (
            steering_coefficients(spec.num_elements, spec.spacing_wavelengths,
                                  angle[:, None])
            for spec, angle in zip((self.tx_spec, self.irs_spec,
                                    self.irs_spec, self.rx_spec),
                                   np.transpose(self.angles)))
        amp_in, amp_out = path_loss(self.consts, self.distances).T[..., None]
        conj_tx, conj_out = np.conj(a_tx), np.conj(a_out)
        incident_row = amp_in * (a_in[:, :1] * conj_tx)
        departing_column = amp_out * (a_rx * conj_out[:, :1])
        hops = np.stack([amp_in * (a_in * conj_tx[:, :1]),
                         amp_out * (a_rx[:, :1] * conj_out)], axis=1)
        gain = self.consts.tx_gain * self.consts.rx_gain
        return (self.eta * gain * hops[:, 1] * hops[:, 0],
                departing_column / departing_column[:, :1],
                incident_row / incident_row[:, :1], hops)

    @cached_property
    def links(self) -> tuple:
        """Each IRS's `IrsLink`, with its dense hops."""
        return tuple(IrsLink(
            make_link(self.consts, self.tx_spec, self.irs_spec, a[0], a[1], d_in),
            make_link(self.consts, self.irs_spec, self.rx_spec, a[2], a[3], d_out),
            LinkAngles(*a)) for a, (d_in, d_out) in zip(
                self.angles.tolist(), self.distances.tolist()))


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
    a_rx = steering_coefficients(rx_spec.num_elements, rx_spec.spacing_wavelengths,
                                 arrival_angle)
    a_tx = steering_coefficients(tx_spec.num_elements, tx_spec.spacing_wavelengths,
                                 departure_angle)
    return amp * np.outer(a_rx, np.conj(a_tx))


def assemble(cascade: CascadeChannel, thetas, consts: PhysicalConstants) -> np.ndarray:
    """End-to-end channel H = sum_l eta G_t G_r N_l Theta_l M_l, from the
    dense hops (`CascadeChannel.links`)."""
    if len(thetas) != cascade.num_irs:
        raise ValueError(
            f"got {len(thetas)} phase matrices for {cascade.num_irs} IRSs"
        )
    n_u = cascade.rx_spec.num_elements
    n_t = cascade.tx_spec.num_elements
    H = np.zeros((n_u, n_t), dtype=complex)
    for link, theta in zip(cascade.links, thetas):
        if theta.num_elements != cascade.irs_spec.num_elements:
            raise ValueError("phase matrix size does not match the IRS array")
        if theta.amplitude == 0.0:
            continue   # an absorbing IRS adds exactly zero
        # diagonal Theta applied row-wise, O(N_r N_t) instead of a matmul
        reflected = theta.entries()[:, None] * link.incident
        H += (cascade.eta * consts.tx_gain * consts.rx_gain
              * (link.departing @ reflected))
    return H
