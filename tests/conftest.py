from dataclasses import astuple

import numpy as np
import pytest

from irsmimo.arrays import ArraySpec, grid_directions, steering_coefficients
from irsmimo.channel import CascadeChannel, PhysicalConstants, make_link
from irsmimo.codebook import build_codebook, num_stages
from irsmimo.training import ScenarioAssets


def scenario_from_angles(angle_sets, distances=None, num_antennas=16,
                         num_irs_elements=16, num_beams=32, sweep_beams=32,
                         branching=2, beta=1.0):
    """Small scene with hand-picked true angles for protocol tests, as
    (cascade, assets); the assets' power grid is 1 W and noise 1e-12 W."""
    consts = PhysicalConstants(
        carrier_frequency=3e11,
        absorption_coefficient=0.0033,
        tx_gain=10 ** 1.8,
        rx_gain=10 ** 1.8,
        reflection_amplitude=beta,
    )
    tx = ArraySpec(num_antennas)
    rx = ArraySpec(num_antennas)
    irs = ArraySpec(num_irs_elements)
    if distances is None:
        distances = [(5.0, 6.0)] * len(angle_sets)
    cascade = CascadeChannel(
        consts=consts, angles=np.array(angle_sets, dtype=float),
        distances=np.array(distances, dtype=float), tx_spec=tx,
        rx_spec=rx, irs_spec=irs)
    book = build_codebook(tx, branching, num_beams)
    return cascade, ScenarioAssets(
        consts=consts, tx_spec=tx, rx_spec=rx, irs_spec=irs,
        tx_codebook=book, rx_codebook=book,
        sweep_grid=grid_directions(num_irs_elements, sweep_beams),
        powers=np.array([1.0]), noise_power=1e-12)


def selection_matrix(stage: int, branching: int,
                     num_leaves: int) -> np.ndarray:
    """Zero-one matrix D_s of shape (K, M**stage) mapping candidates to live
    leaves: the reference for the live slots of `build_codebook`.

    Column i selects leaf rows i*M**(S-s) .. (i+1)*M**(S-s) - 1, with rows
    beyond K - 1 dropped.
    """
    total = num_stages(branching, num_leaves)
    if not 1 <= stage <= total:
        raise ValueError(f"stage must lie in 1..{total}, got {stage}")
    owner = np.arange(num_leaves) // branching ** (total - stage)
    return (owner[:, None] == np.arange(branching ** stage)).astype(float)


def projection_beam(leaves: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Raw minimum-residual solution (L L^H)^-1 L d of leaves^H w = target.

    The general formula, the reference for `build_codebook`'s wide beams; on
    the beam grid it reduces to (N/K) L d.
    """
    gram = leaves @ leaves.conj().T
    return np.linalg.solve(gram, leaves @ target)


def dense_hops(cascade, irs_index):
    """IRS `irs_index`'s dense hops (M, N) from `make_link`: transmit
    terminal to IRS (N_r, N_t) and IRS to receive terminal (N_u, N_r)."""
    aod, aoa, dep, arr = cascade.angles[irs_index].tolist()
    d_in, d_out = cascade.distances[irs_index].tolist()
    return (make_link(cascade.consts, cascade.tx_spec, cascade.irs_spec, aod,
                      aoa, d_in),
            make_link(cascade.consts, cascade.irs_spec, cascade.rx_spec, dep,
                      arr, d_out))


def angle_rows(estimates):
    """The (N_i, 4) angles of a list of `AngleEstimate`s, in field order."""
    return np.array([astuple(e)[:4] for e in estimates])


def steered(tx_spec, rx_spec, angles):
    """The unit-norm steering pair (f, w) (..., N_i, N) toward the transmit
    departures and receive arrivals of design `angles` (..., N_i, 4), whose
    products `training.design_pass` takes in closed form."""
    angles = np.asarray(angles, dtype=float)
    return tuple(steering_coefficients(spec.num_elements,
                                       spec.spacing_wavelengths,
                                       angles[..., column, None])
                 for spec, column in ((tx_spec, 0), (rx_spec, 3)))


@pytest.fixture
def small_scenario():
    return scenario_from_angles([(0.2, -0.55, 0.4, -0.1)])
