from dataclasses import astuple

import numpy as np
import pytest

from irsmimo.arrays import ArraySpec, grid_directions
from irsmimo.channel import CascadeChannel, PhysicalConstants, make_link
from irsmimo.codebook import build_codebook
from irsmimo.training import ScenarioAssets, sweep_phasors


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
    grid = grid_directions(num_irs_elements, sweep_beams)
    return cascade, ScenarioAssets(
        consts=consts, tx_spec=tx, rx_spec=rx, irs_spec=irs,
        tx_codebook=book, rx_codebook=book, sweep_grid=grid,
        sweep_phasors=sweep_phasors(irs, grid), powers=np.array([1.0]),
        noise_power=1e-12)


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


def dense(H):
    """A dense channel as the factors (I, H, I) of `spectral_efficiency`."""
    return np.eye(H.shape[-2]), H, np.eye(H.shape[-1])


@pytest.fixture
def small_scenario():
    return scenario_from_angles([(0.2, -0.55, 0.4, -0.1)])
