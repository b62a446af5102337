import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_hops
from irsmimo.arrays import ArraySpec, steering
from irsmimo.channel import (SPEED_OF_LIGHT, CascadeChannel, PhaseShiftMatrix,
                             PhysicalConstants, assemble, cascade_loss,
                             compensation_factor, make_link, path_loss)
from irsmimo.irs_control import absorbing, direction_mode


def consts_with(**kwargs):
    base = dict(carrier_frequency=3e11, absorption_coefficient=0.0033)
    base.update(kwargs)
    return PhysicalConstants(**base)


def test_path_loss_unit_cancellation():
    c = consts_with(absorption_coefficient=0.0)
    d = SPEED_OF_LIGHT / (4 * np.pi * c.carrier_frequency)
    assert path_loss(c, d) == pytest.approx(1.0, abs=1e-15)


def test_path_loss_inverse_distance():
    c = consts_with(absorption_coefficient=0.0)
    assert path_loss(c, 8.0) == pytest.approx(path_loss(c, 4.0) / 2, rel=1e-14)


def test_path_loss_frozen_value():
    # scalar oracle: (c / (4 pi f d)) exp(-tau d / 2) at f=0.3 THz, d=10 m
    assert path_loss(consts_with(), 10.0) == pytest.approx(
        7.822106509849796e-06, rel=1e-14)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss(consts_with(), 0.0)


def test_compensation_factor_cancellation():
    c = PhysicalConstants(carrier_frequency=SPEED_OF_LIGHT / (2 * np.sqrt(np.pi)),
                          absorption_coefficient=0.0)
    assert compensation_factor(c, 1) == pytest.approx(1.0, rel=1e-14)


def test_compensation_factor_linear_in_elements():
    c = consts_with()
    assert compensation_factor(c, 64) == pytest.approx(
        2 * compensation_factor(c, 32), rel=1e-14)


def test_compensation_factor_frozen_value():
    assert compensation_factor(consts_with(), 32) == pytest.approx(
        113515.57729109352, rel=1e-14)


def test_cascade_loss_equals_product_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = PhysicalConstants(
            carrier_frequency=rng.uniform(1e11, 1e12),
            absorption_coefficient=rng.uniform(0, 0.01),
            tx_gain=rng.uniform(1, 100),
            rx_gain=rng.uniform(1, 100),
            irs_element_gain=rng.uniform(0.5, 4),
        )
        n_r = int(rng.integers(1, 128))
        d1, d2 = rng.uniform(1, 30, 2)
        direct = cascade_loss(c, n_r, d1, d2)
        product = (c.tx_gain * c.rx_gain * compensation_factor(c, n_r)
                   * path_loss(c, d1) * path_loss(c, d2))
        assert direct == pytest.approx(product, rel=1e-12)


def test_cascade_loss_halves_when_distance_doubles():
    c = consts_with(absorption_coefficient=0.0)
    assert cascade_loss(c, 8, 10.0, 3.0) == pytest.approx(
        cascade_loss(c, 8, 5.0, 3.0) / 2, rel=1e-14)


def test_cascade_loss_frozen_section_defaults():
    c = consts_with(tx_gain=10 ** 1.8, rx_gain=10 ** 1.8)
    assert cascade_loss(c, 32, 5.0, 5.0) == pytest.approx(
        0.11244205206474805, rel=1e-13)


def test_make_link_rank_one_and_norm():
    c = consts_with()
    tx, rx = ArraySpec(16), ArraySpec(8)
    H = make_link(c, tx, rx, 0.4, -0.2, 7.0)
    s = np.linalg.svd(H, compute_uv=False)
    assert s[1] / s[0] < 1e-10
    assert np.linalg.norm(H) == pytest.approx(path_loss(c, 7.0), rel=1e-12)
    assert H[0, 0] == pytest.approx(path_loss(c, 7.0) / np.sqrt(16 * 8), rel=1e-12)


def make_cascade(consts, angle_sets, distances, n_t=8, n_r=16, n_u=8):
    return CascadeChannel(consts, np.array(angle_sets, dtype=float),
                          np.array(distances, dtype=float), ArraySpec(n_t),
                          ArraySpec(n_u), ArraySpec(n_r))


def test_cascade_eta_is_the_compensation_factor_of_its_irs():
    c = consts_with(irs_element_gain=2.5)
    cascade = make_cascade(c, [(0.1, -0.2, 0.3, -0.4)], [(5.0, 6.0)], n_r=24)
    assert cascade.eta == compensation_factor(c, 24)


ray = st.tuples(st.tuples(*[st.floats(-0.999, 0.999)] * 4),
                st.tuples(*[st.floats(0.3, 20.0)] * 2))


@settings(max_examples=80, deadline=None)
@given(sizes=st.tuples(*[st.integers(1, 64)] * 3),
       rays=st.lists(ray, min_size=1, max_size=4),
       gains=st.tuples(st.floats(0.5, 200.0), st.floats(0.5, 200.0)))
def test_bridge_terms_equal_dense_hop_entries(sizes, rays, gains):
    # the rank-one factors come straight from the rays. The chain of the
    # single-IRS channels and the sweep's omni hop entries must equal, bit
    # for bit, what the dense hops of make_link give; rx_dir and tx_dir are
    # unit-first-entry responses, the dense ratios up to rounding
    n_t, n_r, n_u = sizes
    c = consts_with(tx_gain=gains[0], rx_gain=gains[1])
    sines, distances = zip(*rays)
    cascade = make_cascade(c, np.arcsin(sines), distances, n_t, n_r, n_u)
    chain, rx_dir, tx_dir, hops = cascade.bridge_terms
    gain = c.tx_gain * c.rx_gain
    for l in range(cascade.num_irs):
        M, N = dense_hops(cascade, l)
        assert np.array_equal(chain[l], cascade.eta * gain * N[0, :] * M[:, 0])
        assert np.array_equal(hops[l], [M[:, 0], N[0, :]])
        assert np.allclose(rx_dir[l], N[:, 0] / N[0, 0], rtol=0, atol=1e-14)
        assert np.allclose(tx_dir[l], M[0, :] / M[0, 0], rtol=0, atol=1e-14)


def test_bridge_terms_stay_finite_when_the_path_loss_underflows():
    # exp(-absorption d / 2) underflows to 0: the factors keep their unit
    # first entries and the amplitude terms are exact zeros, not 0 / 0
    cascade = make_cascade(consts_with(absorption_coefficient=1e6),
                           [(0.1, -0.2, 0.3, -0.4)], [(5.0, 6.0)])
    chain, rx_dir, tx_dir, hops = cascade.bridge_terms
    assert np.all(chain == 0) and np.all(hops == 0)
    assert np.all(np.abs(rx_dir) == pytest.approx(1.0))
    assert np.all(np.abs(tx_dir) == pytest.approx(1.0))


def test_assemble_zero_amplitude_gives_zero_matrix():
    c = consts_with()
    cascade = make_cascade(c, [(0.1, -0.2, 0.3, -0.4)], [(5.0, 6.0)])
    H = assemble(cascade, [absorbing(16)])
    assert np.all(H == 0)


def test_assemble_rank_bounded_by_irs_count():
    c = consts_with()
    cascade = make_cascade(c, [(0.1, -0.2, 0.3, -0.4), (0.5, 0.2, -0.3, 0.1)],
                           [(5.0, 6.0), (4.0, 8.0)])
    thetas = [direction_mode(16, 0.5, -0.2, 0.3), direction_mode(16, 0.5, 0.2, -0.3)]
    H = assemble(cascade, thetas)
    s = np.linalg.svd(H, compute_uv=False)
    assert np.sum(s > s[0] * 1e-10) <= 2


def test_assemble_bridged_composite_gain_per_irs():
    # direction mode on the true angles makes the end-to-end amplitude exactly
    # beta * eta * G_t * G_r * a(d_in) * a(d_out)
    c = consts_with(tx_gain=4.0, rx_gain=2.5, reflection_amplitude=0.8)
    angles = (0.1, -0.35, 0.55, -0.2)
    cascade = make_cascade(c, [angles], [(5.0, 6.0)])
    theta = direction_mode(16, 0.5, angles[1], angles[2], amplitude=0.8)
    H = assemble(cascade, [theta])
    tx_beam = steering(cascade.tx_spec, angles[0])
    rx_beam = steering(cascade.rx_spec, angles[3])
    gain = abs(np.vdot(rx_beam.coefficients, H @ tx_beam.coefficients))
    expected = (0.8 * cascade.eta * c.tx_gain * c.rx_gain
                * path_loss(c, 5.0) * path_loss(c, 6.0))
    assert gain == pytest.approx(expected, abs=1e-9)


def test_assemble_common_angle_sum():
    # identical end angles let the per-IRS amplitudes add coherently
    c = consts_with()
    angles = (0.15, -0.3, 0.25, -0.1)
    cascade = make_cascade(c, [angles, angles], [(5.0, 6.0), (7.0, 9.0)])
    thetas = [direction_mode(16, 0.5, angles[1], angles[2]) for _ in range(2)]
    H = assemble(cascade, thetas)
    tx_beam = steering(cascade.tx_spec, angles[0])
    rx_beam = steering(cascade.rx_spec, angles[3])
    gain = abs(np.vdot(rx_beam.coefficients, H @ tx_beam.coefficients))
    expected = sum(
        cascade.eta * c.tx_gain * c.rx_gain * path_loss(c, d_in)
        * path_loss(c, d_out) for d_in, d_out in cascade.distances)
    assert gain == pytest.approx(expected, abs=1e-9)


def test_assemble_linearity_over_irs_subsets():
    c = consts_with()
    sets = [(0.1, -0.2, 0.3, -0.4), (0.5, 0.2, -0.3, 0.1)]
    dists = [(5.0, 6.0), (4.0, 8.0)]
    both = make_cascade(c, sets, dists)
    first = make_cascade(c, sets[:1], dists[:1])
    second = make_cascade(c, sets[1:], dists[1:])
    thetas = [direction_mode(16, 0.5, 0.0, 0.4), direction_mode(16, 0.5, 0.1, -0.2)]
    H = assemble(both, thetas)
    H_split = (assemble(first, thetas[:1]) + assemble(second, thetas[1:]))
    assert np.array_equal(H, H_split)


def test_assemble_rejects_wrong_theta_count():
    c = consts_with()
    cascade = make_cascade(c, [(0.1, -0.2, 0.3, -0.4)], [(5.0, 6.0)])
    with pytest.raises(ValueError):
        assemble(cascade, [])


def test_phase_matrix_amplitude_and_range():
    theta = PhaseShiftMatrix(phases=np.array([-1.0, 7.0, 2.0]), amplitude=0.7)
    assert np.all(np.abs(theta.entries()) == pytest.approx(0.7, abs=1e-15))
    assert np.all((theta.phases >= 0) & (theta.phases < 2 * np.pi))


def test_phase_matrix_norm_preserving_at_unit_amplitude():
    rng = np.random.default_rng(3)
    theta = PhaseShiftMatrix(phases=rng.uniform(0, 2 * np.pi, 32), amplitude=1.0)
    vec = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert np.linalg.norm(theta.apply(vec)) == pytest.approx(
        np.linalg.norm(vec), abs=1e-12)


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(carrier_frequency=0.0, absorption_coefficient=0.0)
    with pytest.raises(ValueError):
        consts_with(reflection_amplitude=1.5)


def test_assemble_matches_literal_diagonal_product():
    c = consts_with(tx_gain=3.0, rx_gain=7.0)
    cascade = make_cascade(c, [(0.1, -0.2, 0.3, -0.4), (0.5, 0.2, -0.3, 0.1)],
                           [(5.0, 6.0), (4.0, 8.0)])
    rng = np.random.default_rng(12)
    thetas = [PhaseShiftMatrix(phases=rng.uniform(0, 2 * np.pi, 16),
                               amplitude=0.9) for _ in range(2)]
    H = assemble(cascade, thetas)
    hops = [dense_hops(cascade, l) for l in range(2)]
    literal = sum(
        cascade.eta * c.tx_gain * c.rx_gain
        * N @ np.diag(theta.entries()) @ M
        for (M, N), theta in zip(hops, thetas))
    assert np.allclose(H, literal, atol=1e-18)
