import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import diric

from irsmimo.arrays import (ArraySpec, beam_gain, dirichlet, edge_energy,
                            grid_directions, lattice_phasors,
                            nearest_direction, pattern_gain, steering)


def test_steering_broadside_is_uniform():
    vec = steering(ArraySpec(4), 0.0)
    assert np.allclose(vec.coefficients, 0.5)


def test_steering_30_degrees_quarter_turns():
    # sin(pi/6) = 1/2 exactly, so phases step by pi/2
    vec = steering(ArraySpec(4), np.pi / 6)
    expected = np.exp(1j * np.pi / 2 * np.arange(4)) / 2.0
    assert np.allclose(vec.coefficients, expected, atol=1e-15)


def test_steering_matches_elementwise_oracle():
    spec = ArraySpec(32)
    angle = 0.3
    vec = steering(spec, angle)
    for n in range(32):
        expected = np.exp(1j * 2 * np.pi * 0.5 * n * np.sin(angle)) / np.sqrt(32)
        assert vec.coefficients[n] == pytest.approx(expected, abs=1e-15)


def test_steering_unit_norm():
    rng = np.random.default_rng(0)
    spec = ArraySpec(48)
    for angle in rng.uniform(-np.pi / 2, np.pi / 2, 50):
        vec = steering(spec, angle)
        assert abs(np.linalg.norm(vec.coefficients) - 1.0) < 1e-12


def test_beam_gain_self_alignment():
    spec = ArraySpec(16)
    assert beam_gain(steering(spec, 0.7), spec, 0.7) == pytest.approx(1.0, abs=1e-12)


def test_beam_gain_mirror_symmetry():
    # front-back twins are indistinguishable to a ULA
    spec = ArraySpec(32)
    angles = np.linspace(-1.4, 1.4, 15)
    for phi in angles:
        w = steering(spec, phi)
        for psi in angles:
            assert abs(beam_gain(w, spec, psi)
                       - beam_gain(w, spec, np.pi - psi)) < 1e-12


def test_beam_gain_rejects_length_mismatch():
    with pytest.raises(ValueError):
        beam_gain(steering(ArraySpec(8), 0.1), ArraySpec(16), 0.0)


def test_grid_two_beams():
    grid = grid_directions(2, 2)
    assert np.allclose(grid.directions, [-np.pi / 6, np.pi / 6])


def test_grid_sines_are_cell_midpoints():
    grid = grid_directions(32, 64)
    expected = (2 * np.arange(1, 65) - 1) / 64 - 1
    assert np.allclose(grid.sines, expected, atol=1e-15)
    assert np.allclose(np.diff(grid.sines), 2 / 64, atol=1e-15)


def test_grid_rejects_too_few_beams():
    with pytest.raises(ValueError):
        grid_directions(32, 31)
    with pytest.raises(ValueError):
        edge_energy(32, 16)


def test_edge_energy_limits():
    assert edge_energy(8, 10 ** 7) == pytest.approx(1.0, abs=1e-9)
    n = 16
    assert edge_energy(n, n) == pytest.approx(
        np.sin(np.pi / 2) / (n * np.sin(np.pi / (2 * n))))


def test_edge_energy_monotone_in_beam_count():
    values = [edge_energy(32, k) for k in range(32, 8 * 32 + 1)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_edge_consistency():
    # both coverage edges of every beam sit 1/K away in sine and yield rho
    spec = ArraySpec(16)
    grid = grid_directions(16, 48)
    rho = edge_energy(16, 48)
    for i, phi in enumerate(grid.directions):
        for side in (-1.0, 1.0):
            edge_sine = grid.sines[i] + side / 48
            assert abs(abs(edge_sine - grid.sines[i]) - 1 / 48) < 1e-15
            gain = beam_gain(steering(spec, phi), spec,
                             float(np.arcsin(np.clip(edge_sine, -1, 1))))
            assert gain == pytest.approx(rho, abs=1e-9)


def test_pattern_monotone_within_main_lobe():
    n = 32
    x = np.linspace(0, 2 / n, 2001)
    values = pattern_gain(n, x)
    assert np.all(np.diff(values) <= 1e-12)
    assert pattern_gain(n, 0.0) == pytest.approx(1.0)


def diric_gain(n, x):
    """scipy's Dirichlet kernel, the implementation pattern_gain replaced."""
    return np.abs(diric(np.pi * np.asarray(x, dtype=float), n))


@pytest.mark.parametrize("n", [1, 2, 3, 15, 32, 64])
def test_pattern_gain_matches_diric(n):
    seams = [0.0, 2.0, -2.0, 1e-9, -1e-9, 2 + 1e-9, 2 - 1e-9, -2 + 1e-9,
             -2 - 1e-9, 1 / n, -1 / n]
    x = np.concatenate([seams, np.random.default_rng(n).uniform(-2, 2, 20000)])
    assert np.max(np.abs(pattern_gain(n, x) - diric_gain(n, x))) <= 1e-13
    assert np.all(pattern_gain(n, [0.0, 2.0, -2.0, 1e-9, 2 - 1e-9]) == 1.0)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 256), x=st.floats(-2.0, 2.0))
def test_pattern_gain_matches_diric_property(n, x):
    assert abs(pattern_gain(n, x) - diric_gain(n, x)) <= 1e-13


def direct_sum(n, x):
    # the array sum term by term, after the exact reduction of x into
    # [-1, 1] that keeps every phase below pi n
    x = np.asarray(x, dtype=float)
    reduced = x - 2.0 * np.round(x / 2.0)
    return np.exp(1j * np.pi * np.arange(n) * reduced[..., None]).sum(axis=-1)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 512), x=st.floats(-4.0, 4.0))
def test_dirichlet_matches_the_direct_sum(n, x):
    assert abs(dirichlet(n, x) - direct_sum(n, x)) <= 1e-15 * n * n


def test_dirichlet_limits_and_seams():
    # x = 0 and every even integer give N; odd integers give the alternating
    # sum; the magnitude is N times pattern_gain
    for n in (1, 2, 7, 32):
        assert dirichlet(n, [0.0, 2.0, -2.0, 4.0 - 2.0 ** -50]) == pytest.approx(
            [n, n, n, n], abs=1e-9 * n)
        assert dirichlet(n, 1.0) == pytest.approx(n % 2, abs=1e-13 * n)
        x = np.linspace(-3.9, 3.9, 41)
        assert np.abs(np.abs(dirichlet(n, x)) - n * pattern_gain(n, x)).max() \
            <= 1e-12 * n
    assert np.shape(dirichlet(8, 0.3)) == ()
    assert dirichlet(8, np.zeros((2, 3))).shape == (2, 3)


def test_lattice_phasors_are_powers_of_one_root():
    exponents = np.array([[0, 1, -1], [7, 12, -13]])
    got = lattice_phasors(6, exponents, 0.5)
    want = 0.5 * np.exp(2j * np.pi * exponents / 6)
    assert got.shape == (2, 3) and np.abs(got - want).max() <= 1e-15


def test_pattern_gain_keeps_shape_and_dtype():
    scalar = pattern_gain(16, 0.3)
    assert np.shape(scalar) == () and np.asarray(scalar).dtype == np.float64
    assert np.shape(pattern_gain(16, 0)) == ()
    x = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    block = pattern_gain(16, x)
    assert block.shape == (3, 4) and block.dtype == np.float64
    assert pattern_gain(16, x.astype(int)).dtype == np.float64
    # it computes in place on its own buffers: the argument is never written
    # and the result shares no memory with it
    frozen = x.copy()
    frozen.flags.writeable = False
    strided = np.linspace(-2.0, 2.0, 24)[::2]
    listed = [0.0, 0.25, 2.0, -1.0]
    for offset in (frozen, strided, listed, x):
        before = np.array(offset, copy=True)
        gains = pattern_gain(16, offset)
        assert np.array_equal(np.asarray(offset), before)
        assert gains.shape == np.shape(offset) and gains.dtype == np.float64
        assert not np.shares_memory(gains, offset)
        assert np.array_equal(gains, pattern_gain(16, before))


def test_pattern_matches_edge_energy():
    assert pattern_gain(32, 1 / 64) == pytest.approx(edge_energy(32, 64), abs=1e-12)


def test_nearest_direction_uses_sine_distance():
    grid = grid_directions(8, 16)
    idx = nearest_direction(grid, float(np.arcsin(grid.sines[5] + 0.01)))
    assert idx == 5


def test_array_spec_validation():
    with pytest.raises(ValueError):
        ArraySpec(0)


def test_beam_vector_invariants():
    import pytest as _pytest
    from irsmimo.arrays import BeamVector

    with _pytest.raises(ValueError):
        BeamVector(np.array([1.0, 1.0]))  # norm sqrt(2)
    with _pytest.raises(ValueError):
        BeamVector(np.zeros(3))
    BeamVector(np.array([1.0, 0.0, 0.0]))  # single-element excitation
    BeamVector(np.array([1.0, 1.0j]) / np.sqrt(2.0))
