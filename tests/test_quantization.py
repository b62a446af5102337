import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from irsmimo import quantization
from irsmimo.arrays import edge_energy, grid_directions, pattern_gain
from irsmimo.quantization import (average_error, quantization_report,
                                  worst_error)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("ratio", [1, 2, 3, 4])
def test_worst_error_is_one_minus_edge_energy(n, ratio):
    k = n * ratio
    assert abs(worst_error(n, k) - (1.0 - edge_energy(n, k))) <= 1e-12


def test_worst_error_scalar_oracle():
    # direct evaluation of 1 - sin(N pi / 2K) / (N sin(pi / 2K))
    import math
    n, k = 32, 64
    expected = 1.0 - math.sin(n * math.pi / (2 * k)) / (n * math.sin(math.pi / (2 * k)))
    assert worst_error(n, k) == pytest.approx(expected, abs=1e-15)


def test_worst_error_vanishes_for_huge_grids():
    assert worst_error(16, 10 ** 7) < 1e-9


def test_worst_error_rejects_small_grid():
    with pytest.raises(ValueError):
        worst_error(32, 16)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_average_error_bound_at_double_density(n):
    assert average_error(n, 2 * n) < 0.04


def test_average_error_below_worst():
    for n, k in [(16, 32), (32, 64), (32, 96)]:
        assert 0.0 < average_error(n, k) <= worst_error(n, k)


def test_average_error_matches_monte_carlo_smoke():
    # quick version of the acceptance oracle: 1e5 draws, looser band
    n, k = 32, 64
    rng = np.random.default_rng(11)
    grid = grid_directions(n, k)
    angles = rng.uniform(-np.pi / 2, 3 * np.pi / 2, 100000)
    best = pattern_gain(n, np.sin(angles)[:, None] - grid.sines[None, :]).max(axis=1)
    mc = 1.0 - best.mean()
    assert average_error(n, k) == pytest.approx(mc, abs=3e-3)


def test_average_error_is_finite_despite_endpoint_singularity():
    value = average_error(16, 16)
    assert np.isfinite(value)
    assert 0.0 < value < 1.0


def test_power_ratio_on_grid_direction():
    # the best amplitude gain of the K-beam grid on a path is its largest
    # pattern gain at the path's sine offsets
    grid = grid_directions(32, 64)
    assert pattern_gain(32, grid.sines[10] - grid.sines).max() == \
        pytest.approx(1.0, abs=1e-12)


def test_power_ratio_on_coverage_edge():
    grid = grid_directions(32, 64)
    edge = float(np.arcsin(grid.sines[10] + 1 / 64))
    assert pattern_gain(32, np.sin(edge) - grid.sines).max() == \
        pytest.approx(edge_energy(32, 64), abs=1e-12)


def test_power_ratio_matches_exhaustive_scan():
    # the definition is a max over the grid; compare with an explicit loop
    # over steering-vector inner products
    from irsmimo.arrays import ArraySpec, beam_gain, steering

    spec = ArraySpec(16)
    grid = grid_directions(16, 32)
    rng = np.random.default_rng(5)
    for angle in rng.uniform(-np.pi / 2, np.pi / 2, 25):
        w = steering(spec, angle)
        explicit = max(beam_gain(w, spec, float(d)) for d in grid.directions)
        assert pattern_gain(16, np.sin(angle) - grid.sines).max() == \
            pytest.approx(explicit, abs=1e-12)


def test_power_ratio_sandwich():
    rho = edge_energy(32, 64)
    rng = np.random.default_rng(17)
    grid = grid_directions(32, 64)
    angles = rng.uniform(-np.pi / 2, 3 * np.pi / 2, 10000)
    best = pattern_gain(32, np.sin(angles)[:, None] - grid.sines[None, :]).max(axis=1)
    assert np.all(best >= rho - 1e-12)
    assert np.all(best <= 1.0 + 1e-12)


def test_report_fields():
    report = quantization_report(16, 32)
    assert report.num_elements == 16
    assert report.num_beams == 32
    assert 0.0 <= report.average_error <= report.worst_error < 1.0
    assert report.average_error == average_error(16, 32)


DEFAULT_GRIDS = [(n, ratio * n) for n in (8, 16, 32, 64) for ratio in (1, 2, 3, 4)]


def adaptive_average_error(n, k, abs_tol=1e-8):
    """The per-cell adaptive `quad` loop that average_error replaced."""
    total = 0.0
    for i in range(1, k + 1):
        center = (2.0 * i - 1.0 - k) / k
        u_lo = np.arcsin(max((2.0 * i - 2.0 - k) / k, -1.0))
        u_hi = np.arcsin(min((2.0 * i - k) / k, 1.0))
        piece, _ = quad(lambda u: pattern_gain(n, np.sin(u) - center),
                        u_lo, u_hi, epsabs=abs_tol, limit=200)
        total += piece
    return 1.0 - total / np.pi


def per_cell_average_error(n, k):
    """The 48-node rule in u = asin(y) on every cell, each cell with its own
    gain values: average_error's former arithmetic, kept as its reference."""
    nodes, weights = np.polynomial.legendre.leggauss(48)
    centers = grid_directions(n, k).sines
    edges = np.arcsin((2.0 * np.arange(k + 1) - k) / k)
    mid, half = (edges[1:] + edges[:-1]) / 2.0, np.diff(edges) / 2.0
    values = pattern_gain(n, np.sin(mid[:, None] + half[:, None] * nodes)
                          - centers[:, None])
    return 1.0 - half @ (values @ weights) / np.pi


def gauss_legendre_pair(n, k):
    """24- and 48-node results, in the arithmetic average_error uses: the
    edge cell pair in u, the interior cells in x on one gain vector."""
    nodes, weights = np.hstack([np.polynomial.legendre.leggauss(m) for m in (24, 48)])
    half = np.arccos(max(1.0 - 2.0 / k, 0.0)) / 2.0
    m = np.arange(k - 3, -1, -2)[:, None]
    density = np.sum((2.0 - (m == 0)) / np.sqrt((k - m - nodes) * (k + m + nodes)),
                     axis=0)
    values = (2 * half * pattern_gain(n, np.cos(half - half * nodes)
                                      - grid_directions(n, k).sines[-1])
              + density * pattern_gain(n, nodes / k))
    return tuple(1.0 - np.add.reduceat(values * weights, [0, 24]) / np.pi)


@pytest.mark.parametrize("n,k", DEFAULT_GRIDS + [(1, 1), (1, 2), (5, 5), (7, 9),
                                                 (33, 47)])
def test_average_error_matches_adaptive_quadrature(n, k):
    assert abs(average_error(n, k) - adaptive_average_error(n, k)) <= 1e-12


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_average_error_raises_when_rules_disagree_beyond_tolerance(n):
    # on the K = N grids the two rules differ by a few units in the last place
    coarse, fine = gauss_legendre_pair(n, n)
    gap = abs(fine - coarse)
    assert gap > 0.0
    assert average_error(n, n, abs_tol=2.0 * gap) == pytest.approx(fine, abs=1e-15)
    with pytest.raises(FloatingPointError, match="abs_tol"):
        average_error(n, n, abs_tol=gap / 2.0)


def test_average_error_raises_on_non_finite_integrand(monkeypatch):
    def broken(num_elements, sine_offset):
        values = pattern_gain(num_elements, sine_offset)
        values.flat[0] = np.nan
        return values

    monkeypatch.setattr(quantization, "pattern_gain", broken)
    with pytest.raises(FloatingPointError, match="non-finite"):
        average_error(16, 32)


@settings(max_examples=37, deadline=None)   # 40 with the three examples
@given(grid=st.integers(1, 512).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(n, 4 * n))))
@example(grid=(1, 1))
@example(grid=(33, 47))
@example(grid=(512, 2048))
def test_average_error_matches_the_per_cell_u_rule(grid):
    # the shared interior gain vector and the mirrored pairs change only the
    # last bits against one u-domain rule per cell; odd K has a middle cell
    assert abs(average_error(*grid) - per_cell_average_error(*grid)) <= 2e-15
