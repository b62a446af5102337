import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import angle_rows, scenario_from_angles, steered
from irsmimo.arrays import ArraySpec
from irsmimo.channel import assemble
from irsmimo.harness import _hybrid_rates, perfect_estimates
from irsmimo.irs_control import direction_mode, random_mode
from irsmimo.training import (AngleEstimate, chain_gains, channel_cores,
                              composite_losses, design_pass)
from irsmimo.transmission import (fdb_upper_bound, parallel_rate,
                                  power_factors, spectral_efficiency,
                                  water_filling)
from oracle import dense_rate

LN2 = np.log(2.0)


def singular_values(H):
    return np.linalg.svd(H, compute_uv=False)


def gram_rate(H, F, W, power, noise_power):
    """`spectral_efficiency` of a dense channel, precoder and combiner."""
    WH = W.conj().T
    return spectral_efficiency(WH @ W, WH @ H @ F, power, noise_power)


def bridged_gain(cascade, estimates):
    """|w^H H f| of IRS 0 alone reflecting in the design of `estimates`,
    with w and f steered toward its true receive arrival and transmit
    departure, from the `design_pass` blocks."""
    designs = angle_rows(estimates)
    designs[:, [0, 3]] = cascade.angles[:, [0, 3]]
    (tf, whr, _), gains = design_pass(cascade, designs)
    return abs(gains[0] * whr[0, 0] * tf[0, 0])


def test_design_irs_perfect_estimates_hit_exact_composite(small_scenario):
    cascade, _ = small_scenario
    genie = perfect_estimates(cascade)
    assert bridged_gain(cascade, genie) == pytest.approx(
        genie[0].composite_loss, rel=1e-12)


def test_design_irs_quantized_estimates_lose_at_most_hop_products(small_scenario):
    # per-hop pattern losses multiply; the assembled gain cannot fall below
    # their product and cannot exceed the exact composite
    cascade, assets = small_scenario
    truth = perfect_estimates(cascade)[0]
    grid = assets.sweep_grid
    spec = cascade.irs_spec

    def snap(angle):
        return float(grid.directions[np.argmin(np.abs(grid.sines
                                                      - np.sin(angle)))])

    quantized = AngleEstimate(
        tx_departure=truth.tx_departure,
        irs_arrival=snap(truth.irs_arrival),
        irs_departure=snap(truth.irs_departure),
        rx_arrival=truth.rx_arrival,
        composite_loss=float("nan"),
    )
    exact = truth.composite_loss
    gain = bridged_gain(cascade, [quantized])
    # the bridge factor is the pattern at the summed sine offsets of the two
    # IRS-side hops (they share one phase profile)
    offset = ((np.sin(truth.irs_arrival) - np.sin(quantized.irs_arrival))
              - (np.sin(truth.irs_departure) - np.sin(quantized.irs_departure)))
    from irsmimo.arrays import pattern_gain
    bridge = float(pattern_gain(spec.num_elements, offset))
    assert gain <= exact * (1 + 1e-9)
    assert gain == pytest.approx(exact * bridge, rel=1e-9)


def test_estimate_composite_loss_noiseless_exact(small_scenario):
    cascade, _ = small_scenario
    genie = perfect_estimates(cascade)
    value = composite_losses(*design_pass(
        cascade, angle_rows(genie)[None]), [2.0], 0.0, np.ones((1, 1, 10)))
    assert value[0, 0] == pytest.approx(genie[0].composite_loss, rel=1e-10)


def test_estimate_composite_loss_noise_offset_subtracted(small_scenario):
    # with the sigma^2 / P correction the power estimate is unbiased:
    # averaging many pilot blocks should approach the true amplitude
    cascade, _ = small_scenario
    genie = perfect_estimates(cascade)
    truth = genie[0].composite_loss
    noise_power = (truth ** 2) * 0.5  # strong noise relative to the signal
    # 400 estimates, one per power row, of 50 pilots each
    noise = np.random.default_rng(21).standard_normal(
        (400, 1, 50, 2)).view(complex)[..., 0]
    values = composite_losses(*design_pass(
        cascade, angle_rows(genie)[None]), np.ones(400), noise_power, noise)
    assert values.shape == (400, 1)
    assert np.mean(np.square(values)) == pytest.approx(truth ** 2, rel=0.05)


def test_estimate_composite_loss_absorbing_scene_is_noise_floor():
    cascade, _ = scenario_from_angles([(0.2, -0.55, 0.4, -0.1)], beta=0.0)
    genie = perfect_estimates(cascade)
    noise = np.random.default_rng(2).standard_normal(
        (1, 1, 10, 2)).view(complex)[..., 0]
    value = composite_losses(*design_pass(
        cascade, angle_rows(genie)[None]), [1.0], 1e-9, noise)
    assert value < 1e-3


def test_water_filling_single_channel():
    allocation = water_filling([0.3], 1.0, 0.1)
    assert allocation.factors == pytest.approx([1.0], abs=1e-12)


def test_water_filling_equal_gains_split_evenly():
    allocation = water_filling([0.2, 0.2, 0.2, 0.2], 2.0, 0.05)
    assert np.allclose(allocation.factors, 0.25, atol=1e-11)


def test_water_filling_starves_weak_channel_at_low_power():
    allocation = water_filling([1.0, 1e-4], 1e-3, 1.0)
    assert allocation.factors[1] == 0.0
    assert allocation.factors[0] == pytest.approx(1.0, abs=1e-12)


def test_water_filling_objective_matches_grid_search():
    rng = np.random.default_rng(19)
    for _ in range(5):
        gains = rng.uniform(0.05, 2.0, 3)
        power, noise = 1.0, 0.2
        allocation = water_filling(gains, power, noise)
        best = 0.0
        steps = 300
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                s = (i / steps, j / steps, (steps - i - j) / steps)
                best = max(best, parallel_rate(gains, s, power, noise))
        mine = parallel_rate(gains, allocation.factors, power, noise)
        assert mine >= best - 1e-4  # grid resolution limits the oracle


def test_water_filling_kkt_conditions():
    rng = np.random.default_rng(29)
    for _ in range(20):
        gains = rng.uniform(0.01, 3.0, 5)
        power, noise = rng.uniform(0.1, 10), rng.uniform(0.01, 1)
        allocation = water_filling(gains, power, noise)
        assert abs(allocation.factors.sum() - 1.0) <= 1e-10
        level = 1.0 / (LN2 * allocation.water_level)
        floors = noise / (power * gains ** 2)
        active = allocation.factors > 0
        assert np.max(np.abs(floors[active] + allocation.factors[active]
                             - level)) < 1e-8
        assert np.all(floors[~active] >= level - 1e-8)


@st.composite
def water_filling_inputs(draw):
    """1-8 gains whose floors sigma^2 / (P a^2) span 1e-12 .. 1e20."""
    power = 10.0 ** draw(st.floats(-3.0, 3.0))
    noise = 10.0 ** draw(st.floats(-13.0, 0.0))
    log_floors = draw(st.lists(st.floats(-12.0, 20.0), min_size=1, max_size=8))
    gains = [float(np.sqrt(noise / (power * 10.0 ** f))) for f in log_floors]
    return gains, power, noise


@settings(max_examples=300, deadline=None)
@given(water_filling_inputs())
@example(([1e-8], 1e-3, 0.1))
@example(([1.0, 1.0, 1e-5], 1.0, 1.0))
def test_water_filling_kkt_property(case):
    gains, power, noise = case
    gains = np.asarray(gains)
    allocation = water_filling(gains, power, noise)
    factors = allocation.factors
    assert np.all(factors >= 0.0)
    assert abs(factors.sum() - 1.0) <= 1e-12
    # KKT relative to the lowest floor: every active channel fills to one
    # common level, and no idle channel's floor lies below it
    floors = noise / (power * gains ** 2)
    excess = floors - floors.min()
    active = factors > 0
    levels = excess[active] + factors[active]
    level = levels.mean()
    assert np.max(np.abs(levels - level)) <= 1e-12
    assert np.all(excess[~active] >= level - 1e-12)
    assert 1.0 / (LN2 * allocation.water_level) == pytest.approx(
        floors.min() + level, rel=1e-12)


def test_water_filling_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        water_filling([0.0, 0.0], 1.0, 0.1)
    with pytest.raises(ValueError):
        water_filling([], 1.0, 0.1)
    with pytest.raises(ValueError):
        water_filling([1.0], 0.0, 0.1)
    with pytest.raises(ValueError):
        water_filling([1e-200, 0.0], 1.0, 0.1)  # a^2 underflows to zero


def test_gains_whose_squares_underflow_get_zero_factors():
    # a positive gain with no finite floor sigma^2 / (P a^2) is no usable
    # channel: power_factors gives its row zero factors, and water_filling
    # itself refuses it
    gains = np.array([[1e-200, 0.0], [1e-200, 0.3]])
    factors = power_factors(gains, np.array([1.0, 1.0]), 0.1)
    assert np.array_equal(factors, [[0.0, 0.0], [0.0, 1.0]])
    assert fdb_upper_bound([1e-200], 1.0, 0.1) == 0.0


def test_subnormal_p_a2_gets_an_infinite_floor_without_a_warning():
    # P a^2 = 1e-322 is subnormal, so sigma^2 / (P a^2) would overflow: the
    # floor is inf, the row's usable channel takes the whole budget, and
    # numpy writes no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factors = power_factors(np.array([[1e-161, 1.0]]), np.array([1.0]),
                                1e-11)
    assert np.array_equal(factors, [[0.0, 1.0]])


def test_design_blocks_match_dense_steering():
    # the closed-form blocks of `design_pass` against products of steering
    # vectors and the scene's directions, and its chain gains against the
    # states of `irs_control.direction_mode`, for a stack of designs
    cascade, _ = scenario_from_angles([(0.3, -0.2, 0.4, -0.5),
                                       (-0.1, 0.5, -0.4, 0.2),
                                       (0.7, 0.1, -0.2, -0.6)],
                                      num_antennas=12)
    designs = np.random.default_rng(5).uniform(-1.3, 1.3, (4, 3, 4))
    designs[1, 2, 3] = designs[1, 0, 3]   # two streams on one arrival
    (tf, whr, gram), gains = design_pass(cascade, designs)
    _, rx_dir, tx_dir, _ = cascade.bridge_terms
    spec = cascade.irs_spec
    for design, *blocks, g in zip(designs, tf, whr, gram, gains):
        f, w = steered(cascade.tx_spec, cascade.rx_spec, design)
        want = (tx_dir @ f.T, w.conj() @ rx_dir.T, w.conj() @ w.T)
        for got, dense in zip(blocks, want):
            assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()
        states = [direction_mode(spec.num_elements, 0.5, row[1], row[2],
                                 amplitude=cascade.consts.reflection_amplitude)
                  for row in design]
        assert g == pytest.approx(chain_gains(cascade, np.array(
            [t.entries() for t in states])), rel=1e-12)


def test_spectral_efficiency_zero_power():
    est = np.array([(0.3, -0.2, 0.4, -0.5)])
    allocation = water_filling([0.1], 1.0, 0.01)
    f, w = steered(ArraySpec(8), ArraySpec(8), est)
    H = np.eye(8, dtype=complex)
    assert gram_rate(H, f.T * np.sqrt(allocation.factors), w.T, 0.0,
                     0.1) == 0.0


def test_spectral_efficiency_matched_rank_one():
    spec = ArraySpec(16)
    a = 0.07
    est = np.array([(0.3, -0.2, 0.4, -0.5)])
    allocation = water_filling([a], 1.0, 1e-4)
    f, w = steered(spec, spec, est)
    H = a * np.outer(w[0], np.conj(f[0]))
    rate = gram_rate(H, f.T * np.sqrt(allocation.factors), w.T, 1.0, 1e-4)
    assert rate == pytest.approx(np.log2(1 + a ** 2 / 1e-4), rel=1e-9)


def test_spectral_efficiency_shared_combiner_column():
    # two streams combined on one arrival angle make C = sigma^2 W^H W
    # singular; the rate is that of the projection onto W's column space
    spec = ArraySpec(8)
    est = np.array([(0.3, -0.2, 0.4, -0.5), (-0.4, 0.1, 0.2, -0.5)])
    allocation = water_filling([0.2, 0.1], 1.0, 0.01)
    f, w = steered(spec, spec, est)
    F, W = f.T * np.sqrt(allocation.factors), w.T
    rng = np.random.default_rng(43)
    H = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    projected = H.conj().T @ W @ np.linalg.pinv(W.conj().T @ W) @ W.conj().T @ H
    want = np.linalg.slogdet(np.eye(2) + 1.0 / 0.01
                             * F.conj().T @ projected @ F)[1] / LN2
    assert gram_rate(H, F, W, 1.0, 0.01) == pytest.approx(want, rel=1e-9)


def dwarfed_identity():
    """Singular values 1e9, 1e3 and 1e-12 at unit SNR behind identity
    beamformers: 79.73 bits."""
    rng = np.random.default_rng(4)
    u, v = (np.linalg.qr(rng.standard_normal((3, 3))
                         + 1j * rng.standard_normal((3, 3)))[0]
            for _ in range(2))
    s = np.array([1e9, 1e3, 1e-12])
    return u @ np.diag(s) @ v, s


def test_spectral_efficiency_exact_when_the_snr_dwarfs_the_identity():
    # in floating point the identity of I + G G^H is lost beside 1e18, so
    # its determinant would be off by bits; each stream must still add
    # log2(1 + s^2)
    H, s = dwarfed_identity()
    eye = np.eye(3, dtype=complex)
    rate = gram_rate(H, eye, eye, 1.0, 1.0)
    assert rate == pytest.approx(np.sum(np.log2(1 + s ** 2)), rel=1e-9)


def scoring_case(name):
    """(H, F, W, power, noise) of a named corner of the scoring rule."""
    rng = np.random.default_rng(47)
    spec = ArraySpec(16)
    H = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    est = rng.uniform(-1.2, 1.2, (3, 4))
    factors = np.array([0.5, 0.3, 0.2])
    if name == "shared combiner column":
        est[2, 3] = est[0, 3]
    elif name == "inactive stream":
        factors = np.array([0.6, 0.0, 0.4])
    elif name == "near-collinear columns":
        # genie arrivals 1e-3 apart in sine: W^H W has an eigenvalue near
        # 1e-5 of its largest, which the Gram resolves
        est[1, 3] = np.arcsin(np.sin(est[0, 3]) + 1e-3)
    else:
        H, _ = dwarfed_identity()
        eye = np.eye(3, dtype=complex)
        return H, eye, eye, 1.0, 1.0
    f, w = steered(spec, spec, est)
    return H, f.T * np.sqrt(factors), w.T, 1.0, 0.05


@pytest.mark.parametrize("name", ["shared combiner column", "inactive stream",
                                  "near-collinear columns",
                                  "snr dwarfs the identity"])
def test_spectral_efficiency_matches_the_dense_route(name):
    # the rate from the L x L Gram and cross term against a dense SVD of
    # the combiner and of the projected channel
    H, F, W, power, noise = scoring_case(name)
    want = dense_rate(H, F, W, power, noise)
    assert gram_rate(H, F, W, power, noise) == pytest.approx(want, rel=1e-12)
    if name == "inactive stream":
        # the inactive stream's combiner column drops out with it
        kept = [0, 2]
        assert want == pytest.approx(dense_rate(H, F[:, kept], W[:, kept],
                                                power, noise), rel=1e-12)
        # as a live stream of almost no power, it would widen the combining
        alive = F.copy()
        alive[:, 1] = 1e-10
        assert want < dense_rate(H, alive, W, power, noise)


def test_spectral_efficiency_close_to_parallel_form():
    cascade, _ = scenario_from_angles([(0.2, -0.55, 0.4, -0.1),
                                       (-0.6, 0.3, -0.2, 0.5),
                                       (0.9, -0.1, 0.6, -0.8)],
                                      num_antennas=32, num_beams=64)
    genie = perfect_estimates(cascade)
    gains = np.array([g.composite_loss for g in genie])
    power, noise = 0.1, 1e-11
    allocation = water_filling(gains, power, noise)
    exact = _hybrid_rates(*design_pass(cascade, angle_rows(genie)),
                          allocation.factors, power, noise)
    reduced = parallel_rate(gains, allocation.factors, power, noise)
    assert exact == pytest.approx(reduced, rel=0.05)


def test_fdb_rank_one():
    rng = np.random.default_rng(33)
    u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    H = np.outer(u, np.conj(v))
    top = np.linalg.norm(u) * np.linalg.norm(v)
    assert fdb_upper_bound(singular_values(H), 2.0, 0.5) == pytest.approx(
        np.log2(1 + 2.0 * top ** 2 / 0.5), rel=1e-10)


def test_fdb_equals_svd_design_rate():
    rng = np.random.default_rng(37)
    H = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    power, noise = 1.5, 0.2
    sv = singular_values(H)
    allocation = water_filling(sv, power, noise)
    assert fdb_upper_bound(sv, power, noise) == pytest.approx(
        parallel_rate(sv, allocation.factors, power, noise), rel=1e-12)


def test_fdb_dominates_hybrid_designs():
    rng = np.random.default_rng(41)
    spec = ArraySpec(16)
    for _ in range(1000):
        angles = rng.uniform(-1.2, 1.2, 4)
        a = rng.uniform(0.01, 1.0)
        est = angles[None]
        allocation = water_filling([a], 1.0, 0.01)
        f, w = steered(spec, spec, est)
        H = (rng.standard_normal((16, 16))
             + 1j * rng.standard_normal((16, 16))) / np.sqrt(16)
        hybrid = gram_rate(H, f.T * np.sqrt(allocation.factors), w.T, 1.0,
                           0.01)
        assert fdb_upper_bound(singular_values(H), 1.0, 0.01) >= hybrid - 1e-9


def test_fdb_zero_channel_is_zero_rate():
    assert fdb_upper_bound(singular_values(np.zeros((4, 4))), 1.0, 0.1) == 0.0
    # in a stack, a zero channel scores 0 beside a live one, at every power
    live = singular_values(np.diag([2.0, 1.0, 1e-20]))
    powers = np.array([0.5, 1.0, 0.0])
    stacked = fdb_upper_bound([np.zeros(3), live], powers, 0.1)
    assert stacked.shape == (2, 3)
    assert np.all(stacked[0] == 0.0)
    assert np.all(stacked[1] == fdb_upper_bound(live, powers, 0.1))
    assert stacked[1, 2] == 0.0 < stacked[1, 0]
    with pytest.raises(ValueError):
        fdb_upper_bound(2.0, 1.0, 0.1)  # a number, not singular values


angle = st.floats(-1.3, 1.3)


@settings(max_examples=60, deadline=None)
@given(paths=st.lists(st.tuples(angle, angle, angle, angle,
                                st.floats(2.0, 10.0), st.floats(2.0, 10.0)),
                      min_size=1, max_size=3),
       shared=st.sampled_from([None, 0, 3]),
       num_antennas=st.sampled_from([8, 12, 16]),
       snr_db=st.floats(-10.0, 30.0), seed=st.integers(0, 2 ** 31))
@example(paths=[(0.2, -0.55, 0.4, -0.1, 5.0, 6.0),
                (-0.3, 0.25, -0.45, 0.15, 4.0, 7.0)],
         shared=3, num_antennas=8, snr_db=10.0, seed=1)
@example(paths=[(0.2, -0.55, 0.4, -0.1, 5.0, 6.0),
                (-0.3, 0.25, -0.45, 0.15, 4.0, 7.0),
                (0.6, 0.1, -0.2, 0.5, 3.0, 3.0)],
         shared=0, num_antennas=12, snr_db=25.0, seed=2)
# two arrivals 2^-23 and 1e-7 apart in sine: the combiner's singular value
# there is about 4e-7 of the largest, which the scoring must keep
@example(paths=[(0.0, 0.0, 0.0, 0.0, 2.0, 2.0),
                (0.0, 0.0, 0.0, 1.192092896e-07, 2.0, 2.0),
                (1.25, 0.0, 0.0, 0.0, 2.0, 2.0)],
         shared=None, num_antennas=8, snr_db=21.0, seed=0)
@example(paths=[(0.0, 0.0, 0.0, 0.0, 2.0, 2.0),
                (0.0, 0.0, 0.0, 1e-07, 2.0, 2.0),
                (1.0, 0.0, 0.0, 0.0, 2.0, 2.0)],
         shared=None, num_antennas=8, snr_db=24.0, seed=0)
def test_factored_channel_matches_dense(paths, shared, num_antennas, snr_db,
                                        seed):
    # IRS 1 may share IRS 0's transmit departure (0) or receive arrival (3),
    # which makes that QR factor rank-deficient, and then the genie's
    # combiner W^H W singular
    angles = [list(path[:4]) for path in paths]
    if shared is not None and len(angles) > 1:
        angles[1][shared] = angles[0][shared]
    cascade, _ = scenario_from_angles([tuple(a) for a in angles],
                                      [path[4:] for path in paths],
                                      num_antennas=num_antennas,
                                      num_irs_elements=8)
    genie = perfect_estimates(cascade)
    rng = np.random.default_rng(seed)
    states = [[direction_mode(8, 0.5, a[1], a[2]) for a in angles],
              [random_mode(8, rng) for _ in paths]]
    cores = channel_cores(cascade, chain_gains(
        cascade, np.array([[t.entries() for t in s] for s in states])))
    channels = np.array([assemble(cascade, s) for s in states])
    sv = np.linalg.svd(cores, compute_uv=False)
    dense_sv = singular_values(channels)
    top = dense_sv[:, :1]
    assert np.allclose(sv, dense_sv[:, :len(paths)], rtol=0, atol=1e-12 * top)
    assert np.all(dense_sv[:, len(paths):] <= 1e-12 * top)

    gains = np.array([g.composite_loss for g in genie])
    power = 1.0
    noise = power * gains.max() ** 2 / 10 ** (snr_db / 10)
    powers = np.array([power, 10 * power])
    assert fdb_upper_bound(sv, powers, noise) == pytest.approx(
        np.array([fdb_upper_bound(d, powers, noise) for d in dense_sv]),
        rel=1e-12)
    factors = water_filling(gains, power, noise).factors
    f, w = steered(cascade.tx_spec, cascade.rx_spec, angle_rows(genie))
    assert _hybrid_rates(*design_pass(cascade, angle_rows(genie)), factors,
                         power, noise) == pytest.approx(
        dense_rate(channels[0], f.T * np.sqrt(factors), w.T, power, noise),
        rel=1e-12)


def test_fdb_cutoff_is_relative_to_each_row():
    # a singular value above 1e-14 of its own row's largest counts, one at
    # or below it scores as a zero gain; at this SNR both would be active
    power, noise = 1e32, 1.0
    stacked = fdb_upper_bound([[1.0, 2e-14], [1.0, 5e-15], [1e3, 2e-11],
                               [1e3, 5e-12]], power, noise)
    alone = fdb_upper_bound([1.0], power, noise)
    assert stacked[0] > alone and stacked[1] == alone
    assert stacked[2] > stacked[3] == fdb_upper_bound([1e3], power, noise)
