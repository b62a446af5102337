import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import angle_rows, dense_hops, scenario_from_angles
from irsmimo import training
from oracle import reference_pass
from irsmimo.arrays import (ArraySpec, beam_gain, dirichlet, element_phases,
                            grid_directions, omni, pattern_gain, steering)
from irsmimo.channel import assemble
from irsmimo.codebook import build_codebook
from irsmimo.irs_control import direction_mode, return_mode
from irsmimo.training import (MeasurementModel, chain_gains, channel_cores,
                              composite_losses, cooperative_estimate,
                              design_pass,
                              estimate_angles, hierarchical_search,
                              measure_power, misalignment_curve, noise_tape,
                              _descend, _sweep_responses)


def exhaustive_leaf(codebook, gain_fn):
    gains = [gain_fn(codebook.beam(codebook.num_stages, i))
             for i in range(codebook.num_leaves)]
    return int(np.argmax(gains))


def test_measure_power_noiseless_aligned_link():
    spec = ArraySpec(8)
    beam = steering(spec, 0.3)
    H = 0.25 * np.outer(beam.coefficients, np.conj(beam.coefficients))
    model = MeasurementModel(transmit_power=2.0, noise_power=0.0)
    assert measure_power(beam, beam, H, model,
                         rng=np.random.default_rng(0)) == pytest.approx(
        2.0 * 0.25 ** 2, rel=1e-12)


def test_measure_power_noise_only_mean():
    spec = ArraySpec(4)
    H = np.zeros((4, 4))
    model = MeasurementModel(transmit_power=0.0, noise_power=0.3)
    value = measure_power(omni(spec), omni(spec), H, model,
                          rng=np.random.default_rng(1), trials=200000)
    assert value == pytest.approx(0.3, rel=0.02)


def test_measure_power_seed_reproducibility():
    spec = ArraySpec(4)
    H = np.eye(4, dtype=complex)
    model = MeasurementModel(transmit_power=1.0, noise_power=0.1)
    rng_a, rng_b = np.random.default_rng(77), np.random.default_rng(77)
    a = [measure_power(omni(spec), omni(spec), H, model, rng=rng_a)
         for _ in range(3)]
    b = [measure_power(omni(spec), omni(spec), H, model, rng=rng_b)
         for _ in range(3)]
    assert a == b
    assert len(set(a)) == 3  # one generator draws fresh noise on every call


def test_measure_power_dimension_mismatch():
    model = MeasurementModel(transmit_power=1.0, noise_power=0.0)
    with pytest.raises(ValueError):
        measure_power(omni(ArraySpec(4)), omni(ArraySpec(4)),
                      np.zeros((4, 8)), model, rng=np.random.default_rng(0))


@pytest.mark.parametrize("branching,num_leaves", [(2, 64), (3, 96)])
def test_noiseless_search_matches_exhaustive(branching, num_leaves):
    spec = ArraySpec(32)
    book = build_codebook(spec, branching, num_leaves)
    rng = np.random.default_rng(31)
    for angle in rng.uniform(-np.pi / 2, 3 * np.pi / 2, 300):
        def oracle(beam, angle=angle):
            return beam_gain(beam, spec, angle) ** 2
        assert hierarchical_search(book, oracle) == exhaustive_leaf(book, oracle)


def test_single_stage_tree_is_exhaustive_scan():
    spec = ArraySpec(4)
    book = build_codebook(spec, 4, 4)
    assert book.num_stages == 1
    def oracle(beam):
        return beam_gain(beam, spec, 0.52) ** 2
    assert hierarchical_search(book, oracle) == exhaustive_leaf(book, oracle)


def test_search_measurement_count_accounts_for_nulls():
    # sin(1.2) = 0.93 lies in leaf 21 of 22: the path runs through the padded
    # end of the tree, with 3 live children at stage 1, 2 at stage 2, 1 at 3
    spec = ArraySpec(16)
    book = build_codebook(spec, 3, 22)
    measured = []

    def measure(stage, children):
        live = [c for c in children[0] if book.live[stage][c]]
        measured.extend((stage, c) for c in live)
        return np.array([[beam_gain(book.beam(stage, c), spec, 1.2) ** 2
                          if c in live else 0.0 for c in children[0]]])

    leaves, counts = _descend(book, measure)
    leaf, count = leaves[0], counts[0]
    assert count == len(measured) == 3 + 2 + 1
    assert all(book.beam(stage, c) is not None for stage, c in measured)
    assert leaf == 21 == hierarchical_search(
        book, lambda beam: beam_gain(beam, spec, 1.2) ** 2)


@settings(max_examples=150, deadline=None)
@given(num_elements=st.integers(2, 48), ratio=st.floats(1.5, 4.0),
       branching=st.sampled_from([2, 3, 4]),
       angle=st.floats(-np.pi / 2, 3 * np.pi / 2))
def test_noiseless_search_matches_exhaustive_property(num_elements, ratio,
                                                      branching, angle):
    # K = ceil(ratio N) leaves, null-padded trees included. An angle on a cell
    # edge (or on the +-1 seam, where the first and last leaves are
    # neighbours) ties two leaves, so it is left out. Grids with K < 1.3 N
    # break this property; see the near-square test below.
    num_leaves = int(np.ceil(ratio * num_elements))
    edge = (np.sin(angle) + 1.0) * num_leaves / 2.0
    assume(abs(edge - round(edge)) > 1e-6)
    spec = ArraySpec(num_elements)
    book = build_codebook(spec, branching, num_leaves)

    def oracle(beam):
        return beam_gain(beam, spec, angle) ** 2

    assert hierarchical_search(book, oracle) == exhaustive_leaf(book, oracle)


@pytest.mark.xfail(strict=True, reason=(
    "known miss: on near-square grids (K below about 1.3 N) a sibling's "
    "projection wide beam can outshine the wide beam over the best leaf; "
    "a scan of N <= 64 misses up to 40% of angles at K = N"))
def test_noiseless_search_near_square_grid():
    spec = ArraySpec(15)
    book = build_codebook(spec, 2, 15)

    def oracle(beam):
        return beam_gain(beam, spec, 0.5) ** 2

    assert hierarchical_search(book, oracle) == exhaustive_leaf(book, oracle)


@settings(max_examples=40, deadline=None)
@given(num_antennas=st.integers(4, 20), extra=st.integers(0, 20),
       branching=st.sampled_from([2, 3, 4]),
       angles=st.lists(st.tuples(*[st.floats(-1.3, 1.3)] * 4), min_size=1,
                       max_size=3),
       snr_db=st.floats(-20.0, 50.0), repetitions=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_phase2_matches_scalar_search_draw_for_draw(num_antennas, extra,
                                                    branching, angles, snr_db,
                                                    repetitions, seed):
    # the whole engine, every (power, IRS) pair, against the per-pilot
    # reference reading the same tape positions
    cascade, assets = scenario_from_angles(
        angles, num_antennas=num_antennas, num_irs_elements=8,
        sweep_beams=16, num_beams=num_antennas + extra, branching=branching)
    level = np.max(np.abs(_sweep_responses(cascade, assets))) ** 2
    noise_power = level * 10.0 ** (-snr_db / 10.0)
    powers = np.array([1.0, 10.0])
    tape = noise_tape(cascade, assets, repetitions,
                      [np.random.default_rng((seed, p)) for p in range(2)])
    got, search = estimate_angles(cascade, assets, powers, noise_power, tape)
    losses = composite_losses(*design_pass(cascade, got), powers,
                              noise_power, tape.pilots)
    for p, power in enumerate(powers):
        want, pilots, want_losses = reference_pass(cascade, assets, power,
                                                   noise_power, tape, p)
        assert np.array_equal(got[p], want)
        assert search[p] == pilots
        assert losses[p] == pytest.approx(
            want_losses, rel=1e-9, abs=1e-6 * np.sqrt(noise_power / power))


def test_single_power_calls_read_one_tape_row(small_scenario):
    # cooperative_estimate and then the composite-loss pilots of IRS 0, 1,
    # ... on one generator read the same numbers as one tape row
    cascade, assets = scenario_from_angles([(0.2, -0.55, 0.4, -0.1),
                                            (-0.3, 0.25, -0.45, 0.15)])
    model = MeasurementModel(transmit_power=1e-3, noise_power=1e-12)
    tape = noise_tape(cascade, assets, 7, [np.random.default_rng(11)])
    angles, search = estimate_angles(cascade, assets, [model.transmit_power],
                                     model.noise_power, tape)
    losses = composite_losses(*design_pass(cascade, angles),
                              [model.transmit_power], model.noise_power,
                              tape.pilots)
    rng = np.random.default_rng(11)
    estimates, slots = cooperative_estimate(cascade, assets, model, rng)
    assert [tuple(vars(e).values())[:4] for e in estimates] == [
        tuple(row) for row in angles[0]]
    assert slots.search == search[0]
    pilots = rng.standard_normal((1, 2, 7, 2)).view(complex)[..., 0]
    assert composite_losses(
        *design_pass(cascade, angle_rows(estimates)[None]),
        [model.transmit_power], model.noise_power, pilots) == pytest.approx(
        losses, rel=1e-12)


def test_direction_channels_match_assembled_channels():
    # the closed-form chain gains of `design_pass` against the states of
    # `irs_control.direction_mode`, and the channel cores of those gains
    # against the full assembly, for a stack of IRS states
    cascade, _ = scenario_from_angles([(0.2, -0.55, 0.4, -0.1),
                                       (-0.3, 0.25, -0.45, 0.15)])
    spec = cascade.irs_spec
    sines = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 2, 2))
    thetas = [[direction_mode(spec.num_elements, 0.5, *np.arcsin(s),
                              amplitude=cascade.consts.reflection_amplitude)
               for s in pair] for pair in sines]
    gains = chain_gains(cascade, np.array([[t.entries() for t in pair]
                                           for pair in thetas]))
    designs = np.zeros((3, 2, 4))
    designs[..., 1:3] = np.arcsin(sines)
    assert design_pass(cascade, designs)[1] == pytest.approx(gains,
                                                             rel=1e-12)
    cores = channel_cores(cascade, gains)
    assert cores.shape == (3, 2, 2)
    for core, pair in zip(cores, thetas):
        want = np.linalg.svd(assemble(cascade, pair), compute_uv=False)
        assert np.allclose(np.linalg.svd(core, compute_uv=False), want[:2],
                           rtol=0.0, atol=1e-12 * want[0])
        assert np.all(want[2:] <= 1e-12 * want[0])


@settings(max_examples=30, deadline=None)
@given(num_elements=st.integers(1, 512), ratio=st.floats(1.0, 4.0))
@example(num_elements=512, ratio=4.0)
@example(num_elements=3, ratio=1.0)
def test_sweep_phasors_are_the_return_mode_phases(num_elements, ratio):
    # the return mode on each sweep direction is exp(j * element_phases) at
    # -2 times the sweep sine, entry by entry, and its element sum is the
    # D_Ni(-2 x_k) that the closed-form sweep evaluates in place of it
    grid = grid_directions(num_elements,
                           max(2, int(round(ratio * num_elements))))
    want = np.exp(1j * element_phases(num_elements, 0.5,
                                      -2.0 * grid.sines[:, None]))
    got = np.array([return_mode(num_elements, 0.5, float(angle)).entries()
                    for angle in grid.directions])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12
    assert np.abs(got.sum(axis=1)
                  - dirichlet(num_elements, -2.0 * grid.sines)).max() \
        <= 1e-12 * num_elements


@settings(max_examples=30, deadline=None)
@given(num_elements=st.integers(1, 512), ratio=st.floats(1.0, 4.0))
@example(num_elements=16, ratio=2.0)
@example(num_elements=512, ratio=4.0)
@example(num_elements=3, ratio=1.0)
def test_sweep_side_matches_dense_roundtrip(num_elements, ratio):
    # the closed-form sweep must equal the literal e1^T (eta G A^T Theta A) e1
    # of each terminal, A its hop (the receive terminal's uplink is N^T) and
    # Theta the return mode on each sweep direction. IRS 1 arrives exactly
    # on a sweep sine, so its aligned slot is the kernel's x = 0 limit and
    # others can be exact nulls, where both sides are rounding noise: the
    # floor is 1e-12 of the aligned response beta eta G N_i |A_00|^2
    beams = max(2, int(round(ratio * num_elements)))
    grid = grid_directions(num_elements, beams)
    on_grid = float(grid.directions[beams // 3])
    cascade, assets = scenario_from_angles(
        [(0.2, -0.55, 0.4, -0.1), (-0.3, on_grid, 1.1, 0.15)],
        num_irs_elements=num_elements, sweep_beams=beams)
    consts = cascade.consts
    scale = cascade.eta * consts.tx_gain * consts.rx_gain
    thetas = np.array([return_mode(num_elements, 0.5, float(angle)).entries()
                       for angle in assets.sweep_grid.directions])
    responses = _sweep_responses(cascade, assets)
    assert responses.shape == (2, 2, beams)
    for irs in range(2):
        incident, departing = dense_hops(cascade, irs)
        for side, hop in enumerate((incident, departing.T)):
            roundtrip = scale * (hop[:, 0] * thetas) @ hop[:, 0]
            peak = scale * num_elements * abs(hop[0, 0]) ** 2
            assert responses[irs, side] == pytest.approx(
                roundtrip, rel=1e-10, abs=1e-12 * peak)
    # the limit D = N is exactly real; an offset of one ulp would not be
    aligned = responses[1, 0, beams // 3]
    assert aligned.imag == 0.0
    assert aligned.real == pytest.approx(
        scale * num_elements * cascade.bridge_terms[3][1, 0].real ** 2,
        rel=1e-14)


def circular_sine_gap(estimate, truth):
    gap = abs(np.sin(estimate) - np.sin(truth)) % 1.0
    return min(gap, 1.0 - gap)


def theta_equivalent(spec, pair_a, pair_b, tol=1e-9):
    ta = direction_mode(spec.num_elements, 0.5, *pair_a)
    tb = direction_mode(spec.num_elements, 0.5, *pair_b)
    delta = np.mod(ta.phases - tb.phases, 2 * np.pi)
    delta = np.minimum(delta, 2 * np.pi - delta)
    return float(np.max(delta)) <= tol


def estimate_one(cascade, assets, model, seed):
    """The single IRS's estimate of a one-IRS scene."""
    estimates, _ = cooperative_estimate(cascade, assets, model,
                                        rng=np.random.default_rng(seed))
    return estimates[0]


def test_phase1_noiseless_recovers_angles_up_to_twin():
    rng = np.random.default_rng(8)
    model = MeasurementModel(transmit_power=1.0, noise_power=0.0)
    for _ in range(25):
        truth = tuple(rng.uniform(-1.2, 1.2, 4))
        cascade, assets = scenario_from_angles([truth])
        est = estimate_one(cascade, assets, model, 0)
        arrival, departure = est.irs_arrival, est.irs_departure
        cell = 1.0 / assets.sweep_grid.num_beams
        assert circular_sine_gap(arrival, truth[1]) <= cell + 1e-12
        assert circular_sine_gap(departure, truth[2]) <= cell + 1e-12
        # the estimated pair drives the same IRS state as the sine-nearest pair
        grid = assets.sweep_grid
        nearest = (float(grid.directions[np.argmin(abs(grid.sines - np.sin(truth[1])))]),
                   float(grid.directions[np.argmin(abs(grid.sines - np.sin(truth[2])))]))
        assert theta_equivalent(cascade.irs_spec, (arrival, departure),
                                nearest)


def test_phase1_angles_are_grid_members(small_scenario):
    model = MeasurementModel(transmit_power=1.0, noise_power=1e-3)
    est = estimate_one(*small_scenario, model, 5)
    sines = small_scenario[1].sweep_grid.sines
    assert np.min(np.abs(sines - np.sin(est.irs_arrival))) < 1e-12
    assert np.min(np.abs(sines - np.sin(est.irs_departure))) < 1e-12


def test_phase1_noise_dominated_still_returns_grid_member(small_scenario):
    model = MeasurementModel(transmit_power=1e-12, noise_power=1e3)
    seen = set()
    for seed in range(12):
        est = estimate_one(*small_scenario, model, seed)
        seen.add(round(float(np.sin(est.irs_arrival)), 9))
    assert len(seen) > 1  # noise-dominated sweeps scatter across the grid


def test_phase2_noiseless_finds_sine_nearest_leaves():
    rng = np.random.default_rng(13)
    model = MeasurementModel(transmit_power=1.0, noise_power=0.0)
    for _ in range(10):
        truth = tuple(rng.uniform(-1.2, 1.2, 4))
        cascade, assets = scenario_from_angles([truth])
        est = estimate_one(cascade, assets, model, 0)
        grid = assets.tx_codebook.leaf_grid
        assert abs(np.sin(est.rx_arrival) - np.sin(truth[3])) <= 1 / grid.num_beams + 1e-12
        assert abs(np.sin(est.tx_departure) - np.sin(truth[0])) <= 1 / grid.num_beams + 1e-12


def test_phase2_total_with_misaligned_phase1(small_scenario):
    # a tape that drowns one far-off sweep slot on both sides makes phase 1
    # bridge the wrong pair; phase 2 degrades but still returns leaves and a
    # full count
    cascade, assets = small_scenario
    tape = noise_tape(cascade, assets, 1, [np.random.default_rng(0)])
    for field in vars(tape).values():
        field[...] = 0.0
    grid = assets.sweep_grid
    bad = int(np.argmax(np.abs(grid.sines - np.sin(0.9))))
    tape.sweep[0, 0, :, bad] = 1e9
    noise_power = np.max(np.abs(_sweep_responses(cascade, assets))) ** 2
    angles, search = estimate_angles(cascade, assets, [1.0], noise_power,
                                     tape)
    assert angles[0, 0, 1] == grid.directions[bad]
    book = assets.tx_codebook
    grid = book.leaf_grid.directions
    assert angles[0, 0, 0] in grid and angles[0, 0, 3] in grid
    assert search[0] == 2 * book.branching * book.num_stages


def test_cooperative_estimate_deterministic(small_scenario):
    model = MeasurementModel(transmit_power=1.0, noise_power=1e-6)
    est_a, slots_a = cooperative_estimate(*small_scenario, model,
                                          rng=np.random.default_rng(42))
    est_b, slots_b = cooperative_estimate(*small_scenario, model,
                                          rng=np.random.default_rng(42))
    assert est_a == est_b
    assert slots_a == slots_b


def test_cooperative_estimate_slot_accounting():
    cascade, assets = scenario_from_angles([(0.2, -0.55, 0.4, -0.1),
                                            (-0.3, 0.25, -0.45, 0.15)])
    model = MeasurementModel(transmit_power=1.0, noise_power=0.0)
    _, slots = cooperative_estimate(cascade, assets, model,
                                    rng=np.random.default_rng(0))
    k_r = assets.sweep_grid.num_beams
    assert slots.irs_sweep == 2 * k_r * 2
    assert slots.parity == 2 * 2
    per_search = assets.tx_codebook.branching * assets.tx_codebook.num_stages
    assert 0 < slots.search <= 2 * 2 * per_search


def test_misalignment_curve_limits_and_trends():
    snrs = [-10.0, 0.0, 10.0, 30.0]
    curve = misalignment_curve(32, 64, snrs, trials=4000,
                               rng=np.random.default_rng(3))
    mps = [mp for _, mp in curve]
    assert mps[-1] == 0.0
    assert all(b <= a + 0.02 for a, b in zip(mps, mps[1:]))
    wider = misalignment_curve(32, 96, snrs, trials=4000,
                               rng=np.random.default_rng(3))
    assert all(w >= m - 0.02 for (_, w), (_, m) in zip(wider, curve))


def test_misalignment_curve_seed_reproducible():
    snrs = [0.0, 6.0]
    a = misalignment_curve(16, 32, snrs, trials=500,
                           rng=np.random.default_rng(9))
    b = misalignment_curve(16, 32, snrs, trials=500,
                           rng=np.random.default_rng(9))
    assert a == b


def complex_misalignment(num_elements, num_beams, snr_grid_db, trials, rng):
    """The complex-arithmetic mp loop that misalignment_curve replaced.

    Per SNR: (snr, mp, trials whose two strongest powers tie within 1e-12
    relative), the ties being the only trials whose argmax may flip.
    """
    grid = grid_directions(num_elements, num_beams)
    sines = np.sin(rng.uniform(-np.pi / 2.0, 3.0 * np.pi / 2.0, size=trials))
    gains = pattern_gain(num_elements, sines[:, None] - grid.sines[None, :])
    parts = np.sqrt(0.5) * rng.standard_normal((trials, 2, num_beams))
    noise = parts[:, 0] + 1j * parts[:, 1]
    rows = []
    for snr_db in snr_grid_db:
        amp = np.sqrt(10.0 ** (snr_db / 10.0) * num_elements)
        powers = np.abs(amp * gains + noise) ** 2
        diff = np.abs(sines - grid.sines[np.argmax(powers, axis=1)])
        missed = np.minimum(diff, 2.0 - diff) > 2.0 / num_beams * (1.0 + 1e-12)
        top = np.sort(powers, axis=1)[:, -2:]
        ties = np.count_nonzero(top[:, 1] - top[:, 0] <= 1e-12 * top[:, 1])
        rows.append((float(snr_db), float(np.mean(missed)), ties))
    return rows


@pytest.mark.parametrize("n,k,seed", [(8, 8, 1), (16, 32, 2), (32, 64, 3),
                                      (32, 96, 4), (64, 128, 5)])
def test_misalignment_curve_matches_complex_arithmetic(n, k, seed):
    snrs = np.arange(-10.0, 22.0, 2.0)
    trials = 1500
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    curve = misalignment_curve(n, k, snrs, trials=trials, rng=rng)
    reference = complex_misalignment(n, k, snrs, trials, rng_ref)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    for (snr, mp), (snr_ref, mp_ref, ties) in zip(curve, reference, strict=True):
        assert snr == snr_ref
        assert round(abs(mp - mp_ref) * trials) <= ties


def full_array_misalignment(num_elements, num_beams, snr_grid_db, trials,
                            rng):
    """The full-array real-arithmetic mp loop that the trial blocks of
    misalignment_curve replaced: every (trials, K) term at once, then one
    pass over them per SNR."""
    grid = grid_directions(num_elements, num_beams)
    sines = np.sin(rng.uniform(-np.pi / 2.0, 3.0 * np.pi / 2.0, size=trials))
    gains = pattern_gain(num_elements, sines[:, None] - grid.sines[None, :])
    real, imag = np.moveaxis(
        np.sqrt(0.5) * rng.standard_normal((trials, 2, num_beams)), 1, 0)
    square, cross = gains * gains, 2.0 * gains * real
    floor = real ** 2 + imag ** 2
    curve = []
    for snr_db in snr_grid_db:
        amp = np.sqrt(10.0 ** (snr_db / 10.0) * num_elements)
        powers = amp * amp * square + amp * cross + floor
        diff = np.abs(sines - grid.sines[np.argmax(powers, axis=1)])
        circular = np.minimum(diff, 2.0 - diff)
        missed = circular > 2.0 / num_beams * (1.0 + 1e-12)
        curve.append((float(snr_db), float(np.mean(missed))))
    return curve


@pytest.mark.parametrize("n,ratio", [(16, 1), (16, 3), (32, 1), (32, 3)])
def test_misalignment_blocks_equal_the_full_array_loop(n, ratio):
    # trial blocks change where the terms live, not one bit of the curve or
    # of the generator: one trial, part of a block, exactly one block, a
    # ragged tail after several blocks and a whole number of blocks
    k = ratio * n
    rows = training._BLOCK_VALUES // k
    snrs = np.arange(-10.0, 22.0, 2.0)
    for trials in (1, rows - 1, rows, 3 * rows + 7, 4 * rows):
        seed = 1000 * n + trials
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        curve = misalignment_curve(n, k, snrs, trials=trials, rng=rng)
        assert curve == full_array_misalignment(n, k, snrs, trials, rng_ref)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("block_values", [1, 1000, 1 << 20])
def test_misalignment_curve_does_not_depend_on_the_block_size(
        monkeypatch, block_values):
    # trial-major draws: a block of one trial, ragged blocks and one block
    # holding every trial read the same stream as the default blocks
    snrs = np.arange(-10.0, 22.0, 2.0)
    want = misalignment_curve(32, 96, snrs, trials=700,
                              rng=np.random.default_rng(8))
    monkeypatch.setattr(training, "_BLOCK_VALUES", block_values)
    assert misalignment_curve(32, 96, snrs, trials=700,
                              rng=np.random.default_rng(8)) == want


class ScriptedDraws:
    """Stands in for the generator of `misalignment_curve`, which calls only
    `uniform` (the angles) and `standard_normal(out=...)` (each block's
    noise): each call returns the next array given."""

    def __init__(self, angles, *normals):
        self.angles, self.normals = angles, list(normals)

    def uniform(self, low, high, size):
        return np.array(np.reshape(self.angles, size), dtype=float)

    def standard_normal(self, *, out):
        out[...] = np.reshape(self.normals.pop(0), out.shape)
        return out


def test_misalignment_power_sum_keeps_its_order():
    # N = 1 makes every gain exactly 1 and 0 dB makes amp 1, so the noise
    # alone picks the leaf: beam power (1 + cross) + floor, cross = 2 re and
    # floor = re^2 + im^2, both parts scaled by sqrt(1/2). Leaf 1 holds the
    # true angle and no real noise. Leaf 6 ties it to the last bit in that
    # order and beats it in the order (1 + floor) + cross; a tie goes to the
    # lower index, so only the first order finds the true leaf.
    k, scale = 8, np.sqrt(0.5)
    real, imag = np.full(k, -np.sqrt(2.0)), np.zeros(k)   # powers near 0
    real[1], imag[1] = 0.0, 0.28536943538179943
    real[6], imag[6] = -0.099, 0.593
    noise = scale * real
    cross, floor = 2.0 * noise, noise ** 2 + (scale * imag) ** 2
    assert (1.0 + cross[6]) + floor[6] == 1.0 + floor[1]
    assert (1.0 + floor[6]) + cross[6] > 1.0 + floor[1]
    draws = ScriptedDraws(grid_directions(1, k).directions[1],
                          np.stack([real, imag]))
    assert misalignment_curve(1, k, [0.0], 1, draws) == [(0.0, 0.0)]
    assert not draws.normals


def test_misalignment_bound_lets_a_lower_far_leaf_win_a_tie():
    # N = 1 makes every gain exactly 1, so 0 dB makes a = 1 and -inf dB makes
    # a = 0. The trial sits on leaf 5, which brackets it, and far leaf 1
    # draws the same noise, so the two tie to the last bit. Leaf 1 also holds
    # the largest cross and floor terms (the pair's cross terms read 0), so
    # without its slack the bound is their power: the argmax must run and
    # the lower index wins, a miss. With no noise at -inf dB every power and
    # the bound are exactly 0, with no slack; leaf 0 must win, a miss.
    k = 8
    real, imag = np.full(k, -0.5), np.zeros(k)
    real[[1, 5]], imag[[1, 5]] = 0.0, 0.6
    angle = grid_directions(1, k).directions[5]
    for snr, normals in ((0.0, [real, imag]), (-np.inf, np.zeros((2, k)))):
        draws = ScriptedDraws(angle, normals)
        assert misalignment_curve(1, k, [snr], 1, draws) == [(snr, 1.0)]
        assert not draws.normals


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 192, 512, 1024])
def test_block_gains_match_pattern_gain(n):
    # the phasor products agree with pattern_gain at every leaf, for sines at
    # the +-1 seam and on leaves too; at N = 1 every gain is exactly 1
    for k in sorted({n, 2 * n + 1, 4 * n}):
        leaf_sines = grid_directions(n, k).sines
        half = np.pi / 2 * leaf_sines
        leaf = np.array([[np.cos(half * n), np.sin(half * n)],
                         [n * np.cos(half), n * np.sin(half)]])
        angles = np.random.default_rng(n + k).uniform(-np.pi / 2, 1.5 * np.pi, 64)
        sines = np.concatenate([[-1.0, 1.0], leaf_sines[[0, k // 2, -1]],
                                np.sin(angles)])
        out = np.empty((2, len(sines), k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair, flat, near = training._block_gains(n, sines, leaf_sines,
                                                     leaf, out)
        want = pattern_gain(n, sines[:, None] - leaf_sines)
        diff = np.abs(sines - leaf_sines[pair])
        assert np.all(np.minimum(diff, 2.0 - diff) <= 2.0 / k * (1 + 1e-12))
        assert np.all(out[0].take(flat) == 0.0)
        assert np.array_equal(near, want.take(flat))
        out[0].put(flat, near)
        assert np.abs(out[0] - want).max() <= 1e-12
        assert n > 1 or np.all(out[0] == 1.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 128), ratio=st.floats(1.0, 4.0),
       snrs=st.lists(st.sampled_from([-10.0, -4.0, 0.0, 4.0, 10.0, 20.0]),
                     max_size=6),
       blocks=st.integers(0, 2), offset=st.integers(-1, 1),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, ratio=1.0, snrs=[0.0], blocks=1, offset=1, seed=1)
@example(n=1, ratio=2.0, snrs=[-10.0], blocks=0, offset=1, seed=2)
@example(n=2, ratio=1.0, snrs=[], blocks=2, offset=-1, seed=3)
def test_misalignment_curve_matches_the_full_array_loop_property(
        n, ratio, snrs, blocks, offset, seed):
    # K = 1 and K = 2 included; unsorted grids with duplicates and +-60 dB;
    # trial counts around block edges. Curves may differ only on near-ties.
    k = min(4 * n, max(n, round(ratio * n)))
    trials = max(1, blocks * (training._BLOCK_VALUES // k) + offset)
    grid = [float(v) for v in np.random.default_rng(seed).permutation(
        snrs + [60.0, -60.0, 60.0])]
    rng, full_rng, complex_rng = (np.random.default_rng(seed) for _ in range(3))
    curve = misalignment_curve(n, k, grid, trials, rng)
    want = full_array_misalignment(n, k, grid, trials, full_rng)
    ties = ([tied for *_, tied in complex_misalignment(
        n, k, grid, trials, complex_rng)] if k > 1 else [0] * len(grid))
    assert rng.bit_generator.state == full_rng.bit_generator.state
    for (snr, mp), (snr_ref, mp_ref), tied in zip(curve, want, ties,
                                                  strict=True):
        assert snr == snr_ref
        assert round(abs(mp - mp_ref) * trials) <= tied


def test_misalignment_memory_is_flat_in_the_trial_count():
    # the blocks run in buffers of a fixed size, so only the angles' sines
    # (8 B) grow with the trials; holding any (trials, K) array would add
    # 1.5 KB or more per trial at K = 192
    def traced_peak(trials):
        tracemalloc.start()
        try:
            misalignment_curve(64, 192, np.arange(-10.0, 22.0, 2.0),
                               trials=trials, rng=np.random.default_rng(0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    growth = traced_peak(20_000) - traced_peak(2_000)
    assert growth < 16 * 18_000 + (64 << 10)


def test_model_validation():
    with pytest.raises(ValueError):
        MeasurementModel(transmit_power=-1.0, noise_power=0.0)
