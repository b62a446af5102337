import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import angle_rows, dense_hops, scenario_from_angles
from irsmimo import training
from irsmimo.arrays import (ArraySpec, beam_gain, grid_directions, omni,
                            pattern_gain, steering)
from irsmimo.channel import assemble
from irsmimo.codebook import build_codebook
from irsmimo.irs_control import absorbing, direction_mode, return_mode
from irsmimo.training import (MeasurementModel, channel_factors,
                              complex_noise, composite_losses,
                              cooperative_estimate, direction_states,
                              estimate_angles,
                              hierarchical_search, measure_power,
                              misalignment_curve, noise_tape, _descend,
                              _sweep_responses)


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


def bridged(cascade, irs_index, arrival, departure):
    """Assembled channel with one IRS in direction mode, the others absorbing."""
    spec = cascade.irs_spec
    thetas = [absorbing(spec.num_elements)] * cascade.num_irs
    thetas[irs_index] = direction_mode(
        spec.num_elements, spec.spacing_wavelengths, arrival, departure,
        amplitude=cascade.consts.reflection_amplitude)
    return assemble(cascade, thetas)


class SlotRecorder:
    """A codebook view that remembers the slot of the last beam it handed out."""

    def __init__(self, codebook):
        self.codebook = codebook
        self.slot = None

    def __getattr__(self, name):
        return getattr(self.codebook, name)

    def beam(self, stage, index):
        self.slot = (stage, index)
        return self.codebook.beam(stage, index)


def reference_pass(cascade, assets, power, noise_power, tape, p):
    """Pilot-by-pilot cooperative estimation at one power, from tape row p.

    A scalar sweep loop over literal return-mode round trips, bridge slots
    on assembled channels, `hierarchical_search` with an oracle that reads
    each child's tape position, and composite-loss pilots with the
    arithmetic of `measure_power`. Returns (angles, search pilots, losses).
    """
    grid = assets.sweep_grid
    consts, spec = cascade.consts, cascade.irs_spec
    amplitude, scale = np.sqrt(power), np.sqrt(noise_power / 2.0)
    books = (assets.tx_codebook, assets.rx_codebook)
    angles, losses, pilots = [], [], 0
    for l in range(cascade.num_irs):
        # a terminal on its first element hears e1^T (eta G_t G_r A^T Theta A) e1
        best = []
        incident, departing = dense_hops(cascade, l)
        for side, hop in enumerate((incident, departing.T)):
            heard = []
            for k, angle in enumerate(grid.directions):
                theta = return_mode(spec.num_elements, spec.spacing_wavelengths,
                                    angle, consts.reflection_amplitude)
                roundtrip = (cascade.eta * consts.tx_gain * consts.rx_gain
                             * hop.T @ np.diag(theta.entries()) @ hop)
                heard.append(abs(amplitude * roundtrip[0, 0]
                                 + scale * tape.sweep[p, l, side, k]) ** 2)
            best.append(int(np.argmax(heard)))
        arrival = grid.directions[best[0]]
        slot = grid.num_beams - 1 - best[1]
        half = grid.num_beams // 2
        candidates = (slot, slot - half if slot >= half else slot + half)
        heard = [abs(amplitude * bridged(cascade, l, arrival,
                                         grid.directions[c])[0, 0]
                     + scale * tape.bridge[p, l, i]) ** 2
                 for i, c in enumerate(candidates)]
        departure = grid.directions[candidates[int(np.argmax(heard))]]
        H = bridged(cascade, l, arrival, departure)

        leaves = []
        for side, book in enumerate(books):
            view = SlotRecorder(book)

            def oracle(beam, side=side, view=view):
                nonlocal pilots
                pilots += 1
                w = beam.coefficients
                stage, index = view.slot
                child = index % view.branching
                # receive side w^H H[:, 0]; transmit side w^T H[0, :]
                signal = np.vdot(w, H[:, 0]) if side else w @ H[0, :]
                noise = (np.sqrt(noise_power * np.vdot(w, w).real / 2.0)
                         * tape.search[p, l, side, stage - 1, child])
                return abs(amplitude * signal + noise) ** 2
            leaves.append(book.leaf_grid.directions[
                hierarchical_search(view, oracle)])
        angles.append((leaves[0], arrival, departure, leaves[1]))

        w = steering(cascade.rx_spec, leaves[1]).coefficients
        f = steering(cascade.tx_spec, leaves[0]).coefficients
        heard = np.mean(np.abs(amplitude * np.vdot(w, H @ f)
                               + scale * tape.pilots[p, l]) ** 2)
        losses.append(np.sqrt(max(heard - noise_power, 0.0) / power))
    return np.array(angles), pilots, np.array(losses)


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
    losses = composite_losses(cascade, np.arange(len(angles)), got, powers,
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
    losses = composite_losses(cascade, np.arange(2), angles,
                              [model.transmit_power], model.noise_power,
                              tape.pilots)
    rng = np.random.default_rng(11)
    estimates, slots = cooperative_estimate(cascade, assets, model, rng)
    assert [tuple(vars(e).values())[:4] for e in estimates] == [
        tuple(row) for row in angles[0]]
    assert slots.search == search[0]
    pilots = rng.standard_normal((1, 2, 7, 2)).view(complex)[..., 0]
    assert composite_losses(
        cascade, np.arange(2), angle_rows(estimates)[None],
        [model.transmit_power], model.noise_power, pilots) == pytest.approx(
        losses, rel=1e-12)


def test_direction_channels_match_assembled_channels():
    # the factor form of direction-mode channels against the full assembly,
    # for a stack of IRS states
    cascade, _ = scenario_from_angles([(0.2, -0.55, 0.4, -0.1),
                                       (-0.3, 0.25, -0.45, 0.15)])
    spec = cascade.irs_spec
    sines = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 2, 2))
    left, cores, right = channel_factors(cascade, direction_states(
        cascade, sines[..., 0], sines[..., 1]))
    assert cores.shape == (3, 2, 2)
    stack = left @ cores @ right
    for H, pair in zip(stack, sines):
        thetas = [direction_mode(spec.num_elements, 0.5, *np.arcsin(s),
                                 amplitude=cascade.consts.reflection_amplitude)
                  for s in pair]
        want = assemble(cascade, thetas)
        assert np.allclose(H, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


def test_sweep_side_matches_dense_roundtrip(small_scenario):
    # the vectorized sweep must equal the literal e1^T (eta G A^T Theta A) e1
    # of each terminal, A its hop (the receive terminal's uplink is N^T)
    cascade, assets = small_scenario
    incident, departing = dense_hops(cascade, 0)
    consts = cascade.consts
    n_elems = cascade.irs_spec.num_elements
    responses = _sweep_responses(cascade, assets)
    assert responses.shape == (1, 2, assets.sweep_grid.num_beams)
    for side, hop in enumerate((incident, departing.T)):
        for k, angle in enumerate(assets.sweep_grid.directions):
            theta = return_mode(n_elems, 0.5, float(angle))
            roundtrip = (cascade.eta * consts.tx_gain * consts.rx_gain
                         * hop.T @ np.diag(theta.entries()) @ hop)
            assert responses[0, side, k] == pytest.approx(roundtrip[0, 0],
                                                          rel=1e-10)


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
    noise = complex_noise(rng, 1.0, size=gains.shape)
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
    noise = complex_noise(rng, 1.0, size=gains.shape)
    square, cross = gains * gains, 2.0 * gains * noise.real
    floor = noise.real ** 2 + noise.imag ** 2
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


class ScriptedDraws:
    """Stands in for the generator of `misalignment_curve`, which calls only
    `uniform` (the angles) and `standard_normal` (the real parts, then the
    imaginary parts): each call returns the next array given."""

    def __init__(self, angles, *normals):
        self.angles, self.normals = angles, list(normals)

    def uniform(self, low, high, size):
        return np.reshape(self.angles, size)

    def standard_normal(self, shape):
        return np.reshape(self.normals.pop(0), shape)


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
    draws = ScriptedDraws(grid_directions(1, k).directions[1], real, imag)
    assert misalignment_curve(1, k, [0.0], 1, draws) == [(0.0, 0.0)]
    assert not draws.normals


def test_misalignment_memory_stays_near_one_trial_array():
    # the real parts of the noise are the one (trials, K) array held for
    # every trial; the full-array loop peaked at about seven of them
    trials, k = 10_000, 192
    tracemalloc.start()
    try:
        misalignment_curve(64, k, np.arange(-10.0, 22.0, 2.0), trials=trials,
                           rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * trials * k * 8


def test_model_validation():
    with pytest.raises(ValueError):
        MeasurementModel(transmit_power=-1.0, noise_power=0.0)
