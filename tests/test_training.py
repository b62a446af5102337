import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import scenario_from_angles
from irsmimo.arrays import ArraySpec, beam_gain, omni, steering
from irsmimo.codebook import build_codebook
from irsmimo.irs_control import direction_mode, return_mode
from irsmimo.training import (MeasurementModel, bridged_channel,
                              cooperative_estimate, hierarchical_search,
                              measure_power, misalignment_curve, phase1,
                              phase2, _descend, _sweep_side)


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
        slots = range(children.start, children.stop)
        measured.extend((stage, c) for c in slots)
        return np.array([beam_gain(book.beam(stage, c), spec, 1.2) ** 2
                         for c in slots])

    leaf, count = _descend(book, measure)
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


@settings(max_examples=60, deadline=None)
@given(num_antennas=st.integers(4, 24), extra=st.integers(0, 24),
       branching=st.sampled_from([2, 3, 4]),
       angles=st.tuples(*[st.floats(-1.3, 1.3)] * 4),
       noise_db=st.floats(-60.0, 20.0), seed=st.integers(0, 2 ** 32 - 1))
def test_phase2_matches_scalar_search_draw_for_draw(num_antennas, extra,
                                                    branching, angles,
                                                    noise_db, seed):
    # reference: one measure_power call per pilot through the per-beam search
    scenario = scenario_from_angles([angles], num_antennas=num_antennas,
                                    num_beams=num_antennas + extra,
                                    branching=branching)
    model = MeasurementModel(transmit_power=1e-9,
                             noise_power=1e-9 * 10.0 ** (noise_db / 10.0))
    p1 = (angles[1], angles[2])
    H = bridged_channel(scenario, 0, p1)
    ref_rng = np.random.default_rng(seed)
    pilots = []

    def pilot(tx_beam, rx_beam, channel):
        pilots.append(rx_beam)
        return measure_power(tx_beam, rx_beam, channel, model, rng=ref_rng)

    tx_omni = omni(scenario.cascade.tx_spec)
    rx_omni = omni(scenario.cascade.rx_spec)
    ref_rx = hierarchical_search(scenario.rx_codebook,
                                 lambda w: pilot(tx_omni, w, H))
    ref_tx = hierarchical_search(scenario.tx_codebook,
                                 lambda w: pilot(rx_omni, w.conj(), H.T))

    rng = np.random.default_rng(seed)
    assert phase2(scenario, 0, p1, model, rng=rng) == (ref_rx, ref_tx,
                                                       len(pilots))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sweep_side_matches_dense_roundtrip(small_scenario):
    # the vectorized sweep must equal the literal e1^T (eta G M^T Theta M) e1
    scenario = small_scenario
    link = scenario.cascade.links[0]
    consts = scenario.consts
    model = MeasurementModel(transmit_power=1.0, noise_power=0.0)
    n_elems = scenario.cascade.irs_spec.num_elements
    weights_responses = []
    for angle in scenario.sweep_grid.directions[:5]:
        theta = return_mode(n_elems, 0.5, float(angle))
        roundtrip = (link.eta * consts.tx_gain * consts.rx_gain
                     * link.incident.T @ np.diag(theta.entries()) @ link.incident)
        power = measure_power(omni(scenario.cascade.tx_spec),
                              omni(scenario.cascade.tx_spec), roundtrip, model,
                              rng=np.random.default_rng(0))
        weights_responses.append(power)
    # recompute through the sweep path by zeroing the noise
    slot = _sweep_side(scenario, 0, "tx", model, np.random.default_rng(0))
    assert 0 <= slot < scenario.sweep_grid.num_beams
    from irsmimo.training import _roundtrip_weights
    weights = _roundtrip_weights(scenario, 0, "tx")
    for i, angle in enumerate(scenario.sweep_grid.directions[:5]):
        theta = return_mode(n_elems, 0.5, float(angle))
        response = abs(np.sum(theta.entries() * weights)) ** 2
        assert response == pytest.approx(weights_responses[i], rel=1e-10)


def circular_sine_gap(estimate, truth):
    gap = abs(np.sin(estimate) - np.sin(truth)) % 1.0
    return min(gap, 1.0 - gap)


def theta_equivalent(scenario, pair_a, pair_b, tol=1e-9):
    spec = scenario.cascade.irs_spec
    ta = direction_mode(spec.num_elements, 0.5, *pair_a)
    tb = direction_mode(spec.num_elements, 0.5, *pair_b)
    delta = np.mod(ta.phases - tb.phases, 2 * np.pi)
    delta = np.minimum(delta, 2 * np.pi - delta)
    return float(np.max(delta)) <= tol


def test_phase1_noiseless_recovers_angles_up_to_twin():
    rng = np.random.default_rng(8)
    model = MeasurementModel(transmit_power=1.0, noise_power=0.0)
    for _ in range(25):
        truth = tuple(rng.uniform(-1.2, 1.2, 4))
        scenario = scenario_from_angles([truth])
        arrival, departure = phase1(scenario, 0, model,
                                    rng=np.random.default_rng(0))
        cell = 1.0 / scenario.sweep_grid.num_beams
        assert circular_sine_gap(arrival, truth[1]) <= cell + 1e-12
        assert circular_sine_gap(departure, truth[2]) <= cell + 1e-12
        # the estimated pair drives the same IRS state as the sine-nearest pair
        grid = scenario.sweep_grid
        nearest = (float(grid.directions[np.argmin(abs(grid.sines - np.sin(truth[1])))]),
                   float(grid.directions[np.argmin(abs(grid.sines - np.sin(truth[2])))]))
        assert theta_equivalent(scenario, (arrival, departure), nearest)


def test_phase1_angles_are_grid_members(small_scenario):
    model = MeasurementModel(transmit_power=1.0, noise_power=1e-3)
    arrival, departure = phase1(small_scenario, 0, model,
                                rng=np.random.default_rng(5))
    sines = small_scenario.sweep_grid.sines
    assert np.min(np.abs(sines - np.sin(arrival))) < 1e-12
    assert np.min(np.abs(sines - np.sin(departure))) < 1e-12


def test_phase1_noise_dominated_still_returns_grid_member(small_scenario):
    model = MeasurementModel(transmit_power=1e-12, noise_power=1e3)
    seen = set()
    for seed in range(12):
        arrival, _ = phase1(small_scenario, 0, model,
                            rng=np.random.default_rng(seed))
        seen.add(round(float(np.sin(arrival)), 9))
    assert len(seen) > 1  # noise-dominated sweeps scatter across the grid


def test_phase2_noiseless_finds_sine_nearest_leaves():
    rng = np.random.default_rng(13)
    model = MeasurementModel(transmit_power=1.0, noise_power=0.0)
    for _ in range(10):
        truth = tuple(rng.uniform(-1.2, 1.2, 4))
        scenario = scenario_from_angles([truth])
        p1 = phase1(scenario, 0, model, rng=np.random.default_rng(0))
        rx_leaf, tx_leaf, _ = phase2(scenario, 0, p1, model,
                                     rng=np.random.default_rng(0))
        grid = scenario.tx_codebook.leaf_grid
        assert abs(grid.sines[rx_leaf] - np.sin(truth[3])) <= 1 / grid.num_beams + 1e-12
        assert abs(grid.sines[tx_leaf] - np.sin(truth[0])) <= 1 / grid.num_beams + 1e-12


def test_phase2_total_with_misaligned_phase1(small_scenario):
    # a wrong bridge degrades but still returns leaves and a full count
    model = MeasurementModel(transmit_power=1.0, noise_power=0.0)
    bad = (0.9, -0.9)
    rx_leaf, tx_leaf, count = phase2(small_scenario, 0, bad, model,
                                     rng=np.random.default_rng(0))
    book = small_scenario.tx_codebook
    assert 0 <= rx_leaf < book.num_leaves and 0 <= tx_leaf < book.num_leaves
    assert count == 2 * book.branching * book.num_stages


def test_cooperative_estimate_deterministic(small_scenario):
    model = MeasurementModel(transmit_power=1.0, noise_power=1e-6)
    est_a, slots_a = cooperative_estimate(small_scenario, model,
                                          rng=np.random.default_rng(42))
    est_b, slots_b = cooperative_estimate(small_scenario, model,
                                          rng=np.random.default_rng(42))
    assert est_a == est_b
    assert slots_a == slots_b


def test_cooperative_estimate_slot_accounting():
    scenario = scenario_from_angles([(0.2, -0.55, 0.4, -0.1),
                                     (-0.3, 0.25, -0.45, 0.15)])
    model = MeasurementModel(transmit_power=1.0, noise_power=0.0)
    _, slots = cooperative_estimate(scenario, model,
                                    rng=np.random.default_rng(0))
    k_r = scenario.sweep_grid.num_beams
    assert slots.irs_sweep == 2 * k_r * 2
    assert slots.parity == 2 * 2
    per_search = scenario.tx_codebook.branching * scenario.tx_codebook.num_stages
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


def test_model_validation():
    with pytest.raises(ValueError):
        MeasurementModel(transmit_power=-1.0, noise_power=0.0)
