import csv
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from irsmimo import arrays, channel, harness, training, transmission
from irsmimo.cli import main
from irsmimo.channel import cascade_loss
from irsmimo.harness import (ConfigError, ScenarioConfig, _path_geometry,
                             db_to_linear, dbm_to_watts, load_config_file,
                             make_config, perfect_estimates,
                             run_mp_experiment, run_rate_experiment,
                             run_trial, sample_scenario, scenario_assets,
                             true_composite_loss, write_csv)
from irsmimo.channel import assemble
from irsmimo.irs_control import direction_mode, random_mode
from irsmimo.training import chain_gains, channel_cores, design_pass
from conftest import fused_bounds
from oracle import bound_rate, reference_trial


def tiny_config(**kwargs):
    base = dict(num_tx_antennas=16, num_rx_antennas=16, num_irs_elements=16,
                num_irs=2, irs_positions=((5.0, 4.0), (5.0, 6.0)),
                num_streams=2, trials=3, seed=7,
                power_grid_dbm=(10.0, 20.0),
                mp_snr_grid_db=(0.0, 10.0),
                mp_antenna_counts=(16,), mp_beam_ratios=(2.0,))
    base.update(kwargs)
    return ScenarioConfig(**base)


def test_db_conversions_known_values():
    for dbm, watts in ((-80.0, 1e-11), (30.0, 1.0), (0.0, 1e-3)):
        assert dbm_to_watts(dbm) == pytest.approx(watts, rel=1e-12)
    for db, linear in ((0.0, 1.0), (20.0, 100.0), (-30.0, 1e-3)):
        assert db_to_linear(db) == pytest.approx(linear, rel=1e-12)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        tiny_config(irs_positions=((5.0, 4.0),))  # count mismatch
    with pytest.raises(ValueError):
        tiny_config(irs_positions=((5.0, 4.0), (5.0, 4.0)))  # duplicates
    with pytest.raises(ValueError):
        tiny_config(alice_y_range=(5.0, 0.0))
    with pytest.raises(ValueError):
        tiny_config(num_irs=2, num_tx_rf_chains=1)
    with pytest.raises(ValueError):
        tiny_config(irs_sweep_ratio=1.0625)  # K_r = 17, odd
    with pytest.raises(ValueError):
        tiny_config(trials=0)
    nan, inf = float("nan"), float("inf")
    for key, value in [("frequency_hz", nan), ("frequency_hz", 0.0),
                       ("noise_power_dbm", inf), ("reflection_amplitude", 1.5),
                       ("branching", 1), ("beam_ratio", inf),
                       ("absorption_per_m", -1.0), ("seed", -1),
                       ("power_grid_dbm", (0.0, nan)),
                       ("mp_antenna_counts", (16, 0)),
                       ("irs_positions", ((5.0, 4.0), (5.0, inf))),
                       ("irs_positions", ((0.0, 4.0), (5.0, 6.0))),
                       ("irs_positions", ((-5.0, 4.0), (5.0, 6.0))),
                       ("power_grid_dbm", ()), ("mp_snr_grid_db", ()),
                       ("mp_antenna_counts", ()), ("mp_beam_ratios", ()),
                       # dB values whose linear value overflows or underflows
                       ("noise_power_dbm", 4000.0),
                       ("noise_power_dbm", -4000.0),
                       ("power_grid_dbm", (4000.0,)),
                       ("power_grid_dbm", (0.0, -4000.0)),
                       ("tx_gain_dbi", 4000.0), ("tx_gain_dbi", -4000.0),
                       ("mp_snr_grid_db", (0.0, 4000.0))]:
        with pytest.raises(ValueError, match=key):
            tiny_config(**{key: value})


@pytest.mark.parametrize("key", [*harness._COUNT_KEYS, "branching", "seed"])
def test_config_counts_must_be_integers(key):
    # a float count fails in the constructor, naming its key, not later
    # with a TypeError; numpy integers and seeds above 2^63 stay valid
    value = getattr(ScenarioConfig(), key)
    floats = (tuple(float(v) + 0.5 for v in value) if isinstance(value, tuple)
              else float(value) + 0.5)
    with pytest.raises(ValueError, match=key):
        ScenarioConfig(**{key: floats})
    integers = (tuple(np.int32(v) for v in value)
                if isinstance(value, tuple) else np.int32(value))
    assert getattr(ScenarioConfig(**{key: integers}), key) == integers
    assert ScenarioConfig(seed=2 ** 70).seed == 2 ** 70


def test_path_geometry_examples():
    # broadside ray: Alice at (0, 4) looking at an IRS at (5, 4)
    distance, sine_at_terminal, sine_at_irs = _path_geometry(4.0, (5.0, 4.0))
    assert distance == pytest.approx(5.0)
    assert sine_at_terminal == 0.0
    assert sine_at_irs == 0.0
    # Pythagoras: (0,0) to (5,4)
    distance, _, sine_at_irs = _path_geometry(0.0, (5.0, 4.0))
    assert distance == pytest.approx(np.sqrt(41.0), rel=1e-14)
    # dot-product oracle for the IRS-side angle, broadside -x, axis +y
    ray = np.array([0.0, 0.0]) - np.array([5.0, 4.0])
    cos_angle = np.dot(ray / np.linalg.norm(ray), np.array([-1.0, 0.0]))
    sin_angle = np.dot(ray / np.linalg.norm(ray), np.array([0.0, 1.0]))
    assert sine_at_irs == pytest.approx(sin_angle, rel=1e-14)
    assert np.hypot(sine_at_irs, cos_angle) == pytest.approx(1.0, rel=1e-14)


def test_path_geometry_rejects_degenerate():
    with pytest.raises(ValueError):
        _path_geometry(4.0, (0.0, 4.0))


def test_sample_scenario_propagates_other_value_errors(monkeypatch):
    # only a degenerate ray is redrawn; a failure while building the cascade
    # surfaces at once instead of after 1000 silent resamples
    calls = []

    def broken_link(*args, **kwargs):
        calls.append(kwargs)
        raise ValueError("link model failed")

    config = tiny_config()
    assets = scenario_assets(config)
    monkeypatch.setattr(harness, "CascadeChannel", broken_link)
    with pytest.raises(ValueError, match="link model failed"):
        sample_scenario(config, np.random.default_rng(5), assets)
    assert len(calls) == 1


def test_sample_scenario_reproducible():
    config = tiny_config()
    assets = scenario_assets(config)
    c1, g1 = sample_scenario(config, np.random.default_rng(5), assets)
    c2, g2 = sample_scenario(config, np.random.default_rng(5), assets)
    assert g1 == g2
    assert np.array_equal(c1.angles, c2.angles)
    assert np.array_equal(c1.distances, c2.distances)
    assert 0.0 <= g1.alice_y <= 5.0


def test_true_composite_matches_cascade_loss():
    config = tiny_config()
    assets = scenario_assets(config)
    cascade, _ = sample_scenario(config, np.random.default_rng(1), assets)
    d_in, d_out = cascade.distances[0]
    expected = (config.reflection_amplitude
                * cascade_loss(assets.consts, config.num_irs_elements,
                               float(d_in), float(d_out)))
    assert true_composite_loss(cascade, 0) == pytest.approx(expected,
                                                            rel=1e-12)


def test_perfect_estimates_carry_true_angles():
    config = tiny_config()
    assets = scenario_assets(config)
    cascade, _ = sample_scenario(config, np.random.default_rng(2), assets)
    genie = perfect_estimates(cascade)
    for est, angles in zip(genie, cascade.angles):
        assert est.tx_departure == angles[0]
        assert est.composite_loss > 0


def genie_states(cascade):
    """Direction-mode states on the true angles, one irs_control call each,
    independent of the engine's closed-form design."""
    spec = cascade.irs_spec
    return [direction_mode(spec.num_elements, spec.spacing_wavelengths,
                           irs_arrival, irs_departure,
                           amplitude=cascade.consts.reflection_amplitude)
            for _, irs_arrival, irs_departure, _ in cascade.angles]


def test_non_irs_benchmark_below_optimized():
    config = tiny_config()
    assets = scenario_assets(config)
    cascade, _ = sample_scenario(config, np.random.default_rng(3), assets)
    H_opt = assemble(cascade, genie_states(cascade))
    rng = np.random.default_rng(4)
    H_rand = assemble(cascade, [random_mode(16, rng) for _ in range(2)])
    power, noise = 0.1, config.noise_power_watts
    (optimized, random), = fused_bounds([H_opt, H_rand], power, noise)
    assert random <= optimized + 1e-9
    assert np.all(fused_bounds(np.zeros((2, 16, 16)), power, noise) == 0.0)


def test_weak_channels_near_the_float_limit_keep_the_rate_order():
    # lossy air and near-fixed terminals give two genie channels whose
    # water-filling floors lie near 1e308; their sum once overflowed and
    # made the perfect-CSI rate 455 bit/s/Hz above a bound of 0
    config = ScenarioConfig(absorption_per_m=63.83,
                            irs_positions=((2.0, 5.0), (5.0, 4.0), (5.0, 6.0)),
                            alice_y_range=(2.5, 2.5000001),
                            bob_y_range=(7.5, 7.5000001), trials=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_rate_experiment(config).rows
    assert all(row["rate_proposed_perfect"] <= row["rate_fdb_upper"]
               for row in rows)


def test_run_mp_experiment_shape_and_determinism():
    config = tiny_config(trials=300)
    rows_a = run_mp_experiment(config)
    rows_b = run_mp_experiment(config)
    assert rows_a == rows_b
    assert len(rows_a) == 2  # one (N, K) setting, two SNR points
    for row in rows_a:
        assert 0.0 <= row["mp"] <= 1.0
        assert row["num_elements"] == 16
        assert row["num_beams"] == 32


def test_run_rate_experiment_ordering_and_determinism():
    config = tiny_config()
    result_a = run_rate_experiment(config)
    result_b = run_rate_experiment(config)
    assert result_a.rows == result_b.rows
    for row in result_a.rows:
        assert row["rate_no_irs"] < row["rate_proposed_est"]
        assert row["rate_proposed_est"] <= row["rate_proposed_perfect"] + 1e-6
        assert row["rate_proposed_perfect"] <= row["rate_fdb_upper"] + 1e-9
    # 3 trials x 2 powers x (2 terminals x K_r = 32 slots x 2 IRSs)
    assert result_a.slot_totals.irs_sweep == 3 * 2 * 128
    assert result_a.slot_totals.parity == 3 * 2 * 2 * 2


def test_run_estimation_trace_fields():
    # the trial that `irsmimo estimate` reports; its top power is row 1
    config, top = tiny_config(), 1
    result = run_trial(config, scenario_assets(config), 0)
    assert result.truth.shape == (2, 5)
    assert result.estimates.shape == (2, 2, 5)
    assert result.rates.shape == (2, 4)
    assert result.search.shape == (2,)
    assert np.all(np.isfinite(result.estimates[top, :, 4]))
    assert np.all(result.truth[:, 4] > 0)
    assert result.rates[top, 3] < result.rates[top, 2]
    replay = run_trial(config, scenario_assets(config), 0)
    assert replay.geometry == result.geometry
    for name in ("truth", "estimates", "rates", "search"):
        assert np.array_equal(getattr(replay, name), getattr(result, name))


def test_estimation_trace_is_top_power_rate_curve_trial(tmp_path):
    # `irsmimo estimate` reports trial 0 at the strongest power, here in the
    # middle of the grid; low powers, where the estimation noise moves the
    # estimated-CSI rate
    path = tmp_path / "scene.cfg"
    path.write_text("num_tx_antennas = 16\nnum_rx_antennas = 16\n"
                    "num_irs_elements = 16\nnum_irs = 2\nnum_streams = 2\n"
                    "irs_positions = 5,4; 5,6\nseed = 7\n"
                    "power_grid_dbm = -30,-20,-40\n")
    config = make_config(str(path))
    outs = [tmp_path / name for name in ("trace.csv", "rate.csv")]
    assert main(["estimate", "--config", str(path), "--out",
                 str(outs[0])]) == 0
    assert main(["rate-curve", "--config", str(path), "--trials", "1",
                 "--out", str(outs[1])]) == 0
    trace, rates = (list(csv.DictReader(out.read_text().splitlines()))
                    for out in outs)
    result = run_trial(config, scenario_assets(config), 0)
    assert [row["power_dbm"] for row in trace] == ["-20.0"] * 2
    for row in trace:
        assert [float(row[key]) for key in harness.RATE_KEYS] == [
            float(rates[1][key]) for key in harness.RATE_KEYS] == list(
            result.rates[1])
    assert [float(row["est_tx_departure"]) for row in trace] == list(
        result.estimates[1, :, 0])


def test_write_csv_deterministic_format(tmp_path):
    path = tmp_path / "out.csv"
    rows = [{"a": 1, "b": 0.1 + 0.2, "c": "x"}]
    write_csv(str(path), ["a", "b", "c"], rows)
    assert path.read_bytes() == b"a,b,c\n1,0.30000000000000004,x\n"


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(
        "# comment line\n"
        "frequency_hz = 3.0e11\n"
        "num_tx_antennas = 16\n"
        "num_rx_antennas = 16\n"
        "num_irs_elements = 16\n"
        "num_irs = 2\n"
        "num_streams = 2\n"
        "irs_positions = 5,4; 5,6\n"
        "alice_y_range = 0,5\n"
        "trials = 4  # inline comment\n"
    )
    values = load_config_file(str(path))
    assert values["irs_positions"] == ((5.0, 4.0), (5.0, 6.0))
    assert values["trials"] == 4
    config = make_config(str(path))
    assert config.num_tx_antennas == 16
    # overrides win over file values
    assert make_config(str(path), trials=9).trials == 9


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    bad.write_text("trials\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    bad.write_text("trials = many\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    with pytest.raises(ConfigError):
        make_config(None, num_irs=5)  # exceeds RF chains


@pytest.mark.parametrize("line,message", [
    ("mp_antenna_counts = 8,1.5", "mp_antenna_counts: expected one or more "
     "comma-separated integers, got '1.5'"),
    ("power_grid_dbm = 0,ten", "power_grid_dbm: expected one or more "
     "comma-separated numbers, got 'ten'"),
    ("mp_beam_ratios = ,", "mp_beam_ratios: expected one or more "
     "comma-separated numbers")])
def test_config_list_error_names_the_key_and_the_bad_entry(tmp_path, line,
                                                           message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    with pytest.raises(ConfigError) as exc:
        load_config_file(str(bad))
    assert str(exc.value) == f"{bad}:1: {message}"


def test_trial_record_is_serializable():
    import dataclasses
    import json

    config, top = tiny_config(), 1
    result = run_trial(config, scenario_assets(config), 0)
    payload = json.dumps(dataclasses.asdict(result),
                         default=lambda array: array.tolist())
    loaded = json.loads(payload)
    assert loaded["rates"][top][2] > 0
    assert np.array_equal(loaded["estimates"], result.estimates)


def test_rate_experiment_progress_callback():
    seen = []
    run_rate_experiment(tiny_config(trials=2),
                        progress=lambda done, total: seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]


@settings(max_examples=25, deadline=None)
@given(num_antennas=st.sampled_from([8, 12, 16]),
       num_irs_elements=st.sampled_from([8, 16]),
       num_irs=st.integers(1, 3), branching=st.sampled_from([2, 3]),
       beam_ratio=st.sampled_from([1.5, 2.0, 3.0]),
       seed=st.integers(0, 2 ** 31), trial=st.integers(0, 1000))
# two IRSs estimated on one receive leaf share a combiner column
@example(num_antennas=12, num_irs_elements=8, num_irs=2, branching=2,
         beam_ratio=1.5, seed=0, trial=1)
def test_hybrid_rates_never_exceed_fully_digital_bound(
        num_antennas, num_irs_elements, num_irs, branching, beam_ratio, seed,
        trial):
    # the open invariant of criterion 6, per trial and per power
    config = ScenarioConfig(
        num_tx_antennas=num_antennas, num_rx_antennas=num_antennas,
        num_irs_elements=num_irs_elements, num_irs=num_irs,
        num_streams=num_irs,
        irs_positions=((5.0, 4.0), (5.0, 5.0), (5.0, 6.0))[:num_irs],
        branching=branching, beam_ratio=beam_ratio,
        power_grid_dbm=(-20.0, 0.0, 10.0, 30.0), trials=1, seed=seed)
    rates = run_trial(config, scenario_assets(config), trial).rates
    assert rates.shape == (4, 4)
    assert np.all(rates[:, :2] <= rates[:, 2:3] + 1e-9)


def test_power_record_does_not_depend_on_the_rest_of_the_grid():
    # stream 2 + p belongs to grid position p; a record must not change when
    # the other positions change, so batching couples no two powers
    base = tiny_config(power_grid_dbm=(0.0, 10.0, 20.0, 30.0))
    assets = scenario_assets(base)
    full = run_trial(base, assets, 1)
    for grid in ((0.0,), (0.0, 10.0), (0.0, 30.0, 20.0, 10.0),
                 (0.0, -40.0, 20.0, 50.0, 5.0)):
        other = run_trial(replace(base, power_grid_dbm=grid), assets, 1)
        assert other.geometry == full.geometry
        assert np.array_equal(other.truth, full.truth)
        shared = [p for p, power in enumerate(grid[:4])
                  if power == base.power_grid_dbm[p]]
        assert shared
        for name in ("estimates", "rates", "search"):
            assert np.array_equal(getattr(other, name)[shared],
                                  getattr(full, name)[shared])


def test_progress_fires_between_trials(monkeypatch):
    events = []
    real_run_trial = harness.run_trial

    def counted(config, assets, trial):
        events.append(("start", trial))
        result = real_run_trial(config, assets, trial)
        events.append(("rates", trial, result.rates.shape))
        return result

    monkeypatch.setattr(harness, "run_trial", counted)
    run_rate_experiment(tiny_config(trials=3),
                        progress=lambda done, total: events.append(
                            ("progress", done, total)))
    expected = []
    for trial in range(3):
        expected += [("start", trial), ("rates", trial, (2, 4)),
                     ("progress", trial + 1, 3)]
    assert events == expected


def test_zero_amplitude_scene_scores_zero():
    # absorbing IRSs leave no channel at all: every column must read exactly
    # 0, with no exception from water-filling an all-zero gain vector
    result = run_rate_experiment(tiny_config(reflection_amplitude=0.0,
                                             power_grid_dbm=(0.0, 30.0)))
    assert [{key: row[key] for key in harness.RATE_KEYS}
            for row in result.rows] == [dict.fromkeys(harness.RATE_KEYS, 0.0)] * 2


def counted_calls(monkeypatch, targets):
    """Patch each (module, name) of `targets` to record (name, args) in the
    returned list before it runs."""
    calls = []
    for module, name in targets:
        def counted(*args, real=getattr(module, name), name=name):
            calls.append((name, args))
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def assert_matches_reference(config, assets, trial):
    """run_trial against the dense reference: angles, search and truth
    identical, composite losses within 1e-12 of max(loss, sqrt(sigma^2/P))
    and rates within 1e-10 relative."""
    result = run_trial(config, assets, trial)
    truth, estimates, rates, search = reference_trial(config, assets, trial)
    assert np.array_equal(result.truth, truth)
    assert np.array_equal(result.estimates[..., :4], estimates[..., :4])
    assert np.array_equal(result.search, search)
    floor = np.sqrt(assets.noise_power / assets.powers)[:, None]
    assert np.all(np.abs(result.estimates[..., 4] - estimates[..., 4])
                  <= 1e-12 * np.maximum(estimates[..., 4], floor))
    assert result.rates == pytest.approx(rates, rel=1e-10, abs=1e-12)
    return result, rates


def test_stacked_scoring_pass_matches_per_design_calls(monkeypatch):
    # run_trial descends every search of its shared codebook in one batch of
    # 2 P N_i, and scores every design in one stacked pass with one
    # water-filling (`_fill`) of the floors of the hybrid designs and the
    # fully digital bounds together; each rate must equal the dense
    # reference's own water-filling, design and rate on the assembled
    # channel. At -90 and -85 dBm the measured composite losses of this
    # trial are all clipped to zero: those rows are unusable and score 0
    # beside live ones.
    config = tiny_config(power_grid_dbm=(-90.0, -85.0, -80.0, 0.0))
    assets = scenario_assets(config)
    calls = counted_calls(monkeypatch, (
        (transmission, "water_filling"), (transmission, "_fill"),
        (harness, "power_factors"), (harness, "spectral_efficiency"),
        (training, "_descend")))
    result = run_trial(config, assets, 1)
    monkeypatch.undo()
    assert sorted(name for name, _ in calls) == [
        "_descend", "_fill", "power_factors", "spectral_efficiency"]
    descents = [args for name, args in calls if name == "_descend"]
    assert descents[0][0] is assets.tx_codebook is assets.rx_codebook
    assert descents[0][2] == 2 * 4 * config.num_irs
    _, want = assert_matches_reference(config, assets, 1)
    assert result.rates == pytest.approx(want, rel=1e-12, abs=0.0)
    assert list(want[:, 0] == 0.0) == [True, True, False, False]


def trial_parts(config, assets, trial):
    """run_trial's result, scene, designs, their `design_pass` blocks and
    gains and the bound's channel cores, the random IRSs' rebuilt with the
    loop of `irs_control.random_mode` calls."""
    result = run_trial(config, assets, trial)
    cascade, _ = sample_scenario(config,
                                  harness._trial_seed(config.seed, trial, 0),
                                  assets)
    rng = harness._trial_seed(config.seed, trial, 1)
    random_states = [random_mode(config.num_irs_elements, rng,
                                 amplitude=config.reflection_amplitude).entries()
                     for _ in range(config.num_irs)]
    designs = np.concatenate([result.estimates, [result.truth]])
    blocks, gains = design_pass(cascade, designs[..., :4])
    cores = channel_cores(cascade, np.stack([
        gains[-1], chain_gains(cascade, random_states)]))
    return result, cascade, designs, blocks, gains, cores


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_one_call_random_states_equal_random_mode_loop(monkeypatch, trial):
    # run_trial draws the L random IRS states in one uniform call; they must
    # be the states of L random_mode calls on the same stream, bit for bit
    config = tiny_config(num_irs=3, num_streams=3,
                         irs_positions=((5.0, 4.0), (5.0, 5.0), (5.0, 6.0)),
                         reflection_amplitude=0.7)
    assets = scenario_assets(config)
    seen = []

    def recorded(cascade, states):
        seen.append(states)
        return chain_gains(cascade, states)

    monkeypatch.setattr(harness, "chain_gains", recorded)
    result = run_trial(config, assets, trial)
    monkeypatch.undo()
    rng = harness._trial_seed(config.seed, trial, 1)
    want = [random_mode(config.num_irs_elements, rng, amplitude=0.7).entries()
            for _ in range(config.num_irs)]
    assert len(seen) == 1 and np.array_equal(seen[0], want)
    assert result.rates[:, 3].all()


def per_row_hybrid_rates(blocks, gains, powers, noise_power, factors):
    """The stacked hybrid scoring of a trial taken row by row: row b is the
    design of `blocks` [b] and `gains[b]` with `factors[b]`, scored at
    `powers[b]`; a row whose factors are all zero is not scored and gets
    0."""
    rates = np.zeros(len(powers))
    for b in np.flatnonzero(factors.any(axis=1)):
        rates[b] = harness._hybrid_rates([block[b] for block in blocks],
                                         gains[b], factors[b], powers[b],
                                         noise_power)
    return rates


@pytest.mark.parametrize("overrides,zero_rows", [
    (dict(power_grid_dbm=(-90.0, -85.0, -80.0, 0.0)), 2),   # zero-gain rows
    (dict(reflection_amplitude=0.0), 2),                    # every rate 0
    (dict(num_tx_antennas=8, num_rx_antennas=12, num_irs_elements=10), 0)])
def test_fused_scoring_pass_equals_separate_calls(overrides, zero_rows):
    # one water-filling call over the 2P hybrid rows and the 2P fully
    # digital rows gives the rates of per-row hybrid scoring and of scoring
    # each core's bound alone, bit for bit, zero-gain rows included; the
    # bounds agree with the oracle's water-filling over the same cores
    config = tiny_config(**overrides)
    assets = scenario_assets(config)
    result, cascade, designs, blocks, gains, cores = trial_parts(config,
                                                                 assets, 1)
    powers, noise = assets.powers, assets.noise_power
    count = powers.size
    rows = np.r_[np.arange(count), np.full(count, count)]
    hybrid = per_row_hybrid_rates(
        [block[rows] for block in blocks], gains[rows], np.tile(powers, 2),
        noise, harness.power_factors(designs[rows, :, 4], np.tile(powers, 2),
                                     noise))
    bounds = [fused_bounds([core, core], powers, noise)[:, 0]
              for core in cores]
    want = np.stack([hybrid[:count], hybrid[count:], *bounds], axis=-1)
    assert want[:, 2:] == pytest.approx(np.array(
        [[bound_rate(core, p, noise) for core in cores] for p in powers]),
        rel=1e-12, abs=0.0)
    fused = harness._trial_rates(blocks, gains, designs[..., 4], powers,
                                 noise, cores)
    assert np.array_equal(fused, want)
    assert np.array_equal(result.rates, want)
    assert np.count_nonzero(want[:, 0] == 0.0) == zero_rows
    assert want.any() == (config.reflection_amplitude > 0.0)


def test_trial_steers_each_design_once(monkeypatch):
    # one design pass per trial, in the angle domain: one `dirichlet` call
    # covers the P estimated designs and the genie's, not the 2P scored
    # rows, no array response is steered, and the composite-loss pilots and
    # the scoring read the arrays of that pass
    config = tiny_config(power_grid_dbm=(0.0, 10.0, 20.0, 30.0))
    assets = scenario_assets(config)
    steered, kernels, passes, read = [], [], [], {}

    def steer(*args, real=arrays.steering_coefficients):
        steered.append(args)
        return real(*args)

    def kernel(num_elements, offsets, real=training.dirichlet):
        kernels.append(np.shape(offsets))
        return real(num_elements, offsets)

    def design(cascade, angles, real=harness.design_pass):
        passes.append(real(cascade, angles))
        return passes[-1]

    def reader(name, real):
        def recorded(*args):
            read[name] = args
            return real(*args)
        return recorded

    for module in (arrays, channel, training):
        if hasattr(module, "steering_coefficients"):
            monkeypatch.setattr(module, "steering_coefficients", steer)
    monkeypatch.setattr(training, "dirichlet", kernel)
    monkeypatch.setattr(harness, "design_pass", design)
    for name in ("composite_losses", "_trial_rates"):
        monkeypatch.setattr(harness, name, reader(name,
                                                  getattr(harness, name)))
    result = run_trial(config, assets, 1)
    monkeypatch.undo()
    count, irs = len(config.power_grid_dbm), config.num_irs
    assert steered == []
    # the sweep takes both sides' K_r slots (N_i, 2, K_r) from one call, the
    # bridge check both twins' gains (P, N_i, 2), and the designs their
    # blocks and chain gains (P + 1, N_i, 3 N_i + 1)
    assert kernels == [(irs, 2, config.num_irs_sweep_beams), (count, irs, 2),
                       (count + 1, irs, 3 * irs + 1)]
    assert len(passes) == 1
    blocks, gains = passes[0]
    loss_blocks, loss_gains = read["composite_losses"][:2]
    for got, made in zip((*loss_blocks, loss_gains), (*blocks[:2], gains)):
        assert np.shares_memory(got, made) and np.array_equal(got, made[:-1])
    assert read["_trial_rates"][0] is blocks
    assert read["_trial_rates"][1] is gains
    assert result.rates[:, :2].all()


def test_designed_rates_equal_the_trial_perfect_csi_rates():
    # `_designed_rates` water-fills the genie's composite losses itself and
    # must score as the perfect-CSI rows of the fused pass; at these low
    # powers the water-filling split is far from even
    config = tiny_config(power_grid_dbm=(-75.0, -70.0, -60.0, 10.0))
    assets = scenario_assets(config)
    result = run_trial(config, assets, 2)
    cascade, _ = sample_scenario(config, harness._trial_seed(7, 2, 0), assets)
    genie = perfect_estimates(cascade)
    rates = [harness._designed_rates(cascade, genie, power,
                                     assets.noise_power, config)
             for power in assets.powers]
    assert rates == pytest.approx(result.rates[:, 1], rel=1e-12, abs=0.0)
    assert min(rates) > 0.0


def test_rates_do_not_depend_on_rf_chain_or_stream_counts():
    # the closed-form design drives one stream per IRS and scores the L x L
    # blocks of those streams, so the RF-chain and stream counts are read
    # only by the config check: no count changes a bit of any rate
    base = ScenarioConfig(seed=60)
    assets = scenario_assets(base)
    want = [run_trial(base, assets, trial).rates for trial in range(40)]
    for counts in (dict(num_tx_rf_chains=3, num_rx_rf_chains=3),
                   dict(num_tx_rf_chains=6), dict(num_rx_rf_chains=6),
                   dict(num_streams=4),
                   dict(num_tx_rf_chains=5, num_rx_rf_chains=5,
                        num_streams=5),
                   dict(num_tx_rf_chains=9, num_rx_rf_chains=9,
                        num_streams=8)):
        config = replace(base, **counts)
        for trial, rates in enumerate(want):
            assert np.array_equal(run_trial(config, assets, trial).rates,
                                  rates), (counts, trial)


def test_sampled_rays_equal_the_per_ray_geometry():
    # the array-form scene against the per-ray scalar path: same draws, same
    # distances and the same angles, bit for bit
    config = tiny_config(num_irs=3, num_streams=3,
                         irs_positions=((5.0, 4.0), (3.0, 7.5), (6.5, 0.5)))
    assets = scenario_assets(config)
    for seed in range(40):
        cascade, geometry = sample_scenario(
            config, np.random.default_rng(seed), assets)
        ys = (geometry.alice_y, geometry.bob_y)
        for l, position in enumerate(config.irs_positions):
            (d_in, s_am, s_rm), (d_out, s_bn, s_rn) = (
                [float(v) for v in _path_geometry(y, position)] for y in ys)
            assert cascade.distances[l].tolist() == [d_in, d_out]
            assert cascade.angles[l].tolist() == [
                float(np.arcsin(v)) for v in (s_am, s_rm, s_rn, s_bn)]


def test_terminals_share_one_codebook_when_they_agree():
    assets = scenario_assets(tiny_config())
    assert assets.rx_codebook is assets.tx_codebook
    for stage, beams in assets.tx_codebook.stages.items():
        with pytest.raises(ValueError, match="read-only"):
            beams[0, 0] = 0.0
        for table in ("live", "weights"):
            assert not getattr(assets.tx_codebook, table)[stage].flags.writeable


def test_unequal_terminals_build_two_codebooks_and_run(monkeypatch):
    # each codebook descends its own P N_i searches in one call
    config = tiny_config(num_tx_antennas=8, num_rx_antennas=12, trials=2)
    assets = scenario_assets(config)
    assert assets.rx_codebook is not assets.tx_codebook
    assert assets.tx_codebook.num_leaves == config.num_tx_beams == 16
    assert assets.rx_codebook.num_leaves == config.num_rx_beams == 24
    calls = counted_calls(monkeypatch, ((training, "_descend"),))
    run_trial(config, assets, 0)
    monkeypatch.undo()
    searches = len(config.power_grid_dbm) * config.num_irs
    assert [(args[0], args[2]) for _, args in calls] == [
        (assets.tx_codebook, searches), (assets.rx_codebook, searches)]
    result = run_rate_experiment(config)
    assert all(np.isfinite(list(row.values())).all() for row in result.rows)


def test_fused_scoring_pass_applies_the_fdb_cutoff():
    # a singular value at or below 1e-14 of its core's largest is a zero
    # gain in the fused pass, even at an SNR where a gain that small would
    # take power; the design gains are all zero here, so only the bound
    # rows are live
    blocks = (np.zeros((2, 2, 2)),) * 3
    cores = np.array([np.diag([1.0, 1e-15]), np.diag([1.0, 0.5])])
    powers, noise = np.array([1e25]), 1e-11
    fused = harness._trial_rates(blocks, np.zeros((2, 2)), np.zeros((2, 2)),
                                 powers, noise, cores)
    assert transmission.water_filling([1.0, 1e-15], powers[0],
                                      noise).factors.all()
    cut = fused_bounds([np.diag([1.0, 0.0]), cores[1]], powers, noise)
    assert np.array_equal(fused[0], [0.0, 0.0, *cut[0]])
    assert fused[0, 2:] == pytest.approx(
        [bound_rate(core, powers[0], noise) for core in cores], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(num_tx=st.integers(3, 32), num_rx=st.integers(3, 32),
       num_irs_elements=st.integers(1, 16), num_irs=st.integers(1, 3),
       branching=st.integers(2, 4), beam_ratio=st.floats(1.5, 4.0),
       powers=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 31), trial=st.integers(0, 1000))
# unequal terminals: two codebooks, one descent each
@example(num_tx=8, num_rx=12, num_irs_elements=10, num_irs=2, branching=2,
         beam_ratio=2.0, powers=[-30.0, 10.0], seed=7, trial=1)
# two IRSs estimated on one receive leaf share a combiner column, and the
# Gram's null eigenvalue comes out positive: a cut at 1e-20 of the largest
# keeps it and misses the rate by 3.8e-8
@example(num_tx=4, num_rx=4, num_irs_elements=14, num_irs=3, branching=2,
         beam_ratio=2.095764846995227, powers=[40.0, 30.0], seed=1187367184,
         trial=638)
def test_trial_matches_the_dense_reference(num_tx, num_rx, num_irs_elements,
                                           num_irs, branching, beam_ratio,
                                           powers, seed, trial):
    assume(num_irs <= min(num_tx, num_rx))
    config = ScenarioConfig(
        num_tx_antennas=num_tx, num_rx_antennas=num_rx,
        num_irs_elements=num_irs_elements, num_irs=num_irs,
        num_streams=num_irs,
        irs_positions=((5.0, 4.0), (5.0, 5.0), (5.0, 6.0))[:num_irs],
        branching=branching, beam_ratio=beam_ratio,
        power_grid_dbm=tuple(powers), trials=1, seed=seed)
    assert_matches_reference(config, scenario_assets(config), trial)
