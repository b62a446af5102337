import csv
import io
import math
from contextlib import redirect_stderr
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from irsmimo.cli import main
from irsmimo.harness import RATE_KEYS, ScenarioConfig

TINY = """
num_tx_antennas = 16
num_rx_antennas = 16
num_irs_elements = 16
num_irs = 2
num_streams = 2
irs_positions = 5,4; 5,6
power_grid_dbm = 10,20
mp_snr_grid_db = 0,10
mp_antenna_counts = 16
mp_beam_ratios = 2
trials = 3
seed = 7
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "scene.cfg"
    path.write_text(TINY)
    return str(path)


def read_rows(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


def test_quant_table(tmp_path):
    out = tmp_path / "q.csv"
    code = main(["quant-table", "--antennas", "8,16", "--ratios", "2",
                 "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert float(rows[0]["worst_error"]) > float(rows[0]["average_error"])


@pytest.mark.parametrize("flag", ["--antennas", "--ratios"])
def test_quant_table_rejects_empty_list(tmp_path, capsys, flag):
    out = tmp_path / "q.csv"
    with pytest.raises(SystemExit) as exc:
        main(["quant-table", flag, ",", "--out", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,expected", [
    ("--antennas", ",", "integers"),
    ("--antennas", "8,x", "integers, got 'x'"),
    ("--antennas", "8,1.5", "integers, got '1.5'"),
    ("--ratios", ",", "numbers"), ("--ratios", "2,a", "numbers, got 'a'")])
def test_quant_table_list_error_says_what_was_expected(tmp_path, capsys, flag,
                                                       value, expected):
    with pytest.raises(SystemExit) as exc:
        main(["quant-table", flag, value, "--out", str(tmp_path / "q.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert (f"argument {flag}: expected one or more comma-separated "
            f"{expected}") in err
    assert "_parse" not in err and "invalid" not in err


@pytest.mark.parametrize("flag,value,bad", [
    ("--antennas", "8,0", "0"), ("--antennas", "-1", "-1"),
    ("--ratios", "2,inf", "inf"), ("--ratios", "nan", "nan"),
    ("--ratios", "0.5", "0.5"), ("--ratios", "1e400", "inf")])
def test_quant_table_range_error_is_a_usage_error(tmp_path, capsys, flag,
                                                  value, bad):
    out = tmp_path / "q.csv"
    with pytest.raises(SystemExit) as exc:
        main(["quant-table", flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert (f"argument {flag}: expected finite entries >= 1, got {bad}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_codebook_export(tmp_path):
    out = tmp_path / "patterns.csv"
    code = main(["codebook", "--antennas", "8", "--beams", "16",
                 "--probes", "41", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    stages = {int(r["stage"]) for r in rows}
    assert stages == {1, 2, 3, 4}
    assert all(0.0 <= float(r["gain"]) <= 1.0 + 1e-9 for r in rows)


@pytest.mark.parametrize("value", ["0", "-3", "x", "2.5"])
def test_codebook_probe_count_below_one_is_a_usage_error(tmp_path, capsys,
                                                         value):
    out = tmp_path / "patterns.csv"
    with pytest.raises(SystemExit) as exc:
        main(["codebook", "--probes", value, "--out", str(out)])
    assert exc.value.code == 2
    assert (f"argument --probes: expected an integer >= 1, got '{value}'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("args,flag,expected", [
    (["--antennas", "0"], "--antennas", "an integer >= 1, got '0'"),
    (["--beams", "0"], "--beams", "an integer >= 2, got '0'"),
    (["--branching", "1"], "--branching", "an integer >= 2, got '1'"),
    (["--antennas", "32", "--beams", "16"], "--beams",
     "at least --antennas (32), got 16")])
def test_codebook_bad_size_is_a_usage_error_naming_its_flag(
        tmp_path, capsys, args, flag, expected):
    out = tmp_path / "patterns.csv"
    with pytest.raises(SystemExit) as exc:
        main(["codebook", *args, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: expected {expected}" in capsys.readouterr().err
    assert not out.exists()


def test_codebook_single_probe(tmp_path):
    # one row per live beam, at the broadside probe
    out = tmp_path / "patterns.csv"
    assert main(["codebook", "--antennas", "8", "--beams", "16",
                 "--probes", "1", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2 + 4 + 8 + 16
    assert {float(r["probe_angle"]) for r in rows} == {0.0}


# the column order the README's CLI section documents for each command
@pytest.mark.parametrize("command,args,columns", [
    ("codebook", ["--antennas", "8", "--beams", "16", "--probes", "3"],
     "stage,index,probe_angle,gain"),
    ("mp-curve", ["--trials", "20"], "snr_db,mp,trials,num_elements,num_beams"),
    ("rate-curve", ["--trials", "1"], "power_dbm,rate_proposed_est,"
     "rate_proposed_perfect,rate_fdb_upper,rate_no_irs"),
    ("quant-table", ["--antennas", "8", "--ratios", "2"],
     "num_elements,num_beams,worst_error,average_error")])
def test_csv_header_is_the_documented_column_order(tmp_path, tiny_config,
                                                   command, args, columns):
    scene = ["--config", tiny_config] if command.endswith("curve") else []
    out = tmp_path / "out.csv"
    assert main([command, *args, *scene, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == columns


def test_mp_curve_deterministic(tmp_path, tiny_config):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["mp-curve", "--config", tiny_config, "--trials", "200",
                 "--out", str(out_a)]) == 0
    assert main(["mp-curve", "--config", tiny_config, "--trials", "200",
                 "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    rows = read_rows(out_a)
    assert rows[0]["trials"] == "200"


def test_rate_curve(tmp_path, tiny_config):
    out = tmp_path / "rate.csv"
    assert main(["rate-curve", "--config", tiny_config, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [r["power_dbm"] for r in rows] == ["10.0", "20.0"]
    for row in rows:
        assert float(row["rate_no_irs"]) < float(row["rate_proposed_est"])


def test_estimate_trace(tmp_path, tiny_config):
    out = tmp_path / "trace.csv"
    assert main(["estimate", "--config", tiny_config, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert {r["irs_index"] for r in rows} == {"0", "1"}
    assert float(rows[0]["est_composite_loss"]) > 0


def test_estimate_rejects_trials_flag(tmp_path, tiny_config, capsys):
    # estimate always reports trial 0, so a trial count would be ignored
    out = tmp_path / "trace.csv"
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--config", tiny_config, "--trials", "30",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 12\n")
    out = tmp_path / "x.csv"
    assert main(["mp-curve", "--config", str(bad), "--out", str(out)]) == 2


@pytest.mark.parametrize("key,value", [
    ("frequency_hz", "nan"),
    ("noise_power_dbm", "inf"),
    ("reflection_amplitude", "1.5"),
    ("branching", "1"),
    ("irs_positions", "0,4; 5,6"),
    ("irs_positions", "-5,4; 5,6"),
    ("power_grid_dbm", ""),
    ("mp_snr_grid_db", ""),
    ("mp_antenna_counts", ""),
    ("mp_beam_ratios", ""),
    # dB values whose linear value overflows or underflows
    ("noise_power_dbm", "4000"),
    ("noise_power_dbm", "-4000"),
    ("power_grid_dbm", "4000"),
    ("power_grid_dbm", "10, -4000"),
    ("tx_gain_dbi", "4000"),
    ("tx_gain_dbi", "-4000"),
    ("mp_snr_grid_db", "4000"),
    # terminal arrays smaller than num_irs = 2
    ("num_tx_antennas", "1"),
    ("num_rx_antennas", "1"),
])
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY + f"{key} = {value}\n")
    out = tmp_path / "rate.csv"
    assert main(["rate-curve", "--config", str(bad), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rate-curve", "estimate"])
def test_irs_on_the_terminal_wall_is_a_config_error(tmp_path, capsys, command):
    # every room draw puts a ray along an array axis, so no trial can run
    scene = tmp_path / "scene.cfg"
    scene.write_text(TINY + "irs_positions = 1e-9,4; 5,6\n")
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(scene), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: irs_positions")
    assert "Traceback" not in err
    assert not out.exists()


def test_terminal_arrays_as_small_as_num_irs_run(tmp_path):
    scene = tmp_path / "scene.cfg"
    scene.write_text(TINY + "num_tx_antennas = 2\nnum_rx_antennas = 2\n")
    out = tmp_path / "rate.csv"
    assert main(["rate-curve", "--config", str(scene), "--trials", "2",
                 "--out", str(out)]) == 0
    assert len(read_rows(out)) == 2


@pytest.mark.parametrize("side", ["tx", "rx"])
def test_terminal_grid_below_two_beams_is_a_config_error(tmp_path, capsys,
                                                         side):
    scene = tmp_path / "scene.cfg"
    scene.write_text(TINY + "num_irs = 1\nnum_streams = 1\n"
                     "irs_positions = 5,5\nbeam_ratio = 1.4\n"
                     f"num_{side}_antennas = 1\n")
    out = tmp_path / "rate.csv"
    assert main(["rate-curve", "--config", str(scene), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "beam_ratio" in err and f"num_{side}_antennas" in err
    assert not out.exists()


def _exponent(low, high):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


@st.composite
def scene_configs(draw):
    """Config-file text with every rate-curve key drawn across its range:
    dB keys within +-300, frequency 1e-3 to 1e250 Hz, absorption 0 to 1e7
    per meter, IRS x 1e-6 to 1e6 m, arrays of at most 24 elements."""
    num_irs = draw(st.integers(1, 3))
    streams = num_irs + draw(st.integers(0, 1))
    xs = draw(st.lists(_exponent(-6, 6), min_size=num_irs, max_size=num_irs))
    ys = draw(st.lists(st.floats(-10, 20), min_size=num_irs,
                       max_size=num_irs, unique=True))
    values = {
        "frequency_hz": draw(_exponent(-3, 250)),
        "absorption_per_m": draw(st.just(0.0) | _exponent(-6, 7)),
        "reflection_amplitude": draw(st.floats(0, 1)),
        "num_irs": num_irs,
        "num_streams": streams,
        "irs_positions": "; ".join(f"{x!r},{y!r}" for x, y in zip(xs, ys)),
        "power_grid_dbm": ",".join(map(repr, draw(st.lists(
            st.floats(-300, 300), min_size=1, max_size=3)))),
        "beam_ratio": draw(st.floats(1, 4)),
        # an odd K_r is a config error; draw even ones often
        "irs_sweep_ratio": draw(st.sampled_from([2.0, 4.0]) | st.floats(1, 4)),
        "branching": draw(st.integers(2, 4)),
        "pilot_repetitions": draw(st.integers(1, 5)),
        "seed": draw(st.integers(0, 1000)),
    }
    for key in ("noise_power_dbm", "tx_gain_dbi", "rx_gain_dbi",
                "irs_element_gain_dbi"):
        values[key] = draw(st.floats(-300, 300))
    for key in ("num_tx_antennas", "num_rx_antennas", "num_irs_elements"):
        values[key] = draw(st.integers(1, 24))
    for key in ("num_tx_rf_chains", "num_rx_rf_chains"):
        values[key] = streams + draw(st.integers(0, 1))
    for key in ("alice_y_range", "bob_y_range"):
        low = draw(st.floats(-10, 10))
        values[key] = f"{low!r},{low + draw(st.floats(0.1, 10))!r}"
    return "".join(f"{key} = {value}\n" for key, value in values.items())


@st.composite
def table_configs(draw):
    """A `scene_configs` text with the mp-curve keys and `trials` drawn too:
    antenna counts 0 to 24, beam ratios 0.5 to 4, SNRs within +-300 dB and
    0 to 50 trials."""
    text = draw(scene_configs())
    for key, values in (("mp_antenna_counts", st.integers(0, 24)),
                        ("mp_beam_ratios", st.floats(0.5, 4)),
                        ("mp_snr_grid_db", st.floats(-300, 300))):
        drawn = draw(st.lists(values, min_size=1, max_size=3))
        text += f"{key} = {','.join(map(repr, drawn))}\n"
    return text + f"trials = {draw(st.integers(0, 50))}\n"


def exits_2_naming_a_key_or_0_with_a_finite_csv(folder, text, command,
                                                *flags):
    scene, out = folder / "fuzz.cfg", folder / "fuzz.csv"
    scene.write_text(text)
    out.unlink(missing_ok=True)
    with redirect_stderr(io.StringIO()) as stderr:
        code = main([command, "--config", str(scene), *flags,
                     "--out", str(out)])
    err = stderr.getvalue()
    if code == 2:
        assert any(f.name in err for f in fields(ScenarioConfig)), err
        assert not out.exists()
    else:
        assert code == 0, err
        # every rate-curve, estimate and mp-curve column is numeric
        assert all(math.isfinite(float(cell)) for row in read_rows(out)
                   for cell in row.values())


@settings(max_examples=100, deadline=None)
@given(text=scene_configs(), command=st.sampled_from(["rate-curve",
                                                      "estimate"]))
def test_every_config_exits_2_naming_a_key_or_0_with_a_finite_csv(
        tmp_path_factory, text, command):
    trials = ["--trials", "1"] if command == "rate-curve" else []
    exits_2_naming_a_key_or_0_with_a_finite_csv(
        tmp_path_factory.getbasetemp(), text, command, *trials)


@settings(max_examples=40, deadline=None)
@given(text=table_configs(), command=st.sampled_from(["mp-curve",
                                                      "rate-curve"]))
def test_every_table_config_exits_2_naming_a_key_or_0_with_a_finite_csv(
        tmp_path_factory, text, command):
    # the trial count and the mp keys come from the config file
    exits_2_naming_a_key_or_0_with_a_finite_csv(
        tmp_path_factory.getbasetemp(), text, command)


@pytest.mark.parametrize("command", ["rate-curve", "estimate"])
@pytest.mark.parametrize("line", [
    "absorption_per_m = 1e6", "irs_positions = 1e6,4; 1e6,6",
    "absorption_per_m = 100", "frequency_hz = 1e200"])
def test_vanishing_path_loss_scores_zero_rates(tmp_path, command, line):
    # the path loss, or the square of a composite gain, underflows to zero
    scene = tmp_path / "scene.cfg"
    scene.write_text(TINY + line + "\n")
    out = tmp_path / "out.csv"
    trials = ["--trials", "1"] if command == "rate-curve" else []
    assert main([command, "--config", str(scene), *trials,
                 "--out", str(out)]) == 0
    for row in read_rows(out):
        assert [float(row[key]) for key in RATE_KEYS] == [0.0] * 4


def test_missing_out_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["mp-curve"])
