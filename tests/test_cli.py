import csv

import pytest

from irsmimo.cli import main

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


def test_missing_out_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["mp-curve"])
