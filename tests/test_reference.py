"""New runs against the frozen statistical reference in tests/reference/.

The noise-free columns (perfect-CSI, fully-digital and no-IRS rates) must
repeat trial for trial. The estimated-CSI rate depends on the estimation
noise, so a change to how that noise is drawn may move it trial by trial;
its paired mean difference must stay inside a 4-standard-error band at
every power. mp values must stay inside a 4-sigma binomial band.
"""

import csv
import os

import numpy as np
import pytest

from reference.make_reference import (HERE, MP_TRIALS, SCENES, mp_config,
                                      trial_rows)
from irsmimo.harness import run_mp_experiment

NOISE_FREE = ("rate_proposed_perfect", "rate_fdb_upper", "rate_no_irs")


def read_reference(name):
    with open(os.path.join(HERE, name)) as handle:
        return [{key: float(value) for key, value in row.items()}
                for row in csv.DictReader(handle)]


@pytest.fixture(scope="module")
def paired_trials():
    reference = read_reference("rate_trials.csv")
    current = list(trial_rows())
    assert len(current) == len(reference)
    return reference, current


def test_noise_free_rates_match_reference_trial_for_trial(paired_trials):
    reference, current = paired_trials
    for ref, new in zip(reference, current):
        assert (new["scene"], new["trial"], new["power_dbm"]) == (
            ref["scene"], ref["trial"], ref["power_dbm"])
        for key in NOISE_FREE:
            assert new[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0), (
                key, ref["scene"], ref["trial"], ref["power_dbm"])


def test_estimated_rate_paired_difference_within_4_standard_errors(
        paired_trials):
    reference, current = paired_trials
    for scene in SCENES:
        for power in sorted({row["power_dbm"] for row in reference}):
            pick = [i for i, row in enumerate(reference)
                    if row["scene"] == scene and row["power_dbm"] == power]
            ref = np.array([reference[i]["rate_proposed_est"] for i in pick])
            new = np.array([current[i]["rate_proposed_est"] for i in pick])
            diff = new - ref
            stderr = diff.std(ddof=1) / np.sqrt(diff.size)
            band = max(4.0 * stderr, 1e-12 * abs(ref.mean()))
            assert abs(diff.mean()) <= band, (scene, power, diff.mean(), band)


def test_mp_curve_within_4_sigma_binomial_band():
    reference = read_reference("mp_curve.csv")
    current = run_mp_experiment(mp_config())
    assert len(current) == len(reference)
    for ref, new in zip(reference, current):
        for key in ("snr_db", "trials", "num_elements", "num_beams"):
            assert new[key] == ref[key]
        p = max((ref["mp"] + new["mp"]) / 2.0, 1.0 / MP_TRIALS)
        band = 4.0 * np.sqrt(2.0 * p * (1.0 - p) / MP_TRIALS)
        assert abs(new["mp"] - ref["mp"]) <= band, (ref, new)
