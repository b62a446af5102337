"""Write the frozen statistical reference that tests/test_reference.py reads.

Run from the repository root:

    PYTHONPATH=src python tests/reference/make_reference.py

It stores, next to this script, the per-trial, per-power rates of both
acceptance-criterion-6 scenes (`rate_trials.csv`) and a default mp-curve at
reduced trials (`mp_curve.csv`). Regenerate it only on purpose: the test
compares new runs against these numbers, so a change to how noise is drawn
shows up as a statistical difference rather than being absorbed.
"""

import os
import sys
from dataclasses import replace

from irsmimo.harness import (RATE_KEYS, ScenarioConfig, run_mp_experiment,
                             run_trial, scenario_assets, write_csv)

HERE = os.path.dirname(os.path.abspath(__file__))
TRIALS = 200
MP_TRIALS = 2000

# The two scenes of acceptance criterion 6, keyed by array size.
SCENES = {
    32: ScenarioConfig(trials=TRIALS, seed=60),
    64: ScenarioConfig(num_tx_antennas=64, num_rx_antennas=64,
                       num_irs_elements=64, tx_gain_dbi=21.0,
                       rx_gain_dbi=21.0, beam_ratio=3.0, trials=TRIALS,
                       seed=61),
}
TRIAL_HEADER = ("scene", "trial", "power_dbm") + RATE_KEYS
MP_HEADER = ("snr_db", "mp", "trials", "num_elements", "num_beams")


def trial_rows():
    for scene, config in SCENES.items():
        assets = scenario_assets(config)
        for trial in range(config.trials):
            rates = run_trial(config, assets, trial).rates
            for power_dbm, row in zip(config.power_grid_dbm, rates):
                yield {"scene": scene, "trial": trial, "power_dbm": power_dbm,
                       **dict(zip(RATE_KEYS, row))}


def mp_config():
    return replace(ScenarioConfig(), trials=MP_TRIALS)


def main() -> int:
    write_csv(os.path.join(HERE, "rate_trials.csv"), TRIAL_HEADER,
              list(trial_rows()))
    write_csv(os.path.join(HERE, "mp_curve.csv"), MP_HEADER,
              run_mp_experiment(mp_config()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
