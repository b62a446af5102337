import os
import subprocess
import sys

import irsmimo

SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError

import irsmimo
from irsmimo.harness import make_config, run_mp_experiment
from irsmimo.quantization import quantization_report

report = quantization_report(16, 32)
assert 0.0 < report.average_error < report.worst_error < 1.0
rows = run_mp_experiment(make_config(trials=200))
assert rows and all(0.0 <= row["mp"] <= 1.0 for row in rows)
"""


def test_runtime_runs_without_scipy():
    # scipy is a test-only oracle; the simulator itself needs numpy alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(irsmimo.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED],
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
