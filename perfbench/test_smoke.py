"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with `python -m pytest perfbench`. It checks
that every metric named in BENCHMARK.json is emitted, that tracing leaves
every output bit unchanged, that the tracer restores every attribute it
patched, and that the benchmark fails without the program next to it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402


def tiny(name):
    if name == "tables":
        return workloads.TablesWorkload(
            mp_trials=40, quant_antennas=(8, 16), quant_ratios=(1, 2),
            codebook_args=(16, 2, 32))
    overrides = workloads.N64_OVERRIDES if name == "rate-n64" else {}
    return workloads.RateWorkload(overrides, trials_per_job=2, prefix_jobs=1)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(name, trace):
    result, _ = workloads.measure(tiny(name), seed=3, seconds=0.01,
                                  trace=trace)
    want = declared("per_layer" if trace else "end_to_end")
    got = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def _snapshot():
    return {(module.__name__, attr): value
            for module in package_modules()
            for attr, value in vars(module).items()}


@pytest.mark.parametrize("name", ["rate-n32", "tables"])
def test_traced_rows_match_untraced_bit_for_bit(name):
    workload = tiny(name)
    plain = workload.job(workloads.job_seed(5, 0))
    with Tracer():
        traced = workload.job(workloads.job_seed(5, 0))
    assert workloads._bits(traced.rows) == workloads._bits(plain.rows)


def test_tracer_patches_every_namespace_and_restores_it():
    import irsmimo
    from irsmimo import harness, training, transmission

    before = _snapshot()
    measure_power = training.measure_power
    with Tracer():
        assert training.measure_power is not measure_power
        assert transmission.measure_power is training.measure_power
        assert harness.cooperative_estimate is training.cooperative_estimate
        assert irsmimo.run_rate_experiment is harness.run_rate_experiment
        assert harness.run_rate_experiment.__wrapped__ is not None
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
