"""The benchmark workloads, their correctness checks and the measurement loop.

Every workload is a closed loop with a single client: a batch job that starts
the next job when the previous one ends. Job `j` of a run gets the config seed
`job_seed(seed, j)`, so the same workload seed gives the same inputs. The
first `prefix_jobs` jobs of a run are the same in every run with that seed;
the quality metric and the per-layer counts come from them, so they repeat
exactly, while timings come from every job run before the deadline.

Timings are kept per kind of work: one Monte Carlo trial, one mp curve, one
quant-table cell. Other tenants of a small shared host slow a core by up to
1.75x in streaks of seconds, so a run's mean or median moves with how much of
it fell in a streak. Nearly every run catches one, so the timed metrics take
each kind at its 90th percentile (`kind_tails`), which repeats better.
Set-up is timed the same way: once before every job as well as at the start,
so that its samples span the whole run, and `setup_s` is their 90th
percentile. Their median flips between a fast and a slow level from run to
run, with how much of the run the slow state covered.

The program is reached only through the public `irsmimo` API, looked up on
the module at call time so that a traced run sees the patched functions.
"""

import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from irsmimo import arrays, codebook, harness, quantization

import layers
from tracer import Tracer

SETUP_REPEATS = 3

# The N=64, K=3N, 21 dBi scene of acceptance criteria 6 and 7.
N64_OVERRIDES = dict(num_tx_antennas=64, num_rx_antennas=64,
                     num_irs_elements=64, tx_gain_dbi=21.0, rx_gain_dbi=21.0,
                     beam_ratio=3.0)

END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "step_p90_ms": "ms",
    "setup_s": "s",
    "quality_ratio": "ratio",
    "passed_share": "share",
    "peak_rss_mb": "MB",
}


def job_seed(seed: int, job: int) -> int:
    return int(np.random.SeedSequence((seed, job)).generate_state(1)[0])


@dataclass
class JobResult:
    samples: list      # (kind, points, seconds) of each timed piece of work
    items: int         # output items checked
    failed: int        # items that failed a check
    rows: list         # outputs, compared bit for bit between runs
    trials: int        # Monte Carlo trials, the base of per-trial counts
    quality: np.ndarray  # terms averaged over the prefix for quality_ratio


def kind_tails(jobs: list, family: str) -> dict:
    """{kind: (points, 90th-percentile seconds)} over the samples of `jobs`
    whose kind starts with `family`."""
    points, times = {}, {}
    for job in jobs:
        for kind, n, seconds in job.samples:
            if kind[0] == family:
                points[kind] = n
                times.setdefault(kind, []).append(seconds)
    return {kind: (points[kind], float(np.percentile(times[kind], 90)))
            for kind in times}


def points_per_s(jobs: list, family: str) -> float:
    """Points of one sample of each kind over the sum of their tail times."""
    tails = kind_tails(jobs, family).values()
    return sum(n for n, _ in tails) / sum(s for _, s in tails)


def step_ms(jobs: list, family: str) -> float:
    """Milliseconds of one sample of each kind, each at its tail time."""
    return 1e3 * sum(s for _, s in kind_tails(jobs, family).values())


def rate_row_ok(row: dict) -> bool:
    """Finite rates in the order no-IRS < estimated <= perfect <= fully digital."""
    no_irs, est, perfect, fdb = (row["rate_no_irs"], row["rate_proposed_est"],
                                 row["rate_proposed_perfect"],
                                 row["rate_fdb_upper"])
    return (all(math.isfinite(v) for v in (no_irs, est, perfect, fdb))
            and no_irs < est <= perfect <= fdb)


def mp_failures(rows: list) -> int:
    """Rows of an mp curve that leave [0, 1] or rise above the previous SNR's
    value by more than a 4-sigma Monte Carlo band."""
    failed = 0
    previous = None
    for row in rows:
        mp, trials = row["mp"], row["trials"]
        ok = math.isfinite(mp) and 0.0 <= mp <= 1.0
        if ok and previous is not None:
            p = max(previous, mp, 1.0 / trials)
            ok = mp <= previous + 4.0 * math.sqrt(p * (1 - p) / trials)
        previous = mp
        failed += not ok
    return failed


def quant_report_ok(report) -> bool:
    """Worst error is exactly 1 - rho, and 0 < average error < worst error."""
    rho = arrays.edge_energy(report.num_elements, report.num_beams)
    return (report.worst_error == 1.0 - rho
            and 0.0 < report.average_error < report.worst_error)


class RateWorkload:
    """`run_rate_experiment` jobs of `trials_per_job` trials on one scene.

    A sample is one trial across all powers, timed by the experiment's
    `progress` callback. The first interval of a job also builds the scenario
    assets, so it is left out; `setup_s` times those assets on their own.
    Both `points_per_s` and `step_p90_ms` come from the trial samples, so on
    this workload they are one measurement read two ways.
    """

    POINTS = STEPS = "trial"

    def __init__(self, overrides=None, trials_per_job=25, prefix_jobs=4):
        self.overrides = dict(overrides or {})
        self.trials_per_job = trials_per_job
        self.prefix_jobs = prefix_jobs

    def config(self, seed: int):
        return harness.ScenarioConfig(trials=self.trials_per_job, seed=seed,
                                      **self.overrides)

    def setup(self, seed: int):
        config = self.config(seed)
        start = time.perf_counter()
        assets = harness.scenario_assets(config)
        elapsed = time.perf_counter() - start
        ok = (assets.tx_codebook.num_leaves == config.num_tx_beams
              and assets.rx_codebook.num_leaves == config.num_rx_beams)
        return elapsed, ok

    def expected_items(self, seed: int) -> int:
        return len(self.config(seed).power_grid_dbm)

    def job(self, seed: int) -> JobResult:
        config = self.config(seed)
        stamps = [time.perf_counter()]
        result = harness.run_rate_experiment(
            config, progress=lambda done, total: stamps.append(
                time.perf_counter()))
        trials = np.diff(stamps)[1:]
        kind = (self.POINTS,)
        powers = len(config.power_grid_dbm)
        return JobResult(
            samples=[(kind, powers, s) for s in trials],
            items=len(result.rows),
            failed=sum(not rate_row_ok(row) for row in result.rows),
            rows=[list(row.values()) for row in result.rows],
            trials=config.trials,
            quality=np.array([[row["rate_proposed_est"],
                               row["rate_proposed_perfect"]]
                              for row in result.rows]),
        )

    @staticmethod
    def quality(terms: np.ndarray) -> float:
        """Mean over power points of estimated-CSI over perfect-CSI rate."""
        return float(np.mean(terms[:, 0] / terms[:, 1]))


class TablesWorkload:
    """Table outputs that bypass the estimation pipeline.

    A job is the default mp experiment (N in {32, 64} x K/N in {2, 3} x 16
    SNRs), run as one `run_mp_experiment` call per curve so that each curve
    is a `points_per_s` sample, followed by the default quant table, whose
    cells (one `quantization_report` each) are the `step_p90_ms` samples.
    Set-up is the K=192 codebook build.
    """

    POINTS = "mp"
    STEPS = "cell"
    prefix_jobs = 1

    def __init__(self, mp_trials=None, quant_antennas=(8, 16, 32, 64),
                 quant_ratios=(1, 2, 3, 4), codebook_args=(64, 2, 192)):
        self.mp_trials = mp_trials
        self.cells = [(n, r * n) for n in quant_antennas for r in quant_ratios]
        self.codebook_args = codebook_args

    def curves(self, seed: int) -> list:
        """One config per mp curve; each curve draws from its own seed stream."""
        config = harness.ScenarioConfig(seed=seed, **(
            {} if self.mp_trials is None else {"trials": self.mp_trials}))
        return [replace(config, mp_antenna_counts=(n,), mp_beam_ratios=(r,))
                for n in config.mp_antenna_counts
                for r in config.mp_beam_ratios]

    def setup(self, seed: int):
        num_elements, branching, num_leaves = self.codebook_args
        start = time.perf_counter()
        book = codebook.build_codebook(arrays.ArraySpec(num_elements),
                                       branching, num_leaves)
        elapsed = time.perf_counter() - start
        return elapsed, book.num_leaves == num_leaves

    def expected_items(self, seed: int) -> int:
        curves = self.curves(seed)
        return len(curves) * len(curves[0].mp_snr_grid_db) + len(self.cells)

    def job(self, seed: int) -> JobResult:
        samples, rows, mps = [], [], []
        failed = 0
        for config in self.curves(seed):
            start = time.perf_counter()
            curve = harness.run_mp_experiment(config)
            elapsed = time.perf_counter() - start
            kind = (self.POINTS, config.mp_antenna_counts,
                    config.mp_beam_ratios)
            samples.append((kind, sum(row["trials"] for row in curve), elapsed))
            failed += mp_failures(curve)
            rows += [list(row.values()) for row in curve]
            mps += [row["mp"] for row in curve]
        for cell in self.cells:
            start = time.perf_counter()
            report = quantization.quantization_report(*cell)
            samples.append(((self.STEPS, *cell), 1,
                            time.perf_counter() - start))
            failed += not quant_report_ok(report)
            rows.append([report.worst_error, report.average_error])
        return JobResult(
            samples=samples,
            items=len(mps) + len(self.cells),
            failed=failed,
            rows=rows,
            trials=0,
            quality=np.array(mps),
        )

    @staticmethod
    def quality(terms: np.ndarray) -> float:
        """Share of mp trials aligned: 1 - mean misalignment probability."""
        return 1.0 - float(np.mean(terms))


WORKLOADS = {
    "rate-n32": lambda: RateWorkload(),
    "rate-n64": lambda: RateWorkload(N64_OVERRIDES),
    "tables": lambda: TablesWorkload(),
}


class Run:
    """Jobs and set-ups of one benchmark run, with their check tallies."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.setup_times = []

    def count(self, items: int, failed: int) -> None:
        self.attempted += items
        self.failed += failed

    def setup(self, repeats: int) -> None:
        for _ in range(repeats):
            elapsed, ok = self.workload.setup(self.seed)
            self.count(1, not ok)
            self.setup_times.append(elapsed)

    def job(self, index: int):
        seed = job_seed(self.seed, index)
        try:
            result = self.workload.job(seed)
        except Exception:  # a job that raises is a failed job, not a crash
            traceback.print_exc(file=sys.stderr)
            self.count(self.workload.expected_items(seed),
                       self.workload.expected_items(seed))
            return None
        self.count(result.items, result.failed)
        return result

    def jobs(self, deadline: float, first: int = 0) -> list:
        """Jobs from `first` on, each after one set-up; at least through the
        prefix, then until the deadline."""
        done, index = [], first
        while index < self.workload.prefix_jobs or time.perf_counter() < deadline:
            self.setup(1)
            result = self.job(index)
            if result is not None:
                done.append(result)
            index += 1
        return done


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result line, run details) as dicts."""
    start = time.perf_counter()
    run = Run(workload, seed)
    run.setup(SETUP_REPEATS)
    if not trace:
        jobs = run.jobs(start + seconds)
        values = {
            "points_per_s": points_per_s(jobs, workload.POINTS),
            "step_p90_ms": step_ms(jobs, workload.STEPS),
            "setup_s": float(np.percentile(run.setup_times, 90)),
            "quality_ratio": workload.quality(np.mean(
                [job.quality for job in jobs[:workload.prefix_jobs]], axis=0)),
            "passed_share": 1.0 - run.failed / run.attempted,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        steps = [s for job in jobs for kind, _, s in job.samples
                 if kind[0] == workload.STEPS]
        details = {"jobs": len(jobs), "step_samples": len(steps),
                   "step_p50_ms": 1e3 * statistics.median(steps),
                   "setup_samples": len(run.setup_times),
                   "setup_p50_s": statistics.median(run.setup_times)}
    else:
        untraced = run.jobs(start + seconds / 2.0)
        probe = layers.Probe()
        with Tracer() as tracer:
            run.setup(1)
            begin = tracer.mark()
            tracer.observers = probe.observers()
            prefix = [run.job(j) for j in range(workload.prefix_jobs)]
            tracer.observers = {}
            end = tracer.mark()
            traced = [job for job in prefix if job is not None]
            traced += run.jobs(start + seconds, first=workload.prefix_jobs)
        for plain, job in zip(untraced, prefix):
            # tracing must not change a single output bit
            same = job is not None and _bits(plain.rows) == _bits(job.rows)
            run.count(1, not same)
        overhead = (points_per_s(untraced, workload.POINTS)
                    / points_per_s(traced, workload.POINTS))
        metrics = layers.per_layer_metrics(
            tracer, (begin, end),
            trials=sum(job.trials for job in prefix if job is not None),
            jobs=workload.prefix_jobs, probe=probe, overhead_ratio=overhead)
        details = {"untraced_jobs": len(untraced), "traced_jobs": len(traced),
                   "spans": tracer.mark()}
        print(layers.span_table(tracer), file=sys.stderr)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, details


def _bits(rows: list) -> list:
    return [[float(v).hex() for v in row] for row in rows]
