"""Per-layer metrics of a traced run, computed from its spans and call returns.

Most metric names read `<layer>.<function>.<statistic>` and are computed from
the spans of that function:

- `calls_per_trial`: calls per Monte Carlo trial in the fixed job prefix;
- `calls`: calls per job in the fixed job prefix;
- `us_per_call`, `ms_per_call`: mean inclusive duration over every traced call;
- `self_share`: the function's self time as a share of the time spent inside
  the program (the summed duration of all root spans).

`arrays.pattern_gain` statistics leave out the scalar calls that the
quadrature in `quantization.average_error` makes; those are counted on their
own as `quantization.integrand_evals_per_cell`.

The rest are estimation-accuracy and work counts that `Probe` takes from the
returns of traced calls. Counts come from the fixed job prefix, so they repeat
exactly for a given seed. A metric whose layer does not run on a workload
reads 0.
"""

import numpy as np

# Bound here, before a tracer patches the package namespaces, so that the
# probe's own bookkeeping is neither traced nor counted.
from irsmimo.arrays import nearest_direction
from irsmimo.harness import true_composite_loss

from tracer import OBSERVE_SPAN

PER_LAYER_UNITS = {
    "training.hierarchical_search.self_share": "share",
    "training.measure_power.calls_per_trial": "calls/trial",
    "training.measure_power.us_per_call": "us",
    "training.phase2.us_per_call": "us",
    "training.phase1.us_per_call": "us",
    "training.cooperative_estimate.ms_per_call": "ms",
    "transmission.water_filling.calls_per_trial": "calls/trial",
    "transmission.water_filling.us_per_call": "us",
    "transmission.spectral_efficiency.us_per_call": "us",
    "transmission.estimate_composite_loss.us_per_call": "us",
    "transmission.build_beamformers.us_per_call": "us",
    "transmission.design_irs.us_per_call": "us",
    "transmission.parallel_rate.us_per_call": "us",
    "channel.assemble.calls_per_trial": "calls/trial",
    "channel.assemble.us_per_call": "us",
    "channel.make_link.us_per_call": "us",
    "irs_control.direction_mode.calls_per_trial": "calls/trial",
    "irs_control.direction_mode.us_per_call": "us",
    "harness.sample_scenario.us_per_call": "us",
    "harness.resamples_per_trial": "resamples/trial",
    "harness.run_rate_experiment.self_share": "share",
    "codebook.build_codebook.ms_per_call": "ms",
    "arrays.pattern_gain.calls": "calls/job",
    "arrays.pattern_gain.us_per_call": "us",
    "training.misalignment_curve.ms_per_call": "ms",
    "quantization.average_error.ms_per_call": "ms",
    "quantization.integrand_evals_per_cell": "evals/cell",
    "training.pilots_per_trial": "pilots/trial",
    "training.phase1_hit_rate": "share",
    "training.twin_pick_rate": "share",
    "training.phase2_hit_rate": "share",
    "transmission.composite_loss_rel_err": "rel",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator, denominator) -> float:
    return float(numerator) / denominator if denominator else 0.0


def _twin(cell: int, half: int) -> int:
    """Sweep-grid cell whose sine differs from `cell`'s by exactly 1."""
    return cell - half if cell >= half else cell + half


class Probe:
    """Accuracy and work counts measured from the returns of traced calls.

    Estimates are scored against the scenario's true geometry, in the grid
    cells that `arrays.nearest_direction` assigns. A phase-1 hit finds both
    IRS angles up to their grating twins; a twin pick is a phase-1 hit whose
    bridge check kept a consistent pair; a phase-2 hit finds both terminal
    leaves.
    """

    def __init__(self):
        self.pilots = 0
        self.resamples = 0
        self.irs_estimates = 0
        self.phase1_hits = 0
        self.twin_picks = 0
        self.phase2_hits = 0
        self.loss_rel_errors = []

    def observers(self) -> dict:
        return {
            "training.cooperative_estimate": self._estimates,
            "transmission.estimate_composite_loss": self._composite_loss,
            "harness.sample_scenario": self._scenario,
        }

    def _scenario(self, args, kwargs, result):
        self.resamples += result[1].resamples

    def _estimates(self, args, kwargs, result):
        scenario = args[0] if args else kwargs["scenario"]
        estimates, slots = result
        # SlotCount fields are the pilot slots of one pass, one per field
        self.pilots += sum(vars(slots).values())
        sweep = scenario.sweep_grid
        half = sweep.num_beams // 2
        rx_grid = scenario.rx_codebook.leaf_grid
        tx_grid = scenario.tx_codebook.leaf_grid
        for link, estimate in zip(scenario.cascade.links, estimates):
            true = link.angles
            self.irs_estimates += 1
            # Each return-mode sweep finds its cell only up to the grating
            # twin, 1 away in sine. Twinning both angles leaves the IRS phase
            # profile unchanged, so the bridge check must keep a pair in
            # which both angles or neither are twinned.
            arrival = nearest_direction(sweep, true.irs_arrival)
            departure = nearest_direction(sweep, true.irs_departure)
            arrival_hat = nearest_direction(sweep, estimate.irs_arrival)
            departure_hat = nearest_direction(sweep, estimate.irs_departure)
            if (arrival_hat in (arrival, _twin(arrival, half))
                    and departure_hat in (departure, _twin(departure, half))):
                self.phase1_hits += 1
                self.twin_picks += ((arrival_hat == arrival)
                                    == (departure_hat == departure))
            self.phase2_hits += (
                nearest_direction(rx_grid, estimate.rx_arrival)
                == nearest_direction(rx_grid, true.rx_arrival)
                and nearest_direction(tx_grid, estimate.tx_departure)
                == nearest_direction(tx_grid, true.tx_departure))

    def _composite_loss(self, args, kwargs, result):
        scenario = args[0] if args else kwargs["scenario"]
        irs_index = args[1] if len(args) > 1 else kwargs["irs_index"]
        true = true_composite_loss(scenario, irs_index)
        self.loss_rel_errors.append(abs(result - true) / true)


def per_layer_metrics(tracer, prefix, trials: int, jobs: int, probe: Probe,
                      overhead_ratio: float) -> dict:
    """Every per-layer metric of PER_LAYER_UNITS as {name: {value, unit}}.

    `prefix` is the (start, stop) span range of the fixed job prefix, which ran
    `jobs` jobs holding `trials` Monte Carlo trials.
    """
    name_ids, durations, self_times, parents = tracer.spans()
    ids = {name: i for i, name in enumerate(tracer.names)}
    in_prefix = np.zeros(name_ids.size, dtype=bool)
    in_prefix[prefix[0]:prefix[1]] = True
    roots = (parents < 0) & (name_ids != ids[OBSERVE_SPAN])
    program_time = durations[roots].sum()

    from_average_error = np.zeros_like(in_prefix)
    nested = parents >= 0
    from_average_error[nested] = (
        name_ids[parents[nested]] == ids.get("quantization.average_error", -1))
    pattern_gain = name_ids == ids.get("arrays.pattern_gain", -1)

    def of(span_name):
        if span_name == "arrays.pattern_gain":
            return pattern_gain & ~from_average_error
        return name_ids == ids.get(span_name, -1)

    def span_stat(span_name, stat):
        mask = of(span_name)
        if stat == "calls_per_trial":
            return _ratio(np.count_nonzero(mask & in_prefix), trials)
        if stat == "calls":
            return _ratio(np.count_nonzero(mask & in_prefix), jobs)
        if stat == "us_per_call":
            return 1e6 * _ratio(durations[mask].sum(), mask.sum())
        if stat == "ms_per_call":
            return 1e3 * _ratio(durations[mask].sum(), mask.sum())
        if stat == "self_share":
            return _ratio(self_times[mask].sum(), program_time)
        raise ValueError(f"unknown span statistic {stat!r}")

    cells = np.count_nonzero(of("quantization.quantization_report") & in_prefix)
    estimates = probe.irs_estimates
    special = {
        "harness.resamples_per_trial": _ratio(probe.resamples, trials),
        "quantization.integrand_evals_per_cell": _ratio(np.count_nonzero(
            pattern_gain & from_average_error & in_prefix), cells),
        "training.pilots_per_trial": _ratio(probe.pilots, trials),
        "training.phase1_hit_rate": _ratio(probe.phase1_hits, estimates),
        "training.twin_pick_rate": _ratio(probe.twin_picks, probe.phase1_hits),
        "training.phase2_hit_rate": _ratio(probe.phase2_hits, estimates),
        "transmission.composite_loss_rel_err": _ratio(
            sum(probe.loss_rel_errors), len(probe.loss_rel_errors)),
        "trace.overhead_ratio": overhead_ratio,
    }
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in special:
            value = special[name]
        else:
            span_name, stat = name.rsplit(".", 1)
            value = span_stat(span_name, stat)
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics


def span_table(tracer) -> str:
    """Calls, inclusive and self milliseconds per span name, by self time."""
    name_ids, durations, self_times, _ = tracer.spans()
    count = len(tracer.names)
    calls = np.bincount(name_ids, minlength=count)
    total = np.bincount(name_ids, weights=durations, minlength=count)
    own = np.bincount(name_ids, weights=self_times, minlength=count)
    lines = [f"{'span':48s} {'calls':>9s} {'total_ms':>11s} {'self_ms':>11s}"]
    for i in np.argsort(-own):
        if calls[i]:
            lines.append(f"{tracer.names[i]:48s} {calls[i]:9d} "
                         f"{1e3 * total[i]:11.1f} {1e3 * own[i]:11.1f}")
    return "\n".join(lines)
