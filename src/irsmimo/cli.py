"""Command-line front end: experiment runners that emit CSV files."""

import argparse
import sys
from dataclasses import asdict, fields

import numpy as np

from .arrays import ArraySpec, steering_coefficients
from .codebook import build_codebook
from .harness import (RATE_KEYS, ConfigError, ScenarioConfig, _parse_floats,
                      _parse_ints, make_config, run_mp_experiment,
                      run_rate_experiment, run_trial, scenario_assets,
                      write_csv)
from .quantization import quantization_report
from .training import AngleEstimate, slot_count


def _add_common(parser: argparse.ArgumentParser, trials: bool = True) -> None:
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed override")
    if trials:
        parser.add_argument("--trials", type=int, default=None,
                            help="Monte Carlo trial count override")
    parser.add_argument("--out", metavar="PATH", required=True,
                        help="output CSV path")


def _config_from(args) -> ScenarioConfig:
    return make_config(args.config, seed=args.seed, trials=vars(args).get("trials"))


def _cmd_codebook(args) -> int:
    if args.beams < args.antennas:
        args.error(f"argument --beams: expected at least --antennas "
                   f"({args.antennas}), got {args.beams}")
    book = build_codebook(ArraySpec(args.antennas), args.branching, args.beams)
    probes = np.arcsin(np.linspace(-1.0, 1.0, args.probes + 2)[1:-1])
    responses = steering_coefficients(args.antennas, 0.5, probes[:, None])
    rows = []
    for stage in range(1, book.num_stages + 1):
        live = np.flatnonzero(book.live[stage])
        gains = np.abs(responses.conj() @ book.stages[stage][:, live])
        rows += [{"stage": stage, "index": index, "probe_angle": float(angle),
                  "gain": float(gain)} for index, column in zip(live, gains.T)
                 for angle, gain in zip(probes, column)]
    write_csv(args.out, list(rows[0]), rows)
    return 0


def _cmd_mp_curve(args) -> int:
    rows = run_mp_experiment(_config_from(args))
    write_csv(args.out, list(rows[0]), rows)
    return 0


def _cmd_rate_curve(args) -> int:
    result = run_rate_experiment(_config_from(args))
    write_csv(args.out, list(result.rows[0]), result.rows)
    if result.ordering_violations:
        print(f"note: {result.ordering_violations} per-trial random-IRS vs "
              "estimated ordering violations (expected at low power)",
              file=sys.stderr)
    return 0


def _cmd_estimate(args) -> int:
    config = _config_from(args)
    # rate-curve trial 0 at the strongest power
    result = run_trial(config, scenario_assets(config), 0)
    top = int(np.argmax(config.power_grid_dbm))
    slots = slot_count(config.num_irs, config.num_irs_sweep_beams, 1,
                       result.search[top])
    geometry = result.geometry
    rows = []
    for l, (true, est) in enumerate(zip(result.truth, result.estimates[top])):
        row = {"irs_index": l,
               "alice_y": geometry.alice_position[1],
               "bob_y": geometry.bob_position[1],
               "irs_x": geometry.irs_positions[l][0],
               "irs_y": geometry.irs_positions[l][1],
               "power_dbm": config.power_grid_dbm[top]}
        for field, t, e in zip(fields(AngleEstimate), true, est):
            row.update({f"true_{field.name}": t, f"est_{field.name}": e})
        rows.append({**row, **dict(zip(RATE_KEYS, result.rates[top])),
                     "sweep_slots": slots.irs_sweep,
                     "parity_slots": slots.parity,
                     "search_slots": slots.search})
    write_csv(args.out, list(rows[0]), rows)
    return 0


def _cmd_quant_table(args) -> int:
    rows = [asdict(quantization_report(num_elements,
                                       int(round(ratio * num_elements))))
            for num_elements in args.antennas for ratio in args.ratios]
    write_csv(args.out, list(rows[0]), rows)
    return 0


def _at_least(minimum: int):
    """The parse of an integer flag whose value must be >= `minimum`."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < minimum:
            raise ValueError(f"expected an integer >= {minimum}, got {text!r}")
        return int(text)
    return parse


def _flag_type(parse):
    """`parse` as an argparse type: a ValueError becomes a usage error."""
    def convert(text: str) -> tuple:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsmimo",
        description="IRS-assisted THz MIMO link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="export hierarchical beam patterns")
    p.add_argument("--antennas", type=_flag_type(_at_least(1)), default=32)
    p.add_argument("--branching", type=_flag_type(_at_least(2)), default=2)
    p.add_argument("--beams", type=_flag_type(_at_least(2)), default=64)
    p.add_argument("--probes", type=_flag_type(_at_least(1)), default=361,
                   help="number of probe directions, uniform in sine")
    p.add_argument("--out", metavar="PATH", required=True)
    p.set_defaults(func=_cmd_codebook, error=p.error)

    p = sub.add_parser("mp-curve", help="misalignment probability versus SNR")
    _add_common(p)
    p.set_defaults(func=_cmd_mp_curve)

    p = sub.add_parser("rate-curve",
                       help="spectral efficiency versus transmit power")
    _add_common(p)
    p.set_defaults(func=_cmd_rate_curve)

    p = sub.add_parser("estimate",
                       help="single-trial estimation trace with all angles")
    _add_common(p, trials=False)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("quant-table",
                       help="worst/average quantization error grid")
    p.add_argument("--antennas", type=_flag_type(_parse_ints),
                   default=[8, 16, 32, 64])
    p.add_argument("--ratios", type=_flag_type(_parse_floats),
                   default=[1.0, 2.0, 3.0, 4.0])
    p.add_argument("--out", metavar="PATH", required=True)
    p.set_defaults(func=_cmd_quant_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
