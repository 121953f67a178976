"""Command-line front end for the sweep harness.

Subcommands:
  simulate     run the sweep described by a config file
  sweep-n      minimum rate versus PA count, flag overrides
  sweep-power  minimum rate versus transmit power, flag overrides
  trace-drop   dump one drop's channel, frame, grid and allocation as JSON
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .experiments import (
    ExperimentConfig,
    emit_csv,
    emit_json,
    load_config,
    run_sweep,
    scenario_for,
    trace_drop,
)

__all__ = ["main"]


def _float_list(text: str):
    return tuple(float(t) for t in text.split(",") if t.strip())


def _int_at_least(text: str, minimum: int) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int_list(text: str):
    return tuple(_positive_int(t) for t in text.split(",") if t.strip())


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonnegative_float_list(text: str):
    return tuple(_nonnegative_float(t) for t in text.split(",") if t.strip())


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file (flat key = value lines)")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--json", help="also write a JSON mirror here")
    parser.add_argument("--seed", type=_nonnegative_int, help="master seed override")
    parser.add_argument("--drops", type=_positive_int, help="Monte Carlo drops override")
    parser.add_argument(
        "--threads", type=_positive_int, default=1, help="worker processes, >= 1"
    )


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m-values", type=_positive_int_list, help="user counts, e.g. 2,4")
    parser.add_argument(
        "--beta-values", type=_nonnegative_float_list, help="blockage densities, e.g. 0.05,0.15"
    )


def _base_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.drops is not None:
        overrides["drops"] = args.drops
    if getattr(args, "m_values", None):
        overrides["m_values"] = args.m_values
    if getattr(args, "beta_values", None):
        overrides["beta_values"] = args.beta_values
    return replace(config, **overrides) if overrides else config


def _run_and_emit(config: ExperimentConfig, args) -> None:
    result = run_sweep(config, threads=args.threads)
    emit_csv(result, args.out)
    if args.json:
        emit_json(result, args.json)
    print(f"wrote {len(result.points)} rows to {args.out}")


def _cmd_simulate(args) -> int:
    if not args.config:
        raise SystemExit("simulate requires --config")
    _run_and_emit(_base_config(args), args)
    return 0


def _cmd_sweep(args) -> int:
    """sweep-n and sweep-power: sweep args.axis, with the other axis fixed by
    --tx-power-dbm or --pa-count."""
    config = _base_config(args)
    overrides = {"axis": args.axis}
    if args.axis_values:
        overrides["axis_values"] = args.axis_values
    elif config.axis != args.axis:
        overrides["axis_values"] = args.default_axis_values
    for fixed in ("tx_power_dbm", "pa_count"):
        if getattr(args, fixed, None) is not None:
            overrides[fixed] = getattr(args, fixed)
    _run_and_emit(replace(config, **overrides), args)
    return 0


def _cmd_trace_drop(args) -> int:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.tx_power_dbm is not None:
        config = replace(config, tx_power_dbm=args.tx_power_dbm)
    point = replace(config, axis="pa_count", axis_values=(args.n_pas,))
    scenario = scenario_for(point, args.n_pas, args.n_users, args.beta)
    trace = trace_drop(scenario, args.seed, args.index)
    text = json.dumps(trace, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote trace to {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchsim",
        description="Minimum-rate sweeps for waveguide-fed pinching-antenna downlinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the sweep described by a config file")
    _add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_n = sub.add_parser("sweep-n", help="minimum rate versus PA count")
    _add_common(p_n)
    _add_sweep_flags(p_n)
    p_n.add_argument(
        "--n-values", dest="axis_values", metavar="N_VALUES", type=_positive_int_list,
        help="PA counts, e.g. 5,10,15",
    )
    p_n.add_argument("--tx-power-dbm", type=_finite_float, help="fixed transmit power, dBm")
    p_n.set_defaults(
        func=_cmd_sweep, axis="pa_count", default_axis_values=ExperimentConfig().axis_values
    )

    p_p = sub.add_parser("sweep-power", help="minimum rate versus transmit power")
    _add_common(p_p)
    _add_sweep_flags(p_p)
    p_p.add_argument(
        "--power-values", dest="axis_values", metavar="POWER_VALUES", type=_float_list,
        help="transmit powers in dBm, e.g. 0,10,20",
    )
    p_p.add_argument("--pa-count", type=_positive_int, help="fixed number of PAs")
    p_p.set_defaults(
        func=_cmd_sweep, axis="tx_power", default_axis_values=(0.0, 5.0, 10.0, 15.0, 20.0)
    )

    p_t = sub.add_parser("trace-drop", help="dump one drop as JSON")
    p_t.add_argument("--seed", type=_nonnegative_int, required=True, help="master seed")
    p_t.add_argument("--index", type=_nonnegative_int, required=True, help="drop index")
    p_t.add_argument("--config", help="config file for scenario constants")
    p_t.add_argument("--n-pas", type=_positive_int, default=10)
    p_t.add_argument("--n-users", type=_positive_int, default=2)
    p_t.add_argument("--beta", type=_nonnegative_float, default=0.05)
    p_t.add_argument("--tx-power-dbm", type=_finite_float)
    p_t.add_argument("--out", help="write JSON here instead of stdout")
    p_t.set_defaults(func=_cmd_trace_drop)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
