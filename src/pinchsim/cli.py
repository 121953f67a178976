"""Command-line front end for the sweep harness.

Subcommands:
  simulate     run the sweep described by a config file
  sweep-n      minimum rate versus PA count, flag overrides
  sweep-power  minimum rate versus transmit power, flag overrides
  trace-drop   dump one drop's channel, frame, grid and allocation as JSON

A flag that sets an ExperimentConfig field stores under that field's name,
so the config is the file (or the defaults) with every given flag replacing
its field. Its value meets that field's own check (trace-drop's scenario
flags meet Scenario's, --threads run_sweep's), so it fails in the words a
config file's would. A bad flag, config file or output path is a usage error
(exit 2) before the first drop runs; a write that fails anyway ends in one
error line (exit 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from .experiments import (
    ExperimentConfig,
    _check_threads,
    _write,
    emit_csv,
    emit_json,
    load_config,
    run_sweep,
    scenario_for,
    trace_drop,
)
from .geometry import Scenario

__all__ = ["main"]

_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _checked(name: str, item, cls=ExperimentConfig, **context):
    """Argument type of cls's field name: one item value, or comma-separated
    ones where the field's default is a tuple, held to cls's own check of the
    field with the other fields at their defaults or set by context. cls is a
    class or a check that takes the field as a keyword, as _check_threads."""

    def check(text: str):
        if isinstance(getattr(cls, name, None), tuple):
            value = tuple(item(t) for t in text.split(",") if t.strip())
        else:
            value = item(text)
        try:
            cls(**context, **{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value

    check.__name__ = item.__name__
    return check


def _config(args) -> ExperimentConfig:
    """The config file, or the defaults, with every given field flag replacing
    its field; a command that switches the file's axis without values for it
    sweeps its own default values. Any error in the file, the fields or the
    output paths ends the run as a usage error."""
    given = {k: v for k, v in vars(args).items() if k in _FIELDS and v is not None}
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        if given.get("axis", config.axis) != config.axis and "axis_values" not in given:
            given["axis_values"] = args.default_axis_values
        config = replace(config, **given)
    except (ValueError, OSError) as exc:
        args.error(str(exc))
    for flag in ("out", "json"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        folder = os.path.dirname(os.path.abspath(path))
        if not path or os.path.isdir(path) or not os.path.isdir(folder):
            args.error(f"--{flag}: cannot write a file at {path}")
    named = {}  # real path -> the first of --config, --out and --json naming it
    for flag in ("config", "out", "json"):
        path = getattr(args, flag, None)
        other = named.setdefault(os.path.realpath(path), flag) if path else flag
        if other != flag:
            args.error(f"--{flag}: {path} is the --{other} file; one would replace the other")
    return config


def _sweep(args) -> int:
    result = run_sweep(_config(args), threads=args.threads)
    emit_csv(result, args.out)
    if args.json:
        emit_json(result, args.json)
    print(f"wrote {len(result.points)} rows to {args.out}")
    return 0


def _trace(args) -> int:
    config = _config(args)
    point = replace(config, axis="pa_count", axis_values=(args.n_pas,))
    scenario = scenario_for(point, args.n_pas, args.n_users, args.beta)
    text = json.dumps(trace_drop(scenario, config.master_seed, args.index), indent=2)
    if args.out:
        _write(args.out, "trace JSON", text)
        print(f"wrote trace to {args.out}")
    else:
        print(text)
    return 0


def _sweep_parser(sub, name: str, summary: str, axis: str | None = None):
    """simulate (axis None) runs its config file's sweep; sweep-n and
    sweep-power sweep their own axis and take user counts and densities."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--config", required=axis is None, help="config file (flat key = value lines)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--json", help="also write a JSON mirror here")
    p.add_argument(
        "--seed", dest="master_seed", metavar="SEED", type=_checked("master_seed", int),
        help="master seed override",
    )
    p.add_argument("--drops", type=_checked("drops", int), help="Monte Carlo drops override")
    p.add_argument(
        "--threads", type=_checked("threads", int, _check_threads), default=1,
        help="worker processes, >= 1",
    )
    if axis:
        p.add_argument("--m-values", type=_checked("m_values", int), help="user counts, e.g. 2,4")
        p.add_argument(
            "--beta-values", type=_checked("beta_values", float),
            help="blockage densities, e.g. 0.05,0.15",
        )
    p.set_defaults(func=_sweep, error=p.error, axis=axis)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchsim",
        description="Minimum-rate sweeps for waveguide-fed pinching-antenna downlinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _sweep_parser(sub, "simulate", "run the sweep described by a config file")

    p_n = _sweep_parser(sub, "sweep-n", "minimum rate versus PA count", "pa_count")
    p_n.add_argument(
        "--n-values", dest="axis_values", metavar="N_VALUES",
        type=_checked("axis_values", int, axis="pa_count"), help="PA counts, e.g. 5,10,15",
    )
    p_n.add_argument(
        "--tx-power-dbm", type=_checked("tx_power_dbm", float), help="fixed transmit power, dBm"
    )
    p_n.set_defaults(default_axis_values=ExperimentConfig().axis_values)

    p_p = _sweep_parser(sub, "sweep-power", "minimum rate versus transmit power", "tx_power")
    p_p.add_argument(
        "--power-values", dest="axis_values", metavar="POWER_VALUES",
        type=_checked("axis_values", float, axis="tx_power"),
        help="transmit powers in dBm, e.g. 0,10,20",
    )
    p_p.add_argument("--pa-count", type=_checked("pa_count", int), help="fixed number of PAs")
    p_p.set_defaults(default_axis_values=(0.0, 5.0, 10.0, 15.0, 20.0))

    p_t = sub.add_parser("trace-drop", help="dump one drop as JSON")
    p_t.add_argument(
        "--seed", dest="master_seed", metavar="SEED", type=_checked("master_seed", int),
        required=True, help="master seed",
    )
    p_t.add_argument("--index", type=_nonnegative_int, required=True, help="drop index")
    p_t.add_argument("--config", help="config file for scenario constants")
    p_t.add_argument("--n-pas", type=_checked("n_pas", int, Scenario, n_users=1), default=10)
    p_t.add_argument("--n-users", type=_checked("n_users", int, Scenario, n_pas=1), default=2)
    p_t.add_argument(
        "--beta", type=_checked("blockage_density", float, Scenario, n_pas=1, n_users=1),
        default=0.05,
    )
    p_t.add_argument("--tx-power-dbm", type=_checked("tx_power_dbm", float))
    p_t.add_argument("--out", help="write JSON here instead of stdout")
    p_t.set_defaults(func=_trace, error=p_t.error)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # from experiments._write: names what, where and why
        print(f"pinchsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
