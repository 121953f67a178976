"""Monte Carlo sweeps of minimum user rate across schemes.

A sweep grid is (axis value) x (user count) x (blockage density); every grid
point is averaged over independent channel drops. Each drop's randomness is
derived purely from (master_seed, drop_index, purpose), never from the grid
point, so the same underlying user positions and blockage uniforms are
reused across axis values: common random numbers, which makes monotonicity
comparisons across transmit power and blockage density meaningful and the
doubled-drop run an extension of the shorter one.

A sweep's unit of work is one (user count, blockage density) and one
contiguous chunk of drops, run at every axis value. Only the allocation and
the TDMA baselines read the transmit power, so a drop builds one channel
(users, blockage, taps, frame, grid, and the power-free terms of the rates)
per PA count and evaluates all its power levels as array rows; the bits are
those of separate run_drop calls. Parallel sweeps run these jobs in worker
processes, byte-identical for any count.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from itertools import product
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .alloc import ToneTerms, _allocate_levels, _tone_terms, min_rate
from .baselines import _center_gains_sq, _tdma_min_rates
from .channel import ChannelGrid, ChannelRealization, build_realization, channel_grid
from .frame import FrameDesign, design_frame
from .geometry import (
    Scenario,
    center_pa_position,
    pa_positions,
    sample_blockage,
    sample_users,
)

__all__ = [
    "SCHEMES",
    "ExperimentConfig",
    "SweepPoint",
    "SweepResult",
    "dbm_to_watts",
    "scenario_for",
    "drop_rngs",
    "run_drop",
    "run_sweep",
    "emit_csv",
    "emit_json",
    "load_config",
    "trace_drop",
]

SCHEMES = ("ofdma", "single_pa", "sc_fde")

# Purpose indices for the per-drop random substreams.
_STREAM_USERS = 0
_STREAM_BLOCKAGE = 1
_STREAM_CENTER_BLOCKAGE = 2


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def _usable_dbm(dbm: float) -> bool:
    """True when dbm converts to a finite, positive number of watts."""
    try:
        return 0.0 < dbm_to_watts(dbm) < math.inf
    except OverflowError:
        return False


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition plus the scenario constants shared by all points.

    axis is "pa_count" (axis_values are PA counts, transmit power fixed at
    tx_power_dbm) or "tx_power" (axis_values are dBm, PA count fixed at
    pa_count). Powers cross this boundary in dBm and are converted to watts
    internally. Frozen, so no field skips the checks below; replace() makes
    a checked copy.
    """

    axis: str = "pa_count"
    axis_values: tuple = (5, 10, 15, 20, 25, 30)
    m_values: tuple = (2, 4)
    beta_values: tuple = (0.05, 0.15)
    drops: int = 500
    master_seed: int = 1
    room_length: float = Scenario.room_length
    room_width: float = Scenario.room_width
    waveguide_height: float = Scenario.waveguide_height
    carrier_freq: float = Scenario.carrier_freq
    refractive_index: float = Scenario.refractive_index
    bandwidth: float = Scenario.bandwidth
    noise_dbm: float = -90.0
    tx_power_dbm: float = 20.0
    pa_count: int = 10

    def __post_init__(self):
        if self.axis not in ("pa_count", "tx_power"):
            raise ValueError(f"axis must be pa_count or tx_power, got {self.axis!r}")
        for name, values in (
            ("drops", [self.drops]), ("master_seed", [self.master_seed]),
            ("pa_count", [self.pa_count]), ("m_values", self.m_values),
        ):
            if not all(isinstance(v, Integral) for v in values):
                raise ValueError(f"{name} must be of integer type, got {getattr(self, name)!r}")
        if self.drops < 1:
            raise ValueError("drops must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        for name in ("axis_values", "m_values", "beta_values"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} has duplicate entries: {values}")
        if self.axis == "tx_power" and not all(map(_usable_dbm, self.axis_values)):
            raise ValueError(
                "axis_values: transmit powers must be finite, with finite watts > 0, "
                f"got {self.axis_values}"
            )
        if list(self.axis_values) != sorted(self.axis_values):
            raise ValueError("axis_values must be sorted ascending")
        if any(m < 1 for m in self.m_values):
            raise ValueError(f"m_values must be >= 1, got {self.m_values}")
        if not all(0 <= beta < math.inf for beta in self.beta_values):
            raise ValueError(f"beta_values must be >= 0 and finite, got {self.beta_values}")
        if self.axis == "pa_count" and not all(
            v >= 1 and float(v).is_integer() for v in self.axis_values
        ):
            raise ValueError(
                f"axis_values: PA counts must be integers >= 1, got {self.axis_values}"
            )
        if self.pa_count < 1:
            raise ValueError(f"pa_count must be >= 1, got {self.pa_count}")
        for name in ("noise_dbm", "tx_power_dbm"):
            value = getattr(self, name)
            if not _usable_dbm(value):
                raise ValueError(f"{name} must be finite, with finite watts > 0, got {value}")
        # Scenario checks the room, carrier and band constants it shares
        # with the config, under the same names. Every message above and in
        # Scenario starts with the name of the field it rejects.
        scenario_for(self, self.axis_values[0], self.m_values[0], self.beta_values[0])


def scenario_for(config: ExperimentConfig, axis_value, n_users: int, beta: float) -> Scenario:
    """Scenario of one grid point."""
    if config.axis == "pa_count":
        n_pas = int(axis_value)
        tx_power = dbm_to_watts(config.tx_power_dbm)
    else:
        n_pas = config.pa_count
        tx_power = dbm_to_watts(float(axis_value))
    return Scenario(
        n_pas=n_pas,
        n_users=n_users,
        blockage_density=beta,
        tx_power=tx_power,
        noise_power=dbm_to_watts(config.noise_dbm),
        **{k: v for k, v in vars(config).items() if k in Scenario.__dataclass_fields__},
    )


def drop_rngs(master_seed: int, drop_index: int):
    """Independent generators for one drop: user positions, layout blockage,
    center-PA blockage. Derived from (seed, index, purpose) only."""
    return tuple(
        np.random.default_rng(
            np.random.SeedSequence((master_seed, drop_index, purpose))
        )
        for purpose in (_STREAM_USERS, _STREAM_BLOCKAGE, _STREAM_CENTER_BLOCKAGE)
    )


class DropChannel(NamedTuple):
    """The power-free half of a drop, built by _drop_channel."""

    realization: ChannelRealization
    frame: FrameDesign
    grid: ChannelGrid
    center_alpha: np.ndarray  # (M,) LoS toward the single-PA baseline's PA
    tones: ToneTerms  # its gains_sq is also the SC-FDE baseline's |H|^2
    center_sq: np.ndarray  # (M,) single-PA |h|^2


def _drop_channel(scenario: Scenario, master_seed: int, drop_index: int) -> DropChannel:
    """The power-free half of a drop: users, blockage, taps, frame, grid and
    the power-free terms of the allocation and the baselines. None of these
    reads tx_power, so one channel serves every power level."""
    rng_users, rng_block, rng_center = drop_rngs(master_seed, drop_index)
    users = sample_users(scenario, rng_users)
    pas = pa_positions(scenario)
    los = sample_blockage(scenario, users, pas, rng_block)
    realization = build_realization(scenario, users, los)
    frame = design_frame(scenario, realization)
    grid = channel_grid(realization, frame)
    center_alpha = sample_blockage(
        scenario, users, [center_pa_position(scenario)], rng_center
    )[:, 0]
    tones = _tone_terms(np.abs(grid.h) ** 2, frame, scenario)
    center_sq = _center_gains_sq(users, center_alpha, scenario)
    return DropChannel(realization, frame, grid, center_alpha, tones, center_sq)


def _drop_rates(scenario: Scenario, channel: DropChannel, tx_powers):
    """The rates half of a drop on a channel from _drop_channel, at an (L,)
    array of tx_powers in watts: run_drop's minima as (L, 3), and the L allocations."""
    allocations = _allocate_levels(channel.tones, channel.frame, scenario, tx_powers)
    single_pa, sc_fde = _tdma_min_rates(
        channel.center_sq, channel.tones.gains_sq, channel.frame, scenario, tx_powers
    )
    ofdma = [min_rate(allocation) for allocation in allocations]
    return np.array([ofdma, single_pa, sc_fde]).T, allocations


def run_drop(scenario: Scenario, master_seed: int, drop_index: int):
    """Simulate one channel drop and return the three schemes' minimum rates.

    Returns (ofdma, single_pa, sc_fde) in bits/s. A drop where every scheme
    lands at zero (total blockage) is a valid data point.
    """
    channel = _drop_channel(scenario, master_seed, drop_index)
    return tuple(_drop_rates(scenario, channel, np.array([scenario.tx_power]))[0][0].tolist())


@dataclass
class SweepPoint:
    """Aggregated minimum rate of one scheme at one grid point.

    The fields, in this order, are the first columns of the sweep CSV.
    """

    scheme: str
    axis_name: str
    axis_value: float
    n_users: int
    beta: float
    mean_min_rate: float  # bits/s
    stderr: float  # bits/s
    drops: int


@dataclass
class SweepResult:
    points: list = field(default_factory=list)
    master_seed: int = 0

    def point(self, scheme: str, axis_value, n_users: int, beta: float) -> SweepPoint:
        for p in self.points:
            if (
                p.scheme == scheme
                and p.axis_value == axis_value
                and p.n_users == n_users
                and p.beta == beta
            ):
                return p
        raise KeyError((scheme, axis_value, n_users, beta))


def _chunks(drops: int, workers: int) -> list[tuple[int, int]]:
    """Split range(drops) into min(workers, drops) contiguous non-empty runs."""
    w = min(workers, drops)
    return [(drops * i // w, drops * (i + 1) // w) for i in range(w)]


def _drop_chunk(channels: list, master_seed: int, start: int, stop: int):
    """Drops start..stop-1 on the (scenario, tx_powers) channels of one
    (M, beta): per drop, run_drop's (ofdma, single_pa, sc_fde) at every axis
    value as an (axis values, 3) array."""
    return [
        np.concatenate([
            _drop_rates(scenario, _drop_channel(scenario, master_seed, d), tx_powers)[0]
            for scenario, tx_powers in channels
        ])
        for d in range(start, stop)
    ]


def _channels(config: ExperimentConfig, n_users: int, beta: float) -> list:
    """The (scenario, tx_powers) channels of one (M, beta) for _drop_chunk:
    one per PA count at the fixed power, or one carrying every power level."""
    scenarios = [scenario_for(config, value, n_users, beta) for value in config.axis_values]
    if config.axis == "tx_power":
        return [(scenarios[0], np.array([s.tx_power for s in scenarios]))]
    return [(s, np.array([s.tx_power])) for s in scenarios]


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Average run_drop over the whole sweep grid.

    A job is one (M, beta) and one contiguous chunk of drops, run at every
    axis value; each drop builds a channel per PA count and evaluates it at
    all of its power levels (see _drop_chunk), which gives the same bits as
    separate run_drop calls. With min(threads, drops) > 1, one pool of that
    many worker processes runs the jobs; aggregating in grid and drop order
    keeps the output independent of the worker count.
    """
    if not isinstance(threads, Integral) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    groups = [
        _channels(config, m, beta) for m, beta in product(config.m_values, config.beta_values)
    ]
    chunks = _chunks(config.drops, threads)
    jobs = [(channels, config.master_seed, *chunk) for channels in groups for chunk in chunks]
    if len(chunks) == 1:
        parts = [_drop_chunk(*job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_drop_chunk, *zip(*jobs)))
    # (M, beta) x drop x axis value x scheme, reordered so that each grid
    # point of product(m_values, beta_values, axis_values) gets the C-ordered
    # (drops, 3) matrix of its per-drop scheme minima in drop order
    rows = np.array([row for part in parts for row in part])
    shape = (len(groups), config.drops, len(config.axis_values), len(SCHEMES))
    points = list(product(config.m_values, config.beta_values, config.axis_values))
    mats = rows.reshape(shape).swapaxes(1, 2).reshape(len(points), config.drops, len(SCHEMES))
    means = mats.mean(axis=1)
    stderrs = np.zeros_like(means)
    if config.drops > 1:
        stderrs = mats.std(axis=1, ddof=1) / math.sqrt(config.drops)

    result = SweepResult(master_seed=config.master_seed)
    for s, scheme in enumerate(SCHEMES):
        for (n_users, beta, axis_value), mean, stderr in zip(points, means, stderrs):
            result.points.append(
                SweepPoint(
                    scheme=scheme,
                    axis_name=config.axis,
                    axis_value=axis_value,
                    n_users=n_users,
                    beta=beta,
                    mean_min_rate=float(mean[s]),
                    stderr=float(stderr[s]),
                    drops=config.drops,
                )
            )
    return result


_CSV_HEADER = (
    "scheme,axis_name,axis_value,M,beta,mean_min_rate_bps,stderr_bps,drops,master_seed"
)


def _rows(result: SweepResult) -> list[dict]:
    """One dict per sweep point, keyed by the CSV columns: SweepPoint's
    fields in declaration order, then the master seed."""
    columns = _CSV_HEADER.split(",")
    return [dict(zip(columns, (*astuple(p), result.master_seed))) for p in result.points]


def _fmt(value) -> str:
    """Numbers formatted so that parsing the text recovers them exactly."""
    if isinstance(value, (str, int, np.integer)):
        return str(value)
    return repr(float(value))


def _write(path, what: str, text: str) -> None:
    """Write text and a final newline to path; a failure names what and where."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


def emit_csv(result: SweepResult, path) -> None:
    """Write one row per (scheme, axis value, user count, beta).

    Decimal points, no thousands separators, shortest round-trip float
    representation, trailing newline.
    """
    lines = [_CSV_HEADER] + [",".join(map(_fmt, row.values())) for row in _rows(result)]
    _write(path, "sweep CSV", "\n".join(lines))


def emit_json(result: SweepResult, path) -> None:
    """JSON mirror of the CSV rows (same fields)."""
    _write(path, "sweep JSON", json.dumps(_rows(result), indent=2))


# Config files are flat key = value text; keys and value types mirror
# ExperimentConfig's fields and their defaults.
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _parse_value(key: str, text: str):
    default = _DEFAULTS[key]
    if not isinstance(default, tuple):
        return type(default)(text)
    items = [t.strip() for t in text.split(",") if t.strip()]
    if key != "axis_values":
        return tuple(type(default[0])(t) for t in items)
    # axis_values: integers for PA counts, floats for dBm levels
    values = tuple(float(t) for t in items)
    if all(v.is_integer() for v in values):
        return tuple(int(v) for v in values)
    return values


def load_config(path) -> ExperimentConfig:
    """Parse a flat key = value config file.

    Blank lines and '#' comments are ignored; unknown and repeated keys are
    errors so a typo cannot silently fall back to a default or another value.
    """
    overrides, first = {}, {}  # key -> parsed value, and the line that set it
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown config key: {key!r}")
            if key in first:
                raise ValueError(f"{path}:{lineno}: {key!r} already set on line {first[key]}")
            first[key] = lineno
            try:
                overrides[key] = _parse_value(key, value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    try:
        return ExperimentConfig(**overrides)
    except ValueError as exc:
        # The message starts with the rejected field: name the line that set it.
        key = str(exc).partition(" ")[0].rstrip(":")
        where = f":{first[key]}" if key in first else ""
        raise ValueError(f"{path}{where}: {exc}") from exc


def trace_drop(scenario: Scenario, master_seed: int, drop_index: int) -> dict:
    """Re-run one drop through run_drop's pipeline and dump its internals as
    plain JSON-ready data."""
    channel = _drop_channel(scenario, master_seed, drop_index)
    rates, (allocation,) = _drop_rates(scenario, channel, np.array([scenario.tx_power]))
    ofdma, single_pa, sc_fde = rates[0].tolist()
    realization, frame, grid = channel.realization, channel.frame, channel.grid
    magnitudes = np.abs(grid.h)
    return {
        "master_seed": master_seed,
        "drop_index": drop_index,
        "scenario": asdict(scenario),
        "users": realization.users.tolist(),
        "pas": realization.pas.tolist(),
        "feed": realization.feed.tolist(),
        "los": realization.los.tolist(),
        "taps": {
            "gain_real": realization.tap_gains.real.tolist(),
            "gain_imag": realization.tap_gains.imag.tolist(),
            "delay_s": realization.tap_delays.tolist(),
        },
        "frame": {
            "cp_duration_s": frame.cp_duration,
            "fft_duration_s": frame.fft_duration,
            "n_subcarriers": frame.n_subcarriers,
            "subcarrier_spacing_hz": frame.subcarrier_spacing,
            "cp_efficiency": frame.cp_efficiency,
        },
        "grid_summary": {
            "n_subcarriers": grid.n_subcarriers,
            "per_user_abs": [
                dict(zip(("min", "mean", "max"), row))
                for row in np.stack(
                    [magnitudes.min(axis=1), magnitudes.mean(axis=1), magnitudes.max(axis=1)],
                    axis=1,
                ).tolist()
            ],
        },
        "allocation": {
            "tones_per_user": [np.flatnonzero(row == 1).tolist() for row in allocation.assignment],
            "power": allocation.power.tolist(),
            "rates_bps": allocation.rates.tolist(),
            "unusable_budget": allocation.unusable_budget.tolist(),
            "min_rate_bps": ofdma,
        },
        "baseline_min_rates_bps": {"single_pa": single_pa, "sc_fde": sc_fde},
        "center_pa_alpha": channel.center_alpha.tolist(),
    }
