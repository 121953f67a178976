"""Monte Carlo sweeps of minimum user rate across schemes.

A sweep grid is (axis value) x (user count) x (blockage density); every grid
point is averaged over independent channel drops. Each drop's randomness is
derived purely from (master_seed, drop_index, purpose), never from the grid
point, so the same underlying user positions and blockage uniforms are
reused across axis values: common random numbers, which makes monotonicity
comparisons across transmit power and blockage density meaningful and the
doubled-drop run an extension of the shorter one.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import partial

import numpy as np

from .alloc import allocate, min_rate
from .baselines import baseline_min_rates
from .channel import build_realization, channel_grid
from .frame import design_frame
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
    "watts_to_dbm",
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


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts / 1e-3)


@dataclass
class ExperimentConfig:
    """Sweep definition plus the scenario constants shared by all points.

    axis is "pa_count" (axis_values are PA counts, transmit power fixed at
    tx_power_dbm) or "tx_power" (axis_values are dBm, PA count fixed at
    pa_count). Powers cross this boundary in dBm and are converted to watts
    internally.
    """

    axis: str = "pa_count"
    axis_values: tuple = (5, 10, 15, 20, 25, 30)
    m_values: tuple = (2, 4)
    beta_values: tuple = (0.05, 0.15)
    drops: int = 500
    master_seed: int = 1
    room_length: float = 30.0
    room_width: float = 10.0
    waveguide_height: float = 3.0
    carrier_freq: float = 28e9
    refractive_index: float = 1.4
    bandwidth: float = 500e6
    noise_dbm: float = -90.0
    tx_power_dbm: float = 20.0
    pa_count: int = 10

    def __post_init__(self):
        if self.axis not in ("pa_count", "tx_power"):
            raise ValueError(f"axis must be pa_count or tx_power, got {self.axis!r}")
        if self.drops < 1:
            raise ValueError("drops must be >= 1")
        if not self.axis_values:
            raise ValueError("axis_values must be nonempty")
        if list(self.axis_values) != sorted(self.axis_values):
            raise ValueError("axis_values must be sorted ascending")
        if not self.m_values or not self.beta_values:
            raise ValueError("m_values and beta_values must be nonempty")
        if any(m < 1 for m in self.m_values):
            raise ValueError(f"m_values must be >= 1, got {self.m_values}")
        if any(beta < 0 for beta in self.beta_values):
            raise ValueError(f"beta_values must be >= 0, got {self.beta_values}")
        if self.axis == "pa_count" and not all(
            v >= 1 and float(v).is_integer() for v in self.axis_values
        ):
            raise ValueError(f"PA counts must be integers >= 1, got {self.axis_values}")
        for name in ("axis_values", "m_values", "beta_values"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} has duplicate entries: {values}")


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
        room_length=config.room_length,
        room_width=config.room_width,
        waveguide_height=config.waveguide_height,
        carrier_freq=config.carrier_freq,
        refractive_index=config.refractive_index,
        blockage_density=beta,
        bandwidth=config.bandwidth,
        tx_power=tx_power,
        noise_power=dbm_to_watts(config.noise_dbm),
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


def _simulate_drop(scenario: Scenario, master_seed: int, drop_index: int):
    """The drop pipeline behind run_drop and trace_drop. Returns run_drop's
    (ofdma, single_pa, sc_fde) minimum rates and the stage outputs
    (realization, frame, grid, allocation, center_alpha)."""
    rng_users, rng_block, rng_center = drop_rngs(master_seed, drop_index)
    users = sample_users(scenario, rng_users)
    pas = pa_positions(scenario)
    los = sample_blockage(scenario, users, pas, rng_block)
    realization = build_realization(scenario, users, los)
    frame = design_frame(scenario, realization)
    grid = channel_grid(realization, frame)

    allocation = allocate(grid, frame, scenario)
    center_alpha = sample_blockage(
        scenario, users, [center_pa_position(scenario)], rng_center
    )[:, 0]
    single_pa, sc_fde = baseline_min_rates(
        realization, grid, frame, scenario, center_alpha
    )
    rates = (min_rate(allocation), single_pa, sc_fde)
    return rates, (realization, frame, grid, allocation, center_alpha)


def run_drop(scenario: Scenario, master_seed: int, drop_index: int):
    """Simulate one channel drop and return the three schemes' minimum rates.

    Returns (ofdma, single_pa, sc_fde) in bits/s. A drop where every scheme
    lands at zero (total blockage) is a valid data point.
    """
    return _simulate_drop(scenario, master_seed, drop_index)[0]


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


def _drop_matrix(scenario: Scenario, master_seed: int, drops: int, threads: int):
    """(drops, 3) matrix of per-drop scheme minima, ordered by drop index."""
    drop = partial(run_drop, scenario, master_seed)
    if threads <= 1:
        return np.array([drop(d) for d in range(drops)])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.array(list(pool.map(drop, range(drops))))


def run_sweep(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Average run_drop over the whole sweep grid.

    The result is independent of the thread count: drops are keyed by index
    and aggregated in index order.
    """
    stats = {}
    for n_users in config.m_values:
        for beta in config.beta_values:
            for axis_value in config.axis_values:
                scenario = scenario_for(config, axis_value, n_users, beta)
                mat = _drop_matrix(scenario, config.master_seed, config.drops, threads)
                means = mat.mean(axis=0)
                if config.drops > 1:
                    stderrs = mat.std(axis=0, ddof=1) / math.sqrt(config.drops)
                else:
                    stderrs = np.zeros(len(SCHEMES))
                stats[(n_users, beta, axis_value)] = (means, stderrs)

    result = SweepResult(master_seed=config.master_seed)
    for s, scheme in enumerate(SCHEMES):
        for (n_users, beta, axis_value), (means, stderrs) in stats.items():
            result.points.append(
                SweepPoint(
                    scheme=scheme,
                    axis_name=config.axis,
                    axis_value=axis_value,
                    n_users=n_users,
                    beta=beta,
                    mean_min_rate=float(means[s]),
                    stderr=float(stderrs[s]),
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


def emit_csv(result: SweepResult, path) -> None:
    """Write one row per (scheme, axis value, user count, beta).

    Decimal points, no thousands separators, shortest round-trip float
    representation, trailing newline.
    """
    lines = [_CSV_HEADER] + [",".join(map(_fmt, row.values())) for row in _rows(result)]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


def emit_json(result: SweepResult, path) -> None:
    """JSON mirror of the CSV rows (same fields)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_rows(result), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep JSON to {path}: {exc}") from exc


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

    Blank lines and '#' comments are ignored; unknown keys are errors so a
    typo cannot silently fall back to a default.
    """
    overrides = {}
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
            try:
                overrides[key] = _parse_value(key, value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    try:
        return ExperimentConfig(**overrides)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def trace_drop(scenario: Scenario, master_seed: int, drop_index: int) -> dict:
    """Re-run one drop through run_drop's pipeline and dump its internals as
    plain JSON-ready data."""
    (ofdma, single_pa, sc_fde), (realization, frame, grid, allocation, center_alpha) = (
        _simulate_drop(scenario, master_seed, drop_index)
    )
    magnitudes = np.abs(grid.h)
    return {
        "master_seed": master_seed,
        "drop_index": drop_index,
        "scenario": asdict(scenario),
        "users": [[u.x, u.y, u.z] for u in realization.users],
        "pas": [[p.x, p.y, p.z] for p in realization.pas],
        "feed": [realization.feed.x, realization.feed.y, realization.feed.z],
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
                {
                    "min": float(magnitudes[m].min()),
                    "mean": float(magnitudes[m].mean()),
                    "max": float(magnitudes[m].max()),
                }
                for m in range(grid.n_users)
            ],
        },
        "allocation": {
            "tones_per_user": [
                np.flatnonzero(allocation.assignment[m] == 1).tolist()
                for m in range(scenario.n_users)
            ],
            "power": allocation.power.tolist(),
            "rates_bps": allocation.rates.tolist(),
            "unusable_budget": allocation.unusable_budget.tolist(),
            "min_rate_bps": ofdma,
        },
        "baseline_min_rates_bps": {"single_pa": single_pa, "sc_fde": sc_fde},
        "center_pa_alpha": center_alpha.tolist(),
    }
