"""Traced replay of a sweep: the stage calls of `run_drop`, timed from outside.

`traced_sweep` walks the sweep grid in `run_sweep`'s order and, for every
drop, calls the public stage functions in the same order as
`experiments.run_drop`, wrapping each call in a span. Spans stay in memory
and are written out by the caller when the run ends. The
per-drop scheme minima are kept so the caller can rebuild every grid point's
means and prove that the trace followed the sweep's own code path.

Nothing here reaches inside a stage: a span covers one public call, so a
stage's self time is its span's duration, and the drop span's self time is
the glue `run_drop` runs between the calls.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

from pinchsim.alloc import allocate, greedy_assign, min_rate
from pinchsim.baselines import baseline_min_rates
from pinchsim.channel import build_realization, channel_grid
from pinchsim.experiments import SCHEMES, drop_rngs, scenario_for
from pinchsim.frame import design_frame
from pinchsim.geometry import (
    center_pa_position,
    pa_positions,
    sample_blockage,
    sample_users,
)

SPAN_FIELDS = ("name", "start", "end", "parent", "point", "drop")

# Spans whose self times add up to each stage metric (ms per drop).
STAGE_SPANS = {
    "geometry.sample_ms": (
        "geometry.sample_users",
        "geometry.pa_positions",
        "geometry.sample_blockage",
    ),
    "channel.build_realization_ms": ("channel.build_realization",),
    "channel.channel_grid_ms": ("channel.channel_grid",),
    "frame.design_frame_ms": ("frame.design_frame",),
    "alloc.allocate_ms": ("alloc.allocate",),
    "alloc.greedy_assign_ms": ("alloc.greedy_assign",),
    "baselines.baseline_min_rates_ms": ("baselines.baseline_min_rates",),
    "experiments.drop_rngs_ms": ("experiments.drop_rngs",),
}


class Tracer:
    """In-memory span recorder. A span is a sequence in SPAN_FIELDS order;
    parent is the index of the enclosing span or None."""

    def __init__(self):
        self.spans = []

    def open(self, name, parent, point, drop):
        self.spans.append([name, perf_counter(), None, parent, point, drop])
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][2] = perf_counter()

    def call(self, name, parent, point, drop, fn, *args):
        start = perf_counter()
        out = fn(*args)
        self.spans.append((name, start, perf_counter(), parent, point, drop))
        return out

    def self_times(self):
        """Seconds of each span not covered by its direct children."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        return own

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


class TraceMismatch(Exception):
    """The traced replay disagreed with the program's own result."""


def _traced_drop(tracer, scenario, seed, drop, point, counts):
    """One drop in `run_drop`'s call order; returns its scheme minima."""
    call = tracer.call
    root = tracer.open("experiments.run_drop", None, point, drop)
    rng_users, rng_block, rng_center = call(
        "experiments.drop_rngs", root, point, drop, drop_rngs, seed, drop
    )
    users = call("geometry.sample_users", root, point, drop, sample_users, scenario, rng_users)
    pas = call("geometry.pa_positions", root, point, drop, pa_positions, scenario)
    los = call(
        "geometry.sample_blockage", root, point, drop,
        sample_blockage, scenario, users, pas, rng_block,
    )
    realization = call(
        "channel.build_realization", root, point, drop,
        build_realization, scenario, users, los,
    )
    frame = call(
        "frame.design_frame", root, point, drop, design_frame, scenario, realization
    )
    grid = call(
        "channel.channel_grid", root, point, drop, channel_grid, realization, frame
    )
    allocation = call(
        "alloc.allocate", root, point, drop, allocate, grid, frame, scenario
    )
    center_alpha = call(
        "geometry.sample_blockage", root, point, drop,
        sample_blockage, scenario, users, [center_pa_position(scenario)], rng_center,
    )[:, 0]
    single_pa, sc_fde = call(
        "baselines.baseline_min_rates", root, point, drop,
        baseline_min_rates, realization, grid, frame, scenario, center_alpha,
    )
    triple = (min_rate(allocation), single_pa, sc_fde)
    tracer.close(root)

    # Greedy alone, on the same |H|^2, outside both the allocate and the drop
    # span; the caller leaves this time out of the traced wall.
    extra_start = perf_counter()
    gains_sq = np.abs(grid.h) ** 2
    assignment = call(
        "alloc.greedy_assign", None, point, drop, greedy_assign, gains_sq, frame, scenario
    )
    if not np.array_equal(assignment, allocation.assignment):
        raise TraceMismatch(f"point {point} drop {drop}: greedy_assign != allocate's assignment")

    m_users, n_pas = los.shape
    k = frame.n_subcarriers
    counts["los_links"] += int(los.sum())
    counts["links"] += m_users * n_pas
    counts["grid_cells"] += m_users * n_pas * k
    counts["k"].append(k)
    counts["flat_fallback"] += frame.cp_duration == 0.0
    counts["powered_tones"] += int(np.count_nonzero((allocation.power > 0.0).any(axis=0)))
    counts["starved_users"] += int(np.count_nonzero(allocation.rates == 0.0))
    return triple, perf_counter() - extra_start


def traced_sweep(config):
    """Replay `run_sweep(config)` drop by drop under a tracer.

    Returns (tracer, means, counts, wall): means maps each grid point
    (axis_value, n_users, beta) to its per-scheme means, aggregated exactly
    as `run_sweep` does; wall is the traced time minus the extra greedy
    calls.
    """
    tracer = Tracer()
    counts = {
        "los_links": 0, "links": 0, "grid_cells": 0, "k": [],
        "flat_fallback": 0, "powered_tones": 0, "starved_users": 0,
    }
    means = {}
    extra = 0.0
    start = perf_counter()
    point = 0
    for n_users in config.m_values:
        for beta in config.beta_values:
            for axis_value in config.axis_values:
                scenario = scenario_for(config, axis_value, n_users, beta)
                mat = np.zeros((config.drops, len(SCHEMES)))
                for d in range(config.drops):
                    triple, extra_s = _traced_drop(
                        tracer, scenario, config.master_seed, d, point, counts
                    )
                    mat[d] = triple
                    extra += extra_s
                means[(axis_value, n_users, beta)] = mat.mean(axis=0)
                point += 1
    wall = perf_counter() - start - extra
    return tracer, means, counts, wall


def input_counts(counts):
    """Counts fixed by the workload's inputs; they must repeat exactly."""
    ks = counts["k"]
    return {
        "geometry.los_frac": counts["los_links"] / counts["links"],
        "channel.grid_cells": counts["grid_cells"],
        "frame.k_median": float(statistics.median(ks)),
        "frame.k_max": max(ks),
        "frame.flat_fallback_frac": counts["flat_fallback"] / len(ks),
        "alloc.powered_tone_frac": counts["powered_tones"] / sum(ks),
        "alloc.starved_users": counts["starved_users"],
    }


def stage_metrics(tracer):
    """Per-drop stage times (ms) from span self times, plus drop-time stats."""
    own = tracer.self_times()
    by_name = {}
    for span, seconds in zip(tracer.spans, own):
        by_name[span[0]] = by_name.get(span[0], 0.0) + seconds
    drops = [span[2] - span[1] for span in tracer.spans if span[0] == "experiments.run_drop"]
    n = len(drops)
    out = {
        metric: 1e3 * sum(by_name.get(name, 0.0) for name in names) / n
        for metric, names in STAGE_SPANS.items()
    }
    out["alloc.waterfill_ms"] = out["alloc.allocate_ms"] - out["alloc.greedy_assign_ms"]
    out["experiments.run_drop_ms_p50"] = 1e3 * statistics.median(drops)
    out["experiments.run_drop_ms_max"] = 1e3 * max(drops)
    out["experiments.run_drop_samples"] = n
    return out
