"""Monte Carlo harness: determinism, common random numbers, CSV/JSON output."""

import json
import math
import re
from dataclasses import FrozenInstanceError, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import alloc, experiments
from pinchsim.alloc import min_rate
from pinchsim.experiments import (
    SCHEMES,
    ExperimentConfig,
    SweepPoint,
    SweepResult,
    dbm_to_watts,
    emit_csv,
    emit_json,
    load_config,
    run_drop,
    run_sweep,
    scenario_for,
    trace_drop,
)
from pinchsim.experiments import _chunks, _drop_channel, _drop_chunk, _drop_rates
from pinchsim.geometry import Scenario

from helpers import (
    reference_allocate,
    reference_baseline_min_rates,
    reference_per_user_abs,
    reference_sweep_stats,
)


def small_config(**kw):
    base = dict(
        axis="pa_count",
        axis_values=(2, 4),
        m_values=(2,),
        beta_values=(0.05,),
        drops=3,
        master_seed=123,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestPowerConversion:
    def test_dbm_to_watts(self):
        assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-12)
        assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)

    def test_round_trip(self):
        for dbm in (-90.0, -10.0, 0.0, 13.5, 20.0):
            assert 10.0 * math.log10(dbm_to_watts(dbm) / 1e-3) == pytest.approx(dbm, abs=1e-12)


class TestExperimentConfig:
    def test_defaults_match_documented_assumptions(self):
        cfg = ExperimentConfig()
        assert cfg.bandwidth == 500e6
        assert cfg.waveguide_height == 3.0
        assert cfg.carrier_freq == 28e9
        assert cfg.refractive_index == 1.4
        assert cfg.noise_dbm == -90.0
        assert cfg.tx_power_dbm == 20.0

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            ExperimentConfig(axis="users")

    def test_field_assignment_raises(self):
        """Fields are set only through __init__, so no value skips its check;
        replace() builds a checked copy."""
        cfg = ExperimentConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.master_seed = -1
        assert cfg.master_seed == 1
        with pytest.raises(ValueError, match="master_seed must be >= 0"):
            replace(cfg, master_seed=-1)

    def test_rejects_unsorted_axis_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig(axis_values=(10, 5))

    def test_rejects_empty_lists(self):
        with pytest.raises(ValueError):
            ExperimentConfig(axis_values=())
        with pytest.raises(ValueError):
            ExperimentConfig(m_values=())

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(m_values=(0, 2)), "m_values must be >= 1"),
            (dict(beta_values=(-0.05,)), "beta_values must be >= 0"),
            (dict(axis_values=(0, 5)), "PA counts must be integers >= 1"),
            (dict(axis_values=(2.5, 5)), "PA counts must be integers >= 1"),
            (dict(axis_values=(5, 5)), "axis_values has duplicate"),
            (dict(axis="tx_power", axis_values=(0.0, 0.0)), "axis_values has duplicate"),
            (dict(m_values=(2, 2)), "m_values has duplicate"),
            (dict(beta_values=(0.05, 0.05)), "beta_values has duplicate"),
            (dict(master_seed=-1), "master_seed must be >= 0"),
            (dict(beta_values=(float("nan"),)), "beta_values must be >= 0"),
            (dict(pa_count=0), "pa_count must be >= 1"),
            (dict(room_length=0.0), "room_length must be finite and > 0"),
            (dict(room_width=-10.0), "room_width must be finite and > 0"),
            (dict(waveguide_height=float("inf")), "waveguide_height must be finite and > 0"),
            (dict(carrier_freq=float("nan")), "carrier_freq must be finite and > 0"),
            (dict(bandwidth=-5.0), "bandwidth must be finite and > 0"),
            (dict(refractive_index=0.9), "refractive_index must be finite and >= 1"),
            (dict(noise_dbm=float("-inf")), "noise_dbm must be finite"),
            (dict(tx_power_dbm=float("nan")), "tx_power_dbm must be finite"),
            (dict(axis="tx_power", axis_values=(0, float("inf"))), "transmit powers must be finite"),
            (dict(beta_values=(0.05, float("inf"))), "beta_values must be >= 0 and finite"),
            (dict(noise_dbm=-4000.0), "noise_dbm must be finite, with finite watts > 0"),
            (dict(tx_power_dbm=4000.0), "tx_power_dbm must be finite, with finite watts > 0"),
            (dict(tx_power_dbm=-4000.0), "tx_power_dbm must be finite, with finite watts > 0"),
            (
                dict(axis="tx_power", axis_values=(-4000.0, 0.0)),
                "transmit powers must be finite, with finite watts > 0",
            ),
            (dict(axis="tx_power", axis_values=(0.0, 4000.0)), "transmit powers must be finite"),
        ],
    )
    def test_rejects_invalid_values(self, kw, message):
        with pytest.raises(ValueError, match=message) as exc:
            ExperimentConfig(**kw)
        # load_config names the line of the field the message starts with.
        assert str(exc.value).partition(" ")[0].rstrip(":") in kw

    @pytest.mark.parametrize(
        "kw",
        [dict(drops=2.5), dict(m_values=(2, 2.5)), dict(master_seed=1.5), dict(pa_count=2.5)],
        ids=lambda kw: next(iter(kw)),
    )
    def test_rejects_non_integer_counts_and_seeds(self, kw):
        (name,) = kw
        with pytest.raises(ValueError, match=f"{name} must be of integer type"):
            ExperimentConfig(**kw)

    def test_numpy_integers_and_integral_pa_counts_pass(self):
        cfg = ExperimentConfig(
            axis_values=(2.0, 4.0), m_values=(np.int32(2),), drops=np.int64(3),
            master_seed=np.uint32(7), pa_count=np.int64(4),
        )
        assert scenario_for(cfg, 4.0, cfg.m_values[0], 0.05).n_pas == 4


class TestScenarioFor:
    def test_pa_count_axis(self):
        sc = scenario_for(small_config(), 4, 2, 0.05)
        assert sc.n_pas == 4 and sc.n_users == 2
        assert sc.tx_power == pytest.approx(0.1, rel=1e-12)  # 20 dBm default
        assert sc.noise_power == pytest.approx(1e-12, rel=1e-12)

    def test_tx_power_axis(self):
        cfg = small_config(axis="tx_power", axis_values=(0.0, 10.0), pa_count=7)
        sc = scenario_for(cfg, 10.0, 4, 0.15)
        assert sc.n_pas == 7 and sc.n_users == 4
        assert sc.tx_power == pytest.approx(0.01, rel=1e-12)
        assert sc.blockage_density == 0.15


class TestRunDrop:
    def test_deterministic(self):
        sc = Scenario(n_pas=3, n_users=2)
        assert run_drop(sc, 5, 17) == run_drop(sc, 5, 17)

    def test_total_blockage_zeroes_everything(self):
        sc = Scenario(n_pas=3, n_users=2, blockage_density=1e6)
        assert run_drop(sc, 1, 0) == (0.0, 0.0, 0.0)

    def test_flat_single_user_reduction(self):
        # One user, one PA at center, no blockage: all three schemes see the
        # same link with no CP, so the three minima coincide and are positive.
        sc = Scenario(n_pas=1, n_users=1, blockage_density=0.0)
        ofdma, single, sc_fde = run_drop(sc, 9, 4)
        assert ofdma > 0
        assert ofdma == pytest.approx(sc_fde, rel=1e-9)
        assert ofdma == pytest.approx(single, rel=1e-9)

    def test_different_drops_differ(self):
        sc = Scenario(n_pas=3, n_users=2)
        assert run_drop(sc, 5, 0) != run_drop(sc, 5, 1)


def failing_drop_chunk(channels, master_seed, start, stop):
    """Stand-in for experiments._drop_chunk that fails in the worker."""
    raise ValueError(f"drops {start}..{stop - 1} failed in a worker")


class TestRunSweep:
    def test_single_drop_equals_run_drop(self):
        cfg = small_config(drops=1)
        result = run_sweep(cfg)
        for axis_value in cfg.axis_values:
            sc = scenario_for(cfg, axis_value, 2, 0.05)
            triple = run_drop(sc, cfg.master_seed, 0)
            for s, scheme in enumerate(SCHEMES):
                point = result.point(scheme, axis_value, 2, 0.05)
                assert point.mean_min_rate == triple[s]
                assert point.stderr == 0.0
                assert point.drops == 1

    def test_doubling_drops_extends_streams(self):
        """Both job shapes: a channel per PA count at one power, and one
        channel carrying every power level."""
        cfg = small_config()
        per_count = [(scenario_for(cfg, v, 2, 0.05), np.array([0.1])) for v in cfg.axis_values]
        levels = [(per_count[0][0], np.array([dbm_to_watts(p) for p in (0.0, 10.0, 20.0)]))]
        for channels in (per_count, levels):
            short = _drop_chunk(channels, 123, 0, 3)
            long = _drop_chunk(channels, 123, 0, 6)
            assert np.array_equal(short, long[:3])

    def test_thread_count_does_not_change_results(self):
        cfg = small_config(drops=4)
        serial = run_sweep(cfg, threads=1)
        threaded = run_sweep(cfg, threads=3)
        for a, b in zip(serial.points, threaded.points):
            assert a == b

    @pytest.mark.parametrize("threads", [2, 3, 7])
    def test_worker_count_and_chunking_do_not_change_points(self, threads):
        # 7 > drops: the pool is capped at 5 workers, one drop each.
        cfg = small_config(drops=5, m_values=(1, 2), beta_values=(0.05, 0.3))
        assert run_sweep(cfg, threads=threads).points == run_sweep(cfg).points

    def test_worker_error_surfaces(self, monkeypatch):
        """An error raised in a worker process re-raises in the caller. The
        stand-in job is pickled by reference, so a worker runs it whatever
        the start method."""
        monkeypatch.setattr(experiments, "_drop_chunk", failing_drop_chunk)
        with pytest.raises(ValueError, match="failed in a worker") as info:
            run_sweep(small_config(drops=2), threads=2)
        assert type(info.value.__cause__).__name__ == "_RemoteTraceback"

    @pytest.mark.parametrize("threads", [0, -1, 2.5, 1.0, "2"])
    def test_bad_thread_count_is_an_error(self, threads, monkeypatch):
        monkeypatch.setattr(experiments, "_drop_chunk", failing_drop_chunk)
        message = f"threads must be an integer >= 1, got {threads!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_sweep(small_config(drops=2), threads=threads)

    def test_channel_built_once_per_drop_across_power_levels(self, monkeypatch):
        """The grid and the allocation's power-free terms (the channel
        advantage and the tone orders) are built once per channel."""
        grids, advantages = [], []
        for module, name, calls in (
            (experiments, "channel_grid", grids),
            (alloc, "_channel_advantage", advantages),
        ):
            def counting(*args, real=getattr(module, name), calls=calls):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        lists = dict(m_values=(1, 2), beta_values=(0.05, 0.3), drops=2)
        power = small_config(axis="tx_power", axis_values=(0.0, 10.0, 20.0), **lists)
        run_sweep(power, threads=1)
        assert len(grids) == 2 * 2 * 2  # M x beta x drops: one per drop, not per level
        assert len(advantages) == 2 * 2 * 2
        grids.clear()
        advantages.clear()
        counts = small_config(axis_values=(2, 3, 4), **lists)
        run_sweep(counts, threads=1)
        assert len(grids) == 3 * 2 * 2 * 2  # every PA count needs its own channel
        assert len(advantages) == 3 * 2 * 2 * 2

    def test_point_count_and_order(self):
        cfg = small_config(axis_values=(2, 3), m_values=(1, 2), beta_values=(0.05, 0.1))
        result = run_sweep(cfg)
        assert len(result.points) == len(SCHEMES) * 2 * 2 * 2
        assert [p.scheme for p in result.points[:8]] == ["ofdma"] * 8

    def test_mean_min_rate_nondecreasing_in_tx_power(self):
        cfg = small_config(
            axis="tx_power",
            axis_values=(0.0, 10.0, 20.0),
            pa_count=5,
            m_values=(2,),
            drops=40,
        )
        result = run_sweep(cfg)
        for scheme in SCHEMES:
            means = [
                result.point(scheme, v, 2, 0.05).mean_min_rate
                for v in cfg.axis_values
            ]
            assert all(a <= b + 1e-9 for a, b in zip(means, means[1:])), (
                scheme,
                means,
            )

    def test_mean_min_rate_nonincreasing_in_blockage(self):
        means = {}
        for beta in (0.05, 0.3):
            cfg = small_config(
                axis_values=(5,), beta_values=(beta,), m_values=(2,), drops=60
            )
            result = run_sweep(cfg)
            for scheme in SCHEMES:
                means[(scheme, beta)] = result.point(scheme, 5, 2, beta).mean_min_rate
        for scheme in SCHEMES:
            assert means[(scheme, 0.3)] <= means[(scheme, 0.05)] + 1e-9

    def test_tdma_schemes_dilute_with_more_users(self):
        cfg = small_config(axis_values=(5,), m_values=(2, 4), drops=60)
        result = run_sweep(cfg)
        for scheme in ("single_pa", "sc_fde"):
            m2 = result.point(scheme, 5, 2, 0.05).mean_min_rate
            m4 = result.point(scheme, 5, 4, 0.05).mean_min_rate
            assert m4 <= m2 + 1e-9


@given(drops=st.integers(1, 200), workers=st.integers(1, 16))
def test_chunks_partition_the_drops_in_order(drops, workers):
    """Chunks are non-empty, one per worker up to one per drop, and read in
    order they are exactly range(drops): contiguous and ascending."""
    chunks = _chunks(drops, workers)
    assert len(chunks) == min(workers, drops)
    assert all(start < stop for start, stop in chunks)
    assert [d for start, stop in chunks for d in range(start, stop)] == list(range(drops))


@settings(max_examples=25, deadline=None)
@given(
    axis=st.sampled_from(["tx_power", "pa_count"]),
    picks=st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True).map(sorted),
    m_values=st.sampled_from([(1,), (2,), (1, 2)]),
    beta_values=st.sampled_from([(0.0,), (0.3,), (0.0, 0.3)]),
    drops=st.integers(1, 6),
    threads=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_drop_major_sweep_equals_per_point_drops(
    axis, picks, m_values, beta_values, drops, threads, seed
):
    """Every point of a sweep, whose drops share one channel across power
    levels, has the same bits as independent run_drop calls at that point."""
    values = tuple(picks) if axis == "pa_count" else tuple(5.0 * p - 10.0 for p in picks)
    cfg = small_config(
        axis=axis, axis_values=values, m_values=m_values, beta_values=beta_values,
        drops=drops, master_seed=seed, pa_count=3, bandwidth=50e6,
    )
    result = run_sweep(cfg, threads=threads)
    for m, beta, value in product(m_values, beta_values, values):
        sc = scenario_for(cfg, value, m, beta)
        means, stderrs = reference_sweep_stats(
            np.array([run_drop(sc, seed, d) for d in range(drops)])
        )
        for s, scheme in enumerate(SCHEMES):
            point = result.point(scheme, value, m, beta)
            assert point.mean_min_rate.hex() == float(means[s]).hex()
            assert point.stderr.hex() == float(stderrs[s]).hex()


def _assert_sweep_stats(result, cfg, mats):
    """Every point's mean and stderr have the bits of reference_sweep_stats
    over its (drops, 3) matrix; mats maps (M, beta, axis value) to it."""
    for (m, beta, value), mat in mats.items():
        means, stderrs = reference_sweep_stats(mat)
        for s, scheme in enumerate(SCHEMES):
            point = result.point(scheme, value, m, beta)
            assert point.mean_min_rate.hex() == float(means[s]).hex()
            assert point.stderr.hex() == float(stderrs[s]).hex()


@pytest.mark.parametrize("drops", [1, 8, 9, 33])
def test_sweep_stats_equal_per_point_loop_on_real_drops(drops):
    """Drop counts the goldens (20 drops) do not pin."""
    cfg = small_config(drops=drops, axis_values=(2, 5), beta_values=(0.05, 0.5), bandwidth=50e6)
    mats = {
        (m, beta, value): np.array(
            [run_drop(scenario_for(cfg, value, m, beta), cfg.master_seed, d) for d in range(drops)]
        )
        for m, beta, value in product(cfg.m_values, cfg.beta_values, cfg.axis_values)
    }
    _assert_sweep_stats(run_sweep(cfg), cfg, mats)


@pytest.mark.parametrize("drops", [1, 2, 8, 9, 33, 139, 200, 255, 256, 257, 513, 1000])
def test_sweep_stats_equal_per_point_loop_on_many_drop_counts(monkeypatch, drops):
    """The sweep's reduction alone, on stand-in per-drop minima (a quarter of
    them zero, as in blocked drops), at drop counts too costly to simulate."""
    rng = np.random.default_rng(drops)
    tables = {}

    def fake_chunk(channels, master_seed, start, stop):
        scenario = channels[0][0]
        key = (scenario.n_users, scenario.blockage_density)
        if key not in tables:
            n_values = sum(len(tx_powers) for _, tx_powers in channels)
            draws = rng.exponential(1e8, (drops, n_values, len(SCHEMES)))
            tables[key] = np.where(rng.random(draws.shape) < 0.25, 0.0, draws)
        return tables[key][start:stop].tolist()

    monkeypatch.setattr(experiments, "_drop_chunk", fake_chunk)
    cfg = small_config(drops=drops, axis_values=(2, 4, 6), m_values=(2, 3), beta_values=(0.05, 0.15))
    result = run_sweep(cfg)
    mats = {
        (m, beta, value): tables[(m, beta)][:, a]
        for (m, beta), (a, value) in product(tables, enumerate(cfg.axis_values))
    }
    _assert_sweep_stats(result, cfg, mats)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 4),
    n_pas=st.sampled_from([1, 5, 30]),
    beta=st.sampled_from([0.0, 0.05, 0.5]),
    bandwidth=st.sampled_from([20e6, 100e6]),
    seed=st.integers(0, 1000),
    drop=st.integers(0, 100),
)
def test_rates_half_equals_per_user_reference_on_real_drops(
    m, n_pas, beta, bandwidth, seed, drop
):
    """On one drop's channel, evaluated at every power level in one call as
    in a sweep, each minimum rate has the bits of the per-user loops: greedy,
    water-filling and rate sum per user, and one scalar baseline rate per
    user."""
    scenario = Scenario(n_pas=n_pas, n_users=m, blockage_density=beta, bandwidth=bandwidth)
    channel = _drop_channel(scenario, seed, drop)
    dbms = (-10.0, 0.0, 10.0, 20.0, 30.0)
    rates, allocations = _drop_rates(scenario, channel, np.array([dbm_to_watts(p) for p in dbms]))
    assert rates.shape == (len(dbms), len(SCHEMES)) and len(allocations) == len(dbms)
    for dbm, (ofdma, single_pa, sc_fde), allocation in zip(dbms, rates.tolist(), allocations):
        sc = replace(scenario, tx_power=dbm_to_watts(dbm))
        want = reference_allocate(channel.grid, channel.frame, sc)
        assert np.array_equal(allocation.power.view(np.uint64), want.power.view(np.uint64))
        assert ofdma.hex() == min_rate(want).hex()
        want_single, want_sc_fde = reference_baseline_min_rates(
            channel.realization, channel.grid, channel.frame, sc, channel.center_alpha
        )
        assert single_pa.hex() == want_single.hex()
        assert sc_fde.hex() == want_sc_fde.hex()


class TestEmitCsv:
    def test_empty_sweep_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(SweepResult(points=[], master_seed=9), path)
        text = path.read_text()
        assert text == (
            "scheme,axis_name,axis_value,M,beta,mean_min_rate_bps,"
            "stderr_bps,drops,master_seed\n"
        )

    def test_single_point_two_lines(self, tmp_path):
        result = SweepResult(
            points=[SweepPoint("ofdma", "pa_count", 5, 2, 0.05, 1.5e9, 2e7, 10)],
            master_seed=4,
        )
        path = tmp_path / "one.csv"
        emit_csv(result, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "ofdma,pa_count,5,2,0.05,1500000000.0,20000000.0,10,4"

    def test_round_trip_full_precision(self, tmp_path):
        cfg = small_config(drops=2)
        result = run_sweep(cfg)
        path = tmp_path / "sweep.csv"
        emit_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("scheme,")
        assert len(lines) == 1 + len(result.points)
        for line, point in zip(lines[1:], result.points):
            cells = line.split(",")
            assert cells[0] == point.scheme
            assert cells[1] == point.axis_name
            assert float(cells[2]) == point.axis_value
            assert int(cells[3]) == point.n_users
            assert float(cells[4]) == point.beta
            assert float(cells[5]) == point.mean_min_rate  # exact round-trip
            assert float(cells[6]) == point.stderr
            assert int(cells[7]) == point.drops
            assert int(cells[8]) == result.master_seed

    def test_write_failure_carries_path(self, tmp_path):
        result = SweepResult(points=[], master_seed=0)
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError, match=re.escape(f"cannot write sweep CSV to {missing_dir}: ")):
            emit_csv(result, missing_dir)


class TestEmitJson:
    def test_mirrors_csv_fields(self, tmp_path):
        cfg = small_config(drops=2)
        result = run_sweep(cfg)
        path = tmp_path / "sweep.json"
        emit_json(result, path)
        rows = json.loads(path.read_text())
        assert len(rows) == len(result.points)
        first = rows[0]
        assert set(first) == {
            "scheme",
            "axis_name",
            "axis_value",
            "M",
            "beta",
            "mean_min_rate_bps",
            "stderr_bps",
            "drops",
            "master_seed",
        }
        assert first["mean_min_rate_bps"] == result.points[0].mean_min_rate


class TestLoadConfig:
    def test_parses_documented_keys(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# sweep over PA counts\n"
            "axis = pa_count\n"
            "axis_values = 5, 10, 15\n"
            "m_values = 2,4\n"
            "beta_values = 0.05, 0.15\n"
            "drops = 25\n"
            "master_seed = 7\n"
            "bandwidth = 250e6\n"
            "tx_power_dbm = 15\n"
        )
        cfg = load_config(path)
        assert cfg.axis == "pa_count"
        assert cfg.axis_values == (5, 10, 15)
        assert cfg.m_values == (2, 4)
        assert cfg.beta_values == (0.05, 0.15)
        assert cfg.drops == 25
        assert cfg.master_seed == 7
        assert cfg.bandwidth == 250e6
        assert cfg.tx_power_dbm == 15.0
        assert cfg.room_length == 30.0  # untouched default

    def test_unknown_key_is_an_error(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("axis = pa_count\nbandwith = 1e6\n")
        with pytest.raises(ValueError, match="bandwith"):
            load_config(path)

    def test_malformed_line_is_an_error(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("drops 25\n")
        with pytest.raises(ValueError, match="key = value"):
            load_config(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("drops = 2.5", ": bad value for drops: invalid literal"),
            ("m_values = 2, x", ": bad value for m_values: invalid literal"),
            ("drops = 0", ": drops must be >= 1"),
            ("m_values = 0", ": m_values must be >= 1"),
            ("m_values = 2, 2", ": m_values has duplicate entries"),
            ("beta_values = 0.1, inf", ": beta_values must be >= 0 and finite"),
            ("master_seed = -1", ": master_seed must be >= 0"),
            ("pa_count = 0", ": pa_count must be >= 1"),
            ("room_width = 0", ": room_width must be finite and > 0"),
            ("bandwidth = -5", ": bandwidth must be finite and > 0"),
            ("refractive_index = 0.5", ": refractive_index must be finite and >= 1"),
            ("noise_dbm = 4000", ": noise_dbm must be finite"),
            ("tx_power_dbm = inf", ": tx_power_dbm must be finite"),
            ("axis = tx_power\naxis_values = 0, inf", ": axis_values: transmit powers must be"),
            ("axis = pa_count\naxis_values = 2.5", ": axis_values: PA counts must be integers"),
        ],
    )
    def test_bad_value_names_the_file(self, tmp_path, line, message):
        """The error names the file and the line that set the rejected value:
        here the last line."""
        path = tmp_path / "cfg.txt"
        path.write_text(f"# one bad value, on the last line\n{line}\n")
        last = 2 + line.count("\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{last}{message}")):
            load_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            # 4000 alone is a valid PA count: the rule depends on the axis,
            # and it blames axis_values, not the axis line that came later.
            ("axis_values = 0, 4000\naxis = tx_power\n", ":1: axis_values: transmit powers must"),
            ("axis_values = 10, 5\ndrops = 3\n", ":1: axis_values must be sorted ascending"),
        ],
    )
    def test_bad_value_names_the_line_that_set_it(self, tmp_path, text, message):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path) + message)):
            load_config(path)

    def test_repeated_key_is_an_error(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("drops = 5\n# later\ndrops = 7\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: 'drops' already set on line 1")):
            load_config(path)

    def test_float_axis_values_for_power(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("axis = tx_power\naxis_values = 0, 2.5, 5\n")
        cfg = load_config(path)
        assert cfg.axis_values == (0.0, 2.5, 5.0)


class TestTraceDrop:
    def test_trace_is_json_serializable_and_consistent(self):
        sc = Scenario(n_pas=3, n_users=2)
        trace = trace_drop(sc, 11, 2)
        text = json.dumps(trace)
        back = json.loads(text)
        assert back["scenario"]["n_pas"] == 3
        assert len(back["users"]) == 2
        assert len(back["pas"]) == 3
        assert len(back["los"]) == 2 and len(back["los"][0]) == 3
        k = back["frame"]["n_subcarriers"]
        tones = [t for row in back["allocation"]["tones_per_user"] for t in row]
        assert sorted(tones) == list(range(k))
        ofdma, single, sc_fde = run_drop(sc, 11, 2)
        assert back["allocation"]["min_rate_bps"] == ofdma
        assert back["baseline_min_rates_bps"]["single_pa"] == single
        assert back["baseline_min_rates_bps"]["sc_fde"] == sc_fde

    @pytest.mark.parametrize(
        "n_pas, n_users, bandwidth", [(3, 2, 500e6), (30, 8, 20e6), (10, 4, 6.5e9)]
    )
    def test_per_user_abs_equals_per_row_calls(self, n_pas, n_users, bandwidth):
        sc = Scenario(n_pas=n_pas, n_users=n_users, bandwidth=bandwidth)
        for drop in range(3):
            got = trace_drop(sc, 5, drop)["grid_summary"]["per_user_abs"]
            want = reference_per_user_abs(_drop_channel(sc, 5, drop).grid.h)
            assert [{k: v.hex() for k, v in row.items()} for row in got] == [
                {k: v.hex() for k, v in row.items()} for row in want
            ]
