"""Monte Carlo harness: determinism, common random numbers, CSV/JSON output."""

import json
import re

import numpy as np
import pytest

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
    watts_to_dbm,
)
from pinchsim.experiments import _drop_matrix
from pinchsim.geometry import Scenario


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
            assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-12)


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
        ],
    )
    def test_rejects_invalid_values(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kw)


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
        sc = scenario_for(small_config(), 2, 2, 0.05)
        short = _drop_matrix(sc, 123, 3, threads=1)
        long = _drop_matrix(sc, 123, 6, threads=1)
        assert np.array_equal(short, long[:3])

    def test_thread_count_does_not_change_results(self):
        cfg = small_config(drops=4)
        serial = run_sweep(cfg, threads=1)
        threaded = run_sweep(cfg, threads=3)
        for a, b in zip(serial.points, threaded.points):
            assert a == b

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
        with pytest.raises(OSError, match="no"):
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
            ("drops = 2.5", ":2: bad value for drops: invalid literal"),
            ("m_values = 2, x", ":2: bad value for m_values: invalid literal"),
            ("m_values = 0", ": m_values must be >= 1"),
        ],
    )
    def test_bad_value_names_the_file(self, tmp_path, line, message):
        path = tmp_path / "cfg.txt"
        path.write_text(f"axis = pa_count\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(str(path) + message)):
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
