"""Command-line interface: subcommands, overrides, determinism."""

import json

import pytest

from pinchsim.cli import main


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "axis = pa_count\n"
        "axis_values = 2, 3\n"
        "m_values = 2\n"
        "beta_values = 0.05\n"
        "drops = 2\n"
        "master_seed = 42\n"
    )
    return path


class TestSimulate:
    def test_writes_csv_and_json(self, tiny_config, tmp_path):
        out = tmp_path / "result.csv"
        mirror = tmp_path / "result.json"
        code = main(
            [
                "simulate",
                "--config",
                str(tiny_config),
                "--out",
                str(out),
                "--json",
                str(mirror),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 3 * 2  # 3 schemes x 2 PA counts
        assert {r["scheme"] for r in rows} == {"ofdma", "single_pa", "sc_fde"}
        mirrored = json.loads(mirror.read_text())
        assert len(mirrored) == len(rows)

    def test_requires_config(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--out", str(tmp_path / "x.csv")])

    def test_seed_and_drops_overrides(self, tiny_config, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["simulate", "--config", str(tiny_config), "--drops", "1"]
        main(args + ["--out", str(out_a), "--seed", "1"])
        main(args + ["--out", str(out_b), "--seed", "2"])
        rows_a, rows_b = read_rows(out_a), read_rows(out_b)
        assert rows_a[0]["master_seed"] == "1"
        assert rows_b[0]["master_seed"] == "2"
        assert rows_a[0]["drops"] == "1"
        assert any(
            a["mean_min_rate_bps"] != b["mean_min_rate_bps"]
            for a, b in zip(rows_a, rows_b)
        )

    def test_byte_identical_across_runs_and_threads(self, tiny_config, tmp_path):
        outs = []
        for name, threads in (("r1.csv", "1"), ("r2.csv", "1"), ("r4.csv", "4")):
            out = tmp_path / name
            main(
                [
                    "simulate",
                    "--config",
                    str(tiny_config),
                    "--out",
                    str(out),
                    "--threads",
                    threads,
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected_naming_flag(
        self, tiny_config, tmp_path, capsys, threads
    ):
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "simulate", "--config", str(tiny_config), "--out", str(out),
                    "--threads", threads,
                ]
            )
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()


class TestSweepN:
    def test_defaults_without_config(self, tmp_path):
        out = tmp_path / "n.csv"
        main(
            [
                "sweep-n",
                "--n-values",
                "2,3",
                "--m-values",
                "2",
                "--beta-values",
                "0.05",
                "--drops",
                "2",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        rows = read_rows(out)
        assert {r["axis_name"] for r in rows} == {"pa_count"}
        assert {r["axis_value"] for r in rows} == {"2", "3"}

    def test_tx_power_flag(self, tmp_path):
        out_low = tmp_path / "low.csv"
        out_high = tmp_path / "high.csv"
        base = [
            "sweep-n", "--n-values", "3", "--m-values", "2", "--beta-values", "0.05",
            "--drops", "2", "--seed", "5",
        ]
        main(base + ["--tx-power-dbm", "0", "--out", str(out_low)])
        main(base + ["--tx-power-dbm", "20", "--out", str(out_high)])
        low = {r["scheme"]: float(r["mean_min_rate_bps"]) for r in read_rows(out_low)}
        high = {r["scheme"]: float(r["mean_min_rate_bps"]) for r in read_rows(out_high)}
        for scheme in low:
            assert high[scheme] >= low[scheme]


class TestSweepPower:
    def test_power_axis(self, tmp_path):
        out = tmp_path / "p.csv"
        main(
            [
                "sweep-power",
                "--power-values",
                "0,10",
                "--pa-count",
                "3",
                "--m-values",
                "2",
                "--beta-values",
                "0.05",
                "--drops",
                "2",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        rows = read_rows(out)
        assert {r["axis_name"] for r in rows} == {"tx_power"}
        assert {r["axis_value"] for r in rows} == {"0.0", "10.0"}


class TestTraceDrop:
    def test_stdout_json(self, capsys):
        code = main(
            ["trace-drop", "--seed", "3", "--index", "1", "--n-pas", "2", "--n-users", "2"]
        )
        assert code == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["master_seed"] == 3
        assert trace["drop_index"] == 1
        assert trace["scenario"]["n_pas"] == 2

    def test_file_output_matches_direct_call(self, tmp_path):
        out = tmp_path / "trace.json"
        main(
            [
                "trace-drop", "--seed", "3", "--index", "1",
                "--n-pas", "2", "--n-users", "2", "--out", str(out),
            ]
        )
        trace = json.loads(out.read_text())
        assert trace["allocation"]["min_rate_bps"] >= 0.0

    def test_config_constants_respected(self, tiny_config, capsys):
        main(
            [
                "trace-drop", "--seed", "3", "--index", "0",
                "--config", str(tiny_config), "--n-pas", "4",
            ]
        )
        trace = json.loads(capsys.readouterr().out)
        assert trace["scenario"]["n_pas"] == 4
        assert trace["scenario"]["bandwidth"] == 500e6


BAD_NUMBERS = [
    (["simulate", "--drops", "0"], "--drops"),
    (["simulate", "--seed", "-1"], "--seed"),
    (["sweep-n", "--seed", "-1"], "--seed"),
    (["sweep-power", "--pa-count", "0"], "--pa-count"),
    (["trace-drop", "--seed", "-1", "--index", "0"], "--seed"),
    (["trace-drop", "--seed", "1", "--index", "-1"], "--index"),
    (["trace-drop", "--seed", "1", "--index", "0", "--n-pas", "0"], "--n-pas"),
    (["trace-drop", "--seed", "1", "--index", "0", "--n-users", "0"], "--n-users"),
    (["sweep-n", "--m-values", "0"], "--m-values"),
    (["sweep-power", "--m-values", "2,0"], "--m-values"),
    (["sweep-n", "--n-values", "0"], "--n-values"),
    (["sweep-n", "--n-values", "5,-2"], "--n-values"),
    (["sweep-power", "--beta-values", "-1"], "--beta-values"),
    (["sweep-n", "--beta-values", "0.05,-0.1"], "--beta-values"),
    (["sweep-n", "--beta-values", "nan"], "--beta-values"),
    (["sweep-n", "--tx-power-dbm", "inf"], "--tx-power-dbm"),
    (["trace-drop", "--seed", "1", "--index", "0", "--beta", "-1"], "--beta"),
    (["trace-drop", "--seed", "1", "--index", "0", "--tx-power-dbm", "nan"], "--tx-power-dbm"),
]


@pytest.mark.parametrize(
    "argv, flag", BAD_NUMBERS, ids=[f"{argv[0]}{flag}" for argv, flag in BAD_NUMBERS]
)
def test_bad_numbers_rejected_naming_flag(tiny_config, tmp_path, capsys, argv, flag):
    out = tmp_path / "never.csv"
    if argv[0] != "trace-drop":
        argv = argv + ["--config", str(tiny_config), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
