"""Command-line interface: subcommands, overrides, determinism, usage errors."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pinchsim
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
        assert "argument --threads: " in capsys.readouterr().err
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


def bad(argv, flag, published_id=None):
    """One bad-value case, with the id "<subcommand><flag>=<token after flag>",
    so that appending a case renames none. Cases from before that rule keep
    the ids they were published under."""
    token = argv[argv.index(flag) + 1]
    return pytest.param(argv, flag, id=published_id or f"{argv[0]}{flag}={token}")


BAD_VALUES = [
    bad(["simulate", "--drops", "0"], "--drops", "simulate--drops"),
    bad(["simulate", "--seed", "-1"], "--seed", "simulate--seed"),
    bad(["sweep-n", "--seed", "-1"], "--seed", "sweep-n--seed"),
    bad(["sweep-power", "--pa-count", "0"], "--pa-count", "sweep-power--pa-count"),
    bad(["trace-drop", "--seed", "-1", "--index", "0"], "--seed", "trace-drop--seed"),
    bad(["trace-drop", "--seed", "1", "--index", "-1"], "--index", "trace-drop--index"),
    bad(
        ["trace-drop", "--seed", "1", "--index", "0", "--n-pas", "0"], "--n-pas",
        "trace-drop--n-pas",
    ),
    bad(
        ["trace-drop", "--seed", "1", "--index", "0", "--n-users", "0"], "--n-users",
        "trace-drop--n-users",
    ),
    bad(["sweep-n", "--m-values", "0"], "--m-values", "sweep-n--m-values"),
    bad(["sweep-power", "--m-values", "2,0"], "--m-values", "sweep-power--m-values"),
    bad(["sweep-n", "--n-values", "0"], "--n-values", "sweep-n--n-values0"),
    bad(["sweep-n", "--n-values", "5,-2"], "--n-values", "sweep-n--n-values1"),
    bad(["sweep-power", "--beta-values", "-1"], "--beta-values", "sweep-power--beta-values"),
    bad(["sweep-n", "--beta-values", "0.05,-0.1"], "--beta-values", "sweep-n--beta-values0"),
    bad(["sweep-n", "--beta-values", "nan"], "--beta-values", "sweep-n--beta-values1"),
    bad(["sweep-n", "--tx-power-dbm", "inf"], "--tx-power-dbm", "sweep-n--tx-power-dbm"),
    bad(["trace-drop", "--seed", "1", "--index", "0", "--beta", "-1"], "--beta", "trace-drop--beta"),
    bad(
        ["trace-drop", "--seed", "1", "--index", "0", "--tx-power-dbm", "nan"], "--tx-power-dbm",
        "trace-drop--tx-power-dbm",
    ),
    bad(
        ["sweep-power", "--power-values", "0,inf"], "--power-values", "sweep-power--power-values"
    ),
    bad(["sweep-n", "--beta-values", "inf"], "--beta-values", "sweep-n--beta-values2"),
    # dBm values whose watts overflow or underflow
    bad(["sweep-n", "--tx-power-dbm", "4000"], "--tx-power-dbm"),
    bad(["sweep-n", "--tx-power-dbm", "-4000"], "--tx-power-dbm"),
    bad(["trace-drop", "--seed", "1", "--index", "0", "--tx-power-dbm", "4000"], "--tx-power-dbm"),
    bad(["sweep-power", "--power-values", "-4000,0"], "--power-values"),
    bad(["sweep-power", "--power-values", "0,4000"], "--power-values"),
    # lists with no entries
    bad(["sweep-n", "--m-values", ","], "--m-values"),
    bad(["sweep-n", "--n-values", ","], "--n-values"),
    bad(["sweep-power", "--beta-values", " , "], "--beta-values"),
]


@pytest.fixture
def no_drops(monkeypatch):
    """Fail the test if the CLI starts a sweep or a traced drop."""

    def fail(*args, **kwargs):
        raise AssertionError("a drop ran")

    monkeypatch.setattr("pinchsim.cli.run_sweep", fail)
    monkeypatch.setattr("pinchsim.cli.trace_drop", fail)


@pytest.mark.parametrize("argv, flag", BAD_VALUES)
def test_bad_numbers_rejected_naming_flag(tiny_config, tmp_path, capsys, no_drops, argv, flag):
    out = tmp_path / "never.csv"
    if argv[0] != "trace-drop":
        argv = argv + ["--config", str(tiny_config), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err  # not just the usage line
    assert not out.exists()


BAD_CONFIG = "axis = pa_count\ndrops = 2\nm_values = 2, x\n"
USAGE_ERRORS = [
    (["sweep-n", "--m-values", "2,2"], "m_values has duplicate entries"),
    (["sweep-n", "--n-values", "10,5"], "axis_values must be sorted"),
    (["sweep-power", "--power-values", "10,0"], "axis_values must be sorted"),
    (["sweep-n", "--m-values", "2", "--beta-values", "0.1,0.1"], "beta_values has duplicate"),
    (["simulate", "--config", "missing.cfg"], "missing.cfg"),
    (["simulate", "--config", "bad.cfg"], "bad.cfg:3: bad value for m_values"),
    (["sweep-n", "--config", "bad.cfg"], "bad.cfg:3: bad value for m_values"),
    (["simulate", "--config", "."], "'.'"),
    (["sweep-n", "--out", "no/such/dir/x.csv"], "no/such/dir/x.csv"),
    (["sweep-power", "--out", "."], "--out: cannot write a file at ."),
    (["sweep-n", "--out", ""], "--out: cannot write a file at"),
    (["sweep-n", "--json", "no/such/dir/x.json"], "no/such/dir/x.json"),
    (["trace-drop", "--seed", "1", "--index", "0", "--config", "bad.cfg"], "bad.cfg:3:"),
    (["trace-drop", "--seed", "1", "--index", "0", "--out", "no/dir/t.json"], "no/dir/t.json"),
]


@pytest.mark.parametrize(
    "argv, named", USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in USAGE_ERRORS]
)
def test_bad_input_is_a_usage_error_before_any_drop(
    tmp_path, monkeypatch, capsys, no_drops, argv, named
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text(BAD_CONFIG)
    if argv[0] != "trace-drop" and "--out" not in argv:
        argv = argv + ["--out", "never.csv"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


@pytest.mark.parametrize("what", ["sweep CSV", "sweep JSON", "trace JSON"])
def test_failing_write_names_what_and_the_path(tiny_config, tmp_path, capsys, what):
    """A write that fails after the path checks passed (here a file name
    longer than any file system takes) exits 1 with one stderr line that
    names what it wrote, where, and why."""
    path = tmp_path / ("x" * 300)
    argv = {
        "sweep CSV": ["simulate", "--config", str(tiny_config), "--out", str(path)],
        "sweep JSON": [
            "sweep-power", "--drops", "1", "--m-values", "1", "--power-values", "0,10",
            "--out", str(tmp_path / "ok.csv"), "--json", str(path),
        ],
        "trace JSON": ["trace-drop", "--seed", "1", "--index", "0", "--out", str(path)],
    }[what]
    assert main(argv) == 1
    err = capsys.readouterr().err
    head = f"pinchsim: error: cannot write {what} to {path}: "
    assert re.fullmatch(re.escape(head) + r"\[Errno \d+\] .+\n", err)
    assert "Traceback" not in err


def test_usage_error_exit_status_of_the_module(tmp_path):
    """The real process exits 2 with one usage error and no traceback."""
    src = str(Path(pinchsim.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "pinchsim.cli", "sweep-n", "--m-values", "2,2", "--out", "x.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "m_values has duplicate entries" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
