"""The benchmark's workload files, swept serially at the pinned seed through
the config-file route, reproduce its reference CSVs byte for byte. This gates
grids the goldens under tests/golden/ do not cover: a 6.5 GHz band with
K up to 4096, a 30-PA power sweep at 20 MHz, and `load_config` itself."""

from dataclasses import replace
from pathlib import Path

import pytest

from pinchsim.experiments import emit_csv, load_config, run_sweep

BENCH = Path(__file__).parent.parent / "dropbench"
WORKLOADS = sorted(p.stem for p in (BENCH / "workloads").glob("*.cfg"))


def test_workload_files_are_found():
    assert WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_sweep_matches_reference_csv(workload, tmp_path):
    config = replace(load_config(BENCH / "workloads" / f"{workload}.cfg"), master_seed=1)
    out = tmp_path / f"{workload}.csv"
    emit_csv(run_sweep(config), out)
    assert out.read_bytes() == (BENCH / "reference" / f"{workload}.csv").read_bytes()
