"""Golden outputs: pinned CLI sweeps and drop traces, reproduced byte for byte.

test_8 only compares runs of one build with each other; these files pin the
numbers themselves, so a refactor that moves any output by one bit fails
here. The files under tests/golden/ are the outputs of the commands below;
`python tests/test_golden.py` rewrites them. Regenerate one only for an
intended numeric change, and record why and the largest relative deviation.
"""

from pathlib import Path

import pytest

from pinchsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

_GRID = ["--m-values", "2,4", "--beta-values", "0.05,0.15", "--drops", "20", "--seed", "1"]
SWEEPS = {
    "sweep_n": ["sweep-n", "--n-values", "5,10,30", *_GRID],
    "sweep_power": ["sweep-power", "--power-values", "0,10,20", "--pa-count", "10", *_GRID],
}
_TRACE = ["trace-drop", "--seed", "1", "--index", "3", "--n-pas", "10", "--n-users", "4"]
TRACES = {
    "trace_beta0.05": [*_TRACE, "--beta", "0.05"],
    "trace_beta0.5": [*_TRACE, "--beta", "0.5"],
}


def run_sweep_cli(name, directory):
    csv, mirror = directory / f"{name}.csv", directory / f"{name}.json"
    main(SWEEPS[name] + ["--out", str(csv), "--json", str(mirror)])
    return csv, mirror


def run_trace_cli(name, directory):
    out = directory / f"{name}.json"
    main(TRACES[name] + ["--out", str(out)])
    return out


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_and_json_match_golden(name, tmp_path):
    for path in run_sweep_cli(name, tmp_path):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_drop_matches_golden(name, tmp_path):
    path = run_trace_cli(name, tmp_path)
    assert path.read_bytes() == (GOLDEN / path.name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in SWEEPS:
        run_sweep_cli(name, GOLDEN)
    for name in TRACES:
        run_trace_cli(name, GOLDEN)
