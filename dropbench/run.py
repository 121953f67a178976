"""Drop-pipeline benchmark for pinchsim.

    python3 dropbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory. Each workload is a flat `key = value` config under
`workloads/`, loaded with `experiments.load_config`; `--seed` replaces its
master seed, so the seed alone decides the drops.

--trace 0  times `run_sweep` + `emit_csv` over the workload's whole grid,
           repeated for `--seconds`, and prints the end-to-end metrics:
           drops_per_s (over the whole window), setup_s (median of fresh
           interpreters importing pinchsim and loading the config, spread
           over the run) and peak_rss_mb.
--trace 1  replays the grid drop by drop with every public stage call timed
           from outside (see tracing.py) and prints the per-layer metrics.

Every run first sweeps the pinned seed (traced with --trace 1) and checks it
against `reference/<workload>.csv`; every CSV row of every sweep is checked
(finite, >= 0, grid keys, repetitions identical). The last stdout
line is one JSON object: correct, attempted and failed (CSV rows and traced
means checked) and metrics. `--write-reference` regenerates the pinned-seed
reference CSV and input counts instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Worker threads of each workload's timed sweep; paper_sweep uses both cores
# of the reference machine, so it alone exercises the parallel path.
WORKLOADS = {"paper_sweep": 2, "wideband": 1, "narrowband_power": 1}
PINNED_SEED = 1
SETUP_SAMPLES = 9
MICRO_SAMPLES = 21

SETUP_CHILD = """
import sys, time
start = time.perf_counter()
import pinchsim, pinchsim.cli
from pinchsim.experiments import load_config
load_config(sys.argv[1])
print(repr(time.perf_counter() - start))
"""


def import_program():
    """Import pinchsim from this checkout's sources, never from elsewhere."""
    if not (SRC / "pinchsim" / "__init__.py").is_file():
        sys.exit(f"dropbench: no pinchsim sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import pinchsim

    if not Path(pinchsim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"dropbench: pinchsim was imported from {pinchsim.__file__}, not {SRC}")


class Checks:
    """Tally of checked operations (CSV rows, traced means) and problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, text):
        self.problems.append(text)
        print(f"dropbench: FAIL {text}", file=sys.stderr)

    def rows(self, csv_bytes, config, expected=None, label=""):
        """Check a sweep CSV: grid keys in order, finite non-negative rates,
        drops and seed columns; row by row equal to `expected` if given."""
        from pinchsim.experiments import SCHEMES

        keys = [
            (scheme, float(axis), m, float(beta))
            for scheme in SCHEMES
            for m in config.m_values
            for beta in config.beta_values
            for axis in config.axis_values
        ]
        lines = csv_bytes.decode("utf-8").split("\n")
        if lines[-1] != "":
            self.problem(f"{label}: CSV does not end with a newline")
        rows = lines[1:-1]
        want = expected.decode("utf-8").split("\n") if expected is not None else None
        if want is not None and lines[0] != want[0]:
            self.problem(f"{label}: CSV header differs")
        bad = abs(len(rows) - len(keys))
        for i, (row, key) in enumerate(zip(rows, keys)):
            if not _row_ok(row, key, config) or (want is not None and row != want[i + 1]):
                bad += 1
        self.attempted += max(len(rows), len(keys))
        self.failed += bad
        if bad:
            self.problem(f"{label}: {bad} of {len(keys)} CSV rows failed")

    def means(self, means, csv_bytes, label):
        """Traced per-point means must equal the CSV's, bit for bit."""
        from pinchsim.experiments import SCHEMES

        table = {}
        for row in csv_bytes.decode("utf-8").split("\n")[1:-1]:
            f = row.split(",")
            table[(f[0], float(f[2]), int(f[3]), float(f[4]))] = float(f[5])
        bad = 0
        for (axis, m, beta), triple in means.items():
            for s, scheme in enumerate(SCHEMES):
                got = table.get((scheme, float(axis), m, float(beta)))
                if got is None or got.hex() != float(triple[s]).hex():
                    bad += 1
        self.attempted += len(means) * len(SCHEMES)
        self.failed += bad
        if bad:
            self.problem(f"{label}: {bad} traced means differ from the sweep CSV")


def _row_ok(row, key, config):
    f = row.split(",")
    if len(f) != 9:
        return False
    try:
        parsed = (f[0], float(f[2]), int(f[3]), float(f[4]))
        mean, stderr = float(f[5]), float(f[6])
        drops, seed = int(f[7]), int(f[8])
    except ValueError:
        return False
    return (
        parsed == key
        and f[1] == config.axis
        and all(math.isfinite(v) and v >= 0.0 for v in (mean, stderr))
        and drops == config.drops
        and seed == config.master_seed
    )


def timed_sweep(config, threads, path):
    """One untraced sweep: run_sweep + emit_csv. Returns (wall, result, CSV bytes)."""
    from pinchsim.experiments import emit_csv, run_sweep

    start = perf_counter()
    result = run_sweep(config, threads=threads)
    emit_csv(result, path)
    wall = perf_counter() - start
    return wall, result, path.read_bytes()


def grid_drops(config):
    return len(config.axis_values) * len(config.m_values) * len(config.beta_values) * config.drops


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest finished child (a
    set-up interpreter, or a worker process if the sweep starts any), MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(cfg_path):
    """Wall time, in a fresh interpreter, of importing pinchsim and
    pinchsim.cli and loading the workload config."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(cfg_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def median_ms(fn, *args):
    samples = []
    for _ in range(MICRO_SAMPLES):
        start = perf_counter()
        fn(*args)
        samples.append(perf_counter() - start)
    return 1e3 * statistics.median(samples)


def end_to_end(workload, config, pinned, reference, seconds, out, checks):
    threads = WORKLOADS[workload]
    cfg_path = BENCH_DIR / "workloads" / f"{workload}.cfg"
    # The host's speed drifts over seconds, so set-up samples are spread over
    # the run (one before and after every sweep), topped up at the end.
    setup = [setup_seconds(cfg_path)]

    # Warm-up, checked against the reference: every run proves the pinned seed.
    _, _, csv = timed_sweep(pinned, threads, out / "pinned.csv")
    checks.rows(csv, pinned, reference, "pinned seed")
    setup.append(setup_seconds(cfg_path))

    # Repeat the same sweep while the next repetition still fits in the
    # window. Throughput is taken over the whole window: a median of
    # repetitions jumps between the host's speed levels.
    expected = reference if config.master_seed == PINNED_SEED else None
    walls = []
    while not walls or sum(walls) + walls[-1] <= seconds:
        wall, _, csv = timed_sweep(config, threads, out / "sweep.csv")
        checks.rows(csv, config, expected, f"repetition {len(walls)}")
        expected = expected or csv
        walls.append(wall)
        setup.append(setup_seconds(cfg_path))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds(cfg_path))
    print(f"# {len(walls)} repetitions of {grid_drops(config)} drops in {sum(walls):.2f} s;"
          f" {len(setup)} set-up samples")
    return {
        "drops_per_s": (len(walls) * grid_drops(config) / sum(walls), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def per_layer(workload, config, pinned, reference, ref_counts, out, checks):
    import tracing
    from pinchsim.experiments import emit_csv, load_config

    # Pinned seed first (also the warm-up): the trace must rebuild the
    # reference means, and its input counts must repeat exactly.
    try:
        _, pinned_means, pinned_counts, _ = tracing.traced_sweep(pinned)
        checks.means(pinned_means, reference, "pinned seed trace")
        if tracing.input_counts(pinned_counts) != ref_counts:
            checks.problem(
                f"pinned seed input counts drifted: {tracing.input_counts(pinned_counts)}"
                f" != reference {ref_counts}"
            )

        wall_1, result, csv_1 = timed_sweep(config, 1, out / "workers1.csv")
        checks.rows(csv_1, config, reference if config.master_seed == PINNED_SEED else None, "1 worker")
        wall_2, _, csv_2 = timed_sweep(config, 2, out / "workers2.csv")
        checks.rows(csv_2, config, csv_1, "2 workers vs 1 worker")

        tracer, means, counts, traced_wall = tracing.traced_sweep(config)
        checks.means(means, csv_1, "seed trace")
    except tracing.TraceMismatch as exc:
        checks.problem(str(exc))
        return {}
    tracer.write(out / "spans.jsonl")

    metrics = {}
    for name, value in tracing.stage_metrics(tracer).items():
        metrics[name] = (value, "count" if name.endswith("_samples") else "ms")
    for name, value in tracing.input_counts(counts).items():
        metrics[name] = (value, "ratio" if name.endswith("_frac") else "count")
    metrics["experiments.emit_csv_ms"] = (median_ms(emit_csv, result, out / "emit.csv"), "ms")
    metrics["experiments.worker_speedup"] = (wall_1 / wall_2, "ratio")
    metrics["cli.load_config_ms"] = (
        median_ms(load_config, BENCH_DIR / "workloads" / f"{workload}.cfg"), "ms"
    )
    metrics["trace.overhead_frac"] = (traced_wall / wall_1 - 1.0, "ratio")
    return metrics


def write_reference(workload, pinned):
    import tracing

    ref_dir = BENCH_DIR / "reference"
    ref_dir.mkdir(exist_ok=True)
    timed_sweep(pinned, WORKLOADS[workload], ref_dir / f"{workload}.csv")
    _, _, counts, _ = tracing.traced_sweep(pinned)
    with open(ref_dir / f"{workload}.counts.json", "w", encoding="utf-8") as fh:
        json.dump(tracing.input_counts(counts), fh, indent=2)
        fh.write("\n")
    print(f"wrote {ref_dir / workload}.csv and .counts.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    from pinchsim.experiments import load_config

    base = load_config(BENCH_DIR / "workloads" / f"{args.workload}.cfg")
    pinned = replace(base, master_seed=PINNED_SEED)
    if args.write_reference:
        write_reference(args.workload, pinned)
        return 0
    config = replace(base, master_seed=args.seed)
    reference = (BENCH_DIR / "reference" / f"{args.workload}.csv").read_bytes()
    ref_counts = json.loads(
        (BENCH_DIR / "reference" / f"{args.workload}.counts.json").read_text(encoding="utf-8")
    )
    out = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)

    checks = Checks()
    if args.trace:
        metrics = per_layer(args.workload, config, pinned, reference, ref_counts, out, checks)
    else:
        metrics = end_to_end(args.workload, config, pinned, reference, args.seconds, out, checks)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
