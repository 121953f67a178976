"""End-to-end acceptance suite.

Each test prints one ``[acceptance] <name>: PASS`` line (run with ``-s`` to
see them); a failed assertion marks the criterion FAIL. The two Monte Carlo
criteria are the slow ones (about 17 s together on 2 cores); everything
else runs in seconds.
"""

import math

import numpy as np
import pytest

from pinchsim.alloc import allocate, exhaustive_oracle, min_rate, waterfill
from pinchsim.baselines import _sc_fde_rates, sc_fde_effective_snr
from pinchsim.channel import _composite_delays, build_realization, channel_grid, frequency_response
from pinchsim.cli import main as cli_main
from pinchsim.experiments import (
    ExperimentConfig,
    run_sweep,
)
from pinchsim.frame import design_frame
from pinchsim.geometry import Scenario, sample_users

from helpers import (
    dtft_oracle,
    grid_from_h,
    make_frame,
    random_grid,
    synthetic_realization,
    unit_scenario,
)


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def spearman(x, y):
    """Rank correlation without ties handling (inputs are distinct floats)."""
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.sum(rx * ry) / math.sqrt(np.sum(rx**2) * np.sum(ry**2)))


def test_1_composite_delay_walkthrough():
    # 3 m of guided path at n_e = 1.4 plus 3 m of free space: about 14 ns,
    # 10 ns and 24 ns, within 2 percent of those round numbers. The three
    # links' free-space and guided distances:
    guided, free, total = _composite_delays(
        np.array([0.0, 3.0, 3.0]), np.array([3.0, 0.0, 3.0]), 1.4
    )
    ok = (
        abs(guided - 14e-9) <= 0.02 * 14e-9
        and abs(free - 10e-9) <= 0.02 * 10e-9
        and abs(total - 24e-9) <= 0.02 * 24e-9
        and total == pytest.approx(guided + free, rel=1e-12)
    )
    report(
        "composite delay walkthrough",
        ok,
        f"guided {guided*1e9:.3f} ns, free {free*1e9:.3f} ns, total {total*1e9:.3f} ns",
    )


def test_2_waterfilling_kkt_suite():
    rng = np.random.default_rng(2002)
    checked = 0
    for _ in range(10_000):
        k = int(rng.integers(1, 65))
        gains = rng.exponential(scale=float(rng.uniform(1e-3, 1e3)), size=k)
        gains[rng.random(k) < 0.3] = 0.0
        budget = float(rng.uniform(1e-3, 1e2))
        p, level = waterfill(gains, budget)
        if not np.any(gains > 0):
            assert math.isnan(level) and p.sum() == 0.0
            continue
        assert abs(p.sum() - budget) <= 1e-9 * budget
        active = p > 0
        levels = p[active] + 1.0 / gains[active]
        assert levels.max() - levels.min() <= 1e-9 * level
        idle = (~active) & (gains > 0)
        if np.any(idle):
            assert np.all(1.0 / gains[idle] >= level * (1 - 1e-9))
        checked += 1

    # The exact water level beats ten thousand random feasible loadings.
    beaten = 0
    for _ in range(100):
        k = int(rng.integers(2, 65))
        gains = rng.exponential(scale=1.0, size=k)
        gains[rng.random(k) < 0.2] = 0.0
        budget = float(rng.uniform(0.1, 20.0))
        p, _ = waterfill(gains, budget)
        objective = np.sum(np.log2(1.0 + gains * p))
        trials = rng.dirichlet(np.ones(k), size=10_000) * budget
        rivals = np.sum(np.log2(1.0 + gains * trials), axis=1)
        assert np.all(rivals <= objective + 1e-9 * max(1.0, objective))
        beaten += 1
    report(
        "water-filling KKT suite",
        checked > 6000 and beaten == 100,
        f"{checked} KKT instances, optimality on {beaten} instances x 10k loadings",
    )


def test_3_oracle_equivalence_and_ratio_report():
    rng = np.random.default_rng(2003)
    ratios = []
    for _ in range(200):
        m = int(rng.choice((2, 3)))
        k = int(rng.choice((4, 6, 8)))
        frame = make_frame(k=8, bandwidth=8.0)  # unit spacing, no CP
        scenario = unit_scenario(m, k, tx_power=float(rng.uniform(0.5, 4.0)))
        grid = random_grid(rng, m, k, zero_fraction=0.1)
        greedy_value = min_rate(allocate(grid, frame, scenario))
        _, oracle_value = exhaustive_oracle(grid, frame, scenario)
        assert greedy_value <= oracle_value, "greedy exceeded the exhaustive optimum"
        if oracle_value > 0:
            ratios.append(greedy_value / oracle_value)

    # Disjoint strong-tone supports: the heuristic is exactly optimal.
    for m, k in ((2, 4), (2, 6), (2, 8), (3, 6)):
        h = np.zeros((m, k), dtype=complex)
        block = k // m
        for um in range(m):
            cols = slice(um * block, (um + 1) * block)
            h[um, cols] = rng.normal(size=block) + 1j * rng.normal(size=block)
        frame = make_frame(k=8, bandwidth=8.0)
        scenario = unit_scenario(m, k)
        grid = grid_from_h(h)
        greedy_value = min_rate(allocate(grid, frame, scenario))
        _, oracle_value = exhaustive_oracle(grid, frame, scenario)
        assert greedy_value == pytest.approx(oracle_value, rel=1e-12)

    ratios = np.array(ratios)
    detail = (
        f"greedy/optimal over {ratios.size} instances: "
        f"min {ratios.min():.4f}, p5 {np.percentile(ratios, 5):.4f}, "
        f"median {np.median(ratios):.4f}, mean {ratios.mean():.4f}"
    )
    report("near-optimality of greedy + water-filling", ratios.size >= 190, detail)


def test_4_flat_channel_reductions():
    # Single-aperture grids are flat across the band.
    worst_ripple = 0.0
    for seed in range(5):
        sc = Scenario(n_pas=1, n_users=3, blockage_density=0.0)
        users = sample_users(sc, np.random.default_rng(seed))
        realization = build_realization(sc, users, np.ones((3, 1), dtype=np.int8))
        frame = design_frame(sc, realization)
        grid = channel_grid(realization, frame)
        mags = np.abs(grid.h)
        worst_ripple = max(worst_ripple, float((mags.max(1) / mags.min(1) - 1).max()))
    assert worst_ripple <= 1e-12

    # MMSE equalization over a constant SNR profile returns that SNR.
    worst_snr_err = 0.0
    for gamma in (1e-3, 0.5, 7.0, 4500.0):
        for k in (1, 8, 64):
            eff = sc_fde_effective_snr(np.full(k, gamma))
            worst_snr_err = max(worst_snr_err, abs(eff - gamma) / gamma)
    assert worst_snr_err <= 1e-12

    # The equalized-rate formula collapses to the single-carrier law.
    frame = make_frame(k=16, bandwidth=16.0, cp_duration=4e-9, fft_duration=16e-9)
    sc = Scenario(n_pas=2, n_users=1, bandwidth=16.0, tx_power=3.0, noise_power=16.0)
    h_row = np.full(16, 1.5 - 0.5j)
    gamma = abs(1.5 - 0.5j) ** 2 * 3.0 / (2 * 16 * 1.0 * 1.0)
    direct = frame.cp_efficiency * 16.0 * math.log2(1.0 + gamma)
    rate = _sc_fde_rates(np.abs(h_row) ** 2, sc.tx_power, frame, sc)
    assert rate == pytest.approx(direct, rel=1e-12)

    report(
        "flat-channel reductions",
        True,
        f"grid ripple {worst_ripple:.2e}, flat-SNR error {worst_snr_err:.2e}",
    )


def test_5_analytic_response_matches_dense_grid_dtft():
    rng = np.random.default_rng(2005)
    tap_sets = [
        ([1.0 + 0j, 1.0 + 0j], [0.0, 24e-9]),
        ([0.8 - 0.3j, -0.5 + 0.6j, 0.2 + 0.2j], [0.0, 7e-9, 24e-9]),
        (
            (rng.normal(size=4) + 1j * rng.normal(size=4)).tolist(),
            [0.0, 3.142e-9, 11.001e-9, 24.024e-9],
        ),
    ]
    offsets = [0.0, 1e6, 5e6, 7.8125e6, 33e6, 100e6, -12e6]
    worst = 0.0
    for gains, delays in tap_sets:
        realization = synthetic_realization([gains], [delays])
        for f in offsets:
            analytic = frequency_response(realization, 0, f)
            reference = dtft_oracle(gains, delays, f)
            scale = max(abs(reference), 1e-3 * float(np.sum(np.abs(gains))))
            worst = max(worst, abs(analytic - reference) / scale)
    report(
        "analytic response vs dense-grid DTFT",
        worst <= 1e-6,
        f"worst relative deviation {worst:.2e} over {len(tap_sets)} tap sets",
    )


def test_6_minimum_rate_trends_versus_pa_count():
    cfg = ExperimentConfig(
        axis="pa_count",
        axis_values=(5, 10, 15, 20, 25, 30),
        m_values=(2,),
        beta_values=(0.05, 0.15),
        drops=500,
        master_seed=12345,
    )
    result = run_sweep(cfg, threads=2)  # the same bytes as serial (TestRunSweep)

    def means(scheme, beta):
        return np.array(
            [result.point(scheme, n, 2, beta).mean_min_rate for n in cfg.axis_values]
        )

    ofdma, single, sc_fde = (means(s, 0.05) for s in ("ofdma", "single_pa", "sc_fde"))
    ordering = bool(np.all(ofdma > sc_fde) and np.all(ofdma > single))
    gap_rho = spearman(ofdma - sc_fde, np.array(cfg.axis_values, dtype=float))

    single_hb = means("single_pa", 0.15)
    others_hb = np.minimum(means("ofdma", 0.15), means("sc_fde", 0.15))
    heavy_blockage = bool(
        np.all(single_hb[1:] < others_hb[1:])  # N >= 10
    )

    detail = (
        f"beta 0.05: ofdma {np.round(ofdma/1e9, 3).tolist()} Gbps, "
        f"sc_fde {np.round(sc_fde/1e9, 3).tolist()} Gbps, "
        f"gap rank corr {gap_rho:.2f}; "
        f"beta 0.15 single-PA lowest at N >= 10: {heavy_blockage}"
    )
    report(
        "minimum-rate trends versus PA count",
        ordering and gap_rho > 0 and heavy_blockage,
        detail,
    )


def test_7_power_sweep_monotonicity_and_user_dilution():
    cfg = ExperimentConfig(
        axis="tx_power",
        axis_values=(0.0, 5.0, 10.0, 15.0, 20.0),
        m_values=(2, 4),
        beta_values=(0.05,),
        drops=400,
        pa_count=10,
        master_seed=777,
    )
    result = run_sweep(cfg)

    monotone = True
    for scheme in ("ofdma", "single_pa", "sc_fde"):
        for m in (2, 4):
            means = [
                result.point(scheme, p, m, 0.05).mean_min_rate
                for p in cfg.axis_values
            ]
            monotone &= all(a <= b + 1e-9 for a, b in zip(means, means[1:]))

    dilution = True
    for scheme in ("single_pa", "sc_fde"):
        for p in cfg.axis_values:
            dilution &= (
                result.point(scheme, p, 2, 0.05).mean_min_rate
                >= result.point(scheme, p, 4, 0.05).mean_min_rate
            )

    report(
        "power-sweep monotonicity and user dilution",
        monotone and dilution,
        f"monotone={monotone}, tdma M=2 above M=4 everywhere={dilution}",
    )


def test_8_byte_identical_reproduction(tmp_path):
    config = tmp_path / "repro.cfg"
    config.write_text(
        "axis = pa_count\n"
        "axis_values = 3, 5\n"
        "m_values = 2\n"
        "beta_values = 0.05\n"
        "drops = 5\n"
        "master_seed = 99\n"
    )
    payloads = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
        out = tmp_path / name
        cli_main(
            ["simulate", "--config", str(config), "--out", str(out), "--threads", threads]
        )
        payloads.append(out.read_bytes())
    report(
        "byte-identical CSV reproduction",
        payloads[0] == payloads[1] == payloads[2],
        "two serial runs and one 4-thread run",
    )
