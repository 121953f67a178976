"""Shared builders for synthetic channels and frames used across tests, the
per-user loops that the array code must match bit for bit, a per-link
oracle of the channel formulas in plain Python scalars, and a runner for
code under numpy's lowest CPU dispatch level."""

import cmath
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import pinchsim
from pinchsim.alloc import Allocation
from pinchsim.channel import (
    SPEED_OF_LIGHT,
    ChannelGrid,
    ChannelRealization,
    path_loss_constant,
)
from pinchsim.experiments import _drop_channel, _drop_users, load_config, scenario_for
from pinchsim.frame import FrameDesign
from pinchsim.geometry import Scenario, center_pa_position

BENCH_WORKLOADS = Path(__file__).parent.parent / "dropbench" / "workloads"

# The per-link oracle: one link at a time in math/cmath floats, written apart
# from the (M, N) array code it checks, in the same operation order. Squares
# are dx * dx: libm's pow behind a float ** 2, and math.dist, can round
# differently from numpy's square. The distance and delay oracles give the
# array bits exactly; values through exp, cos or sin may differ from numpy's
# in the last place.


def oracle_distance(a, b):
    """Euclidean distance between two 3-points, squares added x, y, z."""
    dx, dy, dz = (float(p) - float(q) for p, q in zip(a, b))
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def oracle_los_probability(user, pa, beta):
    """exp(-beta * distance) of one link."""
    return math.exp(-beta * oracle_distance(user, pa))


def oracle_link_gain(user, pa, alpha, carrier_freq):
    """Free-space gain of one PA-to-user link: 0j when blocked, otherwise
    sqrt(eta) / d, turning once per wavelength of path."""
    if not alpha:
        return 0j
    d = oracle_distance(user, pa)
    wavelength = SPEED_OF_LIGHT / carrier_freq
    amp = math.sqrt(path_loss_constant(carrier_freq)) / d
    return cmath.rect(amp, -2.0 * math.pi * d / wavelength)


def oracle_waveguide_phase(pa, feed, carrier_freq, refractive_index):
    """Unit rotation from the feed to one PA at the guided wavelength."""
    guided = SPEED_OF_LIGHT / carrier_freq / refractive_index
    return cmath.rect(1.0, -2.0 * math.pi * oracle_distance(feed, pa) / guided)


def oracle_delay(user, pa, feed, refractive_index):
    """Free-space (PA to user) plus guided (feed to PA) delay of one link."""
    c = SPEED_OF_LIGHT
    return oracle_distance(user, pa) / c + refractive_index * oracle_distance(feed, pa) / c


def synthetic_realization(gains, delays):
    """Wrap explicit tap arrays in a realization (geometry is placeholder)."""
    gains = np.atleast_2d(np.asarray(gains, dtype=complex))
    delays = np.atleast_2d(np.asarray(delays, dtype=float))
    m, n = gains.shape
    users = np.zeros((m, 3))
    users[:, 0] = np.arange(m)
    pas = np.zeros((n, 3))
    pas[:, 0], pas[:, 2] = np.arange(n), 3.0
    los = (np.abs(gains) > 0).astype(np.int8)
    return ChannelRealization(users, pas, np.array([0.0, 0.0, 3.0]), los, gains, delays)


def reference_sample_users(scenario, rng):
    """User positions drawn one at a time, x then y, as 3-tuples: the draw
    that `pinchsim.geometry.sample_users` must match bit for bit."""
    half_w = scenario.room_width / 2.0
    users = []
    for _ in range(scenario.n_users):
        x = rng.uniform(0.0, scenario.room_length)
        y = rng.uniform(-half_w, half_w)
        users.append((x, y, 0.0))
    return users


def _active_delay_rows(realization):
    """Each user's unblocked tap delays, skipping users with none."""
    for m in range(realization.n_users):
        delays = realization.tap_delays[m][realization.los[m] != 0]
        if delays.size:
            yield delays


def reference_max_excess_delay(realization):
    """Per-user loop over the unblocked delays: the oracle of
    `pinchsim.frame.max_excess_delay`."""
    worst = 0.0
    for delays in _active_delay_rows(realization):
        worst = max(worst, float(delays.max() - delays.min()))
    return worst


def reference_rms_delay_spread(realization):
    """Per-user loop over the unblocked delays: the oracle of
    `pinchsim.frame.rms_delay_spread`."""
    worst = 0.0
    for delays in _active_delay_rows(realization):
        worst = max(worst, float(np.sqrt(np.mean((delays - delays.mean()) ** 2))))
    return worst


def reference_single_pa_rate(user, center_pa, alpha, scenario):
    """Full-band rate of one user (a 3-tuple) served alone by the center PA,
    from the oracle link gain: the per-user oracle of the single-PA rates in
    `pinchsim.baselines`."""
    gain = oracle_link_gain(user, center_pa, alpha, scenario.carrier_freq)
    snr = abs(gain) ** 2 * scenario.tx_power / scenario.noise_power
    # np.log2, as the array code: math.log2 differs from it in the last
    # place on some inputs.
    return scenario.bandwidth * float(np.log2(1.0 + snr))


def dtft_oracle(gains, delays, f_offset, dt=1e-12):
    """Brute-force reference: sample the impulse response on a dt grid and
    evaluate the discrete-time Fourier transform at f_offset."""
    delays = np.asarray(delays, dtype=float)
    bins = np.round(delays / dt).astype(int)
    h = np.zeros(bins.max() + 1, dtype=complex)
    for g, b in zip(np.asarray(gains, dtype=complex), bins):
        h[b] += g
    t = np.arange(h.size) * dt
    return complex(np.sum(h * np.exp(-2j * np.pi * f_offset * t)))


def make_frame(k=8, bandwidth=500e6, cp_duration=0.0, fft_duration=None):
    """FrameDesign with spacing = bandwidth / k; flat (no CP) by default."""
    if fft_duration is None:
        fft_duration = k / bandwidth
    return FrameDesign(
        cp_duration=cp_duration,
        fft_duration=fft_duration,
        n_subcarriers=k,
        subcarrier_spacing=bandwidth / k,
    )


def unit_scenario(n_users, k, n_pas=1, tx_power=1.0):
    """Scenario tuned so the per-watt SNR slope equals |H|^2 exactly:
    one PA, subcarrier spacing 1 Hz, noise PSD 1 W/Hz."""
    return Scenario(
        n_pas=n_pas,
        n_users=n_users,
        bandwidth=float(k),
        tx_power=tx_power,
        noise_power=float(k),
    )


def grid_from_h(h):
    """ChannelGrid with centered integer-spaced subcarrier offsets."""
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    k = h.shape[1]
    return ChannelGrid(h, (np.arange(k) - k // 2) * 1.0)


def random_grid(rng, n_users, k, scale=1.0, zero_fraction=0.0):
    """Complex Gaussian channel grid with an optional share of dead tones."""
    h = scale * (rng.normal(size=(n_users, k)) + 1j * rng.normal(size=(n_users, k)))
    if zero_fraction > 0:
        h[rng.random((n_users, k)) < zero_fraction] = 0.0
    return grid_from_h(h)


def reference_channel_advantage(gains_sq):
    """Per-user definition of the channel advantage: own |H|^2 over the best
    other user's, with that user's row deleted; +inf where no other user has
    any gain."""
    m_users = gains_sq.shape[0]
    gamma = np.empty_like(gains_sq)
    for m in range(m_users):
        others = np.delete(gains_sq, m, axis=0)
        denom = others.max(axis=0) if others.size else np.zeros(gains_sq.shape[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            row = gains_sq[m] / denom
        row[denom == 0.0] = np.inf
        gamma[m] = row
    return gamma


def reference_tone_orders(gains_sq):
    """Each user's positive-gain tones ordered by one stable 3-key lexsort:
    advantage desc, own gain desc, index asc. The oracle of the preference
    orders `pinchsim.alloc._tone_terms` keeps as ToneTerms.prefs."""
    usable = gains_sq > 0.0
    keys = (-gains_sq, -reference_channel_advantage(gains_sq), ~usable)
    order = np.lexsort(keys, axis=-1)
    return [row[:n].tolist() for row, n in zip(order, usable.sum(axis=1).tolist())]


def reference_greedy_assign(gains_sq, frame, scenario):
    """Max-min greedy tone assignment (Rhee & Cioffi, VTC 2000) written as a
    rescan of every unassigned tone at each step: the oracle that
    `pinchsim.alloc.greedy_assign` must match exactly.

    The worst-off active user (lowest index on ties) takes, among the
    unassigned tones with positive own gain, the one with the largest
    advantage, then largest own gain, then lowest index; a user with no such
    tone left is skipped for good, and tones left when every user is skipped
    (those no user can use) go to user 0.
    """
    m_users, k_tones = gains_sq.shape
    gamma = reference_channel_advantage(gains_sq)
    assignment = np.zeros((m_users, k_tones), dtype=np.int8)
    unassigned = np.ones(k_tones, dtype=bool)
    provisional = np.zeros(m_users)
    active = np.ones(m_users, dtype=bool)
    snr_slope = scenario.tx_power / (
        scenario.noise_psd * frame.subcarrier_spacing * scenario.n_pas * k_tones
    )
    eff_df = frame.cp_efficiency * frame.subcarrier_spacing

    remaining = k_tones
    while remaining > 0:
        if not active.any():
            assignment[0, unassigned] = 1
            break
        masked = np.where(active, provisional, np.inf)
        m_star = int(np.argmin(masked))
        candidates = np.flatnonzero(unassigned & (gains_sq[m_star] > 0.0))
        if not candidates.size:
            active[m_star] = False
            continue
        advantage = gamma[m_star, candidates]
        ties = candidates[advantage == advantage.max()]
        if ties.size > 1:
            own_ties = gains_sq[m_star, ties]
            ties = ties[own_ties == own_ties.max()]
        k_star = int(ties.min())
        assignment[m_star, k_star] = 1
        unassigned[k_star] = False
        remaining -= 1
        provisional[m_star] += eff_df * np.log2(
            1.0 + gains_sq[m_star, k_star] * snr_slope
        )
    return assignment


@st.composite
def gain_instances(draw):
    """(M, K) |H|^2 grids, M in 1..5 and K in 1..64 (so M > K occurs), from a
    small discrete set that forces ties and dead tones, or from a continuous
    law with a share of zeros; optionally one all-zero row and column."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 64))
    element = draw(
        st.sampled_from(
            [
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
            ]
        )
    )
    gains_sq = np.array(draw(st.lists(element, min_size=m * k, max_size=m * k)))
    gains_sq = gains_sq.reshape(m, k)
    dead_row = draw(st.none() | st.integers(0, m - 1))
    dead_col = draw(st.none() | st.integers(0, k - 1))
    if dead_row is not None:
        gains_sq[dead_row] = 0.0
    if dead_col is not None:
        gains_sq[:, dead_col] = 0.0
    return gains_sq


@st.composite
def tied_gain_instances(draw):
    """gain_instances grids with exact ties in the tone key forced in: copied
    columns, columns scaled by a power of two (same advantage, other own
    gain), columns where one user alone has gain (advantage +inf), and equal
    own gains of one user."""
    gains_sq = draw(gain_instances())
    m, k = gains_sq.shape
    cols = st.integers(0, k - 1)
    for src, dst in draw(st.lists(st.tuples(cols, cols), max_size=4)):
        gains_sq[:, dst] = gains_sq[:, src]
    for src, dst in draw(st.lists(st.tuples(cols, cols), max_size=4)):
        gains_sq[:, dst] = gains_sq[:, src] * draw(st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    user = draw(st.integers(0, m - 1))
    for col in draw(st.lists(cols, max_size=4)):
        gains_sq[:, col] = 0.0
        gains_sq[user, col] = draw(st.sampled_from([1.0, 3.0]))
    for col in draw(st.lists(cols, max_size=4)):
        gains_sq[user, col] = 1.0
    return gains_sq


def pinned_drop(workload, axis_value, n_users, beta, drop):
    """(|H|^2, frame, scenario) of one drop of a benchmark workload's grid
    point at the pinned master seed 1, built as the sweep builds it."""
    config = replace(load_config(BENCH_WORKLOADS / f"{workload}.cfg"), master_seed=1)
    scenario = scenario_for(config, axis_value, n_users, beta)
    drop_users = _drop_users(scenario, config.master_seed, drop)
    channel = _drop_channel(scenario, drop_users, config.master_seed, drop)
    return channel.tones.gains_sq, channel.frame, scenario


def dispatched_cpu_features():
    """The CPU features numpy dispatches to at run time that this host has."""
    from numpy._core import _multiarray_umath as umath

    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]


# Prepended to the child's code: fails unless every feature named in
# NPY_DISABLE_CPU_FEATURES reads off.
_DISPATCH_OFF_GUARD = """
import os
from numpy._core import _multiarray_umath as _umath
_off = os.environ["NPY_DISABLE_CPU_FEATURES"].split(",")
_found = [f for f in _off if f and _umath.__cpu_features__[f]]
if _found:
    raise SystemExit(f"still dispatched: {_found}")
"""


def run_with_cpu_dispatch_off(code, *args):
    """Run `code` (with `args` as sys.argv[1:]) in a fresh interpreter that
    imports pinchsim from the same sources, with NPY_DISABLE_CPU_FEATURES
    naming every dispatched feature this host has, so numpy runs its
    baseline kernels. The child first checks that those features read off.
    Returns its stdout; a failing child fails the caller with its stderr."""
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=",".join(dispatched_cpu_features()),
        PYTHONPATH=str(Path(pinchsim.__file__).resolve().parents[1]),
    )
    child = subprocess.run(
        [sys.executable, "-c", _DISPATCH_OFF_GUARD + code, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def reference_waterfill(gains, budget):
    """Water-filling of one (K,) gain vector over its positive channels,
    sorted by breakpoint: the per-row oracle of `pinchsim.alloc.waterfill`."""
    gains = np.asarray(gains, dtype=float)
    powers = np.zeros_like(gains)
    positive = np.flatnonzero(gains > 0)
    if positive.size == 0:
        return powers, float("nan")
    breakpoints = 1.0 / gains[positive]
    order = np.argsort(breakpoints)
    sorted_bp = breakpoints[order]
    levels = (budget + np.cumsum(sorted_bp)) / np.arange(1, positive.size + 1)
    feasible = np.flatnonzero(levels > sorted_bp)
    if feasible.size == 0:
        return powers, float(sorted_bp[0])
    j = int(feasible[-1])
    level = float(levels[j])
    active = positive[order[: j + 1]]
    powers[active] = level - 1.0 / gains[active]
    return powers, level


def reference_user_rate(assign_row, power_row, gain_row, frame):
    """Rate of one user from its (K,) rows, summed inline: the per-user oracle
    of `pinchsim.alloc.user_rate`, kept apart from the code it checks."""
    spectral = np.log2(1.0 + gain_row * power_row)
    return float(frame.cp_efficiency * frame.subcarrier_spacing * np.sum(assign_row * spectral))


def _reference_user_fill(assign_row, gain_row, budget, frame):
    """Water-fill one user's budget over its own tones: (power row, level, rate)."""
    tones = np.flatnonzero(assign_row == 1)
    loads, level = reference_waterfill(gain_row[tones], budget)
    power = np.zeros_like(gain_row)
    power[tones] = loads
    return power, level, reference_user_rate(assign_row, power, gain_row, frame)


def reference_per_watt(grid, frame, scenario):
    """Per-watt SNR slopes |H|^2 / (N * delta_f * N0) of every (user, tone)."""
    return np.abs(grid.h) ** 2 / (scenario.n_pas * frame.subcarrier_spacing * scenario.noise_psd)


def reference_allocate(grid, frame, scenario):
    """Rescanning greedy assignment, then one water-filling call and one rate
    sum per user over its own tones: the per-user oracle of
    `pinchsim.alloc.allocate`."""
    assignment = reference_greedy_assign(np.abs(grid.h) ** 2, frame, scenario)
    gains = reference_per_watt(grid, frame, scenario)
    m_users = grid.n_users
    budget = scenario.tx_power / m_users
    power = np.zeros_like(gains)
    rates = np.zeros(m_users)
    unusable = np.zeros(m_users, dtype=bool)
    for m in range(m_users):
        power[m], level, rates[m] = _reference_user_fill(assignment[m], gains[m], budget, frame)
        unusable[m] = budget > 0 and np.isnan(level)
    return Allocation(assignment, power, rates, unusable)


def reference_exhaustive_oracle(grid, frame, scenario):
    """Every tone-to-user map in lexicographic order of its owner vector, each
    user water-filled alone over its own tones: the first map with the largest
    minimum rate and that rate. The per-assignment oracle of
    `pinchsim.alloc.exhaustive_oracle`."""
    gains = reference_per_watt(grid, frame, scenario)
    m_users, k_tones = gains.shape
    budget = scenario.tx_power / m_users
    best, best_value = None, -np.inf
    for owners in itertools.product(range(m_users), repeat=k_tones):
        assignment = np.zeros((m_users, k_tones), dtype=np.int8)
        assignment[list(owners), np.arange(k_tones)] = 1
        value = min(
            _reference_user_fill(assignment[m], gains[m], budget, frame)[2]
            for m in range(m_users)
        )
        if value > best_value:
            best, best_value = assignment, value
    return best, best_value


def reference_sc_fde_rate(h_row, frame, scenario):
    """SC-FDE rate of one user from its (K,) channel row: the per-user oracle
    of the SC-FDE rates in `pinchsim.baselines`, one row of their (M, K) form."""
    k_tones = h_row.size
    gammas = (
        np.abs(h_row) ** 2
        * scenario.tx_power
        / (scenario.n_pas * k_tones * scenario.noise_psd * frame.subcarrier_spacing)
    )
    snr_eff = float(gammas.size / np.sum(1.0 / (gammas + 1.0)) - 1.0)
    return float(frame.cp_efficiency * scenario.bandwidth * np.log2(1.0 + snr_eff))


def reference_harmonic_min(rates):
    """Max-min time-shared rate of one row of standalone rates, one user at a
    time: 0 if any user has rate 0, else 1 / sum(1/r_m). The oracle of
    `pinchsim.baselines._harmonic_min`, which takes (L, M) rows."""
    rates = [float(r) for r in rates]
    if 0.0 in rates:
        return 0.0
    return 1.0 / float(np.sum([1.0 / r for r in rates]))


def reference_baseline_min_rates(realization, grid, frame, scenario, center_alpha):
    """Both TDMA minimum rates from one scalar rate call per user: the oracle
    of `pinchsim.baselines.baseline_min_rates`."""
    center = tuple(center_pa_position(scenario))
    single = [
        reference_single_pa_rate(tuple(u), center, int(a), scenario)
        for u, a in zip(realization.users.tolist(), center_alpha)
    ]
    sc_fde = [reference_sc_fde_rate(h_row, frame, scenario) for h_row in grid.h]
    return reference_harmonic_min(single), reference_harmonic_min(sc_fde)


def reference_sweep_stats(mat):
    """Mean and standard error over the drops of one grid point's (D, 3)
    matrix of per-drop scheme minima, one point at a time: the oracle of the
    whole-array reduction in `pinchsim.experiments.run_sweep`."""
    drops = mat.shape[0]
    means = mat.mean(axis=0)
    if drops == 1:
        return means, np.zeros_like(means)
    return means, mat.std(axis=0, ddof=1) / math.sqrt(drops)


def reference_per_user_abs(h):
    """Min, mean and max of |h| for one user's row at a time: the oracle of
    `per_user_abs` in `pinchsim.experiments.trace_drop`."""
    rows = np.abs(h)
    return [
        {"min": float(row.min()), "mean": float(row.mean()), "max": float(row.max())}
        for row in rows
    ]
