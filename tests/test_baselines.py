"""Single-PA TDMA and SC-FDE TDMA reference schemes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim.alloc import allocate, min_rate
from pinchsim.baselines import baseline_min_rates, sc_fde_effective_snr
from pinchsim.baselines import (
    _center_gains_sq,
    _harmonic_min,
    _sc_fde_rates,
    _single_pa_rates,
)
from pinchsim.channel import (
    build_realization,
    channel_grid,
    path_loss_constant,
)
from pinchsim.frame import design_frame
from pinchsim.geometry import (
    Scenario,
    center_pa_position,
    sample_blockage,
    sample_users,
)

from helpers import (
    gain_instances,
    make_frame,
    reference_harmonic_min,
    reference_sc_fde_rate,
    reference_single_pa_rate,
    unit_scenario,
)


class TestStandaloneRateSinglePa:
    def test_blocked_is_zero(self):
        sc = Scenario(n_pas=1, n_users=1)
        users = [(10, 2, 0), (20, -1, 0)]
        rates = _single_pa_rates(_center_gains_sq(users, [0, 1], sc), sc.tx_power, sc)
        assert rates[0] == 0.0 and rates[1] > 0.0

    def test_unit_snr_gives_bandwidth(self):
        # Pick the noise so |h|^2 P_t / noise_power = 1: rate = B * log2(2).
        fc, pt = 28e9, 0.1
        eta = path_loss_constant(fc)
        sc = Scenario(
            n_pas=1, n_users=1, carrier_freq=fc, tx_power=pt,
            noise_power=eta / 9.0 * pt, bandwidth=500e6,
        )
        user = (15.0, 0.0, 0.0)  # 3 m below the center PA
        (rate,) = _single_pa_rates(_center_gains_sq(user, [1], sc), pt, sc)
        assert rate == pytest.approx(sc.bandwidth, rel=1e-12)

    def test_scalar_cross_check(self):
        # Full-band rate recomputed from scratch for a user 3 m under the PA.
        sc = Scenario(
            n_pas=1, n_users=1, carrier_freq=28e9, tx_power=0.1,
            noise_power=1e-12, bandwidth=500e6,
        )
        (rate,) = _single_pa_rates(_center_gains_sq([(15.0, 0.0, 0.0)], [1], sc), 0.1, sc)
        snr = (path_loss_constant(28e9) / 9.0) * 0.1 / 1e-12
        assert rate == pytest.approx(500e6 * math.log2(1 + snr), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 8),
    beta=st.sampled_from([0.0, 0.05, 0.5, 5.0]),
    tx_power=st.floats(1e-4, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_single_pa_rates_match_per_user_scalar_calls(m, beta, tx_power, seed):
    """The (M,) rates have the bits of the same array functions called on
    one user at a time, and are within 2 ulp of the rate from the plain-Python
    oracle's link gain (through cos and sin)."""
    sc = Scenario(n_pas=1, n_users=m, blockage_density=beta, tx_power=tx_power)
    rng = np.random.default_rng(seed)
    users = sample_users(sc, rng)
    center = center_pa_position(sc)
    alpha = sample_blockage(sc, users, [center], rng)[:, 0]
    rates = _single_pa_rates(_center_gains_sq(users, alpha, sc), tx_power, sc)
    one_user = [
        _single_pa_rates(_center_gains_sq(users[i], alpha[i : i + 1], sc), tx_power, sc)[0]
        for i in range(m)
    ]
    assert [r.hex() for r in rates.tolist()] == [r.hex() for r in one_user]
    expected = [
        reference_single_pa_rate(tuple(u), tuple(center), int(a), sc)
        for u, a in zip(users.tolist(), alpha)
    ]
    np.testing.assert_array_max_ulp(rates, np.array(expected), maxulp=2)


class TestMaxminTimeShares:
    """The max-min TDMA rate 1 / sum(1/r_m) of _harmonic_min, one row of
    standalone rates at a time or (L, M) rows in one call."""

    def test_one_and_three_gbps(self):
        # Slot fractions 3/4 and 1/4 give both users 0.75 Gb/s.
        assert float(_harmonic_min([1e9, 3e9])) == pytest.approx(0.75e9, rel=1e-14)

    def test_equal_rates_uniform_split(self):
        assert float(_harmonic_min([2e9, 2e9, 2e9, 2e9])) == pytest.approx(0.5e9, rel=1e-14)

    def test_any_zero_rate_kills_the_minimum(self):
        assert float(_harmonic_min([0.0, 5e9])) == 0.0
        assert _harmonic_min([[0.0, 5e9], [5e9, 5e9], [0.0, 0.0]]).tolist() == [0.0, 2.5e9, 0.0]

    def test_single_user_full_slot(self):
        assert float(_harmonic_min([4e9])) == pytest.approx(4e9, rel=1e-15)

    def test_weighted_rates_equalized(self):
        """Each row of a random (L, M) array, a quarter of its rates zero, has
        the bits of a call on that row alone and of the per-user oracle. On a
        row without zeros, slot fractions proportional to 1/r_m give every
        user that rate."""
        rng = np.random.default_rng(3)
        for _ in range(30):
            shape = (rng.integers(1, 6), rng.integers(1, 12))
            rates = np.where(rng.random(shape) < 0.25, 0.0, rng.uniform(1e6, 1e10, shape))
            got = _harmonic_min(rates)
            assert got.shape == shape[:1]
            for row, value in zip(rates, got.tolist()):
                assert value.hex() == float(_harmonic_min(row)).hex()
                assert value.hex() == reference_harmonic_min(row).hex()
                if row.all():
                    zeta = (1.0 / row) / (1.0 / row).sum()
                    assert np.allclose(zeta * row, value, rtol=1e-12, atol=0.0)


class TestScFdeEffectiveSnr:
    def test_flat_recovers_snr(self):
        for gamma in (0.1, 1.0, 17.5):
            eff = sc_fde_effective_snr(np.full(8, gamma))
            assert eff == pytest.approx(gamma, rel=1e-12)

    def test_two_tone_value(self):
        # 2 / (1/4 + 1) - 1 = 0.6.
        assert sc_fde_effective_snr([3.0, 0.0]) == pytest.approx(0.6, rel=1e-14)

    def test_all_dead_tones(self):
        assert sc_fde_effective_snr(np.zeros(16)) == 0.0

    def test_bounded_by_extreme_tones(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            gammas = rng.exponential(scale=5.0, size=rng.integers(1, 33))
            eff = sc_fde_effective_snr(gammas)
            assert gammas.min() - 1e-12 <= eff <= gammas.max() + 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sc_fde_effective_snr([-0.1])


tone_snrs = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=1, max_size=64
)


@settings(max_examples=300, deadline=None)
@given(gammas=tone_snrs, tone=st.integers(0, 63), boost=st.floats(1e-9, 1e6))
def test_sc_fde_effective_snr_properties(gammas, tone, boost):
    """MMSE SC-FDE (Falconer et al., IEEE Commun. Mag. 2002): the effective
    SNR is the harmonic mean of 1 + gamma minus 1, so it lies between the
    smallest and the mean per-tone SNR, equals gamma on a flat channel and
    does not decrease when one tone improves. The formula works on 1 + gamma,
    so the tolerances scale with 1 + gamma."""
    gammas = np.array(gammas)
    eff = sc_fde_effective_snr(gammas)
    low, mean = gammas.min(), gammas.mean()
    assert low - 1e-12 * (1.0 + low) <= eff <= mean + 1e-12 * (1.0 + mean)

    flat = sc_fde_effective_snr(np.full(gammas.size, gammas[0]))
    assert abs(flat - gammas[0]) <= 1e-12 * (1.0 + gammas[0])

    better = gammas.copy()
    better[tone % gammas.size] += boost
    assert sc_fde_effective_snr(better) >= eff


@settings(max_examples=200, deadline=None)
@given(
    gains_sq=gain_instances(),
    scale=st.sampled_from([1.0, 1e-7]),
    tx_powers=st.lists(st.floats(1e-4, 100.0), min_size=1, max_size=4),
)
def test_sc_fde_rates_match_per_user_calls(gains_sq, scale, tx_powers):
    """The SC-FDE rates of all M users, from one (M, K) expression, have at
    every power the bits of one per-user call per row, of the inline formula
    and of the same expression on that row alone; one (L, M) call over all
    powers has them row by row."""
    h = scale * np.sqrt(gains_sq)
    frame = make_frame(k=64, bandwidth=20e6, cp_duration=1e-8)
    scenario = Scenario(n_pas=3, n_users=h.shape[0], bandwidth=20e6)
    stacked = _sc_fde_rates(np.abs(h) ** 2, np.array(tx_powers)[:, None, None], frame, scenario)
    for tx_power, level in zip(tx_powers, stacked):
        sc = replace(scenario, tx_power=tx_power)
        want = [reference_sc_fde_rate(row, frame, sc).hex() for row in h]
        got = _sc_fde_rates(np.abs(h) ** 2, tx_power, frame, sc)
        assert [r.hex() for r in got.tolist()] == want
        assert [r.hex() for r in level.tolist()] == want
        one_user = [float(_sc_fde_rates(np.abs(row) ** 2, tx_power, frame, sc)) for row in h]
        assert [r.hex() for r in one_user] == want


class TestScFdeStandaloneRate:
    def test_fully_blocked_user(self):
        frame = make_frame(k=8, bandwidth=8.0)
        sc = unit_scenario(1, 8)
        assert _sc_fde_rates(np.zeros(8), sc.tx_power, frame, sc) == 0.0

    def test_flat_channel_reduces_to_single_carrier(self):
        frame = make_frame(k=8, bandwidth=8.0, cp_duration=2e-9, fft_duration=8e-9)
        sc = Scenario(n_pas=3, n_users=1, bandwidth=8.0, tx_power=2.0, noise_power=8.0)
        h_row = np.full(8, 0.5 + 0.5j)
        gamma = abs(0.5 + 0.5j) ** 2 * 2.0 / (3 * 8 * 1.0 * 1.0)
        expected = frame.cp_efficiency * 8.0 * math.log2(1 + gamma)
        assert _sc_fde_rates(np.abs(h_row) ** 2, 2.0, frame, sc) == pytest.approx(
            expected, rel=1e-12
        )

    def test_dominated_by_per_tone_ofdm_sum(self):
        # MMSE equalization cannot beat independent per-tone decoding.
        rng = np.random.default_rng(5)
        frame = make_frame(k=8, bandwidth=8.0)
        sc = unit_scenario(1, 8)
        for _ in range(25):
            h_row = rng.normal(size=8) + 1j * rng.normal(size=8)
            gammas = np.abs(h_row) ** 2 * sc.tx_power / (
                sc.n_pas * 8 * sc.noise_psd * frame.subcarrier_spacing
            )
            rate = _sc_fde_rates(np.abs(h_row) ** 2, sc.tx_power, frame, sc)
            per_tone = (
                frame.cp_efficiency
                * frame.subcarrier_spacing
                * np.sum(np.log2(1 + gammas))
            )
            assert rate <= per_tone + 1e-9


class TestBaselineMinRates:
    def drop(self, scenario, seed=0):
        rng = np.random.default_rng(seed)
        users = sample_users(scenario, rng)
        los = np.ones((scenario.n_users, scenario.n_pas), dtype=np.int8)
        realization = build_realization(scenario, users, los)
        frame = design_frame(scenario, realization)
        grid = channel_grid(realization, frame)
        return users, realization, frame, grid

    def test_single_user_single_pa_full_slot(self):
        sc = Scenario(n_pas=1, n_users=1, blockage_density=0.0)
        users, realization, frame, grid = self.drop(sc)
        single, _ = baseline_min_rates(
            realization, grid, frame, sc, np.array([1], dtype=np.int8)
        )
        expected = reference_single_pa_rate(tuple(users[0]), center_pa_position(sc), 1, sc)
        assert single == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_outputs(self):
        sc = Scenario(n_pas=4, n_users=3, blockage_density=0.1)
        rng = np.random.default_rng(8)
        users = sample_users(sc, rng)
        los = (rng.random((3, 4)) < 0.6).astype(np.int8)
        realization = build_realization(sc, users, los)
        frame = design_frame(sc, realization)
        grid = channel_grid(realization, frame)
        single, sc_fde = baseline_min_rates(
            realization, grid, frame, sc, (rng.random(3) < 0.5).astype(np.int8)
        )
        assert single >= 0.0 and sc_fde >= 0.0

    def test_single_center_pa_layout_matches_both_schemes(self):
        # One uniformly placed PA lands at the center; with identical (all
        # LoS) blockage and a flat channel the CP vanishes, so the SC-FDE
        # scheme collapses to the single-PA scheme exactly.
        sc = Scenario(n_pas=1, n_users=2, blockage_density=0.0)
        _, realization, frame, grid = self.drop(sc, seed=11)
        assert frame.cp_duration == 0.0
        single, sc_fde = baseline_min_rates(
            realization, grid, frame, sc, np.ones(2, dtype=np.int8)
        )
        assert sc_fde == pytest.approx(single, rel=1e-9)

    def test_flat_channel_single_user_schemes_coincide(self):
        # One user, one PA, no blockage: OFDMA spreads the full budget over
        # equal-gain tones and SC-FDE sees a flat per-tone SNR, so both lines
        # collapse to B * log2(1 + gamma) with no CP. (With two or more users
        # the TDMA schemes burst the whole budget during each slot while
        # OFDMA splits it across users, so neither dominates on a flat
        # channel; OFDMA's edge comes from frequency selectivity.)
        for seed in range(6):
            sc = Scenario(n_pas=1, n_users=1, blockage_density=0.0)
            _, realization, frame, grid = self.drop(sc, seed=seed)
            ofdma = min_rate(allocate(grid, frame, sc))
            _, sc_fde = baseline_min_rates(
                realization, grid, frame, sc, np.ones(1, dtype=np.int8)
            )
            assert ofdma == pytest.approx(sc_fde, rel=1e-9)
            assert ofdma > 0.0
