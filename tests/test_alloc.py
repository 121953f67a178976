"""Greedy subcarrier assignment, water-filling and the exhaustive reference."""

import math
import pickle
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinchsim.alloc
from pinchsim.alloc import (
    Allocation,
    _allocate_levels,
    _channel_advantage,
    _fill,
    _tone_terms,
    allocate,
    exhaustive_oracle,
    greedy_assign,
    min_rate,
    user_rate,
    waterfill,
)
from pinchsim.geometry import Scenario

from helpers import (
    gain_instances,
    grid_from_h,
    make_frame,
    pinned_drop,
    random_grid,
    reference_allocate,
    reference_channel_advantage,
    reference_exhaustive_oracle,
    reference_greedy_assign,
    reference_tone_orders,
    reference_user_rate,
    reference_waterfill,
    run_with_cpu_dispatch_off,
    tied_gain_instances,
    unit_scenario,
)

POW2 = (1, 2, 4, 8, 16, 32)


def unit_setup(n_users, k, tx_power=1.0, n_pas=1):
    """Frame + scenario where the per-watt gains equal |H|^2 exactly.

    Grids may be narrower than the frame's radix-two subcarrier count (the
    allocator only reads the spacing and CP efficiency), so non-power-of-two
    instance widths still get a unit-spacing frame.
    """
    p2 = 1
    while p2 < k:
        p2 *= 2
    frame = make_frame(k=p2, bandwidth=float(p2))
    scenario = unit_scenario(n_users, k, n_pas=n_pas, tx_power=tx_power)
    return frame, scenario


class TestUserRate:
    def test_single_tone_unit_snr(self):
        frame = make_frame(k=4, bandwidth=4.0)  # spacing 1 Hz, cp_eff 1
        b = np.array([0, 1, 0, 0])
        p = np.array([0.0, 1.0, 0.0, 0.0])
        g = np.array([0.0, 1.0, 0.0, 0.0])
        assert user_rate(b, p, g, frame) == pytest.approx(
            frame.cp_efficiency * frame.subcarrier_spacing, rel=1e-15
        )

    def test_zero_power_zero_rate(self):
        frame = make_frame(k=4, bandwidth=4.0)
        assert user_rate(np.ones(4), np.zeros(4), np.ones(4), frame) == 0.0

    def test_two_tone_closed_form(self):
        # Tone SNRs 3 and 7: log2(4) + log2(8) = 5.
        frame = make_frame(k=2, bandwidth=7.0, cp_duration=1e-9, fft_duration=9e-9)
        rate = user_rate(
            np.array([1, 1]), np.array([1.0, 1.0]), np.array([3.0, 7.0]), frame
        )
        assert rate == pytest.approx(
            5.0 * frame.cp_efficiency * frame.subcarrier_spacing, rel=1e-14
        )

    def test_unassigned_tones_do_not_count(self):
        frame = make_frame(k=2, bandwidth=2.0)
        rate = user_rate(
            np.array([1, 0]), np.array([1.0, 1.0]), np.array([1.0, 100.0]), frame
        )
        assert rate == pytest.approx(1.0, rel=1e-14)

    def test_rows_equal_per_row_calls(self):
        # (R, K) rows give (R,) rates, each the bits of its (K,) call and of
        # the inline per-user sum.
        rng = np.random.default_rng(4)
        frame = make_frame(k=8, bandwidth=20e6, cp_duration=1e-8)
        assign = (rng.random((5, 8)) < 0.5).astype(np.int8)
        power = rng.random((5, 8)) * assign
        gain = 10.0 ** rng.uniform(-3, 3, size=8)
        rates = user_rate(assign, power, gain, frame)
        assert isinstance(user_rate(assign[0], power[0], gain, frame), float)
        assert rates.shape == (5,)
        for a, p, rate in zip(assign, power, rates):
            assert float(rate).hex() == user_rate(a, p, gain, frame).hex()
            assert float(rate).hex() == reference_user_rate(a, p, gain, frame).hex()


class TestGreedyAssign:
    def test_diagonal_dominant_hand_trace(self):
        # User 0 goes first (index tie-break) and takes tone 0, where its
        # advantage is 4 versus 0.25; user 1 then takes tone 1.
        frame, scenario = unit_setup(2, 2)
        b = greedy_assign(np.array([[4.0, 1.0], [1.0, 4.0]]), frame, scenario)
        assert np.array_equal(b, np.array([[1, 0], [0, 1]], dtype=np.int8))

    def test_single_user_gets_everything(self):
        frame, scenario = unit_setup(1, 4)
        b = greedy_assign(np.array([[3.0, 0.1, 2.0, 5.0]]), frame, scenario)
        assert np.all(b == 1)

    def test_blocked_user_is_starved_not_fed(self):
        frame, scenario = unit_setup(2, 4)
        gains_sq = np.array([[2.0, 3.0, 1.0, 4.0], [0.0, 0.0, 0.0, 0.0]])
        b = greedy_assign(gains_sq, frame, scenario)
        assert np.all(b[0] == 1)
        assert np.all(b[1] == 0)

    def test_all_users_blocked_still_covers_tones(self):
        frame, scenario = unit_setup(3, 4)
        b = greedy_assign(np.zeros((3, 4)), frame, scenario)
        assert np.array_equal(b.sum(axis=0), np.ones(4, dtype=np.int8))

    def test_fewer_tones_than_users(self):
        frame, scenario = unit_setup(3, 2)
        gains_sq = np.array([[5.0, 1.0], [4.0, 2.0], [3.0, 3.0]])
        b = greedy_assign(gains_sq, frame, scenario)
        assert b.sum() == 2
        assert np.array_equal(b.sum(axis=0), np.ones(2, dtype=np.int8))
        assert (b.sum(axis=1) == 0).sum() == 1  # one user ends empty-handed

    def test_exactly_k_assignments_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            m = int(rng.integers(1, 5))
            k = int(rng.choice(POW2))
            frame, scenario = unit_setup(m, k)
            gains_sq = np.abs(rng.normal(size=(m, k))) ** 2
            gains_sq[rng.random((m, k)) < 0.2] = 0.0
            b = greedy_assign(gains_sq, frame, scenario)
            assert np.array_equal(b.sum(axis=0), np.ones(k, dtype=np.int8))
            assert b.sum() == k

    def test_sole_capable_user_preferred_on_exclusive_tone(self):
        # Tone 1 is invisible to user 1, so user 0's advantage there is
        # infinite and it picks that tone first despite the bigger gain on
        # tone 0.
        frame, scenario = unit_setup(2, 2)
        gains_sq = np.array([[9.0, 4.0], [9.0, 0.0]])
        b = greedy_assign(gains_sq, frame, scenario)
        assert b[0, 1] == 1 and b[1, 0] == 1

    def test_dead_tone_goes_to_user_0(self):
        # No user can use tone 0, so it goes to user 0, as under the
        # exhaustive oracle's lexicographic tie-break. User 1 ranks it above
        # tone 3 by advantage (no other user has gain there) but takes only
        # tones it can use. Tone 0 gets no power, whoever owns it.
        frame, scenario = unit_setup(2, 4)
        gains_sq = np.array([[0.0, 5.0, 0.0, 1.0], [0.0, 0.0, 1.0, 2.0]])
        b = greedy_assign(gains_sq, frame, scenario)
        assert np.array_equal(b, np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.int8))
        out = allocate(grid_from_h(np.sqrt(gains_sq)), frame, scenario)
        assert np.array_equal(out.assignment, b)
        assert [r.hex() for r in out.rates] == ["0x1.ceaecfea8085bp+0", "0x1.0000000000000p+0"]

    def test_identical_users_take_turns_by_index(self):
        # Equal rows and equal gains: every tone key ties and the provisional
        # rates are exactly equal after each round, so each round the lowest
        # index goes first and tone k goes to user k % M.
        m, k = 3, 12
        frame, scenario = unit_setup(m, k)
        b = greedy_assign(np.ones((m, k)), frame, scenario)
        expected = (np.arange(k) % m == np.arange(m)[:, None]).astype(np.int8)
        assert np.array_equal(b, expected)
        assert np.array_equal(b, reference_greedy_assign(np.ones((m, k)), frame, scenario))

    def test_zero_increment_keeps_user_at_head(self):
        # log2(1 + 1e-20 * slope) rounds to 0, so user 0 stays worst-off at
        # 0.0 and, winning the tie by index, takes every tone it can use
        # before user 1 gets one.
        frame, scenario = unit_setup(2, 5)
        gains_sq = np.array([[1e-20, 0.0, 2e-20, 0.0, 3e-20], [1.0, 1.0, 1.0, 1.0, 1.0]])
        assert np.log2(1.0 + gains_sq[0].max() * scenario.tx_power / 5) == 0.0
        b = greedy_assign(gains_sq, frame, scenario)
        assert np.array_equal(b, np.array([[1, 0, 1, 0, 1], [0, 1, 0, 1, 0]], dtype=np.int8))
        assert np.array_equal(b, reference_greedy_assign(gains_sq, frame, scenario))

    @pytest.mark.parametrize("m", [3, 6])
    def test_more_users_than_tones_with_ties(self, m):
        # Users past the K-th never take a tone; each leaves the heap once
        # every tone is taken.
        frame, scenario = unit_setup(m, 2)
        gains_sq = np.ones((m, 2))
        gains_sq[1:, 1] = 2.0
        b = greedy_assign(gains_sq, frame, scenario)
        assert np.array_equal(b, reference_greedy_assign(gains_sq, frame, scenario))
        assert np.array_equal(b.sum(axis=0), np.ones(2, dtype=np.int8))


@settings(max_examples=300, deadline=None)
@given(gains_sq=gain_instances(), tx_power=st.floats(0.01, 100.0))
def test_greedy_assign_equals_rescanning_reference(gains_sq, tx_power):
    """Static per-user tone orders give exactly the assignment of the loop
    that rescans every unassigned tone at each step."""
    frame, scenario = unit_setup(*gains_sq.shape, tx_power=tx_power)
    assert np.array_equal(
        greedy_assign(gains_sq, frame, scenario),
        reference_greedy_assign(gains_sq, frame, scenario),
    )


# Pinned benchmark drops: (workload, axis value, M, beta, drop). The
# wideband ones are K = 4096, M = 4, with hundreds of tones skipped per
# drop; the paper_sweep ones have tied tone keys.
WIDEBAND_DROPS = [("wideband", 10, 4, 0.05, d) for d in range(3)]
TIED_PAPER_DROPS = [
    ("paper_sweep", 5, 2, 0.15, 13),
    ("paper_sweep", 5, 4, 0.05, 4),
    ("paper_sweep", 5, 4, 0.15, 16),
]


def _tone_orders(gains_sq):
    return [list(pref) for pref in _tone_terms(gains_sq).prefs]


class TestToneOrders:
    @settings(max_examples=300, deadline=None)
    @given(gains_sq=gain_instances() | tied_gain_instances())
    def test_equal_reference_lexsort(self, gains_sq):
        assert _tone_orders(gains_sq) == reference_tone_orders(gains_sq)

    def test_lexsort_only_on_tied_keys(self):
        # Distinct advantages: the argsort order is the only one. Tone 2
        # copies tone 0, so both users then tie on a key.
        free = np.array([[4.0, 1.0, 3.0, 0.0], [1.0, 2.0, 0.5, 5.0]])
        tied = free.copy()
        tied[:, 2] = tied[:, 0]
        for gains_sq, calls in ((free, 0), (tied, 1)):
            with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
                orders = _tone_orders(gains_sq)
            assert spy.call_count == calls
            assert orders == reference_tone_orders(gains_sq)

    def test_underflowing_advantages_tie_at_zero(self):
        # Both of user 0's tones have an advantage that rounds to 0.0, so
        # both key -0.0: a tie that only the lexsort breaks, by own gain
        # (tone 1 first). Users 1 and 2 have distinct keys.
        gains_sq = np.array([[1e-320, 2e-320], [1e10, 2e10], [2e10, 1e10]])
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
            orders = _tone_orders(gains_sq)
        assert spy.call_count == 1
        assert orders == [[1, 0], [1, 0], [0, 1]] == reference_tone_orders(gains_sq)

    @pytest.mark.parametrize("drop", WIDEBAND_DROPS + TIED_PAPER_DROPS)
    def test_full_size_drops(self, drop):
        gains_sq, _, _ = pinned_drop(*drop)
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
            orders = _tone_orders(gains_sq)
        assert spy.call_count == (1 if drop in TIED_PAPER_DROPS else 0)
        assert orders == reference_tone_orders(gains_sq)


@pytest.mark.parametrize("drop", WIDEBAND_DROPS + TIED_PAPER_DROPS)
def test_greedy_assign_equals_reference_on_full_size_drops(drop):
    gains_sq, frame, scenario = pinned_drop(*drop)
    assert np.array_equal(
        greedy_assign(gains_sq, frame, scenario),
        reference_greedy_assign(gains_sq, frame, scenario),
    )


DISPATCH_OFF_CHILD = """
import pickle, sys
from pathlib import Path
from pinchsim.alloc import _tone_terms, greedy_assign
cases = pickle.loads(Path(sys.argv[1]).read_bytes())
out = [
    ([bytes(p) for p in _tone_terms(case[0]).prefs], greedy_assign(*case).tobytes())
    for case in cases
]
Path(sys.argv[2]).write_bytes(pickle.dumps(out))
"""


def test_tone_orders_and_greedy_do_not_depend_on_cpu_dispatch(tmp_path):
    """numpy's argsort takes a SIMD path on hosts that have one; with every
    dispatched feature off, the orders and assignments keep their bytes."""
    rng = np.random.default_rng(5)
    noise = np.abs(rng.normal(size=(4, 4096)) + 1j * rng.normal(size=(4, 4096))) ** 2
    cases = [pinned_drop(*drop) for drop in WIDEBAND_DROPS[:1] + TIED_PAPER_DROPS]
    cases.append((noise, *unit_setup(4, 4096)))
    (tmp_path / "cases.pkl").write_bytes(pickle.dumps(cases))
    run_with_cpu_dispatch_off(DISPATCH_OFF_CHILD, tmp_path / "cases.pkl", tmp_path / "out.pkl")
    expected = [
        ([bytes(p) for p in _tone_terms(case[0]).prefs], greedy_assign(*case).tobytes())
        for case in cases
    ]
    assert pickle.loads((tmp_path / "out.pkl").read_bytes()) == expected


class TestChannelAdvantage:
    @pytest.mark.parametrize(
        "gains_sq",
        [
            # Column maxima tied across users, with and without a third user.
            [[2.0, 1.0, 3.0], [2.0, 0.5, 3.0]],
            [[2.0, 1.0, 3.0], [2.0, 0.5, 1.0], [1.0, 1.0, 3.0]],
            # All-zero columns next to live ones.
            [[0.0, 1.5, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0], [0.0, 0.25, 2.0, 0.0]],
            # Single user.
            [[0.0, 0.7, 4.0]],
        ],
    )
    def test_bits_equal_per_user_delete(self, gains_sq):
        gains_sq = np.array(gains_sq)
        gamma = _channel_advantage(gains_sq)
        expected = reference_channel_advantage(gains_sq)
        assert np.array_equal(gamma.view(np.uint64), expected.view(np.uint64))

    def test_dead_columns_and_single_user_are_infinite(self):
        gains_sq = np.array([[0.0, 1.0], [0.0, 3.0]])
        assert np.all(_channel_advantage(gains_sq)[:, 0] == np.inf)
        assert np.all(_channel_advantage(gains_sq[:1]) == np.inf)
        assert np.all(_channel_advantage(np.zeros((1, 3))) == np.inf)

    def test_ratio_past_the_float_range_is_infinite_without_warning(self):
        gains_sq = np.array([[1e300], [1e-300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma = _channel_advantage(gains_sq)
        assert gamma[0, 0] == np.inf and gamma[1, 0] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(gains_sq=gain_instances())
    def test_bits_equal_on_drawn_grids(self, gains_sq):
        gamma = _channel_advantage(gains_sq)
        expected = reference_channel_advantage(gains_sq)
        assert np.array_equal(gamma.view(np.uint64), expected.view(np.uint64))


class TestWaterfill:
    def test_two_channel_tight_budget(self):
        p, level = waterfill(np.array([1.0, 0.5]), 1.0)
        assert np.allclose(p, [1.0, 0.0], atol=1e-15)
        assert level == pytest.approx(2.0, rel=1e-15)

    def test_two_channel_loose_budget(self):
        p, level = waterfill(np.array([1.0, 0.5]), 3.0)
        assert np.allclose(p, [2.0, 1.0], atol=1e-14)
        assert level == pytest.approx(3.0, rel=1e-15)

    def test_equal_gains_split_evenly(self):
        for k in (1, 3, 8):
            p, _ = waterfill(np.full(k, 0.7), 2.0)
            assert np.allclose(p, 2.0 / k, rtol=1e-14)

    def test_all_zero_gains_flagged(self):
        p, level = waterfill(np.zeros(4), 1.0)
        assert np.all(p == 0.0)
        assert math.isnan(level)

    def test_empty_gain_list(self):
        p, level = waterfill(np.array([]), 1.0)
        assert p.size == 0
        assert math.isnan(level)

    def test_mixed_zero_gains_get_no_power(self):
        p, level = waterfill(np.array([0.0, 2.0, 0.0, 1.0]), 1.0)
        assert p[0] == 0.0 and p[2] == 0.0
        assert np.allclose(p, [0.0, 0.75, 0.0, 0.25], atol=1e-14)
        assert level == pytest.approx(1.25, rel=1e-14)

    def test_zero_budget(self):
        p, level = waterfill(np.array([2.0, 1.0]), 0.0)
        assert np.all(p == 0.0)
        assert level == pytest.approx(0.5, rel=1e-15)  # floor of the best channel

    def test_rejects_negatives(self):
        with pytest.raises(ValueError):
            waterfill(np.array([1.0]), -1.0)
        with pytest.raises(ValueError):
            waterfill(np.ones((2, 3)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            waterfill(np.array([-1.0]), 1.0)
        # nan is not >= 0, and an infinite budget has no finite water level
        for gains, budget in (
            ([1.0, 2.0], np.nan), ([np.nan, 1.0], 1.0), ([1.0, 2.0], np.inf),
            (np.ones((2, 3)), np.array([1.0, np.nan])),
        ):
            with pytest.raises(ValueError):
                waterfill(np.array(gains), budget)

    def test_kkt_conditions_random_batch(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            k = int(rng.integers(1, 65))
            gains = rng.exponential(scale=rng.uniform(0.01, 100.0), size=k)
            gains[rng.random(k) < 0.3] = 0.0
            budget = float(rng.uniform(0.01, 50.0))
            p, level = waterfill(gains, budget)
            assert np.all(p >= 0.0)
            assert np.all(p[gains == 0.0] == 0.0)
            if not np.any(gains > 0):
                assert math.isnan(level)
                continue
            assert abs(p.sum() - budget) <= 1e-9 * budget
            active = p > 0
            if np.any(active):
                levels = p[active] + 1.0 / gains[active]
                assert (levels.max() - levels.min()) <= 1e-9 * level
            idle = (~active) & (gains > 0)
            if np.any(idle):
                assert np.all(1.0 / gains[idle] >= level * (1.0 - 1e-9))

    def test_beats_random_feasible_loadings(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            gains = rng.exponential(scale=1.0, size=k)
            budget = float(rng.uniform(0.1, 10.0))
            p, _ = waterfill(gains, budget)
            best = np.sum(np.log2(1.0 + gains * p))
            trials = rng.dirichlet(np.ones(k), size=2000) * budget
            objectives = np.sum(np.log2(1.0 + gains * trials), axis=1)
            assert np.all(objectives <= best + 1e-9 * max(1.0, abs(best)))


@settings(max_examples=300, deadline=None)
@given(
    gains=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=64
    ),
    budget=st.floats(0.0, 100.0),
)
def test_waterfill_kkt(gains, budget):
    """KKT conditions of water-filling (Palomar & Fonollosa, IEEE TSP 2005):
    loads are non-negative and zero on zero-gain channels, sum to the budget
    over the positive-gain channels, sit at the water level on active
    channels and leave idle channels with floors at or above it."""
    gains = np.array(gains)
    p, level = waterfill(gains, budget)
    positive = gains > 0.0
    assert np.all(p >= 0.0)
    assert np.all(p[~positive] == 0.0)
    if not positive.any():
        assert math.isnan(level)
        return
    # Each load is level - 1/g, so the sum is exact only to a few ulps of the level.
    assert p[positive].sum() == pytest.approx(
        budget, rel=1e-12, abs=1e-12 * positive.sum() * level
    )
    active = p > 0.0
    assert np.allclose(p[active] + 1.0 / gains[active], level, rtol=1e-12, atol=0.0)
    idle = positive & ~active
    assert np.all(1.0 / gains[idle] >= level * (1.0 - 1e-12))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


budgets = st.one_of(st.just(0.0), st.floats(1e-6, 1e3))


@settings(max_examples=300, deadline=None)
@given(gains=gain_instances(), budget=budgets, data=st.data())
def test_batched_waterfill_equals_per_row_calls(gains, budget, data):
    """Water-filling the rows of an (M, K) array in one call, with one budget
    for all rows or one budget per row, gives row by row the bits of a 1-D
    call with that row's budget and of the sorted-breakpoint loop."""
    per_row = data.draw(st.lists(budgets, min_size=len(gains), max_size=len(gains)))
    for budget_arg, row_budgets in ((budget, [budget] * len(gains)), (np.array(per_row), per_row)):
        powers, levels = waterfill(gains, budget_arg)
        assert powers.shape == gains.shape and levels.shape == (gains.shape[0],)
        for row, row_budget, p, level in zip(gains, row_budgets, powers, levels):
            for p_1d, level_1d in (
                waterfill(row, row_budget), reference_waterfill(row, row_budget)
            ):
                assert np.array_equal(_bits(p), _bits(p_1d))
                assert float(level).hex() == level_1d.hex()


@settings(max_examples=300, deadline=None)
@given(
    gains_sq=gain_instances(),
    scale=st.sampled_from([1.0, 1e-7]),
    tx_powers=st.lists(st.floats(1e-3, 100.0), min_size=1, max_size=4),
)
def test_allocate_equals_per_user_reference(gains_sq, scale, tx_powers):
    """One ToneTerms record, allocated at several transmit powers in one
    call, gives at each the bits of the per-user loop: greedy, then one
    water-filling call and one rate sum per user. The public allocate agrees
    as well."""
    grid = grid_from_h(scale * np.sqrt(gains_sq))
    frame = make_frame(k=64, bandwidth=20e6, cp_duration=1e-8)
    scenario = Scenario(n_pas=3, n_users=gains_sq.shape[0], bandwidth=20e6)
    terms = _tone_terms(np.abs(grid.h) ** 2)
    allocations = _allocate_levels(terms, frame, scenario, np.array(tx_powers))
    assert len(allocations) == len(tx_powers)
    for tx_power, got in zip(tx_powers, allocations):
        sc = replace(scenario, tx_power=tx_power)
        want = reference_allocate(grid, frame, sc)
        assert np.array_equal(got.assignment, want.assignment)
        assert np.array_equal(_bits(got.power), _bits(want.power))
        assert np.array_equal(_bits(got.rates), _bits(want.rates))
        assert np.array_equal(got.unusable_budget, want.unusable_budget)
        assert np.array_equal(_bits(allocate(grid, frame, sc).rates), _bits(want.rates))


@settings(max_examples=300, deadline=None)
@given(gains_sq=gain_instances(), tx_power=st.floats(0.01, 100.0), data=st.data())
def test_dead_tone_owner_changes_no_power_or_rate(gains_sq, tx_power, data):
    """A tone on which every user has zero gain gets zero power whoever owns
    it: moving each such tone to any owner leaves the water-filled power, the
    rates and the unusable flags of allocate unchanged, bit for bit."""
    frame, scenario = unit_setup(*gains_sq.shape, tx_power=tx_power)
    grid = grid_from_h(np.sqrt(gains_sq))
    want = allocate(grid, frame, scenario)
    moved = want.assignment.copy()
    for k in np.flatnonzero(~gains_sq.any(axis=0)):
        moved[:, k] = 0
        moved[data.draw(st.integers(0, gains_sq.shape[0] - 1)), k] = 1
    with mock.patch.object(pinchsim.alloc, "_greedy", return_value=moved):
        got = allocate(grid, frame, scenario)
    assert np.array_equal(got.assignment, moved)
    assert np.array_equal(_bits(got.power), _bits(want.power))
    assert np.array_equal(_bits(got.rates), _bits(want.rates))
    assert np.array_equal(got.unusable_budget, want.unusable_budget)


class TestAllocate:
    def test_single_user_flat_channel(self):
        frame, scenario = unit_setup(1, 8, tx_power=2.0)
        grid = grid_from_h(np.full((1, 8), 3.0 + 0j))
        out = allocate(grid, frame, scenario)
        assert np.all(out.assignment == 1)
        assert np.allclose(out.power, 2.0 / 8, rtol=1e-12)
        g = 9.0  # |H|^2 with unit noise and spacing
        expected = frame.cp_efficiency * scenario.bandwidth * math.log2(1 + g * 2.0 / 8)
        assert out.rates[0] == pytest.approx(expected, rel=1e-12)

    def test_two_user_traced_example(self):
        # Advantage grid {4,1;1,4} with 2 W total: each user water-fills
        # 1 W on its own tone, so both rates are log2(5) at unit spacing.
        frame, scenario = unit_setup(2, 2, tx_power=2.0)
        grid = grid_from_h(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
        out = allocate(grid, frame, scenario)
        assert np.array_equal(out.assignment, np.array([[1, 0], [0, 1]]))
        assert np.allclose(out.power, np.array([[1.0, 0.0], [0.0, 1.0]]), atol=1e-14)
        assert np.allclose(out.rates, math.log2(5.0), rtol=1e-12)
        assert min_rate(out) == pytest.approx(math.log2(5.0), rel=1e-12)
        assert not out.unusable_budget.any()

    def test_all_blocked_users(self):
        frame, scenario = unit_setup(2, 4)
        out = allocate(grid_from_h(np.zeros((2, 4), dtype=complex)), frame, scenario)
        assert np.all(out.rates == 0.0)
        assert out.power.sum() == 0.0
        assert out.unusable_budget.all()
        assert np.array_equal(out.assignment.sum(axis=0), np.ones(4, dtype=np.int8))

    def test_gain_grid_formula(self):
        # Stage 2 water-fills and rates the per-watt slope |H|^2 / (N * delta_f * N0).
        frame = make_frame(k=4, bandwidth=500e6)
        scenario = Scenario(n_pas=5, n_users=1, bandwidth=500e6, tx_power=0.1, noise_power=1e-12)
        grid = grid_from_h(np.full((1, 4), 2e-4 + 0j))
        with mock.patch.object(pinchsim.alloc, "waterfill", wraps=waterfill) as spy:
            _, _, rates = _fill(np.ones((1, 4)), grid.gains_sq, 0.1, frame, scenario)
        expected = (2e-4) ** 2 / (5 * frame.subcarrier_spacing * (1e-12 / 500e6))
        assert np.allclose(spy.call_args.args[0], expected, rtol=1e-12)
        spectral = 4 * math.log2(1 + expected * 0.1 / 4)  # four tones at 0.1 / 4 W each
        assert rates[0] == pytest.approx(frame.cp_efficiency * frame.subcarrier_spacing * spectral)

    @pytest.mark.parametrize("allocator", [allocate, exhaustive_oracle])
    def test_one_stage_2_call(self, allocator):
        """The heuristic and the oracle differ only in how they assign tones:
        each water-fills and rates through one _fill call."""
        frame, scenario = unit_setup(2, 4)
        grid = random_grid(np.random.default_rng(13), 2, 4)
        with mock.patch.object(pinchsim.alloc, "_fill", wraps=_fill) as spy:
            allocator(grid, frame, scenario)
        assert spy.call_count == 1

    def test_invariants_random_batch(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            m = int(rng.integers(1, 5))
            k = int(rng.choice((2, 4, 8, 16)))
            frame, scenario = unit_setup(m, k, tx_power=float(rng.uniform(0.1, 10)))
            grid = random_grid(rng, m, k, zero_fraction=0.25)
            out = allocate(grid, frame, scenario)
            assert np.array_equal(out.assignment.sum(axis=0), np.ones(k, dtype=np.int8))
            assert np.all(out.power >= 0.0)
            assert np.all((out.power > 0) <= (out.assignment == 1))
            assert out.power.sum() <= scenario.tx_power * (1 + 1e-9)
            # A user with a usable tone spends its whole share.
            budget = scenario.tx_power / m
            for um in range(m):
                if not out.unusable_budget[um]:
                    assert out.power[um].sum() == pytest.approx(budget, rel=1e-9)

    def test_more_users_than_tones_reports_zero_min(self):
        frame, scenario = unit_setup(3, 2)
        out = allocate(grid_from_h(np.ones((3, 2), dtype=complex)), frame, scenario)
        assert (out.assignment.sum(axis=1) == 0).sum() == 1
        assert min_rate(out) == 0.0
        assert np.sort(out.rates)[1] > 0.0  # the served users still get rate

    def test_rates_monotone_in_tx_power(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            k = int(rng.choice((4, 8, 16)))
            grid = random_grid(rng, m, k, zero_fraction=0.1)
            frame = make_frame(k=k, bandwidth=float(k))
            previous = None
            for tx in (0.25, 0.5, 1.0, 2.0, 4.0):
                scenario = unit_scenario(m, k, tx_power=tx)
                rates = allocate(grid, frame, scenario).rates
                if previous is not None:
                    assert np.all(rates >= previous - 1e-12)
                previous = rates


class TestMinRate:
    def test_minimum_of_rates(self):
        alloc = Allocation(
            assignment=np.eye(2, dtype=np.int8),
            power=np.eye(2),
            rates=np.array([1e9, 3e9]),
            unusable_budget=np.zeros(2, dtype=bool),
        )
        assert min_rate(alloc) == 1e9

    def test_single_user(self):
        alloc = Allocation(
            assignment=np.ones((1, 2), dtype=np.int8),
            power=np.ones((1, 2)),
            rates=np.array([7.5]),
            unusable_budget=np.zeros(1, dtype=bool),
        )
        assert min_rate(alloc) == 7.5


class TestExhaustiveOracle:
    def test_matches_greedy_on_diagonal_instance(self):
        frame, scenario = unit_setup(2, 2, tx_power=2.0)
        grid = grid_from_h(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
        best_b, best_value = exhaustive_oracle(grid, frame, scenario)
        out = allocate(grid, frame, scenario)
        assert np.array_equal(best_b, out.assignment)
        assert best_value == pytest.approx(min_rate(out), rel=1e-14)

    def test_single_user_equals_allocate(self):
        frame, scenario = unit_setup(1, 4)
        grid = random_grid(np.random.default_rng(5), 1, 4)
        best_b, best_value = exhaustive_oracle(grid, frame, scenario)
        assert np.all(best_b == 1)
        assert best_value == pytest.approx(min_rate(allocate(grid, frame, scenario)), rel=1e-14)

    def test_dominates_greedy_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            frame, scenario = unit_setup(2, 8)
            grid = random_grid(rng, 2, 8, zero_fraction=0.1)
            _, oracle_value = exhaustive_oracle(grid, frame, scenario)
            greedy_value = min_rate(allocate(grid, frame, scenario))
            assert greedy_value <= oracle_value

    def test_equality_on_orthogonal_supports(self):
        rng = np.random.default_rng(7)
        for m, k in ((2, 4), (2, 6), (3, 6)):
            h = np.zeros((m, k), dtype=complex)
            block = k // m
            for um in range(m):
                sl = slice(um * block, (um + 1) * block)
                h[um, sl] = rng.normal(size=block) + 1j * rng.normal(size=block)
            frame, scenario = unit_setup(m, k)
            grid = grid_from_h(h)
            _, oracle_value = exhaustive_oracle(grid, frame, scenario)
            greedy_value = min_rate(allocate(grid, frame, scenario))
            assert greedy_value == pytest.approx(oracle_value, rel=1e-12)

    def test_rejects_oversized_instances(self):
        frame, scenario = unit_setup(2, 16)
        grid = random_grid(np.random.default_rng(8), 2, 16)
        with pytest.raises(ValueError):
            exhaustive_oracle(grid, frame, scenario)
        frame4, scenario4 = unit_setup(4, 4)
        grid4 = random_grid(np.random.default_rng(9), 4, 4)
        with pytest.raises(ValueError):
            exhaustive_oracle(grid4, frame4, scenario4)

    @pytest.mark.parametrize("m, k", [(4, 4), (2, 13)])
    def test_rejects_just_past_the_limits(self, m, k):
        frame, scenario = unit_setup(m, k)
        grid = random_grid(np.random.default_rng(10), m, k)
        with pytest.raises(ValueError, match=r"limits \(3 x 12\)"):
            exhaustive_oracle(grid, frame, scenario)

    def test_accepts_largest_instance(self):
        frame, scenario = unit_setup(3, 12)
        grid = random_grid(np.random.default_rng(11), 3, 12, zero_fraction=0.1)
        best_b, best_value = exhaustive_oracle(grid, frame, scenario)
        assert best_b.shape == (3, 12) and np.all(best_b.sum(axis=0) == 1)
        assert min_rate(allocate(grid, frame, scenario)) <= best_value

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_waterfill_call_per_user(self, m, monkeypatch):
        """All users' 2^K subset rows go through one waterfill call, and
        their rates through one user_rate call."""
        calls = []

        def counted(name, func):
            def call(rows, *args):
                calls.append((name, np.shape(rows)))
                return func(rows, *args)

            return call

        monkeypatch.setattr(pinchsim.alloc, "waterfill", counted("waterfill", waterfill))
        monkeypatch.setattr(pinchsim.alloc, "user_rate", counted("user_rate", user_rate))
        frame, scenario = unit_setup(m, 6)
        exhaustive_oracle(random_grid(np.random.default_rng(12), m, 6), frame, scenario)
        assert calls == [("waterfill", (m * 64, 6)), ("user_rate", (64, 6))]


@st.composite
def oracle_instances(draw):
    """Tiny (M, K) |H|^2 grids, M <= 3 and K <= 4, with ties and zeros."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    element = draw(
        st.sampled_from(
            [
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
            ]
        )
    )
    return np.array(draw(st.lists(element, min_size=m * k, max_size=m * k))).reshape(m, k)


@settings(max_examples=200, deadline=None)
@given(
    gains_sq=oracle_instances(),
    tx_power=st.one_of(st.sampled_from([1e-300, 1e-12, 1e-6]), st.floats(1e-3, 1e3)),
)
def test_oracle_equals_assignment_by_assignment_reference(gains_sq, tx_power):
    """The oracle picks the same assignment, with the same bits of its
    minimum rate, as enumerating assignments one by one in lexicographic
    order with one reference water-filling and one inline rate per user."""
    m, k = gains_sq.shape
    frame, scenario = unit_setup(m, k, tx_power=tx_power)
    grid = grid_from_h(np.sqrt(gains_sq))
    best_b, best_value = exhaustive_oracle(grid, frame, scenario)
    want_b, want_value = reference_exhaustive_oracle(grid, frame, scenario)
    assert np.array_equal(best_b, want_b) and best_b.dtype == want_b.dtype
    assert best_value.hex() == want_value.hex()
