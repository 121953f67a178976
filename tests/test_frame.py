"""OFDMA numerology from delay statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim.channel import build_realization
from pinchsim.frame import (
    FLAT_FALLBACK_SUBCARRIERS,
    FrameDesign,
    _next_power_of_two,
    design_frame,
    max_excess_delay,
    rms_delay_spread,
)
from pinchsim.geometry import Scenario, pa_positions, sample_blockage, sample_users

from helpers import (
    reference_max_excess_delay,
    reference_rms_delay_spread,
    synthetic_realization,
)


def scenario(bandwidth=500e6, **kw):
    base = dict(n_pas=2, n_users=1, bandwidth=bandwidth)
    base.update(kw)
    return Scenario(**base)


class TestFrameDesignType:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            FrameDesign(0.0, 1e-7, 48, 1e7)

    def test_rejects_negative_cp(self):
        for cp in (-1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="cp_duration must be >= 0"):
                FrameDesign(cp, 1e-7, 64, 1e7)

    @pytest.mark.parametrize(
        "fft_duration, spacing, message",
        [
            (0.0, 1e7, "fft_duration"),
            (-1e-7, 1e7, "fft_duration"),
            (1e-7, 0.0, "subcarrier_spacing"),
            (math.nan, 1e7, "fft_duration"),
            (math.inf, 1e7, "fft_duration"),
            (1e-7, math.nan, "subcarrier_spacing"),
            (1e-7, math.inf, "subcarrier_spacing"),
        ],
    )
    def test_rejects_nonpositive_duration_or_spacing(self, fft_duration, spacing, message):
        with pytest.raises(ValueError, match=f"{message} must be positive"):
            FrameDesign(0.0, fft_duration, 64, spacing)

    def test_cp_efficiency_definition(self):
        fd = FrameDesign(24e-9, 84e-9, 64, 7.8125e6)
        assert fd.cp_efficiency == pytest.approx(84.0 / 108.0, rel=1e-15)
        assert FrameDesign(0.0, 84e-9, 64, 7.8125e6).cp_efficiency == 1.0


class TestMaxExcessDelay:
    def test_single_tap_per_user_is_zero(self):
        r = synthetic_realization([[1.0]], [[55e-9]])
        assert max_excess_delay(r) == 0.0

    def test_two_tap_user(self):
        r = synthetic_realization([[1.0, 1.0]], [[0.0, 24e-9]])
        assert max_excess_delay(r) == pytest.approx(24e-9, rel=1e-15)

    def test_max_across_users(self):
        r = synthetic_realization(
            [[1.0, 1.0], [1.0, 1.0]], [[0.0, 10e-9], [5e-9, 35e-9]]
        )
        assert max_excess_delay(r) == pytest.approx(30e-9, rel=1e-15)

    def test_blocked_taps_excluded(self):
        # The 500 ns tap is blocked, so it cannot contribute ISI.
        gains = np.array([[1.0, 0.0, 1.0]], dtype=complex)
        delays = np.array([[0.0, 500e-9, 24e-9]])
        r = synthetic_realization(gains, delays)
        assert max_excess_delay(r) == pytest.approx(24e-9, rel=1e-15)

    def test_fully_blocked_user_skipped(self):
        gains = np.array([[0.0, 0.0], [1.0, 1.0]], dtype=complex)
        delays = np.array([[0.0, 900e-9], [0.0, 12e-9]])
        r = synthetic_realization(gains, delays)
        assert max_excess_delay(r) == pytest.approx(12e-9, rel=1e-15)


class TestRmsDelaySpread:
    def test_two_delays(self):
        # Delays 0 and 24 ns: mean 12 ns, deviations +/-12 ns, RMS 12 ns.
        r = synthetic_realization([[1.0, 1.0]], [[0.0, 24e-9]])
        assert rms_delay_spread(r) == pytest.approx(12e-9, rel=1e-12)

    def test_equal_delays_no_dispersion(self):
        r = synthetic_realization([[1.0, 1.0, 1.0]], [[7e-9, 7e-9, 7e-9]])
        assert rms_delay_spread(r) == 0.0

    def test_max_across_users(self):
        r = synthetic_realization(
            [[1.0, 1.0], [1.0, 1.0]], [[0.0, 10e-9], [0.0, 24e-9]]
        )
        assert rms_delay_spread(r) == pytest.approx(12e-9, rel=1e-12)

    def test_population_not_sample_statistic(self):
        delays = np.array([[0.0, 10e-9, 20e-9]])
        r = synthetic_realization(np.ones((1, 3), dtype=complex), delays)
        expected = np.sqrt(np.mean((delays[0] - delays[0].mean()) ** 2))
        assert rms_delay_spread(r) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 30),
    beta=st.sampled_from([0.0, 0.05, 0.5, 5.0]),
    links=st.sampled_from(["drawn", "all_blocked", "one_per_user"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_delay_statistics_match_per_user_loops(m, n, beta, links, seed):
    """Both delay statistics have the bits of the per-user loops on drawn
    rooms, on total blockage and with a single active tap per user."""
    sc = Scenario(n_pas=n, n_users=m, blockage_density=beta)
    rng = np.random.default_rng(seed)
    users = sample_users(sc, rng)
    los = sample_blockage(sc, users, pa_positions(sc), rng)
    if links != "drawn":
        los[:] = 0
    if links == "one_per_user":
        los[np.arange(m), rng.integers(0, n, size=m)] = 1
    r = build_realization(sc, users, los)
    assert max_excess_delay(r).hex() == reference_max_excess_delay(r).hex()
    assert rms_delay_spread(r).hex() == reference_rms_delay_spread(r).hex()


class TestDesignFrame:
    def test_worked_numerology(self):
        # sigma 12 ns, worst excess 24 ns, 500 MHz: K = 64, spacing 7.8125 MHz.
        r = synthetic_realization([[1.0, 1.0]], [[0.0, 24e-9]])
        fd = design_frame(scenario(), r)
        assert fd.cp_duration == pytest.approx(24e-9, rel=1e-12)
        assert fd.fft_duration == pytest.approx(84e-9, rel=1e-12)
        assert fd.n_subcarriers == 64
        assert fd.subcarrier_spacing == pytest.approx(7.8125e6, rel=1e-12)
        assert fd.cp_efficiency == pytest.approx(84.0 / 108.0, rel=1e-12)

    def test_flat_fallback_single_tap(self):
        r = synthetic_realization([[1.0]], [[33e-9]])
        fd = design_frame(scenario(), r)
        assert fd.n_subcarriers == FLAT_FALLBACK_SUBCARRIERS
        assert fd.cp_duration == 0.0
        assert fd.cp_efficiency == 1.0
        assert fd.subcarrier_spacing * fd.n_subcarriers == scenario().bandwidth

    def test_flat_fallback_fully_blocked(self):
        gains = np.zeros((2, 3), dtype=complex)
        delays = np.array([[0.0, 10e-9, 20e-9], [0.0, 30e-9, 60e-9]])
        fd = design_frame(scenario(), synthetic_realization(gains, delays))
        assert fd.cp_duration == 0.0 and fd.n_subcarriers == FLAT_FALLBACK_SUBCARRIERS

    def test_spacing_times_count_is_bandwidth(self):
        rng = np.random.default_rng(0)
        for b in (100e6, 500e6, 1e9):
            delays = np.sort(rng.uniform(0, 150e-9, size=(1, 4)))
            r = synthetic_realization(np.ones((1, 4), dtype=complex), delays)
            fd = design_frame(scenario(bandwidth=b), r)
            assert fd.subcarrier_spacing * fd.n_subcarriers == b

    def test_invariants_on_random_realizations(self):
        rng = np.random.default_rng(1)
        sc = scenario()
        for _ in range(50):
            m, n = rng.integers(1, 5), rng.integers(1, 8)
            gains = (rng.random((m, n)) < 0.8).astype(complex)
            delays = rng.uniform(0, 200e-9, size=(m, n))
            r = synthetic_realization(gains, delays)
            fd = design_frame(sc, r)
            k = fd.n_subcarriers
            assert fd.cp_duration >= max_excess_delay(r) - 1e-24
            assert k & (k - 1) == 0
            assert k >= sc.bandwidth * fd.fft_duration * (1 - 1e-12)
            assert fd.subcarrier_spacing == sc.bandwidth / k
            assert 0.0 < fd.cp_efficiency <= 1.0
            assert (fd.cp_efficiency == 1.0) == (fd.cp_duration == 0.0)

    def test_monotone_in_delay_spread(self):
        # Stretching one user's delays never shrinks the CP or the window.
        base = np.array([[0.0, 20e-9, 40e-9]])
        r1 = synthetic_realization(np.ones((1, 3), dtype=complex), base)
        r2 = synthetic_realization(np.ones((1, 3), dtype=complex), base * 1.5)
        fd1 = design_frame(scenario(), r1)
        fd2 = design_frame(scenario(), r2)
        assert fd2.cp_duration >= fd1.cp_duration
        assert fd2.fft_duration >= fd1.fft_duration

    def test_k_in_next_power_of_two_bracket(self):
        # K is the smallest radix-two size that fits bandwidth * fft_duration.
        delays = np.array([[0.0, 25.6e-9]])
        r = synthetic_realization(np.ones((1, 2), dtype=complex), delays)
        fd = design_frame(scenario(), r)
        b_t = scenario().bandwidth * fd.fft_duration
        assert fd.n_subcarriers >= b_t
        assert fd.n_subcarriers < 2 * b_t or b_t <= 1.0


# A power of two, or one ulp either side of it, where a log2-based rounding
# can land one power off; and plain positive floats.
POWERS_AND_NEIGHBOURS = st.builds(
    lambda k, toward: 2.0**k if toward is None else math.nextafter(2.0**k, toward),
    st.integers(0, 60),
    st.sampled_from((None, 0.0, math.inf)),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(POWERS_AND_NEIGHBOURS, st.floats(0.0, 2.0**60)))
def test_next_power_of_two_is_the_smallest_power_at_or_above(x):
    k = _next_power_of_two(x)
    assert k >= 1 and k & (k - 1) == 0
    assert k >= x
    assert k == 1 or k / 2 < x
