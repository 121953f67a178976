"""FIR taps, link gains, composite delays and analytic frequency responses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim.channel import (
    SPEED_OF_LIGHT,
    build_realization,
    channel_grid,
    frequency_response,
    path_loss_constant,
)
from pinchsim.channel import _composite_delays, _link_gains, _waveguide_phases
from pinchsim.frame import FrameDesign
from pinchsim.geometry import (
    Scenario,
    distance_matrix,
    feed_position,
    los_probability_matrix,
    pa_positions,
    sample_users,
)

from helpers import (
    dtft_oracle,
    oracle_delay,
    oracle_distance,
    oracle_link_gain,
    oracle_los_probability,
    oracle_waveguide_phase,
    synthetic_realization,
)

C = SPEED_OF_LIGHT


class TestPathLossConstant:
    def test_matches_wavelength_identity_at_28ghz(self):
        eta = path_loss_constant(28e9)
        lam = C / 28e9
        assert eta == pytest.approx((lam / (4 * math.pi)) ** 2, rel=1e-15)
        # Amplitude at 28 GHz, computed independently from c = 299792458 m/s.
        assert math.sqrt(eta) == pytest.approx(8.520259212923112e-4, rel=1e-12)

    def test_quarter_when_frequency_doubles(self):
        assert path_loss_constant(56e9) == pytest.approx(
            path_loss_constant(28e9) / 4.0, rel=1e-14
        )

    def test_inverse_identity(self):
        for fc in (1e9, 28e9, 300e9):
            lam = C / fc
            assert path_loss_constant(fc) * (4 * math.pi / lam) ** 2 == pytest.approx(
                1.0, rel=1e-12
            )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            path_loss_constant(0.0)


class TestLinkGain:
    def test_blocked_link_is_zero(self):
        g = _link_gains(distance_matrix((0, 0, 0), (2, 0, 3)), 0, 28e9)[0, 0]
        assert g == 0j

    def test_magnitude_below_pa(self):
        # User directly under a PA 3 m up: magnitude sqrt(eta) / 3.
        g = _link_gains(distance_matrix((5, 0, 0), (5, 0, 3.0)), 1, 28e9)[0, 0]
        assert abs(g) == pytest.approx(2.840086404307704e-4, rel=1e-12)

    def test_phase_wraps_at_integer_wavelengths(self):
        fc = 28e9
        lam = C / fc
        g = _link_gains(distance_matrix((0, 0, 0), (100 * lam, 0, 0)), 1, fc)[0, 0]
        assert abs(math.atan2(g.imag, g.real)) < 1e-9

    def test_rejects_zero_distance(self):
        p = (1, 1, 1)
        with pytest.raises(ValueError):
            _link_gains(distance_matrix(p, p), 1, 28e9)


class TestWaveguidePhase:
    def test_at_feed_is_unity(self):
        p = (0, 0, 3.0)
        assert _waveguide_phases(distance_matrix(p, p)[0], 28e9, 1.4)[0] == 1 + 0j

    def test_unit_magnitude(self):
        feed = (0, 0, 3.0)
        for x in (0.1, 1.0, 7.7, 29.9):
            w = _waveguide_phases(distance_matrix(feed, (x, 0, 3.0))[0], 28e9, 1.4)[0]
            assert abs(abs(w) - 1.0) < 1e-12

    def test_half_guided_wavelength_flips_sign(self):
        fc, ne = 28e9, 1.4
        guided_lam = C / fc / ne
        feed_dist = distance_matrix((0, 0, 3.0), (guided_lam / 2, 0, 3.0))[0]
        w = _waveguide_phases(feed_dist, fc, ne)[0]
        assert abs(w - (-1.0)) < 1e-9


class TestCompositeDelay:
    def test_three_meter_excess_paths(self):
        # 3 m of waveguide at n_e = 1.4 and 3 m of free space: three links'
        # free-space and guided distances.
        guided_only, free_only, both = _composite_delays(
            np.array([0.0, 3.0, 3.0]), np.array([3.0, 0.0, 3.0]), 1.4
        )
        assert guided_only == pytest.approx(1.4 * 3 / C, rel=1e-15)
        assert free_only == pytest.approx(3 / C, rel=1e-15)
        assert both == pytest.approx(guided_only + free_only, rel=1e-15)
        # Round numbers quoted for this setup: about 14, 10 and 24 ns.
        assert guided_only == pytest.approx(14e-9, rel=0.02)
        assert free_only == pytest.approx(10e-9, rel=0.02)
        assert both == pytest.approx(24e-9, rel=0.02)

    def test_coincident_points_give_zero(self):
        p = (2, 2, 2)
        dist = distance_matrix(p, p)
        assert _composite_delays(dist, dist, 1.4)[0, 0] == 0.0

    def test_linear_in_path_lengths(self):
        # 2 m then 4 m of each path.
        d1, d2 = _composite_delays(np.array([2.0, 4.0]), np.array([2.0, 4.0]), 1.4)
        assert d2 == pytest.approx(2 * d1, rel=1e-14)


class TestBuildRealization:
    def scenario(self, **kw):
        base = dict(n_pas=3, n_users=2, blockage_density=0.05)
        base.update(kw)
        return Scenario(**base)

    def test_fully_blocked_taps_are_zero(self):
        sc = self.scenario()
        users = sample_users(sc, np.random.default_rng(0))
        los = np.zeros((2, 3), dtype=np.int8)
        r = build_realization(sc, users, los)
        assert np.all(r.tap_gains == 0)
        assert np.all(r.tap_delays > 0)

    def test_single_pa_single_tap(self):
        sc = self.scenario(n_pas=1)
        users = sample_users(sc, np.random.default_rng(1))
        r = build_realization(sc, users, np.ones((2, 1), dtype=np.int8))
        assert r.tap_gains.shape == (2, 1)
        assert np.all(r.tap_gains != 0)

    def test_tap_gain_is_product_of_factors(self):
        sc = self.scenario()
        users = sample_users(sc, np.random.default_rng(2))
        los = np.array([[1, 0, 1], [1, 1, 1]], dtype=np.int8)
        r = build_realization(sc, users, los)
        pas, feed = pa_positions(sc), feed_position(sc)
        for m, u in enumerate(users):
            for n, pa in enumerate(pas):
                expected = oracle_waveguide_phase(
                    pa, feed, sc.carrier_freq, sc.refractive_index
                ) * oracle_link_gain(u, pa, int(los[m, n]), sc.carrier_freq)
                assert r.tap_gains[m, n] == pytest.approx(expected, rel=1e-12)
                expected_delay = oracle_delay(u, pa, feed, sc.refractive_index)
                assert r.tap_delays[m, n] == pytest.approx(expected_delay, rel=1e-12)

    def test_gain_zero_iff_blocked(self):
        sc = self.scenario()
        users = sample_users(sc, np.random.default_rng(3))
        los = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int8)
        r = build_realization(sc, users, los)
        assert np.array_equal(r.tap_gains != 0, los == 1)

    def test_tap_magnitude_bound(self):
        sc = self.scenario(n_pas=5, n_users=4)
        users = sample_users(sc, np.random.default_rng(4))
        los = np.ones((4, 5), dtype=np.int8)
        r = build_realization(sc, users, los)
        pas = pa_positions(sc)
        sqrt_eta = math.sqrt(path_loss_constant(sc.carrier_freq))
        for m, u in enumerate(users):
            min_dist = min(math.dist(u, p) for p in pas)
            assert np.all(np.abs(r.tap_gains[m]) <= sqrt_eta / min_dist + 1e-18)

    def test_shape_mismatch_rejected(self):
        sc = self.scenario()
        users = sample_users(sc, np.random.default_rng(5))
        with pytest.raises(ValueError):
            build_realization(sc, users, np.ones((3, 3), dtype=np.int8))


def same_bits(a: complex, b: complex) -> bool:
    """Equal, and equal in the sign of every part, zeros included."""
    return a == b and all(
        math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in ((a.real, b.real), (a.imag, b.imag))
    )


rooms = st.builds(
    Scenario,
    n_pas=st.integers(1, 12),
    n_users=st.integers(1, 5),
    room_length=st.floats(1.0, 100.0),
    room_width=st.floats(1.0, 50.0),
    waveguide_height=st.floats(0.5, 10.0),
    carrier_freq=st.floats(1e9, 1e11),
    refractive_index=st.floats(1.0, 3.0),
    blockage_density=st.floats(0.0, 1.0),
)


@settings(max_examples=80, deadline=None)
@given(sc=rooms, seed=st.integers(0, 2**32 - 1))
def test_array_formulas_equal_scalar_calls_exactly(sc, seed):
    """Every entry of the (M, N) arrays has the bits of a one-link call of
    the same array function, including the signs of the zero parts of
    blocked taps. Against the plain-Python per-link oracle, distances and
    delays have the same bits, LoS probabilities, guided phases and link
    gains (through exp, cos and sin) are within 2 ulp, and blocked taps have
    the oracle's zero-part signs."""
    rng = np.random.default_rng(seed)
    users = sample_users(sc, rng)
    pas, feed = pa_positions(sc), feed_position(sc)
    los = rng.integers(0, 2, size=(len(users), len(pas))).astype(np.int8)
    probs = los_probability_matrix(users, pas, sc.blockage_density)
    r = build_realization(sc, users, los)
    fc, n_e = sc.carrier_freq, sc.refractive_index
    dist, feed_dist = distance_matrix(users, pas), distance_matrix(feed, pas)
    want_probs = np.empty(los.shape)
    want_guided, want_free, want_taps = (np.empty(los.shape, dtype=complex) for _ in range(3))
    for m, u in enumerate(users):
        for n, pa in enumerate(pas):
            assert probs[m, n] == los_probability_matrix(u, pa, sc.blockage_density)[0, 0]
            link_dist, link_feed_dist = distance_matrix(u, pa), distance_matrix(feed, pa)
            expected = complex(_waveguide_phases(link_feed_dist, fc, n_e)[0, 0]) * complex(
                _link_gains(link_dist, los[m, n], fc)[0, 0]
            )
            assert same_bits(complex(r.tap_gains[m, n]), expected)
            assert r.tap_delays[m, n] == _composite_delays(link_dist, link_feed_dist, n_e)[0, 0]

            assert dist[m, n].hex() == oracle_distance(u, pa).hex()
            assert feed_dist[0, n].hex() == oracle_distance(feed, pa).hex()
            assert r.tap_delays[m, n].hex() == oracle_delay(u, pa, feed, n_e).hex()
            w = oracle_waveguide_phase(pa, feed, fc, n_e)
            g = oracle_link_gain(u, pa, los[m, n], fc)
            want_probs[m, n] = oracle_los_probability(u, pa, sc.blockage_density)
            want_guided[m, n], want_free[m, n], want_taps[m, n] = w, g, w * g
            if not los[m, n]:
                assert same_bits(complex(r.tap_gains[m, n]), w * g)
    np.testing.assert_array_max_ulp(probs, want_probs, maxulp=2)
    guided = np.broadcast_to(_waveguide_phases(feed_dist, fc, n_e), los.shape)
    for got, want in ((guided, want_guided), (_link_gains(dist, los, fc), want_free)):
        np.testing.assert_array_max_ulp(got.real, want.real, maxulp=2)
        np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=2)
    # The parts of a complex product can cancel, so the tap bound is on the
    # modulus, in ulps of the oracle's |tap| (|guided| = 1).
    err = np.abs(r.tap_gains - want_taps)
    assert np.all(err <= 4 * np.spacing(np.abs(want_taps)))


class TestFrequencyResponse:
    def test_zero_offset_sums_taps(self):
        r = synthetic_realization([[1 + 1j, 2 - 0.5j, -3j]], [[0.0, 1e-9, 24e-9]])
        assert frequency_response(r, 0, 0.0) == pytest.approx(
            (1 + 1j) + (2 - 0.5j) + (-3j), rel=1e-15
        )

    def test_single_tap_is_flat(self):
        r = synthetic_realization([[0.7 - 0.2j]], [[13e-9]])
        freqs = np.linspace(-250e6, 250e6, 101)
        mags = np.abs(frequency_response(r, 0, freqs))
        assert mags.max() / mags.min() - 1.0 <= 1e-12

    def test_two_tap_against_dense_grid_dtft(self):
        gains = [1.0 + 0j, 1.0 + 0j]
        delays = [0.0, 24e-9]
        r = synthetic_realization([gains], [delays])
        for f in (0.0, 1e6, 7.8125e6, 33e6, 100e6):
            analytic = frequency_response(r, 0, f)
            reference = dtft_oracle(gains, delays, f)
            assert abs(analytic - reference) <= 1e-6 * max(abs(reference), 1e-30)

    def test_lipschitz_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = rng.integers(1, 5)
            gains = rng.normal(size=n) + 1j * rng.normal(size=n)
            delays = rng.uniform(0, 100e-9, size=n)
            r = synthetic_realization([gains], [delays])
            f1, f2 = rng.uniform(-250e6, 250e6, size=2)
            lhs = abs(frequency_response(r, 0, f1) - frequency_response(r, 0, f2))
            bound = 2 * math.pi * abs(f1 - f2) * np.sum(np.abs(gains)) * delays.max()
            assert lhs <= bound + 1e-12

    def test_triangle_inequality_energy_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = rng.integers(1, 6)
            gains = rng.normal(size=n) + 1j * rng.normal(size=n)
            delays = rng.uniform(0, 200e-9, size=n)
            r = synthetic_realization([gains], [delays])
            freqs = rng.uniform(-250e6, 250e6, size=64)
            mags = np.abs(frequency_response(r, 0, freqs))
            assert np.all(mags <= np.sum(np.abs(gains)) + 1e-12)


class TestChannelGrid:
    def frame(self, k=8, b=500e6, cp=0.0):
        return FrameDesign(
            cp_duration=cp,
            fft_duration=k / b,
            n_subcarriers=k,
            subcarrier_spacing=b / k,
        )

    def test_single_tap_rows_are_flat(self):
        r = synthetic_realization(
            [[0.5 + 0.1j], [1.0 - 1.0j]], [[10e-9], [20e-9]]
        )
        grid = channel_grid(r, self.frame(k=8))
        mags = np.abs(grid.h)
        assert grid.h.shape == (2, 8)
        for m in range(2):
            assert mags[m].max() / mags[m].min() - 1.0 <= 1e-12

    def test_subcarrier_offsets_centered(self):
        r = synthetic_realization([[1.0]], [[0.0]])
        frame = self.frame(k=8, b=800.0)
        grid = channel_grid(r, frame)
        assert np.array_equal(grid.subcarrier_freqs, (np.arange(8) - 4) * 100.0)

    def test_no_conjugate_symmetry_in_general(self):
        # Complex tap gains break Hermitian symmetry about the carrier.
        r = synthetic_realization([[1.0 + 0.3j, 0.8 - 0.6j]], [[0.0, 24e-9]])
        grid = channel_grid(r, self.frame(k=8))
        k = 2  # offset +2 lives at index 4 + 2, offset -2 at index 4 - 2
        h_plus = grid.h[0, 4 + k]
        h_minus = grid.h[0, 4 - k]
        assert abs(h_minus - np.conj(h_plus)) > 1e-6 * abs(h_plus)

    def test_bit_identical_to_per_sample_calls(self):
        rng = np.random.default_rng(10)
        gains = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        delays = rng.uniform(0, 100e-9, size=(3, 4))
        r = synthetic_realization(gains, delays)
        frame = self.frame(k=16)
        grid = channel_grid(r, frame)
        for m in range(3):
            for i, f in enumerate(grid.subcarrier_freqs):
                assert grid.h[m, i] == frequency_response(r, m, float(f))

    def test_all_blocked_row_is_zero(self):
        gains = np.array([[0.0, 0.0], [1.0, 0.5]], dtype=complex)
        delays = np.array([[1e-9, 2e-9], [1e-9, 2e-9]])
        grid = channel_grid(synthetic_realization(gains, delays), self.frame())
        assert np.all(grid.h[0] == 0)
        assert np.any(grid.h[1] != 0)
