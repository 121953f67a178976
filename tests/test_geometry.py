"""Geometry, user sampling and blockage draws."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim.geometry import (
    Scenario,
    center_pa_position,
    distance_matrix,
    feed_position,
    los_probability_matrix,
    pa_positions,
    sample_blockage,
    sample_users,
)

from helpers import oracle_distance, reference_sample_users


def make_scenario(**kw):
    base = dict(n_pas=2, n_users=2)
    base.update(kw)
    return Scenario(**base)


class TestScenario:
    def test_defaults_valid(self):
        sc = make_scenario()
        assert sc.room_length == 30.0 and sc.waveguide_height == 3.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_pas": 0},
            {"n_users": 0},
            {"room_length": -1.0},
            {"waveguide_height": 0.0},
            {"carrier_freq": 0.0},
            {"refractive_index": 0.9},
            {"blockage_density": -0.01},
            {"bandwidth": 0.0},
            {"tx_power": 0.0},
            {"noise_power": 0.0},
            {"blockage_density": float("nan")},
            {"room_length": float("nan")},
            {"room_width": float("inf")},
            {"waveguide_height": float("inf")},
            {"carrier_freq": float("nan")},
            {"refractive_index": float("nan")},
            {"blockage_density": float("inf")},
            {"bandwidth": float("inf")},
            {"tx_power": float("nan")},
            {"noise_power": float("-inf")},
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            make_scenario(**kw)

    @pytest.mark.parametrize("name", ["n_pas", "n_users"])
    def test_rejects_non_integer_counts(self, name):
        for value in (2.5, True):  # True == 1, but it is no count
            with pytest.raises(ValueError, match=f"{name} must be of integer type"):
                make_scenario(**{name: value})

    def test_numpy_integer_counts_pass(self):
        sc = make_scenario(n_pas=np.int64(3), n_users=np.int32(2))
        assert pa_positions(sc).shape == (3, 3)

    def test_noise_psd(self):
        sc = make_scenario(noise_power=1e-12, bandwidth=500e6)
        assert sc.noise_psd == 1e-12 / 500e6


class TestPaPositions:
    def test_two_pas_split_30m_span(self):
        pas = pa_positions(make_scenario(n_pas=2, room_length=30.0))
        assert np.array_equal(pas, [[10.0, 0.0, 3.0], [20.0, 0.0, 3.0]])

    def test_single_pa_at_midspan(self):
        (pa,) = pa_positions(make_scenario(n_pas=1, room_length=30.0))
        assert pa[0] == 15.0

    def test_five_pas(self):
        pas = pa_positions(make_scenario(n_pas=5, room_length=30.0))
        assert pas[:, 0].tolist() == [5.0, 10.0, 15.0, 20.0, 25.0]

    def test_equal_spacing(self):
        sc = make_scenario(n_pas=7, room_length=23.7)
        xs = pa_positions(sc)[:, 0]
        gaps = np.diff(np.concatenate([[0.0], xs, [sc.room_length]]))
        expected = sc.room_length / (sc.n_pas + 1)
        assert np.all(np.abs(gaps - expected) <= 1e-12 * expected)
        assert np.all(np.diff(xs) > 0)


class TestFeedPosition:
    def test_at_origin_end_of_waveguide(self):
        assert np.array_equal(feed_position(make_scenario(waveguide_height=3.0)), (0, 0, 3.0))
        assert np.array_equal(feed_position(make_scenario(waveguide_height=5.0)), (0, 0, 5.0))

    def test_z_equals_waveguide_height(self):
        for d in (0.5, 2.0, 3.0, 7.25):
            assert feed_position(make_scenario(waveguide_height=d))[2] == d

    def test_center_pa_position(self):
        sc = make_scenario(room_length=30.0, waveguide_height=3.0)
        assert np.array_equal(center_pa_position(sc), (15.0, 0.0, 3.0))


class TestSampleUsers:
    def test_bounds(self):
        sc = make_scenario(n_users=200, room_length=30.0, room_width=10.0)
        users = sample_users(sc, np.random.default_rng(3))
        assert users.shape == (200, 3)
        assert np.all((0.0 <= users[:, 0]) & (users[:, 0] <= 30.0))
        assert np.all((-5.0 <= users[:, 1]) & (users[:, 1] <= 5.0))
        assert np.all(users[:, 2] == 0.0)

    def test_same_seed_same_positions(self):
        sc = make_scenario(n_users=5)
        a = sample_users(sc, np.random.default_rng(11))
        b = sample_users(sc, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_mean_of_many_draws(self):
        # Law of large numbers on Uniform[0, 30]: mean within 15 +/- 0.1.
        sc = make_scenario(n_users=100_000, room_length=30.0)
        users = sample_users(sc, np.random.default_rng(7))
        assert abs(np.mean(users[:, 0]) - 15.0) < 0.1

    def test_prefix_property_across_user_counts(self):
        # A draw of 2 users is a prefix of a draw of 4 from the same stream.
        two = sample_users(make_scenario(n_users=2), np.random.default_rng(5))
        four = sample_users(make_scenario(n_users=4), np.random.default_rng(5))
        assert np.array_equal(four[:2], two)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 8),
    room_length=st.floats(1.0, 100.0),
    room_width=st.floats(1.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_users_matches_one_at_a_time_draw(m, room_length, room_width, seed):
    """The single (M, 2) uniform draw has the bits of M scalar (x, y) draws
    and consumes the same uniforms from the stream."""
    sc = make_scenario(n_users=m, room_length=room_length, room_width=room_width)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(sample_users(sc, rng), reference_sample_users(sc, ref_rng))
    assert rng.random() == ref_rng.random()


class TestLosProbability:
    def test_zero_distance(self):
        p = (1.0, 2.0, 3.0)
        assert los_probability_matrix(p, p, 0.3)[0, 0] == 1.0

    def test_scalar_value(self):
        u, pa = (0, 0, 0), (20.0, 0, 0)
        prob = los_probability_matrix(u, pa, 0.05)[0, 0]
        assert prob == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_beta_zero_always_one(self):
        u, pa = (0, 0, 0), (123.0, -4.0, 9.0)
        assert los_probability_matrix(u, pa, 0.0)[0, 0] == 1.0

    def test_monotone_in_distance_and_beta(self):
        u = (0, 0, 0)
        dists = [1.0, 2.0, 5.0, 10.0, 25.0]
        betas = [0.0, 0.02, 0.05, 0.15, 0.5]
        for beta in betas:
            probs = [los_probability_matrix(u, (d, 0, 0), beta)[0, 0] for d in dists]
            assert all(a >= b for a, b in zip(probs, probs[1:]))
        for d in dists:
            probs = [los_probability_matrix(u, (d, 0, 0), beta)[0, 0] for beta in betas]
            assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_rejects_negative_beta(self):
        for beta in (-0.1, math.nan):
            with pytest.raises(ValueError, match="blockage_density must be >= 0"):
                los_probability_matrix((0, 0, 0), (1, 0, 0), beta)

    def test_beta_times_distance_past_the_float_range_is_exactly_zero(self):
        # -1e307 * 30 overflows to -inf, and exp(-inf) = 0, without a warning
        assert los_probability_matrix((0, 0, 0), (30.0, 0, 0), 1e307)[0, 0] == 0.0


class TestSampleBlockage:
    def test_beta_zero_all_ones(self):
        sc = make_scenario(n_pas=3, n_users=4, blockage_density=0.0)
        users = sample_users(sc, np.random.default_rng(0))
        los = sample_blockage(sc, users, pa_positions(sc), np.random.default_rng(1))
        assert los.shape == (4, 3)
        assert np.all(los == 1)

    def test_huge_beta_all_zeros(self):
        # exp(-1e6 * 3) underflows: success probability < 1e-100.
        sc = make_scenario(n_pas=3, n_users=4, blockage_density=1e6)
        users = sample_users(sc, np.random.default_rng(0))
        los = sample_blockage(sc, users, pa_positions(sc), np.random.default_rng(1))
        assert np.all(los == 0)

    def test_empirical_frequency_matches_closed_form(self):
        sc = make_scenario(n_pas=2, n_users=2, blockage_density=0.05)
        users = np.array([[5.0, 2.0, 0.0], [22.0, -4.0, 0.0]])
        pas = pa_positions(sc)
        probs = los_probability_matrix(users, pas, sc.blockage_density)
        rng = np.random.default_rng(42)
        counts = np.zeros((2, 2))
        n_draws = 100_000
        for _ in range(n_draws):
            counts += sample_blockage(sc, users, pas, rng)
        assert np.all(np.abs(counts / n_draws - probs) < 0.01)

    def test_same_seed_same_matrix(self):
        sc = make_scenario(n_pas=4, n_users=3, blockage_density=0.1)
        users = sample_users(sc, np.random.default_rng(2))
        pas = pa_positions(sc)
        a = sample_blockage(sc, users, pas, np.random.default_rng(9))
        b = sample_blockage(sc, users, pas, np.random.default_rng(9))
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0, 1}

    def test_entries_binary(self):
        sc = make_scenario(n_pas=5, n_users=5, blockage_density=0.08)
        users = sample_users(sc, np.random.default_rng(3))
        los = sample_blockage(sc, users, pa_positions(sc), np.random.default_rng(4))
        assert np.isin(los, (0, 1)).all()


def test_distance_is_euclidean():
    assert distance_matrix((0, 0, 0), (3.0, 4.0, 0.0))[0, 0] == 5.0


_POINTS = np.array([[3.0, 4.0, 0.0], [1.0, -2.0, 2.5], [7.5, 0.25, -1.0]])


@pytest.mark.parametrize(
    "points",
    [_POINTS[1], _POINTS, _POINTS[:1], list(_POINTS)],
    ids=["point", "array", "one_row", "list_of_points"],
)
def test_distance_matrix_call_shapes(points):
    """A (3,) point counts as one row; (n, 3) arrays and lists of (3,) points
    give one row per point. Every entry has the bits of the one-pair call
    and of the plain-Python oracle."""
    origin = (0.0, 0.0, 3.0)
    rows = np.asarray(points).reshape(-1, 3)
    d = distance_matrix(points, origin)
    assert d.shape == (len(rows), 1)
    assert np.array_equal(d.T, distance_matrix(origin, points))
    for i, p in enumerate(rows):
        assert d[i, 0].hex() == distance_matrix(tuple(p), origin)[0, 0].hex()
        assert d[i, 0].hex() == oracle_distance(p, origin).hex()
        assert d[i, 0] == pytest.approx(math.dist(p, origin), rel=1e-15)


@pytest.mark.parametrize(
    "shape", [(3, 4), (2, 6), (6,), (4,), (0,), (2, 2, 3), ()],
    ids=["transposed", "six_columns", "flat_pair", "four_vector", "empty", "three_d", "scalar"],
)
def test_distance_matrix_rejects_points_without_three_coordinates(shape):
    """Only a last axis of 3 is a point: a (3, n) transposed array or a flat
    run of coordinates is an error naming its shape, not scrambled points."""
    bad = np.arange(float(np.prod(shape, dtype=int))).reshape(shape)
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        distance_matrix(bad, (0.0, 0.0, 3.0))
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        distance_matrix(_POINTS, bad)
