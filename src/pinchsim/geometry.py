"""Scenario geometry and random sampling for waveguide-fed pinching-antenna rooms.

A scenario is a rectangular room with a leaky waveguide running along one
side at fixed height. Radiating apertures (PAs) sit at uniform positions on
the waveguide; users are dropped uniformly on the floor. Line-of-sight
blockage per user/PA link follows an exponential-in-distance survival model.

Positions are plain float arrays: M users are an (M, 3) array, N PAs an
(N, 3) array and a single point a (3,) array of room coordinates (x, y, z).
All quantities are SI (meters, Hz, watts) unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

__all__ = [
    "Scenario",
    "distance_matrix",
    "pa_positions",
    "feed_position",
    "center_pa_position",
    "sample_users",
    "los_probability_matrix",
    "sample_blockage",
]


def distance_matrix(a, b) -> np.ndarray:
    """Euclidean distance from every point of a to every point of b, shape
    (A, B). Each argument is an (n, 3) array, a sequence of (3,) points or a
    single (3,) point, which counts as n = 1. Squares are added x, y, z in
    that order, so every entry has the same bits whatever the shape of the
    call."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    for x in (a, b):  # a transposed (3, n) array is an error, not n points
        if x.ndim not in (1, 2) or x.shape[-1] != 3:
            raise ValueError(f"expected a (3,) point or (n, 3) points, got shape {x.shape}")
    sq = (a.reshape(-1, 1, 3) - b.reshape(1, -1, 3)) ** 2
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


@dataclass(frozen=True)
class Scenario:
    """Immutable description of room, waveguide, PAs, users, carrier and noise.

    Attributes
    ----------
    n_pas : int
        Number of radiating apertures on the waveguide.
    n_users : int
        Number of single-antenna users.
    room_length : float
        Room extent along x (the waveguide axis), meters.
    room_width : float
        Room extent along y, meters; users fall in [-room_width/2, room_width/2].
    waveguide_height : float
        Height of the waveguide (and of every PA) above the floor, meters.
    carrier_freq : float
        Carrier frequency, Hz.
    refractive_index : float
        Effective refractive index of the dielectric waveguide (>= 1);
        treated as constant across the band.
    blockage_density : float
        Obstacle density parameter of the LoS survival model, 1/meters.
    bandwidth : float
        System bandwidth, Hz.
    tx_power : float
        Total transmit power budget, watts.
    noise_power : float
        Total noise power over the full bandwidth, watts.
    """

    n_pas: int
    n_users: int
    room_length: float = 30.0
    room_width: float = 10.0
    waveguide_height: float = 3.0
    carrier_freq: float = 28e9
    refractive_index: float = 1.4
    blockage_density: float = 0.05
    bandwidth: float = 500e6
    tx_power: float = 0.1
    noise_power: float = 1e-12

    def __post_init__(self):
        for name in (
            "room_length", "room_width", "waveguide_height", "carrier_freq",
            "bandwidth", "tx_power", "noise_power",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        n_eff = self.refractive_index
        if not (math.isfinite(n_eff) and n_eff >= 1):
            raise ValueError(f"refractive_index must be finite and >= 1, got {n_eff}")
        if not 0 <= self.blockage_density < math.inf:
            raise ValueError(
                f"blockage_density must be finite and >= 0, got {self.blockage_density}"
            )
        for name in ("n_pas", "n_users"):
            value = getattr(self, name)
            if not 1 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 1, got {value}")
            if not isinstance(value, Integral):
                raise ValueError(f"{name} must be of integer type, got {value!r}")

    @property
    def noise_psd(self) -> float:
        """One-sided noise power spectral density, W/Hz."""
        return self.noise_power / self.bandwidth


def pa_positions(scenario: Scenario) -> np.ndarray:
    """Uniform PA positions along the waveguide, shape (N, 3).

    The n-th PA (n = 1..N) sits at x = n * room_length / (N + 1), y = 0,
    z = waveguide_height, so the N apertures split the waveguide span into
    N + 1 equal gaps.
    """
    n = scenario.n_pas
    pas = np.zeros((n, 3))
    pas[:, 0] = np.arange(1, n + 1) * (scenario.room_length / (n + 1))
    pas[:, 2] = scenario.waveguide_height
    return pas


def feed_position(scenario: Scenario) -> np.ndarray:
    """Waveguide feed point: the x = 0 end of the waveguide, at its height."""
    return np.array([0.0, 0.0, scenario.waveguide_height])


def center_pa_position(scenario: Scenario) -> np.ndarray:
    """Position of a single PA placed at the center of the room span."""
    return np.array([scenario.room_length / 2.0, 0.0, scenario.waveguide_height])


def sample_users(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Draw user positions uniformly on the floor, shape (M, 3).

    x ~ U[0, room_length], y ~ U[-room_width/2, room_width/2], z = 0.
    The uniforms are consumed row by row (x then y of each user), so a draw
    of M users is a prefix of a draw of M' > M users from the same stream;
    this is what makes common-random-number comparisons across user counts
    possible.
    """
    half_w = scenario.room_width / 2.0
    users = np.zeros((scenario.n_users, 3))
    users[:, :2] = rng.uniform(
        [0.0, -half_w], [scenario.room_length, half_w], size=(scenario.n_users, 2)
    )
    return users


def los_probability_matrix(users, pas, blockage_density: float) -> np.ndarray:
    """Probabilities of an unobstructed LoS link, exp(-beta * distance), for
    every user/PA pair, shape (M, N). A product past the float range is
    -inf, whose probability 0 is exact."""
    if not blockage_density >= 0:  # nan is not >= 0; an infinite density blocks every link
        raise ValueError(f"blockage_density must be >= 0, got {blockage_density}")
    with np.errstate(over="ignore"):
        return np.exp(-blockage_density * distance_matrix(users, pas))


def sample_blockage(scenario: Scenario, users, pas, rng: np.random.Generator) -> np.ndarray:
    """Draw the binary LoS indicator matrix, shape (M, N), entries in {0, 1}.

    Each link is an independent Bernoulli draw with the exponential LoS
    probability. Implemented as a uniform draw thresholded against the
    probability so that the same underlying uniforms can be reused across
    blockage densities (the indicator is then monotone in the density).
    """
    probs = los_probability_matrix(users, pas, scenario.blockage_density)
    u = rng.random(probs.shape)
    return (u < probs).astype(np.int8)
