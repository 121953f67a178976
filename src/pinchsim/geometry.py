"""Scenario geometry and random sampling for waveguide-fed pinching-antenna rooms.

A scenario is a rectangular room with a leaky waveguide running along one
side at fixed height. Radiating apertures (PAs) sit at uniform positions on
the waveguide; users are dropped uniformly on the floor. Line-of-sight
blockage per user/PA link follows an exponential-in-distance survival model.

All quantities are SI (meters, Hz, watts) unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point3",
    "Scenario",
    "distance",
    "distance_matrix",
    "pa_positions",
    "feed_position",
    "center_pa_position",
    "sample_users",
    "los_probability",
    "los_probability_matrix",
    "sample_blockage",
]


@dataclass(frozen=True)
class Point3:
    """A point in room coordinates (meters)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite coordinates: ({self.x}, {self.y}, {self.z})")


def _coords(points: list[Point3]) -> np.ndarray:
    return np.array([(p.x, p.y, p.z) for p in points]).reshape(-1, 3)


def distance_matrix(a: list[Point3], b: list[Point3]) -> np.ndarray:
    """Euclidean distance from every point of a to every point of b, shape
    (len(a), len(b)). Squares are added x, y, z in that order, so every entry
    has the same bits whatever the shape of the call."""
    sq = (_coords(a)[:, None, :] - _coords(b)[None, :, :]) ** 2
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


def distance(a: Point3, b: Point3) -> float:
    """Euclidean distance between two points."""
    return float(distance_matrix([a], [b])[0, 0])


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
        if self.n_pas < 1:
            raise ValueError(f"n_pas must be >= 1, got {self.n_pas}")
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if self.room_length <= 0 or self.room_width <= 0:
            raise ValueError("room dimensions must be positive")
        if self.waveguide_height <= 0:
            raise ValueError("waveguide_height must be positive")
        if self.carrier_freq <= 0:
            raise ValueError("carrier_freq must be positive")
        if self.refractive_index < 1.0:
            raise ValueError("refractive_index must be >= 1")
        if self.blockage_density < 0:
            raise ValueError("blockage_density must be >= 0")
        if self.bandwidth <= 0 or self.tx_power <= 0 or self.noise_power <= 0:
            raise ValueError("bandwidth, tx_power and noise_power must be positive")

    @property
    def noise_psd(self) -> float:
        """One-sided noise power spectral density, W/Hz."""
        return self.noise_power / self.bandwidth


def pa_positions(scenario: Scenario) -> list[Point3]:
    """Uniform PA positions along the waveguide.

    The n-th PA (n = 1..N) sits at x = n * room_length / (N + 1), y = 0,
    z = waveguide_height, so the N apertures split the waveguide span into
    N + 1 equal gaps.
    """
    n = scenario.n_pas
    step = scenario.room_length / (n + 1)
    return [Point3(i * step, 0.0, scenario.waveguide_height) for i in range(1, n + 1)]


def feed_position(scenario: Scenario) -> Point3:
    """Waveguide feed point: the x = 0 end of the waveguide, at its height."""
    return Point3(0.0, 0.0, scenario.waveguide_height)


def center_pa_position(scenario: Scenario) -> Point3:
    """Position of a single PA placed at the center of the room span."""
    return Point3(scenario.room_length / 2.0, 0.0, scenario.waveguide_height)


def sample_users(scenario: Scenario, rng: np.random.Generator) -> list[Point3]:
    """Draw user positions uniformly on the floor.

    x ~ U[0, room_length], y ~ U[-room_width/2, room_width/2], z = 0.
    Users are drawn one at a time (x then y) so that a draw of M users is a
    prefix of a draw of M' > M users from the same stream; this is what makes
    common-random-number comparisons across user counts possible.
    """
    half_w = scenario.room_width / 2.0
    users = []
    for _ in range(scenario.n_users):
        x = rng.uniform(0.0, scenario.room_length)
        y = rng.uniform(-half_w, half_w)
        users.append(Point3(x, y, 0.0))
    return users


def los_probability(user: Point3, pa: Point3, blockage_density: float) -> float:
    """Probability of an unobstructed LoS link: exp(-beta * distance)."""
    return float(los_probability_matrix([user], [pa], blockage_density)[0, 0])


def los_probability_matrix(
    users: list[Point3], pas: list[Point3], blockage_density: float
) -> np.ndarray:
    """LoS probabilities for every user/PA pair, shape (M, N)."""
    if blockage_density < 0:
        raise ValueError("blockage_density must be >= 0")
    return np.exp(-blockage_density * distance_matrix(users, pas))


def sample_blockage(
    scenario: Scenario,
    users: list[Point3],
    pas: list[Point3],
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the binary LoS indicator matrix, shape (M, N), entries in {0, 1}.

    Each link is an independent Bernoulli draw with the exponential LoS
    probability. Implemented as a uniform draw thresholded against the
    probability so that the same underlying uniforms can be reused across
    blockage densities (the indicator is then monotone in the density).
    """
    probs = los_probability_matrix(users, pas, scenario.blockage_density)
    u = rng.random(probs.shape)
    return (u < probs).astype(np.int8)
