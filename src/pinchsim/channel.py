"""Waveguide-fed multi-aperture channel model.

Each PA re-radiates a phase-shifted replica of the signal fed into the
waveguide, so user m sees one delayed tap per PA: the channel is an FIR
filter with N taps. Tap gain is the product of the in-waveguide phase
rotation (feed to PA) and the free-space link gain (PA to user); tap delay
is the composite of guided and free-space propagation times. Frequency
responses are evaluated analytically from the tap list; no sampled impulse
response or FFT is involved on the main path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .frame import FrameDesign
from .geometry import Point3, Scenario, distance, distance_matrix, feed_position, pa_positions

SPEED_OF_LIGHT = 299_792_458.0  # m/s

__all__ = [
    "SPEED_OF_LIGHT",
    "Tap",
    "ChannelRealization",
    "ChannelGrid",
    "path_loss_constant",
    "link_gain",
    "waveguide_phase",
    "composite_delay",
    "build_realization",
    "frequency_response",
    "channel_grid",
]


class Tap(NamedTuple):
    """One FIR tap: complex amplitude and absolute propagation delay (s)."""

    gain: complex
    delay: float


def path_loss_constant(carrier_freq: float) -> float:
    """Free-space path-gain constant (lambda / 4 pi)^2 = c^2 / (16 pi^2 f_c^2)."""
    if carrier_freq <= 0:
        raise ValueError("carrier_freq must be positive")
    wavelength = SPEED_OF_LIGHT / carrier_freq
    return (wavelength / (4.0 * math.pi)) ** 2


def _complex(real, imag) -> np.ndarray:
    """real + j imag, keeping the sign of zero parts (unlike real + 1j * imag)."""
    out = np.array(real, dtype=complex)
    out.imag = imag
    return out


def _rotation(path, wavelength) -> np.ndarray:
    """exp(-j 2 pi path / wavelength): a full turn per wavelength of path."""
    phase = -2.0 * math.pi * path / wavelength
    return _complex(np.cos(phase), np.sin(phase))


def _link_gains(dist, los, carrier_freq: float) -> np.ndarray:
    """link_gain over arrays of link distances and LoS indicators."""
    if np.any(dist == 0.0):
        raise ValueError("zero-distance link is non-physical")
    amp = math.sqrt(path_loss_constant(carrier_freq)) / dist
    return np.where(los == 0, 0j, amp * _rotation(dist, SPEED_OF_LIGHT / carrier_freq))


def _waveguide_phases(feed_dist, carrier_freq: float, refractive_index: float) -> np.ndarray:
    """waveguide_phase over an array of feed-to-PA distances."""
    return _rotation(feed_dist, SPEED_OF_LIGHT / carrier_freq / refractive_index)


def _composite_delays(dist, feed_dist, refractive_index: float) -> np.ndarray:
    """composite_delay over arrays of PA-to-user and feed-to-PA distances."""
    return dist / SPEED_OF_LIGHT + refractive_index * feed_dist / SPEED_OF_LIGHT


def link_gain(user: Point3, pa: Point3, alpha: int, carrier_freq: float) -> complex:
    """Free-space complex gain of one PA-to-user link.

    alpha is the binary LoS indicator; a blocked link contributes exactly 0.
    Magnitude is sqrt(path_loss_constant) / distance, phase advances by a
    full turn per free-space wavelength of path.
    """
    return complex(_link_gains(distance(user, pa), alpha, carrier_freq))


def waveguide_phase(
    pa: Point3, feed: Point3, carrier_freq: float, refractive_index: float
) -> complex:
    """Unit-magnitude phase rotation accumulated from the feed to a PA.

    Guided wavelength is the free-space wavelength divided by the effective
    refractive index of the waveguide.
    """
    return complex(_waveguide_phases(distance(feed, pa), carrier_freq, refractive_index))


def composite_delay(
    user: Point3, pa: Point3, feed: Point3, refractive_index: float
) -> float:
    """Total propagation delay: guided (feed to PA) plus free space (PA to user).

    Guided propagation is slowed by the refractive index, so a guided meter
    costs refractive_index / c seconds.
    """
    return float(_composite_delays(distance(user, pa), distance(feed, pa), refractive_index))


@dataclass
class ChannelRealization:
    """One draw of the multi-user FIR channel.

    tap_gains[m, n] and tap_delays[m, n] describe the tap user m receives
    from PA n. A blocked link has gain exactly 0 but keeps its delay.
    """

    users: list[Point3]
    pas: list[Point3]
    feed: Point3
    los: np.ndarray  # (M, N) binary
    tap_gains: np.ndarray  # (M, N) complex
    tap_delays: np.ndarray  # (M, N) seconds

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_pas(self) -> int:
        return len(self.pas)

    def tap(self, m: int, n: int) -> Tap:
        return Tap(complex(self.tap_gains[m, n]), float(self.tap_delays[m, n]))


def build_realization(
    scenario: Scenario, users: list[Point3], los: np.ndarray
) -> ChannelRealization:
    """Assemble the per-link taps for given user positions and LoS draw."""
    pas = pa_positions(scenario)
    feed = feed_position(scenario)
    m_users, n_pas = len(users), len(pas)
    if los.shape != (m_users, n_pas):
        raise ValueError(f"los shape {los.shape} does not match ({m_users}, {n_pas})")

    dist = distance_matrix(users, pas)
    feed_dist = distance_matrix([feed], pas)[0]
    guided = _waveguide_phases(feed_dist, scenario.carrier_freq, scenario.refractive_index)
    free = _link_gains(dist, los, scenario.carrier_freq)
    # guided * free, written out so that each part rounds as in CPython's
    # complex multiply; numpy's may fuse the multiply-adds.
    gains = _complex(
        guided.real * free.real - guided.imag * free.imag,
        guided.real * free.imag + guided.imag * free.real,
    )
    delays = _composite_delays(dist, feed_dist, scenario.refractive_index)
    return ChannelRealization(users, pas, feed, np.asarray(los), gains, delays)


def frequency_response(realization: ChannelRealization, m: int, f_offset):
    """Channel response of user m at baseband offset(s) f - f_c.

    Evaluates sum_n gain_{m,n} * exp(-j 2 pi f_offset tau_{m,n}) directly
    from the tap list. Accepts a scalar offset or an array of offsets;
    scalar in, complex scalar out.
    """
    offsets = np.atleast_1d(np.asarray(f_offset, dtype=float))
    gains = realization.tap_gains[m]
    delays = realization.tap_delays[m]
    phases = np.exp(-2j * np.pi * offsets[:, None] * delays[None, :])
    response = np.sum(gains[None, :] * phases, axis=-1)
    if np.isscalar(f_offset) or np.ndim(f_offset) == 0:
        return complex(response[0])
    return response


@dataclass
class ChannelGrid:
    """Per-user frequency-response samples on the OFDMA subcarrier grid.

    h[m, k] is the response of user m on subcarrier k; subcarrier_freqs holds
    the baseband offsets k * delta_f for k = -K/2 .. K/2 - 1.
    """

    h: np.ndarray  # (M, K) complex
    subcarrier_freqs: np.ndarray  # (K,) Hz offsets from the carrier

    @property
    def n_users(self) -> int:
        return self.h.shape[0]

    @property
    def n_subcarriers(self) -> int:
        return self.h.shape[1]


def channel_grid(realization: ChannelRealization, frame: FrameDesign) -> ChannelGrid:
    """Sample every user's frequency response on the frame's subcarrier grid."""
    k = frame.n_subcarriers
    offsets = (np.arange(k) - k // 2) * frame.subcarrier_spacing
    h = np.empty((realization.n_users, k), dtype=complex)
    for m in range(realization.n_users):
        h[m] = frequency_response(realization, m, offsets)
    return ChannelGrid(h, offsets)
