"""Waveguide-fed multi-aperture channel model.

Each PA re-radiates a phase-shifted replica of the signal fed into the
waveguide, so user m sees one delayed tap per PA: the channel is an FIR
filter with N taps. Tap gain is the product of the in-waveguide phase
rotation (feed to PA) and the free-space link gain (PA to user); tap delay
is the composite of guided and free-space propagation times. A drop's taps
are (M, N) arrays built from the (M, 3) user and (N, 3) PA positions.
Frequency responses are evaluated analytically from the taps; no sampled
impulse response or FFT is involved on the main path; the subcarrier grid
takes each negative-offset tone's phasors as conjugates of its mirror tone's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frame import FrameDesign
from .geometry import Scenario, distance_matrix, feed_position, pa_positions

SPEED_OF_LIGHT = 299_792_458.0  # m/s

__all__ = [
    "SPEED_OF_LIGHT",
    "ChannelRealization",
    "ChannelGrid",
    "path_loss_constant",
    "build_realization",
    "frequency_response",
    "channel_grid",
]


def path_loss_constant(carrier_freq: float) -> float:
    """Free-space path-gain constant (lambda / 4 pi)^2 = c^2 / (16 pi^2 f_c^2)."""
    if not 0 < carrier_freq < math.inf:
        raise ValueError(f"carrier_freq must be positive and finite, got {carrier_freq}")
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
    """Free-space complex gains of PA-to-user links at distances dist, with
    los their binary LoS indicators: a blocked link is exactly 0, the others
    have magnitude sqrt(path_loss_constant) / dist and turn once per
    free-space wavelength of path."""
    if np.any(dist == 0.0):
        raise ValueError("zero-distance link is non-physical")
    amp = math.sqrt(path_loss_constant(carrier_freq)) / dist
    return np.where(los == 0, 0j, amp * _rotation(dist, SPEED_OF_LIGHT / carrier_freq))


def _waveguide_phases(feed_dist, carrier_freq: float, refractive_index: float) -> np.ndarray:
    """Unit-magnitude rotations from the feed to PAs at feed_dist; the guided
    wavelength is the free-space one over the effective refractive index."""
    return _rotation(feed_dist, SPEED_OF_LIGHT / carrier_freq / refractive_index)


def _composite_delays(dist, feed_dist, refractive_index: float) -> np.ndarray:
    """Guided (feed to PA) plus free-space (PA to user) propagation delays;
    a guided meter costs refractive_index / c seconds."""
    return dist / SPEED_OF_LIGHT + refractive_index * feed_dist / SPEED_OF_LIGHT


@dataclass
class ChannelRealization:
    """One draw of the multi-user FIR channel.

    tap_gains[m, n] and tap_delays[m, n] describe the tap user m receives
    from PA n. A blocked link has gain exactly 0 but keeps its delay.
    """

    users: np.ndarray  # (M, 3) meters
    pas: np.ndarray  # (N, 3) meters
    feed: np.ndarray  # (3,) meters
    los: np.ndarray  # (M, N) binary
    tap_gains: np.ndarray  # (M, N) complex
    tap_delays: np.ndarray  # (M, N) seconds

    @property
    def n_users(self) -> int:
        return self.tap_gains.shape[0]

    @property
    def n_pas(self) -> int:
        return self.tap_gains.shape[1]


def build_realization(scenario: Scenario, users, los: np.ndarray) -> ChannelRealization:
    """Assemble the (M, N) taps for (M, 3) user positions and an LoS draw."""
    users = np.asarray(users, dtype=float).reshape(-1, 3)
    pas = pa_positions(scenario)
    feed = feed_position(scenario)
    if los.shape != (len(users), len(pas)):
        raise ValueError(f"los shape {los.shape} does not match ({len(users)}, {len(pas)})")

    dist = distance_matrix(users, pas)
    feed_dist = distance_matrix(feed, pas)[0]
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
    from user m's row of taps. Accepts a scalar offset or an array of offsets;
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

    @property
    def gains_sq(self) -> np.ndarray:
        return np.abs(self.h) ** 2  # (M, K) |H|^2; the only place a grid is squared


def channel_grid(realization: ChannelRealization, frame: FrameDesign) -> ChannelGrid:
    """Sample every user's frequency response on the frame's subcarrier grid,
    evaluating offsets >= 0 only: tone j < K/2 takes the conjugate phasors of
    offset (K/2 - j) delta_f, the exact negative of its own, which keeps the
    direct form's bits where complex exp is conjugate-symmetric (glibc's is)."""
    k, half = frame.n_subcarriers, frame.n_subcarriers // 2
    offsets = (np.arange(k + 1) - half) * frame.subcarrier_spacing  # row k mirrors tone 0
    column = -2j * np.pi * offsets[half:, None]
    phases = np.empty((k + 1, realization.n_pas), dtype=complex)
    h = np.empty((realization.n_users, k), dtype=complex)
    # An (M, K, N) broadcast has the same bits but is faster only at K <= 16
    # (0.05-0.07 against 0.10 ms) and adds 1.3-2.5 MiB to a K = 4096 sweep's RSS.
    for m in range(realization.n_users):
        np.exp(column * realization.tap_delays[m], out=phases[half:])
        np.conjugate(phases[k : k - half : -1], out=phases[:half])
        np.multiply(realization.tap_gains[m], phases[:k], out=phases[:k])
        h[m] = np.sum(phases[:k], axis=-1)
    return ChannelGrid(h, offsets[:k])
