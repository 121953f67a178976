"""Shared builders for synthetic channels and frames used across tests."""

import numpy as np

from pinchsim.channel import ChannelGrid, ChannelRealization
from pinchsim.frame import FrameDesign
from pinchsim.geometry import Point3, Scenario


def synthetic_realization(gains, delays):
    """Wrap explicit tap arrays in a realization (geometry is placeholder)."""
    gains = np.atleast_2d(np.asarray(gains, dtype=complex))
    delays = np.atleast_2d(np.asarray(delays, dtype=float))
    m, n = gains.shape
    users = [Point3(float(i), 0.0, 0.0) for i in range(m)]
    pas = [Point3(float(j), 0.0, 3.0) for j in range(n)]
    los = (np.abs(gains) > 0).astype(np.int8)
    return ChannelRealization(users, pas, Point3(0, 0, 3.0), los, gains, delays)


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


def reference_greedy_assign(gains_sq, frame, scenario):
    """Max-min greedy tone assignment (Rhee & Cioffi, VTC 2000) written as a
    rescan of every unassigned tone at each step: the oracle that
    `pinchsim.alloc.greedy_assign` must match exactly.

    The worst-off active user (lowest index on ties) takes the unassigned
    tone with the largest advantage, then largest own gain, then lowest
    index; a user with no positive-gain tone left is skipped for good, and
    tones left when every user is skipped go to user 0.
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
        candidates = np.flatnonzero(unassigned)
        own = gains_sq[m_star, candidates]
        if not np.any(own > 0.0):
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
