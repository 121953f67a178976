"""Single-carrier TDMA reference schemes.

Two benchmarks against the OFDMA allocator:

  * a single PA at the center of the room serving users one at a time on
    the full band (no ISI, so no CP and no equalizer), and
  * the full uniform PA layout serving users one at a time with MMSE
    frequency-domain equalization of the ISI.

Both share the slot max-min optimally: the time fractions equalize the
users' weighted rates, which makes the minimum rate the harmonic-sum value
1 / sum(1/r_m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _link_gains
from .frame import FrameDesign
from .geometry import Scenario, center_pa_position, distance_matrix

__all__ = [
    "TimeShares",
    "standalone_rate_single_pa",
    "maxmin_time_shares",
    "sc_fde_effective_snr",
    "sc_fde_standalone_rate",
    "baseline_min_rates",
]


@dataclass
class TimeShares:
    """Max-min optimal TDMA slot fractions and the resulting worst rate."""

    zeta: np.ndarray  # (M,) fractions, sum to 1
    min_rate: float  # bits/s


def standalone_rate_single_pa(users, alpha, scenario: Scenario) -> np.ndarray:
    """Full-band rates, shape (M,), of (M, 3) users each served alone by the
    center PA all slot: B * log2(1 + alpha_m |h_m|^2 P_t / noise_power), with
    alpha the (M,) LoS indicators; a blocked link yields 0.
    """
    dist = distance_matrix(users, center_pa_position(scenario))[:, 0]
    gains = _link_gains(dist, np.asarray(alpha), scenario.carrier_freq)
    # abs and log2 per user, in this order: the array forms can differ in the last bit.
    snr = [abs(g) ** 2 * scenario.tx_power / scenario.noise_power for g in gains.tolist()]
    return scenario.bandwidth * np.array([float(np.log2(1.0 + x)) for x in snr])


def maxmin_time_shares(standalone_rates) -> TimeShares:
    """Split the slot to maximize the minimum time-shared rate.

    With all standalone rates positive the optimum equalizes zeta_m * r_m,
    giving zeta_m proportional to 1/r_m and min rate 1 / sum(1/r_m). If any
    user has zero standalone rate the minimum is 0 whatever the split, and
    the uniform split is returned as the (arbitrary) fallback.
    """
    rates = np.asarray(standalone_rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("standalone rates must be >= 0")
    m_users = rates.size
    if np.any(rates == 0.0):
        return TimeShares(np.full(m_users, 1.0 / m_users), 0.0)
    inv = 1.0 / rates
    total_inv = inv.sum()
    return TimeShares(inv / total_inv, float(1.0 / total_inv))


def sc_fde_effective_snr(gammas) -> float:
    """Post-equalization SNR of MMSE frequency-domain equalization.

    K / sum_k 1/(gamma_k + 1) - 1: the harmonic-type contraction of the
    per-tone SNRs. Equals gamma exactly on a flat channel and 0 when every
    tone is dead.
    """
    gammas = np.asarray(gammas, dtype=float)
    if np.any(gammas < 0):
        raise ValueError("per-tone SNRs must be >= 0")
    return float(gammas.size / np.sum(1.0 / (gammas + 1.0)) - 1.0)


def sc_fde_standalone_rate(
    h_row: np.ndarray, frame: FrameDesign, scenario: Scenario
) -> float:
    """Rate of one user served alone with single-carrier MMSE equalization.

    Per-tone SNRs use the full power budget spread over the N apertures:
    gamma_k = |H_k|^2 * P_t / (N * K * N0 * delta_f). The CP overhead of the
    shared frame applies, so the rate is cp_efficiency * B * log2(1 + SNR).
    """
    k_tones = h_row.size
    gammas = (
        np.abs(h_row) ** 2
        * scenario.tx_power
        / (scenario.n_pas * k_tones * scenario.noise_psd * frame.subcarrier_spacing)
    )
    snr_eff = sc_fde_effective_snr(gammas)
    return float(
        frame.cp_efficiency * scenario.bandwidth * np.log2(1.0 + snr_eff)
    )


def baseline_min_rates(
    realization,
    grid,
    frame: FrameDesign,
    scenario: Scenario,
    center_alpha: np.ndarray,
):
    """Minimum rates of both TDMA benchmarks for one channel drop.

    center_alpha holds the per-user LoS indicators toward the center PA,
    sampled by the caller with the same blockage model (the single-PA system
    is a separate deployment, so its blockage is drawn independently of the
    uniform layout's).

    Returns (single_pa_min_rate, sc_fde_min_rate) in bits/s.
    """
    single_rates = standalone_rate_single_pa(realization.users, center_alpha, scenario)
    sc_fde_rates = [
        sc_fde_standalone_rate(grid.h[m], frame, scenario)
        for m in range(grid.n_users)
    ]
    return (
        maxmin_time_shares(single_rates).min_rate,
        maxmin_time_shares(sc_fde_rates).min_rate,
    )
