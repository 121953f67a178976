"""Single-carrier TDMA reference schemes.

Two benchmarks against the OFDMA allocator:

  * a single PA at the center of the room serving users one at a time on
    the full band (no ISI, so no CP and no equalizer), and
  * the full uniform PA layout serving users one at a time with MMSE
    frequency-domain equalization of the ISI.

Both share the slot max-min optimally: the time fractions equalize the
users' weighted rates, which makes the minimum rate the harmonic-sum value
1 / sum(1/r_m).

Only the SNRs read the transmit power: the |H|^2 and the single-PA |h|^2 are
built once per channel, and L power levels serve all users as (L, M) rows,
each minimum one harmonic sum per row.
"""

from __future__ import annotations

import numpy as np

from .channel import _link_gains
from .frame import FrameDesign
from .geometry import Scenario, center_pa_position, distance_matrix

__all__ = [
    "sc_fde_effective_snr",
    "baseline_min_rates",
]


def _center_gains_sq(users, alpha, scenario: Scenario) -> np.ndarray:
    """|h_m|^2, shape (M,), of (M, 3) users toward the center PA, with alpha
    the (M,) LoS indicators (0 on a blocked link); reads no tx_power."""
    dist = distance_matrix(users, center_pa_position(scenario))[:, 0]
    gains = _link_gains(dist, np.asarray(alpha), scenario.carrier_freq)
    # abs per user: np.abs, and np.hypot of the parts (66 of 90,349 values
    # in one check), can differ from the scalar abs in the last bit.
    return np.array([abs(g) ** 2 for g in gains.tolist()])


def _single_pa_rates(gains_sq: np.ndarray, tx_power, scenario: Scenario) -> np.ndarray:
    """Full-band rates of users each served alone by the center PA all slot,
    from their (M,) |h_m|^2 of _center_gains_sq: B * log2(1 + |h_m|^2 P_t /
    noise_power), 0 on a blocked link; (M,) at one tx_power, (L, M) at (L, 1).
    """
    snr = gains_sq * tx_power / scenario.noise_power
    return scenario.bandwidth * np.log2(1.0 + snr)


def _harmonic_min(rates) -> np.ndarray:
    """Max-min TDMA rate 1 / sum(1/r_m) of the standalone rates along the
    last axis: slot fractions proportional to 1/r_m equalize the time-shared
    rates. A user with rate 0 adds 1/0 = inf, so the minimum is 1/inf = 0.
    """
    with np.errstate(divide="ignore"):
        return 1.0 / (1.0 / np.asarray(rates, dtype=float)).sum(axis=-1)


def sc_fde_effective_snr(gammas):
    """Post-equalization SNR of MMSE frequency-domain equalization.

    K / sum_k 1/(gamma_k + 1) - 1: the harmonic-type contraction of the
    per-tone SNRs. Equals gamma exactly on a flat channel and 0 when every
    tone is dead. (K,) SNRs give a float, (..., K) ones a (...) array.
    """
    gammas = np.asarray(gammas, dtype=float)
    if (gammas < 0).any():
        raise ValueError("per-tone SNRs must be >= 0")
    snr = gammas.shape[-1] / np.sum(1.0 / (gammas + 1.0), axis=-1) - 1.0
    return float(snr) if gammas.ndim == 1 else snr


def _sc_fde_rates(gains_sq, tx_power, frame: FrameDesign, scenario: Scenario):
    """Rates of users each served alone with single-carrier MMSE
    equalization, from |H|^2 of one user, (K,), or of all, (M, K), at a
    scalar tx_power; an (L, 1, 1) column of powers adds a leading L axis.

    Per-tone SNRs use the full power budget spread over the N apertures:
    gamma_k = |H_k|^2 * P_t / (N * K * N0 * delta_f). The CP overhead of the
    shared frame applies, so the rate is cp_efficiency * B * log2(1 + SNR).
    """
    k_tones = gains_sq.shape[-1]
    gammas = (
        gains_sq
        * tx_power
        / (scenario.n_pas * k_tones * scenario.noise_psd * frame.subcarrier_spacing)
    )
    snr_eff = sc_fde_effective_snr(gammas)
    return frame.cp_efficiency * scenario.bandwidth * np.log2(1.0 + snr_eff)


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
    center_sq = _center_gains_sq(realization.users, center_alpha, scenario)
    single_pa, sc_fde = _tdma_min_rates(
        center_sq, np.abs(grid.h) ** 2, frame, scenario, np.array([scenario.tx_power])
    )
    return float(single_pa[0]), float(sc_fde[0])


def _tdma_min_rates(center_sq, gains_sq, frame: FrameDesign, scenario: Scenario, tx_powers):
    """baseline_min_rates at each of the (L,) tx_powers, as two (L,) arrays,
    from the (M,) single-PA |h|^2 and the (M, K) |H|^2."""
    return (
        _harmonic_min(_single_pa_rates(center_sq, tx_powers[:, None], scenario)),
        _harmonic_min(_sc_fde_rates(gains_sq, tx_powers[:, None, None], frame, scenario)),
    )
