"""OFDMA numerology derived from the channel's delay statistics.

The cyclic prefix must cover the worst excess delay across users, and the
FFT window must be long enough that each subcarrier is flat, i.e. narrower
than the coherence bandwidth. With the usual rule of thumb B_c = 1/(5 sigma)
for RMS delay spread sigma, the recipe is:

    T_cp  = worst excess delay
    T_fft = T_cp + 5 * sigma
    K     = next power of two >= bandwidth * T_fft
    delta_f = bandwidth / K

Taps with zero gain (blocked links) carry no energy and therefore no ISI, so
they are excluded from the delay statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .channel import ChannelRealization
    from .geometry import Scenario

__all__ = [
    "FrameDesign",
    "FLAT_FALLBACK_SUBCARRIERS",
    "max_excess_delay",
    "rms_delay_spread",
    "design_frame",
]

# Subcarrier count used when the channel has no dispersion (single tap per
# user, or every link blocked): no CP is needed and any K works, so a fixed
# mid-sized radix-two grid keeps the OFDMA machinery uniform.
FLAT_FALLBACK_SUBCARRIERS = 64


@dataclass(frozen=True)
class FrameDesign:
    """OFDMA numerology: CP and FFT durations, subcarrier count and spacing.

    cp_efficiency is the fraction of airtime carrying payload,
    T_fft / (T_fft + T_cp); it is 1 exactly when no CP is needed.
    """

    cp_duration: float  # seconds
    fft_duration: float  # seconds
    n_subcarriers: int
    subcarrier_spacing: float  # Hz

    def __post_init__(self):
        if not 0 <= self.cp_duration < math.inf:
            raise ValueError(f"cp_duration must be >= 0 and finite, got {self.cp_duration}")
        if not 0 < self.fft_duration < math.inf:
            raise ValueError(f"fft_duration must be positive and finite, got {self.fft_duration}")
        k = self.n_subcarriers
        if k < 1 or (k & (k - 1)) != 0:
            raise ValueError(f"n_subcarriers must be a power of two, got {k}")
        if not 0 < self.subcarrier_spacing < math.inf:
            raise ValueError(
                f"subcarrier_spacing must be positive and finite, got {self.subcarrier_spacing}"
            )

    @property
    def cp_efficiency(self) -> float:
        return self.fft_duration / (self.fft_duration + self.cp_duration)


def max_excess_delay(realization: ChannelRealization) -> float:
    """Worst excess delay: max over users of (largest - smallest active delay).

    Users with no unblocked tap are skipped; a user with a single active tap
    contributes zero spread. Returns 0 when no user has an active tap.
    """
    active = realization.los != 0
    # A user with no active tap gets -inf - inf and drops out of the max.
    hi = realization.tap_delays.max(axis=1, where=active, initial=-np.inf)
    lo = realization.tap_delays.min(axis=1, where=active, initial=np.inf)
    return float((hi - lo).max(initial=0.0))


def rms_delay_spread(realization: ChannelRealization) -> float:
    """Largest per-user RMS delay spread about that user's mean active delay.

    Population RMS over each user's unblocked taps; users with no unblocked
    tap are skipped. Returns 0 when no user has an active tap.
    """
    worst = 0.0
    # One compressed row per user: a masked (M, N) mean regroups numpy's
    # pairwise sums and changes the last bits.
    for delays, active in zip(realization.tap_delays, realization.los != 0):
        if active.any():
            delays = delays[active]
            worst = max(worst, float(np.sqrt(np.mean((delays - delays.mean()) ** 2))))
    return worst


def _next_power_of_two(x: float) -> int:
    """Smallest power of two >= x (at least 1), in exact integer arithmetic."""
    return 1 << (math.ceil(x) - 1).bit_length() if x > 1.0 else 1


def design_frame(scenario: Scenario, realization: ChannelRealization) -> FrameDesign:
    """Derive the OFDMA numerology for one channel realization.

    The CP is sized exactly to the worst excess delay (any slack only costs
    efficiency), the FFT window adds one coherence time 5 * sigma on top, and
    the subcarrier count is the next radix-two size that fills the bandwidth.
    A dispersion-free realization gets the flat fallback: no CP and a fixed
    K = FLAT_FALLBACK_SUBCARRIERS grid.
    """
    t_max = max_excess_delay(realization)
    sigma = rms_delay_spread(realization)
    bandwidth = scenario.bandwidth

    if sigma <= 0.0:
        k = FLAT_FALLBACK_SUBCARRIERS
        t_cp, t_fft = 0.0, k / bandwidth
    else:
        t_cp = t_max
        t_fft = t_cp + 5.0 * sigma
        k = _next_power_of_two(bandwidth * t_fft)
    return FrameDesign(
        cp_duration=t_cp,
        fft_duration=t_fft,
        n_subcarriers=k,
        subcarrier_spacing=bandwidth / k,
    )
