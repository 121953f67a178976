#!/usr/bin/env python3
"""Why well-separated pinch apertures make the downlink frequency selective.

Two PAs several meters apart feed one user two delayed replicas of every
symbol. The tap delays differ by tens of nanoseconds, so the channel's
magnitude response ripples across a 500 MHz band instead of staying flat.
"""

import numpy as np

from pinchsim import (
    Scenario,
    build_realization,
    channel_grid,
    design_frame,
    frequency_response,
)

scenario = Scenario(n_pas=2, n_users=1, blockage_density=0.0)
user = (8.0, 2.0, 0.0)
los = np.ones((1, 2), dtype=np.int8)

realization = build_realization(scenario, [user], los)

print("=" * 64)
print("Tap list for one user served by two PAs")
print("=" * 64)
taps = zip(realization.pas, realization.tap_gains[0], realization.tap_delays[0])
for n, (pa, gain, delay) in enumerate(taps):
    print(
        f"PA {n + 1} at x = {pa[0]:5.1f} m:  |gain| = {abs(gain):.3e}, "
        f"delay = {delay * 1e9:7.3f} ns"
    )
spread = realization.tap_delays.max() - realization.tap_delays.min()
print(f"\nExcess delay between the taps: {spread * 1e9:.2f} ns")
print(f"At 500 MHz one symbol lasts {1e9 / scenario.bandwidth:.1f} ns, so the")
print("second replica lands many symbols late: strong ISI for single-carrier.")

frame = design_frame(scenario, realization)
grid = channel_grid(realization, frame)
mags = np.abs(grid.h[0])

print()
print("=" * 64)
print(f"Magnitude across the band ({frame.n_subcarriers} subcarriers)")
print("=" * 64)
step = max(1, frame.n_subcarriers // 16)
peak = mags.max()
for k in range(0, frame.n_subcarriers, step):
    f_mhz = grid.subcarrier_freqs[k] / 1e6
    bar = "#" * int(40 * mags[k] / peak)
    print(f"f_c {f_mhz:+9.2f} MHz  |H| = {mags[k]:.3e}  {bar}")
print(f"\nripple: max/min magnitude = {mags.max() / mags.min():.2f}")

print()
print("Single PA for contrast (one tap, flat response):")
flat = build_realization(
    Scenario(n_pas=1, n_users=1, blockage_density=0.0), [user], np.ones((1, 1), np.int8)
)
samples = [abs(frequency_response(flat, 0, f)) for f in (-200e6, 0.0, 200e6)]
print("  |H| at -200/0/+200 MHz:", ", ".join(f"{s:.6e}" for s in samples))
