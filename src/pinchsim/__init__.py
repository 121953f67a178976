"""Link-level simulator and max-min resource allocation for waveguide-fed
pinching-antenna downlinks.

The pieces, bottom up: room/waveguide geometry and blockage sampling
(`geometry`), the per-user FIR channel and its analytic frequency response
(`channel`), OFDMA numerology from delay statistics (`frame`), greedy
subcarrier assignment plus per-user water-filling (`alloc`), single-carrier
TDMA references (`baselines`), and seeded Monte Carlo sweeps (`experiments`).
"""

from .geometry import (
    Scenario,
    center_pa_position,
    distance,
    feed_position,
    los_probability,
    pa_positions,
    sample_blockage,
    sample_users,
)
from .channel import (
    SPEED_OF_LIGHT,
    ChannelGrid,
    ChannelRealization,
    build_realization,
    channel_grid,
    composite_delay,
    frequency_response,
    link_gain,
    path_loss_constant,
    waveguide_phase,
)
from .frame import (
    FrameDesign,
    design_frame,
    max_excess_delay,
    rms_delay_spread,
)
from .alloc import (
    Allocation,
    allocate,
    exhaustive_oracle,
    gain_grid,
    greedy_assign,
    min_rate,
    user_rate,
    waterfill,
)
from .baselines import (
    TimeShares,
    baseline_min_rates,
    maxmin_time_shares,
    sc_fde_effective_snr,
    sc_fde_standalone_rate,
    standalone_rate_single_pa,
)
from .experiments import (
    SCHEMES,
    ExperimentConfig,
    SweepPoint,
    SweepResult,
    dbm_to_watts,
    emit_csv,
    emit_json,
    load_config,
    run_drop,
    run_sweep,
    trace_drop,
    watts_to_dbm,
)

__version__ = "0.1.0"
