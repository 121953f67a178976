"""Link-level simulator and max-min resource allocation for waveguide-fed
pinching-antenna downlinks.

The pieces, bottom up: room/waveguide geometry and blockage sampling
(`geometry`), the per-user FIR channel and its analytic frequency response
(`channel`), OFDMA numerology from delay statistics (`frame`), greedy
subcarrier assignment plus per-user water-filling (`alloc`), single-carrier
TDMA references (`baselines`), and seeded Monte Carlo sweeps (`experiments`).
"""

from .geometry import *
from .channel import *
from .frame import *
from .alloc import *
from .baselines import *
from .experiments import *

__version__ = "0.1.0"
