"""First-order out-of-order core timing model.

Non-memory instructions retire at ``base_cpi``.  A memory access costs
its L1-visible latency; the portion beyond the L1 hit latency is divided
by the MLP factor, approximating the overlap an OoO window extracts from
independent misses.  This is the standard trace-driven core abstraction:
absolute IPC is approximate, but *relative* IPC between schemes -- which
is what Fig. 15 reports -- is driven by the memory-system latencies the
rest of the simulator models in detail.
"""

from __future__ import annotations

from repro.sim.config import CoreConfig


class CoreModel:
    """Converts access latencies into core stall cycles."""

    def __init__(self, config: CoreConfig) -> None:
        self.config = config
        self._l1_lat = float(config.l1.hit_latency)

    def access_cycles(self, latency: float) -> float:
        """Core-visible cost of one memory access of ``latency`` cycles."""
        if latency <= self._l1_lat:
            return latency
        return self._l1_lat + (latency - self._l1_lat) / self.config.mlp
