"""Memory controller front-end.

Thin layer between the on-chip world and :class:`repro.mem.dram.DRAM`:
it separates data traffic from metadata traffic for accounting (Fig. 19
normalises *total* memory accesses).  Page walks use its ``read``; the
secure engines bind :meth:`MemoryController.bind_engine_ops` closures.
Both run the DRAM's one open-row body.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.dram import DRAM
from repro.mem.spaces import DATA, SPACE_SHIFT
from repro.sim.config import DRAMConfig
from repro.sim.hist import HistogramSet

#: Tagged addresses at or above this value live in a metadata space
#: (``spaces.DATA`` is space 0, so the comparison replaces the
#: ``is_metadata`` call on the controller's per-request hot path).
_METADATA_BASE = (DATA + 1) << SPACE_SHIFT


@dataclass
class TrafficStats:
    data_reads: int = 0
    data_writes: int = 0
    metadata_reads: int = 0
    metadata_writes: int = 0

    @property
    def total(self) -> int:
        return (self.data_reads + self.data_writes
                + self.metadata_reads + self.metadata_writes)


class MemoryController:
    """Routes block requests to DRAM and keeps traffic accounting."""

    def __init__(self, config: DRAMConfig) -> None:
        self.dram = DRAM(config)
        self.traffic = TrafficStats()
        # Read-latency distributions, split the same way the traffic
        # counters are: metadata reads sit on the verification critical
        # path, so their tail is the interesting one.
        self.hists = HistogramSet()
        self._h_data = self.hists.get("read.data")
        self._h_meta = self.hists.get("read.metadata")

    def set_tracer(self, tracer) -> None:
        """Rebind the DRAM's open-row body for ``tracer``; engines rebind
        their :meth:`bind_engine_ops` closures after this."""
        self.dram.set_tracer(tracer)

    def register_stats(self, registry) -> None:
        """Register the traffic split and the DRAM device counters, plus
        the conservation law tying them together: every request the
        controller classified must have reached exactly one DRAM bank."""
        registry.register("mc.traffic", self.traffic)
        self.hists.register(registry, "hist.mc")
        self.dram.register_stats(registry)
        registry.add_equality(
            "dram-read-conservation",
            "dram.reads", lambda: self.dram.stats.reads,
            "traffic data+metadata reads",
            lambda: self.traffic.data_reads + self.traffic.metadata_reads)
        registry.add_equality(
            "dram-write-conservation",
            "dram.writes", lambda: self.dram.stats.writes,
            "traffic data+metadata writes",
            lambda: self.traffic.data_writes + self.traffic.metadata_writes)
        registry.add_equality(
            "dram-row-accounting",
            "row hits+misses",
            lambda: self.dram.stats.row_hits + self.dram.stats.row_misses,
            "dram reads+writes",
            lambda: self.dram.stats.reads + self.dram.stats.writes)

    def read(self, addr: int, now: float) -> float:
        traffic = self.traffic
        lat = self.dram.command(addr, now, False)
        if addr >= _METADATA_BASE:
            traffic.metadata_reads += 1
            self._h_meta.record(lat)
        else:
            traffic.data_reads += 1
            self._h_data.record(lat)
        return lat

    def write(self, addr: int, now: float) -> None:
        if addr >= _METADATA_BASE:
            self.traffic.metadata_writes += 1
        else:
            self.traffic.data_writes += 1
        self.dram.command(addr, now, True)

    # -- pre-bound engine fast path -------------------------------------------

    def bind_engine_ops(self, estats):
        """Fused (read_data, read_meta, write_data, write_meta) closures
        for the engine fast path.

        Each closure counts the controller's traffic split and the
        engine's own dram_* attribution (``estats`` is the engine's
        :class:`EngineStats`), runs the DRAM's bound open-row body and,
        for a read, records the latency histogram: every counter and
        histogram update of ``read``/``write`` plus the attribution bit,
        with the data/metadata split fixed per closure instead of
        compared per request.  The body is the one bound for the
        installed tracer (:meth:`set_tracer`), so traced runs emit their
        DRAM events from these closures too.
        """
        command = self.dram.command
        traffic = self.traffic
        rec_data = self._h_data.record
        rec_meta = self._h_meta.record

        def read_data(addr: int, now: float) -> float:
            traffic.data_reads += 1
            estats.dram_data_reads += 1
            total = command(addr, now, False)
            rec_data(total)
            return total

        def read_meta(addr: int, now: float) -> float:
            traffic.metadata_reads += 1
            estats.dram_metadata_reads += 1
            total = command(addr, now, False)
            rec_meta(total)
            return total

        def write_data(addr: int, now: float) -> None:
            traffic.data_writes += 1
            estats.dram_data_writes += 1
            command(addr, now, True)

        def write_meta(addr: int, now: float) -> None:
            traffic.metadata_writes += 1
            estats.dram_metadata_writes += 1
            command(addr, now, True)

        return read_data, read_meta, write_data, write_meta
