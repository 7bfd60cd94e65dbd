"""Memory controller front-end.

Thin layer between the on-chip world and :class:`repro.mem.dram.DRAM`:
it separates data traffic from metadata traffic for accounting (Fig. 19
normalises *total* memory accesses) and exposes the read/write interface
the secure engines use.
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
        self.dram.tracer = tracer

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
        if addr >= _METADATA_BASE:
            traffic.metadata_reads += 1
            lat = self.dram.read(addr, now)
            self._h_meta.record(lat)
        else:
            traffic.data_reads += 1
            lat = self.dram.read(addr, now)
            self._h_data.record(lat)
        return lat

    def write(self, addr: int, now: float) -> None:
        if addr >= _METADATA_BASE:
            self.traffic.metadata_writes += 1
        else:
            self.traffic.data_writes += 1
        self.dram.write(addr, now)

    # -- pre-bound engine fast path -------------------------------------------

    def bind_engine_ops(self, estats):
        """Fused (read_data, read_meta, write_data, write_meta) closures
        for the engine fast path.

        Each closure collapses the controller layer, the DRAM open-row
        timing model and the engine's own dram_* attribution counters
        (``estats`` is the engine's :class:`EngineStats`) into one call
        with no tracer emission -- callers must guarantee tracing is
        off; a sampled run binds these too.  The data/metadata
        classification is static per closure, so the ``_METADATA_BASE``
        compare disappears from the per-request path.  The arithmetic is
        the same IEEE sequence as :meth:`DRAM.read`/:meth:`DRAM.write`,
        and every counter/histogram update matches ``read``/``write``
        plus the engine's dram_* attribution bit for bit.
        """
        dram = self.dram
        memo_get = dram._br_memo.get
        bank_and_row = dram.bank_and_row
        open_row = dram._open_row
        busy_until = dram._busy_until
        dstats = dram.stats
        traffic = self.traffic
        hit_lat = dram._hit_lat
        miss_lat = dram._miss_lat
        t_burst = dram._t_burst
        miss_occ = dram._miss_occupancy
        rec_data = self._h_data.record
        rec_meta = self._h_meta.record

        def read_data(addr: int, now: float) -> float:
            traffic.data_reads += 1
            estats.dram_data_reads += 1
            br = memo_get(addr)
            bank, row = br if br is not None else bank_and_row(addr)
            busy = busy_until[bank]
            start = now if now >= busy else busy
            if open_row[bank] == row:
                latency = hit_lat
                dstats.row_hits += 1
                busy_until[bank] = start + t_burst
            else:
                latency = miss_lat
                dstats.row_misses += 1
                open_row[bank] = row
                busy_until[bank] = start + miss_occ
            total = start + latency - now
            dstats.reads += 1
            dstats.total_read_latency += total
            rec_data(total)
            return total

        def read_meta(addr: int, now: float) -> float:
            traffic.metadata_reads += 1
            estats.dram_metadata_reads += 1
            br = memo_get(addr)
            bank, row = br if br is not None else bank_and_row(addr)
            busy = busy_until[bank]
            start = now if now >= busy else busy
            if open_row[bank] == row:
                latency = hit_lat
                dstats.row_hits += 1
                busy_until[bank] = start + t_burst
            else:
                latency = miss_lat
                dstats.row_misses += 1
                open_row[bank] = row
                busy_until[bank] = start + miss_occ
            total = start + latency - now
            dstats.reads += 1
            dstats.total_read_latency += total
            rec_meta(total)
            return total

        def write_data(addr: int, now: float) -> None:
            traffic.data_writes += 1
            estats.dram_data_writes += 1
            br = memo_get(addr)
            bank, row = br if br is not None else bank_and_row(addr)
            busy = busy_until[bank]
            start = now if now >= busy else busy
            if open_row[bank] == row:
                dstats.row_hits += 1
                busy_until[bank] = start + t_burst
            else:
                dstats.row_misses += 1
                open_row[bank] = row
                busy_until[bank] = start + miss_occ
            dstats.writes += 1

        def write_meta(addr: int, now: float) -> None:
            traffic.metadata_writes += 1
            estats.dram_metadata_writes += 1
            br = memo_get(addr)
            bank, row = br if br is not None else bank_and_row(addr)
            busy = busy_until[bank]
            start = now if now >= busy else busy
            if open_row[bank] == row:
                dstats.row_hits += 1
                busy_until[bank] = start + t_burst
            else:
                dstats.row_misses += 1
                open_row[bank] = row
                busy_until[bank] = start + miss_occ
            dstats.writes += 1

        return read_data, read_meta, write_data, write_meta
