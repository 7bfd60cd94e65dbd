"""Open-row DRAM timing model.

Banks keep an open row and a ``busy_until`` time.  A request pays the
controller pipeline latency plus either a row-buffer hit (CAS) or a
row-buffer miss (PRE + ACT + CAS), plus any queueing delay behind earlier
requests to the same bank.  FR-FCFS is approximated by letting a row-hit
request overlap the tail burst of the previous request to the same row.

Writes are posted: they occupy the bank (extending ``busy_until``) but do
not stall the requester, which matches the write-queue draining behaviour
of an FR-FCFS controller at first order.

The model has one body, ``DRAM.command``, bound by :meth:`DRAM.set_tracer`
with the installed tracer; every DRAM read and write runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.spaces import block_of, space_of
from repro.sim.config import DRAMConfig
from repro.sim.trace import NULL_TRACER


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    #: Accumulated as a float: queueing delay behind a busy bank makes
    #: individual read latencies fractional, and truncating each sample
    #: to int made ``avg_read_latency`` systematically disagree with the
    #: ``hist.mc`` read histograms fed the same (untruncated) values.
    total_read_latency: float = 0.0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def avg_read_latency(self) -> float:
        return self.total_read_latency / self.reads if self.reads else 0.0


def _bank_and_row(addr: int, channels: int, blocks_per_row: int,
                  banks_per_channel: int) -> tuple[int, int]:
    """(bank, row) of a tagged block address: a module function, so the
    open-row body bound by :meth:`DRAM.set_tracer` can map addresses
    without holding a reference back to its device."""
    blk = block_of(addr)
    spc = space_of(addr)
    channel = (blk ^ spc) % channels
    row_global = blk // blocks_per_row
    bank_in_channel = (row_global ^ (spc * 7)) % banks_per_channel
    return (channel * banks_per_channel + bank_in_channel,
            row_global // banks_per_channel)


class DRAM:
    """Channel/rank/bank DRAM with open-row policy."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        n = config.n_banks
        self._open_row = [-1] * n
        self._busy_until = [0.0] * n
        self.stats = DRAMStats()
        # (bank, row) is a pure function of the address; the working set
        # of distinct block addresses is bounded by the workload
        # footprint, so the mapping is memoized off the hot path.
        self._br_memo: dict[int, tuple[int, int]] = {}
        # Address-mapping constants, hoisted out of the config: the
        # memo-miss path would re-read three attributes per mapping.
        self._channels = config.channels
        self._blocks_per_row = config.row_bytes // 64
        self._banks_per_channel = (config.ranks_per_channel
                                   * config.banks_per_rank)
        self.set_tracer(NULL_TRACER)

    def register_stats(self, registry, name: str = "dram") -> None:
        """Register device-level counters (open-row state is not a stat)."""
        registry.register(name, self.stats)

    # -- address mapping -----------------------------------------------------

    def bank_and_row(self, addr: int) -> tuple[int, int]:
        """Map a tagged block address to (bank, row).

        Blocks interleave across channels at block granularity (the common
        fine-grained interleaving), then across banks at row granularity.
        The address-space tag participates in the hash so metadata regions
        spread over all banks rather than piling onto bank 0.
        """
        br = self._br_memo.get(addr)
        if br is None:
            br = self._br_memo[addr] = _bank_and_row(
                addr, self._channels, self._blocks_per_row,
                self._banks_per_channel)
        return br

    # -- accesses ------------------------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Bind the open-row body ``command(addr, now, is_write)``, the one
        model of a DRAM command: it maps the address, updates the bank's
        open row and ``busy_until`` time and the stats, returns a read's
        latency in cycles (a posted write returns 0.0), and emits the
        ``dram`` read/write event when ``tracer`` is enabled.

        Every read and write runs it: :meth:`read`/:meth:`write`, the
        controller's ``read``/``write`` and the engine closures of
        :meth:`repro.mem.memctrl.MemoryController.bind_engine_ops`.  The
        closure holds the device's state, never the device, so binding
        creates no reference cycle.
        """
        memo = self._br_memo
        memo_get = memo.get
        channels = self._channels
        per_row = self._blocks_per_row
        per_channel = self._banks_per_channel
        open_row = self._open_row
        busy_until = self._busy_until
        stats = self.stats
        cfg = self.config
        # The timing scalars are fixed for the device's lifetime; the
        # config exposes them as properties, which are too slow to
        # re-evaluate per request.
        hit_lat = cfg.row_hit_latency
        miss_lat = cfg.row_miss_latency
        t_burst = cfg.t_burst
        miss_occ = cfg.t_rp + cfg.t_rcd + cfg.t_burst
        emit = tracer if tracer.enabled else None

        def command(addr: int, now: float, is_write: bool) -> float:
            br = memo_get(addr)
            if br is None:
                br = memo[addr] = _bank_and_row(addr, channels, per_row,
                                                per_channel)
            bank, row = br
            busy = busy_until[bank]
            start = now if now >= busy else busy
            # Explicit hit flag: inferring it back from ``latency ==
            # row_hit_latency`` mislabels hits whenever the configured
            # latencies coincide (e.g. t_rp = t_rcd = 0 sweeps).
            if open_row[bank] == row:
                hit = True
                latency = hit_lat
                stats.row_hits += 1
                # The bank stays occupied for the burst only; the next
                # row hit can pipeline behind the column access.
                busy_until[bank] = start + t_burst
            else:
                hit = False
                latency = miss_lat
                stats.row_misses += 1
                open_row[bank] = row
                busy_until[bank] = start + miss_occ
            if is_write:
                stats.writes += 1
                if emit is not None:
                    emit.instant("dram", "write", ts=now, bank=bank,
                                 row=row, row_hit=hit, space=space_of(addr))
                return 0.0
            total = start + latency - now
            stats.reads += 1
            stats.total_read_latency += total
            if emit is not None:
                emit.complete("dram", "read", ts=now, dur=total, bank=bank,
                              row=row, row_hit=hit, space=space_of(addr))
            return total

        self.command = command

    def read(self, addr: int, now: float) -> float:
        """Issue a read at ``now``; returns its latency in cycles."""
        return self.command(addr, now, False)

    def write(self, addr: int, now: float) -> None:
        """Posted write: occupies the bank but does not stall the caller."""
        self.command(addr, now, True)
