"""Property tests for the DRAM address mapping and the
latency-accounting fixes (float read-latency accumulation, explicit
row-hit classification), and a lockstep check of ``DRAM`` against
``_ReferenceDRAM``, the device as it was with a per-address memo of
``(bank, row)``."""

import random

import pytest

from repro.mem import spaces
from repro.mem.dram import DRAM, DRAMStats
from repro.mem.memctrl import MemoryController
from repro.mem.spaces import block_of, space_of
from repro.sim.config import DRAMConfig
from repro.sim.trace import NULL_TRACER, EventTracer

ALL_SPACES = (spaces.DATA, spaces.COUNTER, spaces.TREE, spaces.MAC,
              spaces.NFL, spaces.PTABLE, spaces.LMM)
METADATA_SPACES = tuple(s for s in ALL_SPACES if s != spaces.DATA)


def _random_addrs(n, seed=0, max_block=1 << 24):
    rng = random.Random(seed)
    return [spaces.tag(rng.choice(ALL_SPACES), rng.randrange(max_block))
            for _ in range(n)]


class TestBankAndRowProperties:
    def test_mapping_is_stable(self):
        dram = DRAM(DRAMConfig())
        for addr in _random_addrs(200, seed=1):
            first = dram.bank_and_row(addr)
            assert dram.bank_and_row(addr) == first

    def test_mapping_in_range(self):
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        for addr in _random_addrs(500, seed=2):
            bank, row = dram.bank_and_row(addr)
            assert 0 <= bank < cfg.n_banks
            assert row >= 0

    @pytest.mark.parametrize("space", METADATA_SPACES)
    def test_metadata_spaces_spread_over_banks(self, space):
        """Sequential metadata blocks (densely indexed by PFN) must use
        every bank, not collapse onto one."""
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        banks = {dram.bank_and_row(spaces.tag(space, b))[0]
                 for b in range(cfg.n_banks * dram._blocks_per_row * 4)}
        assert banks == set(range(cfg.n_banks))

    def test_no_bank_zero_pileup(self):
        """No bank (bank 0 in particular) may absorb a disproportionate
        share of a mixed data+metadata stream."""
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        addrs = _random_addrs(4000, seed=3)
        counts = [0] * cfg.n_banks
        for addr in addrs:
            counts[dram.bank_and_row(addr)[0]] += 1
        fair = len(addrs) / cfg.n_banks
        assert counts[0] < 2 * fair
        assert max(counts) < 2 * fair

    def test_same_space_blocks_in_one_row_split_only_by_channel(self):
        """Blocks within one DRAM row of one space land on exactly one
        (bank, row) per channel: block-granularity channel interleave,
        row-granularity bank interleave -- that locality is what makes
        row-buffer hits possible at all."""
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        per_row = dram._blocks_per_row
        base = 7 * per_row
        mapped = {dram.bank_and_row(spaces.tag(spaces.DATA, base + i))
                  for i in range(per_row)}
        assert len(mapped) == cfg.channels


class TestLatencyAccounting:
    def test_queued_latency_accumulates_as_float(self):
        """Back-to-back reads to one bank queue behind each other; the
        fractional queueing delay must survive into the accumulator
        (the old ``+= int(total)`` truncated every sample)."""
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        addr = spaces.tag(spaces.DATA, 5)
        dram.read(addr, 0.0)
        # second read starts at busy_until but is timed from now=0.25
        lat = dram.read(addr, 0.25)
        assert lat != int(lat)   # genuinely fractional
        assert dram.stats.total_read_latency == pytest.approx(
            cfg.row_miss_latency + lat)

    def test_avg_read_latency_matches_histogram_mean(self):
        """satellite: ``DRAMStats.avg_read_latency`` and the ``hist.mc``
        read histograms are fed the same samples; their means must agree
        to float precision, not drift by up to a cycle."""
        mc = MemoryController(DRAMConfig())
        rng = random.Random(4)
        now = 0.0
        for _ in range(500):
            space = rng.choice(ALL_SPACES)
            addr = spaces.tag(space, rng.randrange(512))
            mc.read(addr, now)
            now += rng.random() * 3.0   # fractional gaps -> queueing
        h_data = mc.hists.get("read.data")
        h_meta = mc.hists.get("read.metadata")
        count = h_data.count + h_meta.count
        assert count == mc.dram.stats.reads
        hist_mean = (h_data.total + h_meta.total) / count
        assert mc.dram.stats.avg_read_latency == pytest.approx(
            hist_mean, abs=1e-9)

    def test_histogram_sum_keeps_fractional_samples(self):
        from repro.sim.hist import LatencyHistogram
        h = LatencyHistogram()
        h.record(10.75)
        h.record(3.5)
        assert h.total == pytest.approx(14.25)
        assert h.mean == pytest.approx(7.125)


class TestRowHitClassification:
    def test_queued_row_hit_still_counts_as_hit(self):
        """Regression: a row hit delayed behind a busy bank has latency
        above ``row_hit_latency``; inferring the class from the latency
        value mislabelled it a miss.  The explicit flag must not."""
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        addr = spaces.tag(spaces.DATA, 9)
        dram.read(addr, 0.0)                 # miss, opens the row
        lat = dram.read(addr, 0.0)           # hit, but queued
        assert lat > cfg.row_hit_latency
        assert dram.stats.row_hits == 1
        assert dram.stats.row_misses == 1

    def test_degenerate_timing_config_keeps_classes_distinct(self):
        """With t_rp = t_rcd = 0 (latency sweeps) hit and miss latencies
        coincide, so latency equality carries no class information."""
        cfg = DRAMConfig(t_rp=0, t_rcd=0)
        assert cfg.row_hit_latency == cfg.row_miss_latency
        dram = DRAM(cfg)
        addr = spaces.tag(spaces.DATA, 3)
        dram.read(addr, 0.0)
        dram.read(addr, 1000.0)              # idle bank, genuine hit
        assert (dram.stats.row_hits, dram.stats.row_misses) == (1, 1)

    def test_write_path_classifies_with_same_flag(self):
        cfg = DRAMConfig()
        dram = DRAM(cfg)
        addr = spaces.tag(spaces.COUNTER, 11)
        dram.write(addr, 0.0)                # miss opens the row
        dram.write(addr, 0.0)                # queued, still a row hit
        assert dram.stats.row_hits == 1
        assert dram.stats.row_misses == 1

    def test_row_accounting_conservation(self):
        dram = DRAM(DRAMConfig())
        rng = random.Random(6)
        for i in range(300):
            addr = spaces.tag(rng.choice(ALL_SPACES), rng.randrange(256))
            if i % 3:
                dram.read(addr, float(i))
            else:
                dram.write(addr, float(i))
        s = dram.stats
        assert s.row_hits + s.row_misses == s.reads + s.writes


# ---------------------------------------------------------------------------
# The reference: the DRAM with its per-address (bank, row) memo
# ---------------------------------------------------------------------------

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


class _ReferenceDRAM:
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


def _command_stream(n, seed):
    """Seeded ``(addr, now, is_write)`` commands over all seven address
    spaces: block numbers anywhere up to ``2**48 - 1`` (both ends
    included), a dense window that opens and re-hits rows, re-used
    addresses, and fractional times with back-to-back commands that
    queue behind a busy bank."""
    rng = random.Random(seed)
    top = spaces.BLOCK_MASK
    out = []
    now = 0.0
    for _ in range(n):
        r = rng.random()
        if out and r < 0.3:
            addr = rng.choice(out)[0]
        else:
            if r < 0.6:
                block = 4096 + rng.randrange(512)
            elif r < 0.65:
                block = rng.choice((0, top))
            else:
                block = rng.randrange(top + 1)
            addr = spaces.tag(rng.choice(ALL_SPACES), block)
        if rng.random() < 0.7:
            now += rng.random() * 40.0
        out.append((addr, now, rng.random() < 0.35))
    return out


_GEOMETRIES = {
    "default": DRAMConfig(),
    "odd": DRAMConfig(channels=3, ranks_per_channel=1, banks_per_rank=5,
                      row_bytes=2048),
}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("geometry", sorted(_GEOMETRIES))
def test_dram_matches_memoized_reference(geometry, traced):
    """One seeded stream drives ``DRAM`` and ``_ReferenceDRAM`` in
    lockstep: every command's (bank, row), returned latency, stats,
    open rows and bank busy times, and traced, the emitted events, must
    agree."""
    cfg = _GEOMETRIES[geometry]
    dram, ref = DRAM(cfg), _ReferenceDRAM(cfg)
    if traced:
        tracers = (EventTracer(limit=None), EventTracer(limit=None))
        dram.set_tracer(tracers[0])
        ref.set_tracer(tracers[1])
    for addr, now, is_write in _command_stream(4000, seed=8):
        assert dram.bank_and_row(addr) == ref.bank_and_row(addr), hex(addr)
        got = dram.command(addr, now, is_write)
        assert got == ref.command(addr, now, is_write), hex(addr)
        assert dram.stats == ref.stats
        assert dram._open_row == ref._open_row
        assert dram._busy_until == ref._busy_until
    # The stream exercises both row outcomes and queued (fractional) reads.
    assert ref.stats.row_hits > 200 and ref.stats.row_misses > 200
    assert ref.stats.total_read_latency != int(ref.stats.total_read_latency)
    if traced:
        assert tracers[0].events() == tracers[1].events()
