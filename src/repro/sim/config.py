"""Architecture configuration objects (paper Table I).

Every tunable of the simulated machine lives here as a frozen dataclass so
experiments can derive variants with :func:`dataclasses.replace`.  Two
factory functions are provided:

* :func:`paper_config` — the configuration of Table I of the paper
  (32 GB memory, 256 KB metadata caches, 64 MB TreeLings).
* :func:`scaled_config` — the default used by tests/benchmarks: the same
  machine scaled down ~8x so full experiment sweeps run at laptop scale in
  pure Python while keeping the ratios (footprint : cache reach,
  TreeLing size : footprint) that the paper's effects depend on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# ---------------------------------------------------------------------------
# Fixed geometry shared by the whole stack.
# ---------------------------------------------------------------------------

BLOCK_BYTES = 64
PAGE_BYTES = 4096
BLOCKS_PER_PAGE = PAGE_BYTES // BLOCK_BYTES

#: Hash/counter slots per 64B integrity-tree node (paper: 8-ary BMT).
TREE_ARITY = 8

#: One 64B split-counter block covers one 4KB page (64-bit major +
#: 64 x 7-bit minor counters, paper Section II-B).
PAGES_PER_COUNTER_BLOCK = 1

#: Data blocks covered by one 64B MAC block (8-byte MAC per data block).
BLOCKS_PER_MAC_BLOCK = 8

#: NFL entries per 64B in-memory NFL block (8-byte entry: 56-bit tag +
#: 8-bit availability vector, paper Section X-D).
NFL_ENTRIES_PER_BLOCK = 8


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache.

    ``randomized`` selects the MIRAGE-style randomized organisation used by
    the paper's baseline for the shared LLC and the metadata caches.
    """

    size_bytes: int
    assoc: int
    hit_latency: int
    block_bytes: int = BLOCK_BYTES
    randomized: bool = False

    @property
    def n_blocks(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def n_sets(self) -> int:
        return max(1, self.n_blocks // self.assoc)


@dataclass(frozen=True)
class DRAMConfig:
    """Open-row DRAM timing model (FR-FCFS approximated by row-hit reuse)."""

    channels: int = 2
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    row_bytes: int = 8192
    t_cas: int = 30          # column access (row-buffer hit) latency
    t_rcd: int = 30          # activate latency
    t_rp: int = 30           # precharge latency
    t_burst: int = 4         # data burst occupancy per 64B block
    ctrl_latency: int = 20   # fixed controller/queue pipeline latency

    @property
    def n_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def row_hit_latency(self) -> int:
        return self.ctrl_latency + self.t_cas + self.t_burst

    @property
    def row_miss_latency(self) -> int:
        return self.ctrl_latency + self.t_rp + self.t_rcd + self.t_cas + self.t_burst


@dataclass(frozen=True)
class CoreConfig:
    """Simple out-of-order core timing abstraction.

    ``base_cpi`` covers non-memory work; memory stalls are divided by
    ``mlp`` (memory-level parallelism) to approximate overlap in an OoO
    window, the standard first-order model for trace-driven simulation.
    """

    base_cpi: float = 0.5    # 8-wide OoO sustains ~2 IPC on non-memory work
    mlp: float = 4.0
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, hit_latency=4))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(1024 * 1024, 4, hit_latency=14))


@dataclass(frozen=True)
class SecureConfig:
    """Counter-mode encryption + MAC + Bonsai Merkle Tree parameters."""

    aes_latency: int = 20
    hash_latency: int = 10          # per tree-node hash check
    mac_bytes: int = 8
    major_counter_bits: int = 64
    minor_counter_bits: int = 7
    counter_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * 1024, 8, hit_latency=8,
                                            randomized=True))
    tree_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * 1024, 8, hit_latency=8,
                                            randomized=True))
    mac_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 8, hit_latency=8))


@dataclass(frozen=True)
class IvLeagueConfig:
    """Parameters of the IvLeague mechanisms (paper Table I, bottom)."""

    #: Hash-node levels inside a TreeLing (leaf nodes = level 1).  A height-h
    #: TreeLing covers ``TREE_ARITY**h`` pages.
    treeling_height: int = 4
    #: Number of TreeLings provisioned in the system.
    n_treelings: int = 4096
    #: On-chip NFL buffer entries (cached NFL blocks) per domain.
    nflb_entries: int = 2
    #: LMM cache entries (PFN -> leaf slot); paper: 8K entries / 204KB.
    lmm_entries: int = 8192
    lmm_assoc: int = 16
    lmm_hit_latency: int = 2
    #: Maximum number of concurrently live IV domains (2**12).
    max_domains: int = 4096
    # --- IvLeague-Pro -----------------------------------------------------
    hot_tracker_entries: int = 128
    hot_counter_bits: int = 8
    hot_threshold: int = 64
    hot_clear_interval: int = 100_000   # accesses between tracker resets
    #: Fraction of each TreeLing's top-level slots reserved for hotpages.
    hot_region_slots: int = 64

    @property
    def pages_per_treeling(self) -> int:
        return TREE_ARITY ** self.treeling_height

    @property
    def treeling_bytes(self) -> int:
        return self.pages_per_treeling * PAGE_BYTES

    @property
    def hot_counter_max(self) -> int:
        return (1 << self.hot_counter_bits) - 1


@dataclass(frozen=True)
class MachineConfig:
    """Full simulated machine: cores + hierarchy + DRAM + secure engine."""

    n_cores: int = 8
    memory_bytes: int = 32 * 1024 ** 3
    core: CoreConfig = field(default_factory=CoreConfig)
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(8 * 1024 * 1024, 16,
                                            hit_latency=40, randomized=True))
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    secure: SecureConfig = field(default_factory=SecureConfig)
    ivleague: IvLeagueConfig = field(default_factory=IvLeagueConfig)
    #: TLB entries (data); misses charge a page-table walk.
    tlb_entries: int = 1536
    tlb_assoc: int = 4

    @property
    def memory_pages(self) -> int:
        return self.memory_bytes // PAGE_BYTES

    @property
    def memory_blocks(self) -> int:
        return self.memory_bytes // BLOCK_BYTES

    @property
    def counter_blocks(self) -> int:
        return self.memory_pages // PAGES_PER_COUNTER_BLOCK

    def with_ivleague(self, **kwargs) -> "MachineConfig":
        return replace(self, ivleague=replace(self.ivleague, **kwargs))

    def with_secure(self, **kwargs) -> "MachineConfig":
        return replace(self, secure=replace(self.secure, **kwargs))


def paper_config() -> MachineConfig:
    """The configuration of Table I (64MB TreeLings, 4K of them, 32GB)."""
    return MachineConfig()


def scaled_config(n_cores: int = 4) -> MachineConfig:
    """Laptop-scale configuration preserving the paper's ratios.

    Memory and metadata caches shrink ~8x together, so metadata-cache reach
    relative to workload footprints (which the workload generator scales the
    same way) matches the paper's regime.  TreeLings shrink from 64MB to
    16MB (height 4 at arity 8) and the TreeLing count keeps the same ~8x
    over-provisioning versus full-memory coverage.
    """
    base = MachineConfig(
        n_cores=n_cores,
        memory_bytes=4 * 1024 ** 3,
        core=CoreConfig(
            l1=CacheConfig(16 * 1024, 8, hit_latency=4),
            l2=CacheConfig(128 * 1024, 4, hit_latency=14),
        ),
        llc=CacheConfig(1024 * 1024, 16, hit_latency=40, randomized=True),
        secure=SecureConfig(
            counter_cache=CacheConfig(32 * 1024, 8, hit_latency=8,
                                      randomized=True),
            tree_cache=CacheConfig(32 * 1024, 8, hit_latency=8,
                                   randomized=True),
            mac_cache=CacheConfig(8 * 1024, 8, hit_latency=8),
        ),
        ivleague=IvLeagueConfig(
            treeling_height=4,
            n_treelings=512,
            lmm_entries=4096,
            # Tracker thresholds scale with the shortened trace windows
            # (the paper's 128-entry/64-threshold tracker observes 1B
            # instructions; we observe tens of thousands of accesses).
            hot_tracker_entries=512,
            hot_threshold=1,
            hot_clear_interval=3000,
        ),
        tlb_entries=1024,
    )
    return base


def tiny_config(n_cores: int = 2) -> MachineConfig:
    """Unit-test scale: small caches so interesting events happen quickly."""
    return MachineConfig(
        n_cores=n_cores,
        memory_bytes=64 * 1024 ** 2,
        core=CoreConfig(
            l1=CacheConfig(2 * 1024, 4, hit_latency=4),
            l2=CacheConfig(8 * 1024, 4, hit_latency=14),
        ),
        llc=CacheConfig(32 * 1024, 8, hit_latency=40, randomized=True),
        secure=SecureConfig(
            counter_cache=CacheConfig(4 * 1024, 4, hit_latency=8,
                                      randomized=True),
            tree_cache=CacheConfig(4 * 1024, 4, hit_latency=8,
                                   randomized=True),
            mac_cache=CacheConfig(2 * 1024, 4, hit_latency=8),
        ),
        ivleague=IvLeagueConfig(
            treeling_height=3,
            n_treelings=64,
            lmm_entries=128,
            max_domains=64,
            hot_tracker_entries=32,
            hot_threshold=4,
            hot_clear_interval=150,
            hot_region_slots=8,
        ),
        tlb_entries=64,
    )
