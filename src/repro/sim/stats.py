"""Statistics containers shared across the simulator and the engines."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field


@dataclass
class Counter:
    """A named event counter with a convenience rate helper."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0


@dataclass
class CacheStats(Counter):
    """A cache's probe outcomes plus its victims: every eviction, and
    the dirty ones that need a write-back."""

    evictions: int = 0
    writebacks: int = 0


@dataclass
class EngineStats:
    """Per-engine statistics accumulated over a simulation run.

    The fields mirror exactly what the paper's evaluation figures report:
    verification path lengths (Fig. 16), metadata memory traffic (Fig. 19),
    NFLB hit rate (Fig. 18) and TreeLing utilization (Fig. 17b).
    """

    data_reads: int = 0
    data_writes: int = 0
    dram_data_reads: int = 0
    dram_data_writes: int = 0
    dram_metadata_reads: int = 0
    dram_metadata_writes: int = 0
    # Integrity verification transactions (data reads that required a
    # counter fetch and therefore a tree traversal).
    verifications: int = 0
    tree_nodes_visited: int = 0      # node lookups incl. the terminating hit
    tree_node_dram_reads: int = 0    # node lookups that missed on-chip
    counter_hits: int = 0
    counter_misses: int = 0
    mac_hits: int = 0
    mac_misses: int = 0
    # IvLeague structures
    lmm_hits: int = 0
    lmm_misses: int = 0
    nflb_hits: int = 0
    nflb_misses: int = 0
    page_allocs: int = 0
    page_frees: int = 0
    #: Minor-counter overflow events: the whole page streamed through
    #: the crypto engine plus a counter write-back and a tree update.
    page_reencrypts: int = 0
    hot_migrations: int = 0
    hot_demotions: int = 0
    conversions: int = 0     # Invert slot-to-parent conversions
    #: Dirty LLC evictions handled by the engine; must equal the LLC's
    #: own write-back count (the ``llc-writeback-conservation`` law).
    writebacks_absorbed: int = 0

    @property
    def avg_path_length(self) -> float:
        """Mean tree-node lookups per verification transaction (Fig. 16)."""
        if not self.verifications:
            return 0.0
        return self.tree_nodes_visited / self.verifications

    @property
    def total_dram_accesses(self) -> int:
        return (self.dram_data_reads + self.dram_data_writes
                + self.dram_metadata_reads + self.dram_metadata_writes)

    @property
    def nflb_hit_rate(self) -> float:
        total = self.nflb_hits + self.nflb_misses
        return self.nflb_hits / total if total else 0.0


@dataclass
class CoreStats:
    """Per-core progress and timing for weighted-IPC reporting."""

    instructions: int = 0
    cycles: float = 0.0
    mem_accesses: int = 0
    llc_misses: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class SimStats:
    """Simulator-scope counters, registered as ``sim``."""

    #: Page-table-walk blocks read straight from the controller (the
    #: engine never sees them); needed to balance the metadata ledger.
    ptw_dram_reads: int = 0


@dataclass
class RunResult:
    """Outcome of simulating one workload mix under one scheme."""

    scheme: str
    workload: str
    cores: list[CoreStats] = field(default_factory=list)
    engine: EngineStats = field(default_factory=EngineStats)
    #: Verification path-length accounting keyed by *core index*.  Each
    #: core reports its domain's (verifications, nodes_visited) record;
    #: cores sharing a domain therefore see the same record -- use
    #: :meth:`path_by_benchmark` for per-benchmark aggregation that
    #: counts each domain once.
    per_core_path: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: Benchmark name and IV-domain id per core, parallel to ``cores``.
    core_benchmarks: list[str] = field(default_factory=list)
    core_domains: list[int] = field(default_factory=list)
    #: Full counter snapshot from the StatsRegistry at run end (the
    #: measurement window only when the run had a warmup phase).
    registry_snapshot: dict = field(default_factory=dict, repr=False)
    #: Scheme-specific scalars measured off the live engine object
    #: (e.g. TreeLing utilization for Fig. 17b); attached by the
    #: parallel execution engine because the engine itself cannot cross
    #: a process boundary.
    engine_metrics: dict = field(default_factory=dict)

    @property
    def ipcs(self) -> list[float]:
        return [c.ipc for c in self.cores]

    # -- serialization -------------------------------------------------------
    #
    # Results cross process boundaries (parallel runner) and land in
    # JSON artifacts; both paths must reproduce the object exactly.
    # Pickle handles the dataclasses natively; JSON needs int dict keys
    # and tuples restored by hand.

    def to_dict(self) -> dict:
        """JSON-safe dict; inverse of :meth:`from_dict`."""
        return {
            "scheme": self.scheme,
            "workload": self.workload,
            "cores": [asdict(c) for c in self.cores],
            "engine": asdict(self.engine),
            "per_core_path": {str(k): list(v)
                              for k, v in self.per_core_path.items()},
            "core_benchmarks": list(self.core_benchmarks),
            "core_domains": list(self.core_domains),
            "registry_snapshot": self.registry_snapshot,
            "engine_metrics": self.engine_metrics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        return cls(
            scheme=data["scheme"],
            workload=data["workload"],
            cores=[CoreStats(**c) for c in data["cores"]],
            engine=EngineStats(**data["engine"]),
            per_core_path={int(k): (v[0], v[1])
                           for k, v in data["per_core_path"].items()},
            core_benchmarks=list(data["core_benchmarks"]),
            core_domains=list(data["core_domains"]),
            registry_snapshot=data.get("registry_snapshot", {}),
            engine_metrics=data.get("engine_metrics", {}),
        )

    def path_by_benchmark(self) -> dict[str, tuple[int, int]]:
        """Aggregate (verifications, nodes_visited) per benchmark.

        The engine accounts paths per IV domain, so a domain shared by
        several cores (threads of one process) contributes its record
        exactly once per benchmark -- the naive per-core sum would
        double-report it, and keying by benchmark name alone would
        silently drop duplicates (Fig. 16 averages would skew).
        """
        agg: dict[str, list[int]] = {}
        counted: dict[str, set[int]] = {}
        for core, bench in enumerate(self.core_benchmarks):
            domain = self.core_domains[core]
            if domain in counted.setdefault(bench, set()):
                continue
            counted[bench].add(domain)
            verifs, visited = self.per_core_path.get(core, (0, 0))
            rec = agg.setdefault(bench, [0, 0])
            rec[0] += verifs
            rec[1] += visited
        return {b: (rec[0], rec[1]) for b, rec in agg.items()}

    def weighted_ipc(self, baseline: "RunResult") -> float:
        """Weighted speedup versus a baseline run (Fig. 15 metric)."""
        if len(self.cores) != len(baseline.cores):
            raise ValueError(
                f"core count mismatch: {len(self.cores)} cores vs "
                f"{len(baseline.cores)} in the baseline run")
        ratios = [
            mine.ipc / ref.ipc
            for mine, ref in zip(self.cores, baseline.cores)
            if ref.ipc > 0
        ]
        return sum(ratios) / len(ratios) if ratios else 0.0


def geomean(values: list[float]) -> float:
    """Geometric mean used by the paper for per-class summaries.

    Computed in log space: a running product over/underflows once the
    list is long enough (e.g. hundreds of DRAM-access counts), which
    silently turned the mean into ``inf`` or ``0``.
    """
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
