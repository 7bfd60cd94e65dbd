"""Fully static integrity-tree partitioning (paper Section V, Fig. 4a).

The global tree is split into ``n_partitions`` equal subtrees, each
covering a fixed contiguous chunk of physical memory, each with its root
held on-chip.  A domain is bound to one partition at creation.  This is
the isolation comparator the paper contrasts IvLeague against:

* it cannot scale the number of domains at runtime (one partition each);
* a domain whose footprint exceeds its chunk *fails* (needs swapping);
* the untrusted OS must keep each domain's frames inside its chunk.

The engine enforces the containment rule and raises
:class:`PartitionOverflow` when violated, which is exactly the failure
the Fig. 22 success-rate analysis counts.
"""

from __future__ import annotations

from repro.secure.bmt import TreeGeometry
from repro.secure.engine import BaselineEngine
from repro.sim.config import MachineConfig


class PartitionOverflow(RuntimeError):
    """A domain touched memory outside its static partition."""


class NoFreePartition(RuntimeError):
    """More live domains than partitions."""


class StaticPartitionEngine(BaselineEngine):
    """Per-domain statically partitioned subtrees with on-chip roots:
    the Baseline walk over an offset subtree."""

    name = "static-partition"

    def __init__(self, config: MachineConfig, n_partitions: int = 8,
                 seed: int = 11) -> None:
        super().__init__(config, seed)
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions
        self.pages_per_partition = config.memory_pages // n_partitions
        if self.pages_per_partition < 1:
            raise ValueError("more partitions than pages")
        # One subtree per partition, each in its own node address region
        # so no blocks are shared.
        self._geos = [TreeGeometry(self.pages_per_partition,
                                   region=(part + 1) << 40)
                      for part in range(n_partitions)]
        self._free_partitions = list(range(n_partitions - 1, -1, -1))
        self._partition_of: dict[int, int] = {}

    # -- domain lifecycle ---------------------------------------------------------

    def on_domain_start(self, domain: int) -> None:
        super().on_domain_start(domain)
        if domain in self._partition_of:
            return
        if not self._free_partitions:
            raise NoFreePartition(
                f"all {self.n_partitions} partitions are in use")
        self._partition_of[domain] = self._free_partitions.pop()

    def on_domain_end(self, domain: int) -> None:
        super().on_domain_end(domain)
        part = self._partition_of.pop(domain, None)
        if part is not None:
            self._free_partitions.append(part)

    def partition_of(self, domain: int) -> int:
        return self._partition_of[domain]

    def frame_range(self, domain: int) -> tuple[int, int]:
        """[lo, hi) PFN range the OS must allocate from for ``domain``."""
        part = self._partition_of[domain]
        lo = part * self.pages_per_partition
        return lo, lo + self.pages_per_partition

    # -- verification ---------------------------------------------------------------

    def data_access(self, domain: int, pfn: int, block_in_page: int,
                    is_write: bool, now: float) -> float:
        """Containment is checked on the domain's own accesses only (the
        overflow failure the Fig. 22 analysis counts).  A dirty block of
        a freed page can be written back long after, charged to
        whichever domain's fill evicted it; its walk still covers the
        partition the page lives in."""
        part = self._partition_of.get(domain)
        if part is None:
            raise KeyError(f"domain {domain} was never started")
        lo = part * self.pages_per_partition
        if not lo <= pfn < lo + self.pages_per_partition:
            raise PartitionOverflow(
                f"domain {domain} touched pfn {pfn} outside its "
                f"partition [{lo}, {lo + self.pages_per_partition})")
        return super().data_access(domain, pfn, block_in_page, is_write,
                                   now)

    def _static_path(self, pfn: int) -> list[int]:
        """Path in the partition subtree holding ``pfn``.  The partition
        is the chunk the page was allocated from,
        ``pfn // pages_per_partition``, so the path is pure in the PFN
        regardless of how partitions are later reassigned across
        domains."""
        part, local_page = divmod(pfn, self.pages_per_partition)
        return self._geos[part].path_addrs(local_page)

    def _page_labels(self, pfn: int) -> dict:
        return {"partition": pfn // self.pages_per_partition}
