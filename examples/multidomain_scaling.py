#!/usr/bin/env python
"""Dynamic multi-domain scaling: IvLeague vs static partitioning.

Reproduces the scenario of paper Section X-C (Fig. 22) as a live run
rather than an analytical model: domains with wildly skewed footprints
are created and destroyed; static partitioning fails as soon as one
domain outgrows its fixed share, while IvLeague keeps assigning
TreeLings from the shared pool and releases them when domains exit.

Run:  python examples/multidomain_scaling.py
"""

import numpy as np

from repro import IvLeagueBasicEngine, StaticPartitionEngine
from repro.secure.static_partition import (NoFreePartition,
                                           PartitionOverflow)
from repro.sim.config import tiny_config


def drive_domain(engine, domain: int, pages: list[int]) -> str:
    """Start a domain, fault its pages, touch them; report the outcome."""
    try:
        engine.on_domain_start(domain)
        now = 0.0
        for pfn in pages:
            now += engine.on_page_alloc(domain, pfn, now)
            now += engine.data_access(domain, pfn, 0, False, now)
        return "ok"
    except (PartitionOverflow, NoFreePartition) as exc:
        return f"FAILED ({type(exc).__name__})"


def main() -> None:
    cfg = tiny_config(n_cores=4)
    rng = np.random.default_rng(3)

    # Skewed footprints: 7 one-page domains + 1 domain that wants ~60%
    # of memory (the paper's worst-case pattern, Section VI-D2).
    footprints = [1] * 7 + [int(cfg.memory_pages * 0.6)]
    next_pfn = 0
    plans = []
    for fp in footprints:
        plans.append(list(range(next_pfn, next_pfn + fp)))
        next_pfn += fp

    print(f"machine: {cfg.memory_pages} pages, "
          f"{cfg.ivleague.n_treelings} TreeLings of "
          f"{cfg.ivleague.pages_per_treeling} pages\n")

    print("-- static partitioning (8 equal partitions)")
    static = StaticPartitionEngine(cfg, n_partitions=8)
    for d, plan in enumerate(plans, start=1):
        # static partitioning forces each domain into its own chunk
        lo = (d - 1) * static.pages_per_partition
        confined = [lo + i for i in range(min(len(plan),
                                              len(plan)))]
        outcome = drive_domain(static, d, confined)
        print(f"   domain {d} ({len(plan):5d} pages): {outcome}")

    print("\n-- IvLeague (dynamic TreeLing assignment)")
    iv = IvLeagueBasicEngine(cfg)
    for d, plan in enumerate(plans, start=1):
        outcome = drive_domain(iv, d, plan)
        used = len(iv.pool.treelings_of(d))
        print(f"   domain {d} ({len(plan):5d} pages): {outcome}, "
              f"{used} TreeLing(s)")

    print(f"\n   pool after setup: {iv.pool.unassigned_count} unassigned")
    # destroy the big domain: the OS frees its pages, then its TreeLings
    # return to the pool
    for pfn in plans[-1]:
        iv.on_page_free(8, pfn, 0.0)
    iv.on_domain_end(8)
    print(f"   big domain exits: {iv.pool.unassigned_count} unassigned")
    # a new large domain can now be admitted
    outcome = drive_domain(iv, 9, plans[-1])
    print(f"   new large domain: {outcome}")


if __name__ == "__main__":
    main()
