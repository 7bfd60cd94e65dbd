"""Fig. 22: scheduling success rate, static partitioning vs IvLeague.

Over a grid of (system memory, number of domains) at several levels of
total memory utilization, draw random per-domain footprints and ask
whether the scheme can host them without swapping.

Paper result: static partitioning only succeeds at low utilization
(<20%) and few domains (<32); IvLeague stays above 98% everywhere
(4096 TreeLings).
"""

from __future__ import annotations

from repro.analysis.scalability import (SuccessConfig,
                                        ivleague_success_rate,
                                        static_success_rate)
from repro.experiments.common import format_table, print_header

MEMORIES_GB = [8, 32, 128, 256]
DOMAINS = [8, 32, 128]
UTILIZATIONS = [0.2, 0.4, 0.6, 0.8]


def compute(trials: int = 100, n_treelings: int = 4096,
            treeling_mb: int = 64) -> list[dict]:
    rows = []
    for util in UTILIZATIONS:
        for mem_gb in MEMORIES_GB:
            for n_dom in DOMAINS:
                cfg = SuccessConfig(
                    memory_bytes=mem_gb * 1024 ** 3,
                    n_domains=n_dom,
                    utilization=util,
                    n_partitions=n_dom,  # best case for static: one each
                    n_treelings=n_treelings,
                    treeling_bytes=treeling_mb * 1024 ** 2,
                )
                rows.append({
                    "utilization": util,
                    "memory": f"{mem_gb}GB",
                    "domains": n_dom,
                    "static": static_success_rate(cfg, trials=trials),
                    "ivleague": ivleague_success_rate(cfg, trials=trials),
                })
    return rows


def main(trials: int = 100) -> list[dict]:
    rows = compute(trials=trials)
    print_header("Fig. 22 -- Scheduling success rate: "
                 "static partitioning vs IvLeague")
    print(format_table(rows, floatfmt=".2f"))
    ivmin = min(r["ivleague"] for r in rows)
    print(f"\nIvLeague minimum success rate across the grid: {ivmin:.2f}")
    return rows
