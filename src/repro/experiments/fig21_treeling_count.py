"""Fig. 21: TreeLings required vs TreeLing size, memory and skewness.

Paper result: the required count drops steeply with TreeLing size up to
~64MB and then flattens -- beyond that point the count is dominated by
the number of domains, not coverage, so 64MB balances pool size against
per-TreeLing height.  Shown for 8GB and 32GB of memory and skewness
1.0/0.5/0.1 with 2^12 domains.
"""

from __future__ import annotations

from repro.analysis.scalability import treelings_for_skewness
from repro.experiments.common import format_table, print_header

SIZES_MB = [2, 8, 32, 128, 512, 2048]
SKEWNESS = [1.0, 0.5, 0.1]
MEMORIES_GB = [8, 32]


def compute(n_domains: int = 4096, trials: int = 16) -> list[dict]:
    rows = []
    for mem_gb in MEMORIES_GB:
        mem = mem_gb * 1024 ** 3
        for size_mb in SIZES_MB:
            size = size_mb * 1024 ** 2
            row = {"memory": f"{mem_gb}GB", "treeling": f"{size_mb}MB",
                   "min_full_coverage": -(-mem // size)}
            for sk in SKEWNESS:
                row[f"skew={sk}"] = treelings_for_skewness(
                    size, mem, sk, n_domains=n_domains, trials=trials)
            rows.append(row)
    return rows


def main(n_domains: int = 4096, trials: int = 16) -> list[dict]:
    rows = compute(n_domains, trials)
    print_header("Fig. 21 -- Required TreeLings vs size and skewness "
                 f"({n_domains} domains)")
    print(format_table(rows, floatfmt=".0f"))
    return rows
