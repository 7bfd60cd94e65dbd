"""Table II: the 16 multiprogrammed workload mixes and their classes."""

from __future__ import annotations

from repro.experiments.common import format_table, print_header
from repro.sim.config import PAGE_BYTES
from repro.workloads.mixes import MIXES, mix_footprint_pages, size_class


def compute() -> list[dict]:
    rows = []
    for mix, benches in MIXES.items():
        pages = mix_footprint_pages(mix)
        rows.append({
            "mix": mix,
            "class": size_class(mix),
            "benchmarks": "-".join(benches),
            "footprint_pages": pages,
            "footprint": f"{pages * PAGE_BYTES / 1024 ** 2:.0f}MB",
        })
    return rows


def main() -> list[dict]:
    rows = compute()
    print_header("Table II -- Multiprogrammed workloads (scaled footprints)")
    print(format_table(rows))
    return rows
