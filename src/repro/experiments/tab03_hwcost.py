"""Table III: on-chip hardware cost of the IvLeague components."""

from __future__ import annotations

from repro.analysis.hwcost import (cost_table, locked_root_bytes,
                                   offchip_overhead_fraction, total_area)
from repro.experiments.common import format_table, print_header
from repro.sim.config import paper_config


def compute(config=None) -> list[dict]:
    cfg = config or paper_config()
    rows = [{"component": r.component, "storage": r.storage_str,
             "area_mm2": r.area_mm2} for r in cost_table(cfg)]
    return rows


def main(config=None) -> list[dict]:
    cfg = config or paper_config()
    rows = compute(cfg)
    print_header("Table III -- On-chip hardware cost (45nm)")
    print(format_table(rows, floatfmt=".4f"))
    print(f"\ntotal added area: {total_area(cfg):.4f} mm^2")
    print(f"IV-cache ways locked for TreeLing roots: "
          f"{locked_root_bytes(cfg) // 1024}KB (reserved, not added)")
    print(f"off-chip NFL metadata: "
          f"{offchip_overhead_fraction(cfg) * 100:.3f}% of system memory")
    return rows
