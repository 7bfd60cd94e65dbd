"""Fig. 19: total memory accesses of IvLeague schemes normalized to
Baseline.

Paper result: IvLeague-Basic adds 14-25%, Invert 0-15%, and Pro
*reduces* traffic by 3-9% (fewer tree-node reads for hotpages).
"""

from __future__ import annotations

from repro.experiments.common import format_table, get_scale, print_header
from repro.experiments.runner import SCHEMES, run_all
from repro.sim.stats import geomean
from repro.workloads.mixes import LARGE, MEDIUM, SMALL

IV_SCHEMES = [s for s in SCHEMES if s != "baseline"]


def compute(scale="quick", mixes=None, frame_policy=None) -> list[dict]:
    results = run_all(scale, mixes=mixes, frame_policy=frame_policy)
    rows = []
    for mix, per_scheme in results.items():
        base = per_scheme["baseline"].engine.total_dram_accesses
        rows.append({"mix": mix, **{
            s: per_scheme[s].engine.total_dram_accesses / base
            for s in IV_SCHEMES}})
    for cls_name, cls in (("gmeanS", SMALL), ("gmeanM", MEDIUM),
                          ("gmeanL", LARGE)):
        sub = [r for r in rows if r["mix"] in cls]
        if sub:
            rows.append({"mix": cls_name, **{
                s: geomean([r[s] for r in sub]) for s in IV_SCHEMES}})
    return rows


def main(scale="quick", mixes=None, frame_policy=None) -> list[dict]:
    rows = compute(scale, mixes, frame_policy)
    print_header(f"Fig. 19 -- Total memory accesses vs Baseline "
                 f"(scale={get_scale(scale).name})")
    print(format_table(rows))
    return rows
