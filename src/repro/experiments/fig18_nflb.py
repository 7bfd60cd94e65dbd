"""Fig. 18: NFLB hit rate per workload and IvLeague scheme.

Paper result: 91-96.5% average for Small/Medium, at least 86.9% for
Large (page deallocations from more diverse ranges lower the rate).
"""

from __future__ import annotations

from repro.experiments.common import format_table, get_scale, print_header
from repro.experiments.runner import run_all
from repro.sim.stats import geomean
from repro.workloads.mixes import LARGE, MEDIUM, SMALL

IV_SCHEMES = ["ivleague-basic", "ivleague-invert", "ivleague-pro"]


def compute(scale="quick", mixes=None, frame_policy=None) -> list[dict]:
    results = run_all(scale, mixes=mixes, schemes=IV_SCHEMES,
                      frame_policy=frame_policy)
    rows = []
    for mix, per_scheme in results.items():
        rows.append({"mix": mix, **{
            s: per_scheme[s].engine.nflb_hit_rate for s in IV_SCHEMES}})
    for cls_name, cls in (("gmeanS", SMALL), ("gmeanM", MEDIUM),
                          ("gmeanL", LARGE)):
        sub = [r for r in rows if r["mix"] in cls]
        if sub:
            rows.append({"mix": cls_name, **{
                s: geomean([r[s] for r in sub]) for s in IV_SCHEMES}})
    return rows


def main(scale="quick", mixes=None, frame_policy=None) -> list[dict]:
    rows = compute(scale, mixes, frame_policy)
    print_header(f"Fig. 18 -- NFLB hit rate "
                 f"(scale={get_scale(scale).name})")
    print(format_table(rows))
    return rows
