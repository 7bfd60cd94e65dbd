"""Fig. 15: weighted IPC of every scheme, normalized to Baseline.

Paper result: IvLeague-Basic loses 2.7%-5.5% (S/M) and 17.4% (L);
IvLeague-Invert recovers to +8.2% (S) / +3.4% (M) / -13.2% (L);
IvLeague-Pro gains up to 19% (14% on average).

Our default environment is the steady-state *fragmented* machine (see
DESIGN.md Section 2); passing ``frame_policy='sequential'`` reproduces
the paper's fresh-boot placement, and the pair brackets the paper's
numbers.
"""

from __future__ import annotations

from repro.experiments.common import format_table, get_scale, print_header
from repro.experiments.runner import SCHEMES, run_all
from repro.sim.stats import geomean
from repro.workloads.mixes import ALL, LARGE, MEDIUM, SMALL


def compute(scale="quick", mixes=None, frame_policy=None) -> list[dict]:
    results = run_all(scale, mixes=mixes, frame_policy=frame_policy)
    rows = []
    for mix, per_scheme in results.items():
        base = per_scheme["baseline"]
        row = {"mix": mix}
        for scheme in SCHEMES:
            row[scheme] = per_scheme[scheme].weighted_ipc(base)
        rows.append(row)
    # per-class geometric means, as in the paper's gmeanS/M/L bars
    for cls_name, cls in (("gmeanS", SMALL), ("gmeanM", MEDIUM),
                          ("gmeanL", LARGE)):
        present = [r for r in rows if r["mix"] in cls]
        if present:
            rows.append({"mix": cls_name, **{
                s: geomean([r[s] for r in present]) for s in SCHEMES}})
    return rows


def main(scale="quick", mixes=None, frame_policy=None) -> list[dict]:
    rows = compute(scale, mixes, frame_policy)
    sc = get_scale(scale)
    env = frame_policy or sc.frame_policy
    print_header(f"Fig. 15 -- Weighted IPC normalized to Baseline "
                 f"(scale={sc.name}, frames={env})")
    print(format_table(rows))
    return rows
