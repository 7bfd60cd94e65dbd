"""Fig. 16: average integrity-verification path length per benchmark.

Paper result: Baseline averages 1.42/1.57/1.85 for S/M/L benchmarks;
IvLeague-Basic 1.31/1.52/2.0; Invert 1.15/1.27/1.92; Pro 1.08/1.10/1.22.
Path length counts the tree-node blocks read and verified up to the
first trusted (on-chip) node, per verification transaction.
"""

from __future__ import annotations

from collections import defaultdict

from repro.experiments.common import format_table, get_scale, print_header
from repro.experiments.runner import SCHEMES, run_all
from repro.workloads.benchmarks import PROFILES


def compute(scale="quick", mixes=None, frame_policy=None) -> list[dict]:
    results = run_all(scale, mixes=mixes, frame_policy=frame_policy)
    # benchmark -> scheme -> [verifs, visited] accumulated across mixes
    acc: dict[str, dict[str, list[int]]] = defaultdict(
        lambda: defaultdict(lambda: [0, 0]))
    for mix, per_scheme in results.items():
        for scheme, result in per_scheme.items():
            # per-benchmark aggregation counts each IV domain once even
            # when several cores (threads) share it
            for bench, (verifs, visited) in \
                    result.path_by_benchmark().items():
                acc[bench][scheme][0] += verifs
                acc[bench][scheme][1] += visited
    rows = []
    order = [b for b in PROFILES if b in acc]
    for bench in order:
        row = {"benchmark": bench, "suite": PROFILES[bench].suite}
        for scheme in SCHEMES:
            verifs, visited = acc[bench][scheme]
            row[scheme] = visited / verifs if verifs else 0.0
        rows.append(row)
    for suite in ("spec2017", "parsec", "gap"):
        sub = [r for r in rows if r["suite"] == suite]
        if sub:
            rows.append({"benchmark": f"avg-{suite}", "suite": suite, **{
                s: sum(r[s] for r in sub) / len(sub) for s in SCHEMES}})
    return rows


def main(scale="quick", mixes=None, frame_policy=None) -> list[dict]:
    rows = compute(scale, mixes, frame_policy)
    print_header(f"Fig. 16 -- Average IV path length per benchmark "
                 f"(scale={get_scale(scale).name})")
    print(format_table(rows))
    return rows
