"""Fig. 17: effectiveness of the NFL design.

(a) Weighted IPC of IvLeague with the NFL versus the naive bit-vector
    allocators BV-v1/BV-v2, normalized to Baseline.  Paper: BV-v2 loses
    33-47%, BV-v1 *fails to run* (TreeLing starvation) on every Medium
    and Large workload; NFL gains 6-18%.
(b) TreeLing slot utilization with the NFL (>99.99%) and the absolute
    number of untracked slots (17-52 in the paper).

All cells (baseline reference + three allocators per mix) go through
the parallel runner in one batch; a starved allocator comes back as a
:class:`~repro.experiments.parallel.CellFailure` data point rather than
an exception, so one starvation cannot abort the sweep.
"""

from __future__ import annotations

from repro.experiments import runner
from repro.experiments.common import format_table, get_scale, print_header
from repro.experiments.parallel import CellFailure, scale_cell

DEFAULT_MIXES = ["S-2", "M-1", "L-2"]

#: Display label -> scheme name understood by the execution engine.
ALLOCATORS = {
    "NFL": "ivleague-basic",
    "BV-v1": "ivleague-bv1",
    "BV-v2": "ivleague-bv2",
}


def compute(scale="quick", mixes=None, frame_policy=None
            ) -> tuple[list[dict], list[dict]]:
    sc = get_scale(scale)
    mixes = list(mixes or DEFAULT_MIXES)
    schemes = ["baseline", *ALLOCATORS.values()]
    cells = [scale_cell(mix, scheme, sc, frame_policy=frame_policy)
             for mix in mixes for scheme in schemes]
    outcomes = runner.run_cells(cells)
    by_cell = {(c.mix, c.scheme): o for c, o in zip(cells, outcomes)}

    perf_rows, util_rows = [], []
    for mix in mixes:
        base = by_cell[(mix, "baseline")]
        row = {"mix": mix}
        for label, scheme in ALLOCATORS.items():
            outcome = by_cell[(mix, scheme)]
            if isinstance(outcome, CellFailure):
                row[label] = "x (starved)"
                continue
            row[label] = outcome.weighted_ipc(base)
            if label == "NFL":
                util_rows.append({
                    "mix": mix,
                    "utilization":
                        outcome.engine_metrics["treeling_utilization"],
                    "untracked_slots":
                        outcome.engine_metrics["untracked_slots"],
                })
        perf_rows.append(row)
    return perf_rows, util_rows


def main(scale="quick", mixes=None, frame_policy=None):
    perf, util = compute(scale, mixes, frame_policy)
    print_header(f"Fig. 17a -- NFL vs bit-vector allocators, weighted IPC "
                 f"vs Baseline (scale={get_scale(scale).name})")
    print(format_table(perf))
    print_header("Fig. 17b -- TreeLing utilization and untracked slots")
    print(format_table(util, floatfmt=".6f"))
    return perf, util
