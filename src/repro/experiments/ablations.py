"""Ablation studies beyond the paper's figures (DESIGN.md Section 6).

* :func:`nflb_size` -- NFLB entries per domain (1/2/4/8): extends
  Fig. 18 by showing where the paper's choice of 2 sits.
* :func:`tracker_size` -- hotpage-tracker entries: extends IvLeague-Pro
  (the paper fixes 128 and defers to "more advanced detectors").
* :func:`hot_region_size` -- reserved hot slots per TreeLing: the
  capacity/coverage trade-off of the Pro hot region.
* :func:`frame_environment` -- fresh-boot vs steady-state vs fully
  random frame placement: quantifies how much of the static baseline's
  performance depends on OS-provided contiguity, and shows IvLeague's
  placement-independence.

Each study is a pure sweep over configuration variants, so each batches
its whole (variant x mix) grid through :func:`runner.run_cells` — one
``--jobs N`` fan-out per study, with every cell landing in the
persistent result cache.
"""

from __future__ import annotations

from repro.experiments import runner
from repro.experiments.common import format_table, get_scale, print_header
from repro.experiments.parallel import CellFailure, scale_cell
from repro.sim.config import scaled_config
from repro.sim.stats import geomean

DEFAULT_MIXES = ["S-2", "M-1"]


def _grid(sc, mixes, scheme, variants, frame_policy=None):
    """Run (variant x mix) cells in one batch; yields
    ``(variant_id, mix, RunResult)`` in variant-major order."""
    cells, tags = [], []
    for vid, cfg in variants:
        for mix in mixes:
            cells.append(scale_cell(mix, scheme, sc, config=cfg,
                                    frame_policy=frame_policy))
            tags.append((vid, mix))
    outcomes = runner.run_cells(cells)
    return [(vid, mix, outcome)
            for (vid, mix), outcome in zip(tags, outcomes)]


def nflb_size(scale="quick", mixes=None,
              sizes=(1, 2, 4, 8)) -> list[dict]:
    sc = get_scale(scale)
    mixes = list(mixes or DEFAULT_MIXES)
    variants = [(n, scaled_config(n_cores=sc.n_cores).with_ivleague(
        nflb_entries=n)) for n in sizes]
    results = _grid(sc, mixes, "ivleague-basic", variants)
    rows = []
    for entries in sizes:
        hits = [r for vid, _, r in results if vid == entries]
        rows.append({
            "nflb_entries": entries,
            "nflb_hit_rate": geomean([r.engine.nflb_hit_rate for r in hits]),
            "ipc_sum": geomean([sum(r.ipcs) for r in hits]),
        })
    base = rows[0]["ipc_sum"]
    for r in rows:
        r["ipc_vs_1_entry"] = r.pop("ipc_sum") / base
    return rows


def tracker_size(scale="quick", mixes=None,
                 sizes=(64, 128, 256, 512)) -> list[dict]:
    sc = get_scale(scale)
    mixes = list(mixes or DEFAULT_MIXES)
    variants = [(n, scaled_config(n_cores=sc.n_cores).with_ivleague(
        hot_tracker_entries=n)) for n in sizes]
    results = _grid(sc, mixes, "ivleague-pro", variants)
    rows = []
    for entries in sizes:
        hits = [r for vid, _, r in results if vid == entries]
        rows.append({
            "tracker_entries": entries,
            "hot_migrations": sum(r.engine.hot_migrations for r in hits),
            "avg_path": sum(r.engine.avg_path_length
                            for r in hits) / len(hits),
        })
    return rows


def hot_region_size(scale="quick", mixes=None,
                    sizes=(8, 16, 32, 64)) -> list[dict]:
    sc = get_scale(scale)
    mixes = list(mixes or DEFAULT_MIXES)
    variants = [(n, scaled_config(n_cores=sc.n_cores).with_ivleague(
        hot_region_slots=n)) for n in sizes]
    results = _grid(sc, mixes, "ivleague-pro", variants)
    rows = []
    for slots in sizes:
        hits = [r for vid, _, r in results if vid == slots]
        rows.append({
            "hot_slots_per_treeling": slots,
            "avg_path": sum(r.engine.avg_path_length
                            for r in hits) / len(hits),
            "ipc_sum": geomean([sum(r.ipcs) for r in hits]),
        })
    base = rows[0]["ipc_sum"]
    for r in rows:
        r["ipc_vs_smallest"] = r.pop("ipc_sum") / base
    return rows


def frame_environment(scale="quick", mixes=None) -> list[dict]:
    sc = get_scale(scale)
    mixes = list(mixes or DEFAULT_MIXES)
    policies = ("sequential", "fragmented", "random")
    schemes = ("baseline", "ivleague-pro")
    cells, tags = [], []
    for policy in policies:
        for scheme in schemes:
            for mix in mixes:
                cells.append(scale_cell(mix, scheme, sc,
                                        frame_policy=policy))
                tags.append((policy, scheme, mix))
    outcomes = runner.run_cells(cells)
    by_tag = dict(zip(tags, outcomes))
    rows = []
    for policy in policies:
        row = {"frame_policy": policy}
        for scheme in schemes:
            hits = [by_tag[(policy, scheme, m)] for m in mixes]
            row[f"{scheme}_path"] = sum(r.engine.avg_path_length
                                        for r in hits) / len(hits)
            row[f"{scheme}_ipc"] = geomean([sum(r.ipcs) for r in hits])
        rows.append(row)
    # normalise IPCs to the sequential environment
    for scheme in schemes:
        ref = rows[0][f"{scheme}_ipc"]
        for r in rows:
            r[f"{scheme}_ipc"] = r[f"{scheme}_ipc"] / ref
    return rows


def static_partition_comparison(scale="quick", mixes=None,
                                n_partitions: int = 16) -> list[dict]:
    """Run the *timing* static-partitioning comparator.

    With many partitions each chunk is small: domains whose footprint
    exceeds it fail outright (the live form of Fig. 22); domains that
    fit run with baseline-like performance but frozen flexibility.
    An overflowing partition comes back as a :class:`CellFailure`, the
    same 'x' data point the paper plots.
    """
    sc = get_scale(scale)
    mixes = list(mixes or DEFAULT_MIXES + ["L-1"])
    scheme = f"static-partition:{n_partitions}"
    cells = [scale_cell(mix, s, sc)
             for mix in mixes for s in ("baseline", scheme)]
    outcomes = runner.run_cells(cells)
    by_cell = {(c.mix, c.scheme): o for c, o in zip(cells, outcomes)}
    cfg = scaled_config(n_cores=sc.n_cores)
    rows = []
    for mix in mixes:
        row = {"mix": mix,
               "partition_pages": cfg.memory_pages // n_partitions}
        outcome = by_cell[(mix, scheme)]
        if isinstance(outcome, CellFailure):
            row["static_vs_baseline"] = "x (partition overflow)"
        else:
            row["static_vs_baseline"] = outcome.weighted_ipc(
                by_cell[(mix, "baseline")])
        rows.append(row)
    return rows


def main(scale="quick", mixes=None):
    print_header("Ablation: NFLB size (extends Fig. 18)")
    print(format_table(nflb_size(scale, mixes)))
    print_header("Ablation: hotpage tracker size (extends Sec. VII-B)")
    print(format_table(tracker_size(scale, mixes)))
    print_header("Ablation: hot-region size per TreeLing")
    print(format_table(hot_region_size(scale, mixes)))
    print_header("Ablation: frame-placement environment")
    print(format_table(frame_environment(scale, mixes)))
    print_header("Ablation: live static-partitioning comparator")
    print(format_table(static_partition_comparison(scale, mixes)))
