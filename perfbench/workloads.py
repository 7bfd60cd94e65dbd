"""Workload definitions: which cells each benchmark workload runs, and how
one cell is built from the package's public pieces.

The sweep workload runs standard quick-scale ``scale_cell`` cells with
fragmented frames; ``oracle-traced`` runs lockstep replays through the
differential oracle.  Every input is a pure function of the workload
seed, so one seed always yields the same cells.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, replace

PAPER_ENGINES = ("baseline", "ivleague-basic", "ivleague-invert",
                 "ivleague-pro")

#: Sweep workload -> (mixes, schemes); cells are the cross product.
SWEEPS = {
    # Graph footprints miss the metadata caches: verify walks, tree-node
    # DRAM reads, NFL allocation and TLB walks dominate, on top of the
    # per-access work every cell does.  Runs the static-tree comparators.
    "gap-large": (("L-1", "L-2"),
                  PAPER_ENGINES + ("sgx-counter-tree", "vault")),
}

ORACLE = "oracle-traced"

#: All nine engines.  ``static-partition`` is covered here only: every
#: quick-scale sweep cell of it raises PartitionOverflow at this commit
#: (a freed page's late write-back is charged to the requesting domain).
ORACLE_ENGINES = PAPER_ENGINES + ("sgx-counter-tree", "vault",
                                  "static-partition", "ivleague-bv1",
                                  "ivleague-bv2")

WORKLOADS = tuple(SWEEPS) + (ORACLE,)


@dataclass(frozen=True)
class Replay:
    """One engine's lockstep replay, in the style of
    :func:`repro.sim.oracle.verify_scheme`.  M-4 at 1600 accesses per
    core is long enough for dedup to free pages."""

    scheme: str
    seed: int
    mix: str = "M-4"
    n_accesses: int = 1600
    scale: float = 0.05
    checkpoint_every: int = 256
    frame_policy: str = "random"
    engine_seed: int = 11


def specs(workload: str, seed: int) -> list:
    """The workload's cells (sweep ``Cell`` objects or ``Replay`` specs)."""
    if workload == ORACLE:
        return [Replay(scheme, seed) for scheme in ORACLE_ENGINES]
    from repro.experiments.common import QUICK
    from repro.experiments.parallel import scale_cell

    mixes, schemes = SWEEPS[workload]
    sc = replace(QUICK, seed=seed)
    return [scale_cell(m, s, sc) for m in mixes for s in schemes]


def replay_key(spec: Replay) -> str:
    return hashlib.sha256(repr(spec).encode()).hexdigest()[:32]


class NullRecorder:
    """Stand-in for :class:`spans.Recorder` when nothing is traced."""

    def span(self, name):
        return nullcontext()

    def instrument_engine(self, engine) -> None:
        pass


NO_TRACE = NullRecorder()


def _new_simulator(cfg, engine, cell):
    # The sweep runner's own constructor while it exists; the plain
    # Simulator once the simulator cores are merged into one.
    try:
        from repro.sim.batched import core_from_env, make_simulator
    except ImportError:
        from repro.sim.simulator import Simulator
        return Simulator(cfg, engine, seed=cell.seed,
                         frame_policy=cell.frame_policy)
    return make_simulator(core_from_env(), cfg, engine, seed=cell.seed,
                          frame_policy=cell.frame_policy)


def build_cell(cell, rec=NO_TRACE):
    """(workload, engine, simulator) for a sweep cell, built the way
    ``run_cell`` builds it."""
    from repro.experiments.parallel import resolve_engine
    from repro.workloads.mixes import build_mix

    cfg = cell.resolve_config()
    with rec.span("workloads.build_mix"):
        workload = build_mix(cell.mix, n_accesses=cell.n_accesses,
                             seed=cell.seed)
    with rec.span("engine.init"):
        engine = resolve_engine(cell.scheme)(cfg, seed=cell.engine_seed)
    rec.instrument_engine(engine)
    with rec.span("sim.init"):
        sim = _new_simulator(cfg, engine, cell)
    return workload, engine, sim


def build_replay(spec: Replay, rec=NO_TRACE):
    """(workload, engine, oracle) for one lockstep replay."""
    from repro.experiments.parallel import resolve_engine
    from repro.sim.config import tiny_config
    from repro.sim.oracle import DifferentialOracle
    from repro.workloads.mixes import build_mix

    cfg = tiny_config(n_cores=4)
    with rec.span("workloads.build_mix"):
        workload = build_mix(spec.mix, n_accesses=spec.n_accesses,
                             seed=spec.seed, scale=spec.scale)
    with rec.span("engine.init"):
        engine = resolve_engine(spec.scheme)(cfg, seed=spec.engine_seed)
    rec.instrument_engine(engine)
    with rec.span("sim.init"):
        oracle = DifferentialOracle(cfg, engine, seed=spec.seed,
                                    checkpoint_every=spec.checkpoint_every,
                                    frame_policy=spec.frame_policy)
    return workload, engine, oracle


def replay_outcome(report, oracle) -> dict:
    """What a replay caches: the oracle's report plus its registry."""
    return {"report": report.to_dict(),
            "registry_snapshot": oracle.registry.snapshot()}


def replay(spec: Replay) -> dict:
    """``execute_tasks`` worker for the oracle workload."""
    workload, _, oracle = build_replay(spec)
    return replay_outcome(oracle.run(workload), oracle)


def engine_metrics(engine) -> dict:
    """The engine scalars ``run_cell`` attaches to its result."""
    from repro.experiments import parallel

    attach = getattr(parallel, "_engine_metrics", None)
    return attach(engine) if attach is not None else {}


# -- output checks -----------------------------------------------------------

def outcome_dict(outcome) -> dict:
    return outcome if isinstance(outcome, dict) else outcome.to_dict()


def digest(outcome) -> str:
    blob = json.dumps(outcome_dict(outcome), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def failure_of(outcome):
    """Failure kind for an outcome, or None when it is a good result."""
    from repro.experiments.parallel import CellFailure

    if isinstance(outcome, CellFailure):
        return outcome.kind
    if isinstance(outcome, dict) and not outcome["report"]["ok"]:
        return "oracle-disagreement"
    return None


def _sum_cores(snap: dict, field: str) -> int:
    return sum(v[field] for k, v in snap.items() if k.startswith("cores."))


def op_counts(outcome) -> dict:
    """Modelled operations of one good outcome (deterministic)."""
    d = outcome_dict(outcome)
    snap = d["registry_snapshot"]
    eng = snap.get("engine", {})
    dram = snap.get("dram", {})
    if "report" in d:
        # Every oracle op is one engine data access.
        accesses = d["report"]["ops"]
        misses = eng.get("data_reads", 0) + eng.get("data_writes", 0)
    else:
        accesses = _sum_cores(snap, "mem_accesses")
        misses = _sum_cores(snap, "llc_misses")
    return {
        "accesses": accesses,
        "llc_misses": misses,
        "verifications": eng.get("verifications", 0),
        "tree_node_dram_reads": eng.get("tree_node_dram_reads", 0),
        "page_allocs": eng.get("page_allocs", 0),
        "page_frees": eng.get("page_frees", 0),
        "dram_reads": dram.get("reads", 0),
        "dram_writes": dram.get("writes", 0),
    }


def layer_counts(outcome) -> dict:
    """Hit/miss counters behind the per-layer ratios."""
    snap = outcome_dict(outcome)["registry_snapshot"]
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for name, layer in (("llc", "llc"), ("ctr$", "ctr_cache"),
                        ("tree$", "tree_cache"), ("mac$", "mac_cache"),
                        ("lmm$", "lmm"), ("tlb", "tlb")):
        group = snap.get(name, {})
        add(f"{layer}.hits", group.get("hits", 0))
        add(f"{layer}.misses", group.get("misses", 0))
    for name, group in snap.items():
        if name.startswith("nflb."):
            add("nflb.hits", group["hits"])
            add("nflb.misses", group["misses"])
    dram = snap.get("dram", {})
    add("dram.row_hits", dram.get("row_hits", 0))
    add("dram.row_misses", dram.get("row_misses", 0))
    eng = snap.get("engine", {})
    add("engine.verifications", eng.get("verifications", 0))
    add("engine.tree_node_dram_reads", eng.get("tree_node_dram_reads", 0))
    return out
