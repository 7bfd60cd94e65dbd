"""Golden digests: every engine's results, pinned bit for bit.

Each engine runs four seeded streams, and the suite compares a SHA-256
of canonical JSON (``sort_keys``, no ``repr`` fallback, so the digest is
the same on every supported Python) against ``golden_digests.json``:

* ``untraced`` -- the M-2 stream (400 accesses per core, seed 3,
  warm-up 100) with no tracer: the full
  ``RunResult.to_dict()``, the registry snapshot and the per-class
  latency histograms (summary and raw buckets);
* ``churn`` -- the same for the M-1 stream (1600 accesses per core,
  seed 3, warm-up 100), long enough that dedup's churn frees pages and
  later accesses refault them;
* ``traced`` -- the S-1 stream under an :class:`EventTracer`: every
  domain's canonical observable trace plus the registry snapshot;
* ``events`` -- the traced M-1 stream: the full event list of an
  unbounded :class:`EventTracer` (every category, churn frees included)
  plus the registry snapshot.  The same run checks the verify walk's
  events against its counters (one ``tree.node`` event per node read,
  one ``tree.counter_hit``/``counter_miss`` per probe, counted after
  the warm-up reset) and, for IvLeague, that every node event names a
  TreeLing of the walking domain;
* ``oracle`` -- one :class:`DifferentialOracle` lockstep replay of M-4
  (1600 accesses per core, so dedup's churn frees pages; page
  re-encryption and VAULT's upper-counter overflow forced every 16
  writes): the report and the oracle's registry snapshot.

A run of the M-2 and M-1 streams inside the sampling profiler's
:class:`Sampler` must reproduce the ``untraced`` and ``churn`` digests
exactly.

Tracing changes only what the simulator's one drain loop reports, and
sampling changes nothing, so these digests are its determinism spec.

The streams come from numpy's seeded generators, so a numpy release
that changed a ``Generator`` stream would change the digests too.

Regenerate (only for an intended behaviour change, and say why in the
change log) with ``PYTHONPATH=src python -m tests.test_golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.parallel import resolve_engine
from repro.obs.observables import project_events
from repro.sim.config import tiny_config
from repro.sim.oracle import DifferentialOracle
from repro.sim.profiler import Sampler
from repro.sim.simulator import Simulator
from repro.sim.trace import EventTracer
from repro.workloads.mixes import build_mix

#: All nine engines across the five scheme families (paper engines,
#: comparators, bit-vector allocator ablations).
ALL_NINE = [
    "baseline",
    "ivleague-basic",
    "ivleague-invert",
    "ivleague-pro",
    "ivleague-bv1",
    "ivleague-bv2",
    "sgx-counter-tree",
    "vault",
    "static-partition",
]

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _build(scheme):
    cfg = tiny_config(n_cores=4)
    return cfg, resolve_engine(scheme)(cfg, seed=11)


def _frame_policy(scheme):
    return ("sequential" if scheme.startswith("static-partition")
            else "fragmented")


#: Untraced streams: mix -> (accesses per core, digest key).
STREAMS = {"M-2": (400, "untraced"), "M-1": (1600, "churn")}


def _sweep_run(scheme, mix="M-2"):
    cfg, engine = _build(scheme)
    workload = build_mix(mix, n_accesses=STREAMS[mix][0], seed=3,
                         scale=0.05)
    sim = Simulator(cfg, engine, seed=3, frame_policy=_frame_policy(scheme))
    result = sim.run(workload, warmup=100)
    hists = {name: {"summary": h.to_dict(),
                    "buckets": sorted(h.counts.items())}
             for name, h in sim._class_hist.items()}
    return {"result": result.to_dict(),
            "registry": sim.registry.snapshot(),
            "hists": hists}


def untraced_digest(scheme, mix="M-2") -> str:
    return digest(_sweep_run(scheme, mix))


def traced_digest(scheme) -> str:
    cfg, engine = _build(scheme)
    tracer = EventTracer(limit=None)
    sim = Simulator(cfg, engine, seed=3, frame_policy=_frame_policy(scheme),
                    tracer=tracer)
    sim.run(build_mix("S-1", n_accesses=400, seed=3, scale=0.05),
            warmup=100)
    traces, problems = project_events(tracer.events())
    assert problems == [], problems[:5]
    return digest({"observables": {str(d): t.canonical()
                                   for d, t in traces.items()},
                   "registry": sim.registry.snapshot()})


def _check_walk_events(engine, events, measured_from: int) -> None:
    """The walk's events agree with its counters, which count from the
    warm-up reset on, and an IvLeague walk stays in its own TreeLings."""
    def walk(name, evs):
        return [e for e in evs if e["cat"] == "tree" and e["name"] == name]

    measured = events[measured_from:]
    s = engine.stats
    assert len(walk("node", measured)) == s.tree_node_dram_reads
    assert len(walk("counter_miss", measured)) == s.counter_misses
    assert len(walk("counter_hit", measured)) == s.counter_hits
    if hasattr(engine, "pool"):
        nodes = walk("node", events)
        assert nodes
        outside = [e for e in nodes if e["args"]["treeling"]
                   not in engine.pool.treelings_of(e["args"]["domain"])]
        assert outside == []


def events_digest(scheme) -> str:
    cfg, engine = _build(scheme)
    tracer = EventTracer(limit=None)
    sim = Simulator(cfg, engine, seed=3, frame_policy=_frame_policy(scheme),
                    tracer=tracer)
    # Note how many events precede the warm-up reset of the counters.
    measured_from = []
    reset_all = sim.registry.reset_all

    def reset_and_mark():
        measured_from.append(tracer.emitted)
        reset_all()

    sim.registry.reset_all = reset_and_mark
    sim.run(build_mix("M-1", n_accesses=1600, seed=3, scale=0.05),
            warmup=100)
    events = tracer.events()
    _check_walk_events(engine, events, measured_from[0])
    return digest({"events": events, "registry": sim.registry.snapshot()})


def oracle_digest(scheme) -> str:
    cfg, engine = _build(scheme)
    engine.overflow_writes_per_page = 16
    if scheme == "vault":
        engine.OVERFLOW_PERIOD = 16
    oracle = DifferentialOracle(cfg, engine, seed=3, checkpoint_every=100)
    report = oracle.run(build_mix("M-4", n_accesses=1600, seed=3,
                                  scale=0.05))
    return digest({"report": report.to_dict(),
                   "registry": oracle.registry.snapshot()})


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scheme", ALL_NINE)
def test_untraced_stream_matches_golden(scheme):
    assert untraced_digest(scheme) == _golden()[scheme]["untraced"]


@pytest.mark.parametrize("scheme", ALL_NINE)
def test_churn_stream_matches_golden(scheme):
    assert untraced_digest(scheme, "M-1") == _golden()[scheme]["churn"]


@pytest.mark.parametrize("scheme", ALL_NINE)
def test_sampled_stream_matches_untraced_golden(scheme):
    want = _golden()[scheme]
    for mix, (_, key) in STREAMS.items():
        with Sampler():
            got = untraced_digest(scheme, mix)
        assert got == want[key], f"{mix}: sampling changed the simulation"


@pytest.mark.parametrize("scheme", ALL_NINE)
def test_traced_observables_match_golden(scheme):
    assert traced_digest(scheme) == _golden()[scheme]["traced"]


@pytest.mark.parametrize("scheme", ALL_NINE)
def test_traced_event_stream_matches_golden(scheme):
    assert events_digest(scheme) == _golden()[scheme]["events"]


@pytest.mark.parametrize("scheme", ALL_NINE)
def test_oracle_replay_matches_golden(scheme):
    assert oracle_digest(scheme) == _golden()[scheme]["oracle"]


def main() -> None:
    golden = {}
    for scheme in ALL_NINE:
        entry = golden[scheme] = {}
        for mix, (_, key) in STREAMS.items():
            entry[key] = untraced_digest(scheme, mix)
        entry["traced"] = traced_digest(scheme)
        entry["events"] = events_digest(scheme)
        entry["oracle"] = oracle_digest(scheme)
        print(scheme, golden[scheme])
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True)
                           + "\n")


if __name__ == "__main__":
    main()
