"""Golden digests: every engine's results, pinned bit for bit.

Each engine runs three seeded streams, and the suite compares a SHA-256
of canonical JSON (``sort_keys``, no ``repr`` fallback, so the digest is
the same on every supported Python) against ``golden_digests.json``:

* ``untraced`` -- the M-2 stream (400 accesses per core, seed 3,
  warm-up 100) on the batched core with no tracer or profiler: the full
  ``RunResult.to_dict()``, the registry snapshot and the per-class
  latency histograms (summary and raw buckets);
* ``traced`` -- the S-1 stream under an :class:`EventTracer`: every
  domain's canonical observable trace plus the registry snapshot;
* ``oracle`` -- one :class:`DifferentialOracle` lockstep replay of M-4
  (1600 accesses per core, so dedup's churn frees pages; page
  re-encryption and VAULT's upper-counter overflow forced every 16
  writes): the report and the oracle's registry snapshot.

A profiled run of the untraced stream must reproduce the untraced
digest exactly and report the pinned phase names.

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
from repro.sim.batched import BatchedSimulator
from repro.sim.config import tiny_config
from repro.sim.oracle import DifferentialOracle
from repro.sim.profiler import PhaseProfiler
from repro.sim.simulator import Simulator
from repro.sim.trace import EventTracer
from repro.workloads.mixes import build_mix

from tests.test_batched import ALL_NINE

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


def _sweep_run(scheme, profiler=None):
    cfg, engine = _build(scheme)
    workload = build_mix("M-2", n_accesses=400, seed=3, scale=0.05)
    sim = BatchedSimulator(cfg, engine, seed=3,
                           frame_policy=_frame_policy(scheme),
                           profiler=profiler)
    result = sim.run(workload, warmup=100)
    hists = {name: {"summary": h.to_dict(),
                    "buckets": sorted(h.counts.items())}
             for name, h in sim._class_hist.items()}
    return {"result": result.to_dict(),
            "registry": sim.registry.snapshot(),
            "hists": hists}


def untraced_digest(scheme) -> str:
    return digest(_sweep_run(scheme))


def profiled_run(scheme) -> tuple[str, list[str]]:
    """Digest of the profiled untraced stream and its phase names."""
    prof = PhaseProfiler()
    return digest(_sweep_run(scheme, prof)), sorted(prof.phase_calls)


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
def test_profiled_stream_matches_untraced_golden(scheme):
    want = _golden()[scheme]
    got, phases = profiled_run(scheme)
    assert got == want["untraced"], "profiling changed the simulation"
    assert phases == want["phases"]


@pytest.mark.parametrize("scheme", ALL_NINE)
def test_traced_observables_match_golden(scheme):
    assert traced_digest(scheme) == _golden()[scheme]["traced"]


@pytest.mark.parametrize("scheme", ALL_NINE)
def test_oracle_replay_matches_golden(scheme):
    assert oracle_digest(scheme) == _golden()[scheme]["oracle"]


def main() -> None:
    golden = {}
    for scheme in ALL_NINE:
        untraced = untraced_digest(scheme)
        profiled, phases = profiled_run(scheme)
        if profiled != untraced:
            raise SystemExit(f"{scheme}: profiling changed the simulation")
        golden[scheme] = {"untraced": untraced, "phases": phases,
                          "traced": traced_digest(scheme),
                          "oracle": oracle_digest(scheme)}
        print(scheme, golden[scheme])
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True)
                           + "\n")


if __name__ == "__main__":
    main()
