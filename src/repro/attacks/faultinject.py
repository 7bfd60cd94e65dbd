"""Randomized fault-injection campaigns over the differential oracle.

A *campaign* replays a clean workload through
:class:`~repro.sim.oracle.DifferentialOracle` and, at every checkpoint
(a just-verified, known-clean state), injects physical tampers into the
functional model's untrusted state and probes whether the secure-memory
pipeline detects them:

* ``bitflip-ciphertext`` -- flip one bit of a stored ciphertext block
  (bus/DRAM corruption; caught by the MAC);
* ``bitflip-mac``        -- flip one bit of the stored MAC itself;
* ``bitflip-counter``    -- forge a minor counter in untrusted memory
  (caught by the hash tree);
* ``bitflip-treenode``   -- corrupt a stored tree-node hash;
* ``splice``             -- copy another block's (ciphertext, MAC) over
  the victim (caught by the address-keyed MAC);
* ``replay``             -- capture (ciphertext, MAC, counters), let the
  victim advance via a legitimate lockstep write, then restore the
  stale-but-consistent capsule (caught only by the tree).

Every injection is followed by a probe read that must raise
:class:`~repro.secure.functional.IntegrityViolation`; the pre-tamper
state is snapshotted and restored afterwards ("heal"), so the stream
continues from a clean state and later checkpoints stay meaningful.
Each checkpoint also runs a *control probe* against an untampered block
that must NOT raise -- zero false alarms is as much a part of the
contract as 100% detection.

The *model-fault* arm (:func:`model_fault_matrix`) turns the oracle on
itself: it injects engine-side bugs (``MODEL_FAULTS``) and asserts the
oracle's agreement checks flag them, proving the harness is sensitive
enough to be trusted.

Campaigns are deterministic functions of their :class:`CampaignSpec`,
so they ride the PR-3 parallel runner: :func:`run_campaigns` fans specs
out over a process pool through the persistent
:class:`~repro.experiments.parallel.ResultCache`.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from hashlib import sha256
from typing import Optional, Sequence

import numpy as np

from repro.sim.config import tiny_config
from repro.sim.oracle import (DEFAULT_SCHEMES, MODEL_FAULTS,
                              DifferentialOracle, verify_scheme)

#: Physical tamper kinds a campaign cycles through.
TAMPER_KINDS = ("bitflip-ciphertext", "bitflip-mac", "bitflip-counter",
                "bitflip-treenode", "splice", "replay")


# ---------------------------------------------------------------------------
# Specs and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignSpec:
    """One deterministic campaign: a (scheme, mix, seed) cell."""

    scheme: str
    mix: str
    seed: int = 0
    n_accesses: int = 400
    scale: float = 0.05
    checkpoint_every: int = 128
    tampers_per_checkpoint: int = 2
    #: lowered so short streams exercise the page re-encrypt contract
    overflow_writes_per_page: int = 48
    frame_policy: str = "random"


@dataclass
class CampaignResult:
    """Detection matrix for one campaign (picklable, JSON-able)."""

    scheme: str
    mix: str
    seed: int
    ops: int = 0
    checkpoints: int = 0
    #: tamper kind -> [injected, detected]
    detection: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)
    disagreements: list = field(default_factory=list)
    #: deterministic domain-model failure (e.g. TreeLing starvation)
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        if self.failure is not None or self.disagreements:
            return False
        if self.faults.get("missed", 0) or self.faults.get(
                "false_positives", 0):
            return False
        return all(inj == det for inj, det in self.detection.values())

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme, "mix": self.mix, "seed": self.seed,
            "ops": self.ops, "checkpoints": self.checkpoints,
            "ok": self.ok,
            "detection": {k: list(v) for k, v in self.detection.items()},
            "faults": dict(self.faults),
            "disagreements": list(self.disagreements),
            "failure": self.failure,
        }


# ---------------------------------------------------------------------------
# Tamper/heal primitives
# ---------------------------------------------------------------------------

@dataclass
class _BlockSnapshot:
    """Everything a tamper can touch for one block: ciphertext, MAC and
    the page's counter block.  Restoring it is the campaign's "heal"."""

    addr: int
    page: int
    ciphertext: Optional[bytes]
    mac: Optional[bytes]
    major: int
    minors: list[int]


def _snapshot(fsm, page: int, block: int) -> _BlockSnapshot:
    addr = fsm._block_addr(page, block)
    cb = fsm.counters.block(page)   # victims are written -> materialised
    return _BlockSnapshot(addr, page, fsm.dram.blocks.get(addr),
                          fsm._macs.stored(addr), cb.major,
                          list(cb.minors))


def _restore(fsm, snap: _BlockSnapshot) -> None:
    if snap.ciphertext is None:
        fsm.dram.blocks.pop(snap.addr, None)
    else:
        fsm.dram.blocks[snap.addr] = snap.ciphertext
    if snap.mac is None:
        fsm._macs._macs.pop(snap.addr, None)
    else:
        fsm._macs.tamper(snap.addr, snap.mac)
    cb = fsm.counters.block(snap.page)
    cb.major = snap.major
    cb.minors = list(snap.minors)


def _flip_bit(raw: bytes, rng: np.random.Generator) -> bytes:
    out = bytearray(raw)
    out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
    return bytes(out)


# ---------------------------------------------------------------------------
# The campaign hooks
# ---------------------------------------------------------------------------

class TamperCampaign:
    """Oracle checkpoint hooks that inject, probe and heal tampers."""

    def __init__(self, seed: int = 0,
                 kinds: Sequence[str] = TAMPER_KINDS,
                 per_checkpoint: int = 2) -> None:
        unknown = set(kinds) - set(TAMPER_KINDS)
        if unknown:
            raise ValueError(f"unknown tamper kinds: {sorted(unknown)}")
        self._rng = np.random.default_rng(seed * 7919 + 23)
        self.kinds = tuple(kinds)
        self.per_checkpoint = per_checkpoint
        #: kind -> [injected, detected]
        self.detection: dict[str, list[int]] = {k: [0, 0]
                                                for k in self.kinds}
        self._kind_no = 0

    def on_checkpoint(self, oracle: DifferentialOracle) -> None:
        # Victims must be written AND live: replay needs a legitimate
        # lockstep write to advance the victim, which needs its frame
        # still mapped (churn may have freed it).
        live = [(p, b) for p, b in oracle.victim_pool()
                if oracle.allocator.owner_of(p) is not None]
        if len(live) < 4:
            return   # warm up first; the stream will write soon enough
        for _ in range(self.per_checkpoint):
            kind = self.kinds[self._kind_no % len(self.kinds)]
            self._kind_no += 1
            self._inject(oracle, kind, live)
        # Control arm: an untampered probe that must stay silent.
        page, block = live[int(self._rng.integers(len(live)))]
        oracle.probe_read(page, block, expect_violation=False,
                          kind="clean")

    # -- one injection ------------------------------------------------------

    def _inject(self, oracle: DifferentialOracle, kind: str,
                live: list[tuple[int, int]]) -> None:
        fsm = oracle.fsm
        rng = self._rng
        page, block = live[int(rng.integers(len(live)))]
        oracle.emit_fault("injected", kind=kind, page=page, block=block)
        rec = self.detection[kind]
        rec[0] += 1

        if kind == "bitflip-treenode":
            node = fsm.tree.geo.leaf_for_counter(page)
            key = (node.level, node.index)
            saved = fsm.tree._node_hash.get(key)
            fsm.tree.tamper_node(
                node, _flip_bit(saved or b"\x00" * fsm.tree.HASH_BYTES,
                                rng))
            detected = oracle.probe_read(page, block, True, kind)
            if saved is None:
                fsm.tree._node_hash.pop(key, None)
            else:
                fsm.tree._node_hash[key] = saved
            rec[1] += int(detected)
            return

        if kind == "replay":
            capsule = fsm.adversary_replay(page, block)
            domain = oracle.allocator.owner_of(page)
            # a legitimate write advances (counter, ciphertext, MAC) --
            # in lockstep, so the engine contract stays exact
            oracle.access(domain, page, block, is_write=True)
            snap = _snapshot(fsm, page, block)
            fsm.adversary_apply_replay(capsule)
        else:
            snap = _snapshot(fsm, page, block)
            if kind == "bitflip-ciphertext":
                fsm.adversary_spoof(page, block,
                                    _flip_bit(fsm.dram.read(snap.addr),
                                              rng))
            elif kind == "bitflip-mac":
                fsm._macs.tamper(snap.addr, _flip_bit(snap.mac, rng))
            elif kind == "bitflip-counter":
                cb = fsm.counters.block(page)
                fsm.tree.tamper_counter(page, block,
                                        cb.minors[block] + 1)
            elif kind == "splice":
                src = self._pick_splice_source(live, (page, block), rng)
                if src is None:
                    rec[0] -= 1   # no distinct source yet; don't count
                    return
                fsm.adversary_splice((page, block), src)

        detected = oracle.probe_read(page, block, True, kind)
        _restore(fsm, snap)
        rec[1] += int(detected)

    @staticmethod
    def _pick_splice_source(live: list[tuple[int, int]],
                            dst: tuple[int, int],
                            rng: np.random.Generator):
        for _ in range(8):
            src = live[int(rng.integers(len(live)))]
            if src != dst:
                return src
        return None


# ---------------------------------------------------------------------------
# Workers (module-level: they cross the process-pool boundary)
# ---------------------------------------------------------------------------

def run_campaign(spec: CampaignSpec) -> CampaignResult:
    """Run one tamper campaign; deterministic in ``spec``."""
    from repro.core.domain import TreeLingStarvation
    from repro.experiments.parallel import resolve_engine
    from repro.osmodel.allocator import OutOfMemoryError
    from repro.secure.static_partition import (NoFreePartition,
                                               PartitionOverflow)
    from repro.workloads.mixes import build_mix

    cfg = tiny_config(n_cores=4)
    engine = resolve_engine(spec.scheme)(cfg, seed=11)
    engine.overflow_writes_per_page = spec.overflow_writes_per_page
    workload = build_mix(spec.mix, n_accesses=spec.n_accesses,
                         seed=spec.seed, scale=spec.scale)
    oracle = DifferentialOracle(cfg, engine, seed=spec.seed,
                                checkpoint_every=spec.checkpoint_every,
                                frame_policy=spec.frame_policy)
    campaign = TamperCampaign(seed=spec.seed,
                              per_checkpoint=spec.tampers_per_checkpoint)
    result = CampaignResult(scheme=spec.scheme, mix=spec.mix,
                            seed=spec.seed)
    try:
        report = oracle.run(workload, hooks=campaign)
    except (TreeLingStarvation, OutOfMemoryError, NoFreePartition,
            PartitionOverflow) as exc:
        result.failure = f"{type(exc).__name__}: {exc}"
        result.detection = {k: list(v)
                            for k, v in campaign.detection.items()}
        return result
    result.ops = report.ops
    result.checkpoints = report.checkpoints
    result.detection = {k: list(v) for k, v in campaign.detection.items()}
    result.faults = asdict(report.faults)
    result.disagreements = [asdict(d) for d in report.disagreements]
    return result


def campaign_key(spec: CampaignSpec) -> str:
    """Content hash for dedupe + on-disk caching (see ``cell_key``)."""
    from repro.experiments.parallel import CACHE_SCHEMA_VERSION
    from repro.sim.provenance import STATS_SCHEMA_VERSION, config_hash

    ident = (CACHE_SCHEMA_VERSION, STATS_SCHEMA_VERSION, "faultinject-v1",
             config_hash(tiny_config(n_cores=4)), spec)
    return sha256(repr(ident).encode()).hexdigest()[:32]


def campaign_cache(root: Optional[str] = None):
    """Persistent campaign cache (default: ``campaigns/`` in the cache
    dir)."""
    from repro.experiments.parallel import ResultCache, default_cache_dir
    return ResultCache(root or os.path.join(default_cache_dir(),
                                            "campaigns"),
                       payload_types=(CampaignResult,))


def run_campaigns(specs: Sequence[CampaignSpec], jobs: int = 1,
                  cache=None) -> list[CampaignResult]:
    """Fan campaigns out over the PR-3 parallel runner."""
    from repro.experiments.parallel import execute_tasks
    return execute_tasks(specs, run_campaign, campaign_key, jobs=jobs,
                         cache=cache)


def model_fault_matrix(scheme: str, mix: str = "S-2", seed: int = 5,
                       n_accesses: int = 400) -> dict[str, bool]:
    """Sensitivity arm: does the oracle flag each injected engine bug?

    Returns ``fault kind -> caught``.  Run with a low overflow threshold
    so the re-encrypt contract is live within a short stream.
    """
    caught = {}
    for fault in MODEL_FAULTS:
        rep = verify_scheme(scheme, mix, n_accesses=n_accesses, seed=seed,
                            overflow_writes_per_page=16,
                            model_fault=fault)
        caught[fault] = bool(rep.disagreements)
    return caught


# ---------------------------------------------------------------------------
# Matrix assembly (CLI / CI report)
# ---------------------------------------------------------------------------

def detection_matrix(results: Sequence[CampaignResult]) -> dict:
    """Aggregate campaign results into one detection matrix."""
    by_kind: dict[str, list[int]] = {k: [0, 0] for k in TAMPER_KINDS}
    clean_probes = false_positives = 0
    failures, disagreements = [], []
    for res in results:
        for kind, (inj, det) in res.detection.items():
            rec = by_kind.setdefault(kind, [0, 0])
            rec[0] += inj
            rec[1] += det
        clean_probes += res.faults.get("clean_probes", 0)
        false_positives += res.faults.get("false_positives", 0)
        if res.failure:
            failures.append(f"{res.scheme}/{res.mix}: {res.failure}")
        disagreements.extend(
            f"{res.scheme}/{res.mix}: [{d['kind']}] {d['detail']}"
            for d in res.disagreements)
    ok = (not failures and not disagreements and false_positives == 0
          and all(inj == det for inj, det in by_kind.values()))
    return {
        "ok": ok,
        "by_kind": {k: list(v) for k, v in by_kind.items()},
        "clean_probes": clean_probes,
        "false_positives": false_positives,
        "failures": failures,
        "disagreements": disagreements,
    }


def default_campaign_specs(schemes: Sequence[str] = DEFAULT_SCHEMES,
                           mixes: Sequence[str] = ("S-1", "M-2"),
                           seed: int = 0, **overrides
                           ) -> list[CampaignSpec]:
    """The standard schemes x mixes campaign grid (CI smoke set)."""
    return [CampaignSpec(scheme=s, mix=m, seed=seed, **overrides)
            for s in schemes for m in mixes]
