"""Differential functional-vs-timing oracle.

The timing engines (:mod:`repro.secure.engine`, :mod:`repro.core`) are
fast approximations: they count blocks and cycles but never touch a
byte.  The functional model (:mod:`repro.secure.functional`) is the
ground truth: real counter-mode encryption, real MACs, a real hash tree.
This module replays one deterministic request stream through *both* in
lockstep and asserts, at configurable checkpoints, that they agree:

* **scalar contracts** -- every engine-side counter the stream fully
  determines (data reads/writes, absorbed write-backs, page
  allocs/frees/re-encrypts, counter-cache accesses) must equal the
  oracle's independent prediction, and structural identities like
  ``verifications == counter_misses`` must hold;
* **metadata-touch sets** -- the set of pages whose counter block the
  engine probed in a window must equal the set the stream touched, and
  no page may *hit* the counter cache before it ever missed (cold-start
  soundness).  The pages come from the probed addresses themselves,
  reported by the engine's ``counter_observer`` on the same fused
  probe/fill and DRAM hooks every figure runs (the oracle installs no
  tracer); a probe outside the counter space is a disagreement too;
* **functional state** -- the functional counter store must equal a
  shadow store driven only by the stream, and the stored tree root
  must match a from-scratch recomputation over the counters;
* **registry invariants** -- every conservation law the engine registers
  (:mod:`repro.sim.registry`) is re-checked per window.

The oracle is also the substrate for the fault-injection campaigns
(:mod:`repro.attacks.faultinject`): tamper probes report through
:meth:`DifferentialOracle.probe_read` into a :class:`FaultStats`
detection matrix, and *model faults* (``MODEL_FAULTS``) deliberately
break the engine mid-run to prove the oracle's checks are sensitive
enough to notice -- a differential harness that cannot catch a dropped
write-back would silently certify broken engines.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from repro.mem import spaces
from repro.osmodel.allocator import FrameAllocator
from repro.secure.bmt import BonsaiMerkleTree, TreeGeometry
from repro.secure.counters import CounterStore
from repro.secure.functional import FunctionalSecureMemory, IntegrityViolation
from repro.sim.config import BLOCK_BYTES, MachineConfig, tiny_config
from repro.sim.registry import InvariantViolation, StatsRegistry
from repro.workloads.generator import WorkloadSpec

#: Key for the oracle's functional model (any fixed value works; pinned
#: so state digests are stable across runs).
FUNCTIONAL_KEY = b"ivleague-functional-key!"

#: Engine/model faults the oracle must detect (the sensitivity arm of a
#: fault campaign).  Each models a realistic implementation bug:
#: ``drop-writeback``  -- the engine silently loses dirty evictions;
#: ``skip-verify``     -- a fraction of accesses skip the counter fetch
#:                        and tree walk entirely;
#: ``missed-reencrypt``-- minor-counter overflow never triggers the
#:                        page re-encryption it must charge;
#: ``stale-counter-fill`` -- the counter cache is pre-filled so a page's
#:                        first access *hits* on a stale line.
MODEL_FAULTS = ("drop-writeback", "skip-verify", "missed-reencrypt",
                "stale-counter-fill")

#: The counter address space: ``COUNTER | pfn`` for every page.
_COUNTER_BASE = spaces.COUNTER << spaces.SPACE_SHIFT
_SPACE_BLOCKS = 1 << spaces.SPACE_SHIFT

#: Every engine: the paper's four (baseline BMT and the three IvLeague
#: variants), the two bit-vector NFL allocators, and the SGX counter
#: tree, VAULT and static-partition comparators.
DEFAULT_SCHEMES = ("baseline", "ivleague-basic", "ivleague-invert",
                   "ivleague-pro", "ivleague-bv1", "ivleague-bv2",
                   "sgx-counter-tree", "vault", "static-partition")


class OracleDisagreement(AssertionError):
    """The timing engine and the functional model diverged."""


@dataclass
class FaultStats:
    """Detection matrix counters for one oracle run."""

    injected: int = 0
    detected: int = 0
    missed: int = 0
    false_positives: int = 0
    clean_probes: int = 0


@dataclass
class Disagreement:
    """One observed divergence, attributed to a checkpoint window."""

    checkpoint: int
    kind: str
    detail: str


@dataclass
class OracleReport:
    """Outcome of one lockstep replay (picklable, JSON-able)."""

    scheme: str
    workload: str
    ops: int
    checkpoints: int
    disagreements: list[Disagreement] = field(default_factory=list)
    faults: FaultStats = field(default_factory=FaultStats)

    @property
    def ok(self) -> bool:
        return (not self.disagreements and self.faults.missed == 0
                and self.faults.false_positives == 0)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "workload": self.workload,
            "ops": self.ops,
            "checkpoints": self.checkpoints,
            "ok": self.ok,
            "disagreements": [asdict(d) for d in self.disagreements],
            "faults": asdict(self.faults),
        }


class ProbeTracer:
    """The per-window evidence the oracle checks.

    :meth:`counter` is installed as the engine's ``counter_observer`` and
    sees every counter-cache probe with its address and outcome.  It
    records which pages' counter blocks the engine touched, reading the
    page off the probed ``COUNTER | pfn`` address rather than trusting
    what the engine reports, and which pages *hit* the counter cache
    before their first miss (a hit with no prior fill can only come from
    stale state).  :meth:`instant` collects the fault-campaign events.
    """

    def __init__(self) -> None:
        #: counter-block pfns touched since the last checkpoint
        self.window_counter_pfns: set[int] = set()
        #: pfns that hit the counter cache before ever missing
        self.stale_hit_pfns: list[int] = []
        #: counter-cache probes outside the counter address space
        self.foreign_addrs: list[int] = []
        #: fault-campaign events (kept for report assembly/debugging)
        self.fault_events: list[tuple[str, dict]] = []
        self._cold_missed: set[int] = set()

    def counter(self, addr: int, hit: bool) -> None:
        """Observe one counter-cache probe of ``addr``."""
        pfn = addr - _COUNTER_BASE
        if not 0 <= pfn < _SPACE_BLOCKS:
            self.foreign_addrs.append(addr)
            return
        self.window_counter_pfns.add(pfn)
        if not hit:
            self._cold_missed.add(pfn)
        elif pfn not in self._cold_missed:
            self.stale_hit_pfns.append(pfn)

    def instant(self, cat, name, ts=None, **args) -> None:
        """Record one fault-campaign event (from ``emit_fault``)."""
        self.fault_events.append((name, args))

    def new_window(self) -> None:
        self.window_counter_pfns = set()


@dataclass
class _Expected:
    """Stream-derived predictions of the engine's cumulative counters."""

    reads: int = 0
    writes: int = 0
    writebacks: int = 0
    #: calls into ``_verify`` == counter-cache accesses
    verify_calls: int = 0
    allocs: int = 0
    frees: int = 0
    reencrypts: int = 0


class DifferentialOracle:
    """Lockstep replay of one request stream through a timing engine and
    the functional secure memory.

    The oracle *is* the simulator for this purpose: it drives the engine
    entry points directly (``data_access`` + an immediate
    ``handle_writeback`` per write, page lifecycle via a real
    :class:`FrameAllocator`), so every engine counter is an exact
    function of the stream and any divergence is an engine bug, not
    timing noise.  Attaching installs only the engine's
    ``counter_observer``; the engine keeps its tracer (none by
    default), so a replay runs the fused hooks the figures come from.
    """

    def __init__(self, config: MachineConfig, engine, *,
                 seed: int = 0, checkpoint_every: int = 256,
                 frame_policy: str = "random", strict: bool = False,
                 model_fault: Optional[str] = None,
                 extra_tracer=None) -> None:
        if model_fault is not None and model_fault not in MODEL_FAULTS:
            raise ValueError(f"unknown model fault {model_fault!r}; "
                             f"known: {MODEL_FAULTS}")
        self.config = config
        self.engine = engine
        self.seed = seed
        self.checkpoint_every = checkpoint_every
        self.strict = strict
        self.model_fault = model_fault
        self._extra_tracer = extra_tracer

        self.probe = ProbeTracer()
        engine.counter_observer = self.probe.counter
        engine._bind_hooks()
        self.registry = StatsRegistry()
        engine.register_stats(self.registry)
        self.faults = FaultStats()
        self.registry.register("oracle.faults", self.faults)

        n_pages = config.memory_pages
        self.fsm = FunctionalSecureMemory(n_pages, key=FUNCTIONAL_KEY)
        #: independently driven counter mirror: if the functional model
        #: ever forgets (or double-counts) a bump, the digests diverge
        self.shadow = CounterStore()
        self.allocator = FrameAllocator(n_pages, policy=frame_policy,
                                        seed=seed + 13)
        self.expect = _Expected()
        self._rng = np.random.default_rng(seed * 1000003 + 17)
        self.now = 0.0
        self.ops = 0
        self.checkpoints = 0
        self.disagreements: list[Disagreement] = []
        self.workload_name = "<manual>"
        #: per-domain vpage -> pfn mapping (the oracle's page tables)
        self._live: dict[int, dict[int, int]] = {}
        self._touched_window: set[int] = set()
        #: ground-truth plaintext per (pfn, block); persists across page
        #: free/realloc because the functional model's state does too
        self._expected_plain: dict[tuple[int, int], bytes] = {}
        #: victim pool for tamper campaigns (insertion-ordered, deduped)
        self._written: list[tuple[int, int]] = []
        self._written_set: set[tuple[int, int]] = set()
        #: contract captured at attach time -- a fault that later changes
        #: the engine's threshold is exactly what the re-encrypt
        #: prediction must catch
        self._overflow_contract = engine.overflow_writes_per_page
        self._page_writes: dict[int, int] = {}
        self._wb_no = 0
        self._alloc_no = 0
        self._verify_no = 0
        self._last_checkpoint_op = -1

        if model_fault == "skip-verify":
            self._install_skip_verify()
        elif model_fault == "missed-reencrypt":
            # applied *after* the contract capture above, like a real
            # regression would land after the spec was written
            engine.overflow_writes_per_page = 1 << 30

    # -- model-fault installation ------------------------------------------------

    def _install_skip_verify(self) -> None:
        original = self.engine._verify

        def faulty(domain, pfn, now, for_write):
            self._verify_no += 1
            if self._verify_no % 5 == 0:
                return 0.0   # no counter fetch, no walk, no accounting
            return original(domain, pfn, now, for_write)

        self.engine._verify = faulty

    # -- fault/tracer plumbing ----------------------------------------------------

    def emit_fault(self, name: str, **args) -> None:
        """Emit a ``fault`` trace event to the probe (and any attached
        external tracer, e.g. an EventTracer exporting a trace file)."""
        self.probe.instant("fault", name, ts=self.now, **args)
        if self._extra_tracer is not None and self._extra_tracer.enabled:
            self._extra_tracer.instant("fault", name, ts=self.now, **args)

    def _flag(self, kind: str, detail: str) -> None:
        self.disagreements.append(
            Disagreement(self.checkpoints, kind, detail))
        self.emit_fault("disagreement", kind=kind)

    # -- page lifecycle -----------------------------------------------------------

    def _fault_page(self, domain: int, vpage: int) -> int:
        table = self._live.setdefault(domain, {})
        pfn = table.get(vpage)
        if pfn is not None:
            return pfn
        frame_range = getattr(self.engine, "frame_range", None)
        if frame_range is not None:
            lo, hi = frame_range(domain)
            pfn = self.allocator.alloc_in_range(domain, lo, hi)
        else:
            pfn = self.allocator.alloc(domain)
        self.engine.on_page_alloc(domain, pfn, self.now)
        self.expect.allocs += 1
        table[vpage] = pfn
        self._alloc_no += 1
        if (self.model_fault == "stale-counter-fill"
                and self._alloc_no % 3 == 1):
            # pre-fill the counter cache: the page's first access will
            # *hit* on a line nothing ever fetched
            ev = self.engine.counter_cache.fill(
                spaces.tag(spaces.COUNTER, pfn))
            if ev is not None and ev.dirty:
                self.engine._write_meta(ev.addr, self.now)
        return pfn

    def _free_page(self, domain: int, vpage: int) -> None:
        table = self._live[domain]
        pfn = table.pop(vpage)
        self.engine.on_page_free(domain, pfn, self.now)
        self.allocator.free(pfn)
        self.expect.frees += 1
        # mirror the engine: its per-page write count dies with the page
        self._page_writes.pop(pfn, None)
        # _expected_plain deliberately survives: the functional model
        # has no scrubbing, so a reallocated frame still decrypts to the
        # previous owner's bytes -- and must keep doing so.

    def _churn(self, domain: int, churn_pages: int) -> None:
        table = self._live.get(domain)
        if not table or len(table) <= churn_pages:
            return
        victims = self._rng.choice(sorted(table), size=churn_pages,
                                   replace=False)
        for vpage in victims:
            self._free_page(domain, int(vpage))

    # -- one stream operation ------------------------------------------------------

    def _plaintext(self, pfn: int, block: int) -> bytes:
        head = b"%d/%d/%d" % (pfn, block, self.fsm.writes)
        return head.ljust(BLOCK_BYTES, b".")[:BLOCK_BYTES]

    def access(self, domain: int, pfn: int, block: int,
               is_write: bool) -> None:
        """Drive one access through both models, in lockstep."""
        now = self.now
        e = self.expect
        e.verify_calls += 1
        self._touched_window.add(pfn)
        lat = self.engine.data_access(domain, pfn, block, is_write, now)
        if is_write:
            e.writes += 1
            self._wb_no += 1
            dropped = (self.model_fault == "drop-writeback"
                       and self._wb_no % 4 == 0)
            if not dropped:
                self.engine.handle_writeback(domain, pfn, block, now + lat)
            # the contract always reflects the stream -- that is what
            # makes a lost write-back visible at the next checkpoint
            e.writebacks += 1
            e.verify_calls += 1
            writes = self._page_writes.get(pfn, 0) + 1
            if writes >= self._overflow_contract:
                writes = 0
                e.reencrypts += 1
                e.verify_calls += 1   # the overflow's dirty tree update
            self._page_writes[pfn] = writes
            plaintext = self._plaintext(pfn, block)
            self.fsm.write(pfn, block, plaintext)
            self.shadow.increment(pfn, block)
            self._expected_plain[(pfn, block)] = plaintext
            if (pfn, block) not in self._written_set:
                self._written_set.add((pfn, block))
                self._written.append((pfn, block))
        else:
            e.reads += 1
            try:
                data = self.fsm.read(pfn, block)
            except IntegrityViolation as exc:
                self.faults.false_positives += 1
                self._flag("false-positive",
                           f"clean read of page {pfn} block {block} "
                           f"raised: {exc}")
            else:
                want = self._expected_plain.get((pfn, block),
                                                b"\x00" * BLOCK_BYTES)
                if data != want:
                    self._flag("functional-data-mismatch",
                               f"page {pfn} block {block}: functional "
                               f"read returned unexpected bytes")
        self.now = now + lat + 1.0
        self.ops += 1

    # -- tamper probes (fault campaigns) -------------------------------------------

    def victim_pool(self) -> list[tuple[int, int]]:
        """Written (page, block) pairs a campaign may tamper with."""
        return self._written

    def probe_read(self, page: int, block: int, expect_violation: bool,
                   kind: str = "probe") -> bool:
        """Functional-side integrity probe: read ``(page, block)`` and
        score the outcome against the expectation.

        Returns True when an :class:`IntegrityViolation` fired.  Probes
        do not advance the lockstep stream (the engine's timing of a
        detected access is moot -- real hardware halts).
        """
        try:
            data = self.fsm.read(page, block)
            violated, detail = False, ""
        except IntegrityViolation as exc:
            data, violated, detail = None, True, str(exc)
        if expect_violation:
            self.faults.injected += 1
            if violated:
                self.faults.detected += 1
                self.emit_fault("detected", kind=kind, page=page,
                                block=block)
            else:
                self.faults.missed += 1
                self.emit_fault("missed", kind=kind, page=page,
                                block=block)
                self._flag("missed-detection",
                           f"{kind} tamper of page {page} block {block} "
                           f"went undetected")
        else:
            self.faults.clean_probes += 1
            if violated:
                self.faults.false_positives += 1
                self.emit_fault("false-positive", page=page, block=block)
                self._flag("false-positive",
                           f"clean probe of page {page} block {block} "
                           f"raised: {detail}")
            elif data is not None:
                want = self._expected_plain.get((page, block),
                                                b"\x00" * BLOCK_BYTES)
                if data != want:
                    self._flag("functional-data-mismatch",
                               f"clean probe of page {page} block "
                               f"{block} returned unexpected bytes")
        return violated

    # -- checkpoints ----------------------------------------------------------------

    def _recompute_root(self) -> bytes:
        """Tree root rebuilt from scratch over the functional counters:
        a fresh tree hashes bottom-up from the counter store alone, so
        it is independent of every stored hash and every incremental
        ``refresh_path`` the model did along the way."""
        ref = BonsaiMerkleTree(TreeGeometry(self.fsm.n_pages),
                               self.fsm.counters,
                               key=FUNCTIONAL_KEY + b"/bmt")
        return ref.rebuild()

    def checkpoint(self) -> None:
        """Assert every agreement contract for the window just ended."""
        self.checkpoints += 1
        self._last_checkpoint_op = self.ops
        s = self.engine.stats
        e = self.expect
        scalars = (
            ("data-reads", s.data_reads, e.reads),
            ("data-writes", s.data_writes, e.writes),
            ("writebacks-absorbed", s.writebacks_absorbed, e.writebacks),
            ("page-allocs", s.page_allocs, e.allocs),
            ("page-frees", s.page_frees, e.frees),
            ("page-reencrypts", s.page_reencrypts, e.reencrypts),
            ("counter-accesses", s.counter_hits + s.counter_misses,
             e.verify_calls),
            ("verifications-equal-counter-misses",
             s.verifications, s.counter_misses),
        )
        for name, got, want in scalars:
            if got != want:
                self._flag(f"stat:{name}",
                           f"engine reports {got}, contract expects {want}")
        probe = self.probe
        if probe.window_counter_pfns != self._touched_window:
            extra = sorted(probe.window_counter_pfns
                           - self._touched_window)[:8]
            missing = sorted(self._touched_window
                             - probe.window_counter_pfns)[:8]
            self._flag("counter-touch-set",
                       f"engine touched {len(probe.window_counter_pfns)} "
                       f"counter blocks, stream touched "
                       f"{len(self._touched_window)} "
                       f"(extra={extra} missing={missing})")
        if probe.stale_hit_pfns:
            pfns = probe.stale_hit_pfns[:8]
            probe.stale_hit_pfns = []
            self._flag("stale-counter-hit",
                       f"counter cache hit before first fill for "
                       f"pfns {pfns}")
        if probe.foreign_addrs:
            addrs = [hex(a) for a in probe.foreign_addrs[:8]]
            probe.foreign_addrs = []
            self._flag("counter-space",
                       f"counter cache probed outside the counter "
                       f"space at {addrs}")
        try:
            self.registry.check_invariants()
        except InvariantViolation as exc:
            self._flag("registry-invariant", str(exc))
        # Compares the materialised blocks exactly and never calls
        # ``block()``, which would materialise a lazily zero page (an
        # all-zero block is not an absent one to the tree).
        if self.fsm.counters._blocks != self.shadow._blocks:
            self._flag("counter-digest",
                       "functional counter store diverged from the "
                       "stream-driven shadow store")
        if self._recompute_root() != self.fsm.tree.root:
            self._flag("tree-root",
                       "stored tree root != root recomputed from the "
                       "counter store")
        self._touched_window = set()
        probe.new_window()

    # -- the lockstep drive loop ------------------------------------------------------

    def run(self, workload: WorkloadSpec, max_ops: Optional[int] = None,
            hooks=None) -> OracleReport:
        """Replay ``workload`` round-robin across its cores; checkpoint
        every ``checkpoint_every`` ops.  ``hooks.on_checkpoint(oracle)``
        (if given) runs after each checkpoint -- the fault-campaign
        entry point, guaranteed a clean, just-verified state."""
        self.workload_name = workload.name
        # Each trace's columns as plain Python lists, extracted once.
        cores = [(workload.domain_of(ci), trace.churn_every,
                  trace.churn_pages, np.asarray(trace.vpage).tolist(),
                  np.asarray(trace.block).tolist(),
                  np.asarray(trace.is_write).astype(bool).tolist())
                 for ci, trace in enumerate(workload.traces)]
        for domain in sorted({core[0] for core in cores}):
            self.engine.on_domain_start(domain)
        positions = [0] * len(cores)
        exhausted = False
        while not exhausted:
            exhausted = True
            for ci, (domain, churn_every, churn_pages, vpages, blocks,
                     writes) in enumerate(cores):
                pos = positions[ci]
                if pos >= len(vpages):
                    continue
                if max_ops is not None and self.ops >= max_ops:
                    break
                exhausted = False
                if churn_every and pos and pos % churn_every == 0:
                    self._churn(domain, churn_pages)
                pfn = self._fault_page(domain, vpages[pos])
                self.access(domain, pfn, blocks[pos], writes[pos])
                positions[ci] = pos + 1
                if self.ops % self.checkpoint_every == 0:
                    self.checkpoint()
                    if hooks is not None:
                        hooks.on_checkpoint(self)
            if max_ops is not None and self.ops >= max_ops:
                break
        if self.ops != self._last_checkpoint_op:
            self.checkpoint()
            if hooks is not None:
                hooks.on_checkpoint(self)
        return self.report()

    def report(self) -> OracleReport:
        rep = OracleReport(
            scheme=self.engine.name, workload=self.workload_name,
            ops=self.ops, checkpoints=self.checkpoints,
            disagreements=list(self.disagreements), faults=self.faults)
        if self.strict and not rep.ok:
            lines = "; ".join(f"[ckpt {d.checkpoint}] {d.kind}: {d.detail}"
                              for d in rep.disagreements[:10])
            raise OracleDisagreement(
                f"{rep.scheme}/{rep.workload}: "
                f"{len(rep.disagreements)} disagreement(s): {lines}")
        return rep


def verify_scheme(scheme: str, mix: str = "S-1", *,
                  n_accesses: int = 600, seed: int = 0,
                  scale: float = 0.05,
                  config: Optional[MachineConfig] = None,
                  checkpoint_every: int = 256,
                  frame_policy: str = "random",
                  overflow_writes_per_page: Optional[int] = None,
                  model_fault: Optional[str] = None,
                  strict: bool = False) -> OracleReport:
    """Build engine + workload and run one clean lockstep replay.

    ``overflow_writes_per_page`` (when given) lowers the engine's
    overflow threshold *before* the oracle captures its contract, so
    short streams still exercise the page re-encrypt path.
    """
    from repro.experiments.parallel import resolve_engine
    from repro.workloads.mixes import build_mix

    cfg = config or tiny_config(n_cores=4)
    engine = resolve_engine(scheme)(cfg, seed=11)
    if overflow_writes_per_page is not None:
        engine.overflow_writes_per_page = overflow_writes_per_page
    workload = build_mix(mix, n_accesses=n_accesses, seed=seed,
                         scale=scale)
    oracle = DifferentialOracle(cfg, engine, seed=seed,
                                checkpoint_every=checkpoint_every,
                                frame_policy=frame_policy,
                                strict=strict, model_fault=model_fault)
    return oracle.run(workload)
