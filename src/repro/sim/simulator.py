"""Multi-core trace-driven simulator.

Each core replays its benchmark trace against private L1/L2, the shared
LLC and one secure-memory engine.  Cores advance on their own clocks;
the simulator always steps the core with the smallest clock so shared
structures (LLC, metadata caches, DRAM banks, TreeLing pool) observe a
realistic interleaving without a cycle-by-cycle event queue.

Each core's step loop is a long-lived *generator* whose locals hold
every hot structure (TLB set list, L1/L2 set lists, bound LLC methods,
stat objects, per-trace request lists), and the min-clock scheduler
merely ``send``s the next heap threshold into the generator of the
minimum-clock core.  The generator runs accesses inline while
``(clock, core)`` stays below ``(next_clock, next_core)`` -- the heap's
own tie-break, so the interleaving is exactly that of popping the heap
once per access -- then yields its clock back.

Page lifecycle is demand-driven: the first touch of a virtual page
allocates a frame (and, under IvLeague, a TreeLing slot); churn events
free random live pages which later *refault*.  Dirty LLC evictions flow
back into the engine as write-backs (counter bump + MAC + posted write).
Churn frees, page faults and TLB walks run inline in the generator
through their own helpers (``_churn``, ``_alloc_page``, ``_page_walk``),
which the sampling profiler (:mod:`repro.sim.profiler`) names as
layers, and a tracer changes only what is emitted: the L1/L2/LLC fill
closures are bound with it and report their place and evict events,
``TLB.lookup`` reports its miss, and the generator adds the request,
fault, walk and churn spans.

Determinism rules, pinned by the golden digests (tests/test_golden.py):
clock updates use the same operands in the same order on every path;
counters deferred to the end of a drain are commutative integer adds or
integer-valued histogram samples (``LatencyHistogram.record_many``),
exact in IEEE double precision; fractional latencies are recorded in
order.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass

import numpy as np

from repro.mem import spaces
from repro.mem.hierarchy import CacheHierarchy
from repro.osmodel.allocator import FrameAllocator
from repro.osmodel.pagetable import PageTable
from repro.osmodel.tlb import TLB
from repro.secure.engine import SecureMemoryEngine
from repro.sim.config import BLOCKS_PER_PAGE, MachineConfig
from repro.sim.cpu import CoreModel
from repro.sim.hist import HistogramSet
from repro.sim.registry import StatsRegistry
from repro.sim.stats import CoreStats, RunResult, SimStats
from repro.sim.trace import NULL_TRACER
from repro.workloads.generator import WorkloadSpec

#: Set to a non-empty value other than "0" to verify the conservation
#: invariants after every run (the slow paper-shape tests and perfbench
#: turn this on so accounting regressions fail loudly instead of
#: skewing figures).
CHECK_INVARIANTS_ENV = "REPRO_CHECK_INVARIANTS"


def _env_check_invariants() -> bool:
    return os.environ.get(CHECK_INVARIANTS_ENV, "0") not in ("", "0")


@dataclass(slots=True)
class _CoreState:
    domain: int
    trace: object
    pos: int = 0
    clock: float = 0.0
    warmup_clock: float = 0.0
    vpn_base: int = 0
    stats: CoreStats = None
    live: dict = None          # vpage slot -> pfn
    live_list: list = None     # for O(1) random victim choice
    page_table: PageTable = None


class Simulator:
    """Runs one workload mix against one engine."""

    def __init__(self, config: MachineConfig, engine: SecureMemoryEngine,
                 seed: int = 123, frame_policy: str = "sequential",
                 tracer=None) -> None:
        # ``sequential`` models a freshly booted buddy allocator (what the
        # paper's full-system runs see): first-touch faults land in mostly
        # contiguous frames, so the static baseline mapping gets its
        # natural leaf-node sharing.  ``fragmented`` models a
        # long-running machine: scattered 256-frame runs with random
        # recycling, the sweeps' default.  ``random`` scatters every
        # frame -- an ablation where IvLeague's dynamic mapping is
        # immune but the static baseline degrades.
        self.config = config
        self.engine = engine
        self.hierarchy = CacheHierarchy(config, seed=seed)
        self.core_model = CoreModel(config.core)
        self.allocator = FrameAllocator(config.memory_pages,
                                        policy=frame_policy, seed=seed)
        lmm = getattr(engine, "lmm_cache", None)
        on_evict = None
        if lmm is not None:
            # Paper Section VI-C2: LMM-cache entries follow TLB evictions.
            on_evict = lambda asid, vpn, pfn: lmm.invalidate(pfn)  # noqa: E731
        self.tlb = TLB(config.tlb_entries, config.tlb_assoc,
                       on_evict=on_evict)
        self._rng = np.random.default_rng(seed + 17)
        self.stats = SimStats()
        self._states: list[_CoreState] = []
        # Per-request-class latency distributions (always on: recording
        # is one dict lookup + integer arithmetic per access).
        self.hists = HistogramSet()
        self._class_hist = {
            "l1": self.hists.get("req.l1_hit"),
            "l2": self.hists.get("req.l2_hit"),
            "llc": self.hists.get("req.llc_hit"),
            "mem": self.hists.get("req.llc_miss"),
        }
        self._h_fault = self.hists.get("page_fault")
        self._h_walk = self.hists.get("tlb_walk")
        self.tracer = NULL_TRACER
        self.registry = self._build_registry()
        if tracer is not None:
            self.set_tracer(tracer)

    def set_tracer(self, tracer) -> None:
        """Install one tracer across the whole machine (hierarchy, TLB,
        engine, metadata caches, DRAM).  Pass ``NULL_TRACER`` to turn
        tracing back off."""
        self.tracer = tracer
        self.hierarchy.set_tracer(tracer)
        self.tlb.tracer = tracer
        self.engine.set_tracer(tracer)

    def _build_registry(self) -> StatsRegistry:
        """Register every stat-bearing component of this machine plus
        the simulator-scope conservation laws.

        The provider and the laws close over the stats objects they
        read, never over the simulator, so the registry it holds forms
        no reference cycle and a finished machine is freed by reference
        counting.
        """
        reg = StatsRegistry()
        self.hierarchy.register_stats(reg)
        self.tlb.register_stats(reg)
        self.engine.register_stats(reg)
        sim_stats = self.stats
        reg.register("sim", sim_stats)
        self.hists.register(reg, "hist.sim")
        states = self._states
        estats = self.engine.stats
        traffic = self.engine.mc.traffic
        llc_stats = self.hierarchy.llc.stats
        reg.register_provider(
            "cores",
            lambda: [(f"core{i}", st.stats, None)
                     for i, st in enumerate(states)])
        # Metadata reads the engine attributed, plus the walks the
        # simulator issued directly, must cover the controller's count.
        reg.add_equality(
            "metadata-read-attribution",
            "engine metadata reads + page-walk reads",
            lambda: estats.dram_metadata_reads + sim_stats.ptw_dram_reads,
            "mc.traffic.metadata_reads",
            lambda: traffic.metadata_reads)
        # Every dirty LLC eviction must reach the engine exactly once.
        reg.add_equality(
            "llc-writeback-conservation",
            "llc.writebacks", lambda: llc_stats.writebacks,
            "engine.writebacks_absorbed",
            lambda: estats.writebacks_absorbed)
        # LLC data misses are what the engine serves as data accesses.
        reg.add_equality(
            "llc-miss-to-engine",
            "sum of per-core llc_misses",
            lambda: sum(st.stats.llc_misses for st in states),
            "engine data_reads + data_writes",
            lambda: estats.data_reads + estats.data_writes)
        return reg

    # -- helpers -------------------------------------------------------------------

    def _page_walk(self, core: int, domain: int, page_table: PageTable,
                   vpn: int, now: float) -> float:
        """Hardware page-table walk through the shared cache hierarchy."""
        lat = 0.0
        walk = page_table.walk(vpn)
        for addr in walk.touched_blocks:
            res = self.hierarchy.access(core, addr, is_write=False)
            lat += res.latency
            if res.llc_miss:
                lat += self.engine.mc.read(addr, now + lat)
                self.stats.ptw_dram_reads += 1
            if res.writeback_addrs:
                # A PTE fill can evict dirty data blocks; they flow back
                # into the engine like any other LLC write-back (found by
                # the llc-writeback-conservation invariant: these were
                # silently dropped before).
                self._handle_writebacks(res.writeback_addrs, domain,
                                        now + lat)
        # The extended PTE carries the leaf ID (Fig. 9b), so a walk
        # refills the LMM cache for free -- no separate LMM fetch needed.
        lmm = getattr(self.engine, "lmm_cache", None)
        if lmm is not None and walk.pfn in self.engine.leafmap:
            lmm.insert(walk.pfn, self.engine.leafmap.get(walk.pfn))
        return lat

    def _handle_writebacks(self, addrs, fallback_domain: int,
                           now: float) -> None:
        for addr in addrs:
            blk = spaces.block_of(addr)
            pfn, block_in_page = divmod(blk, BLOCKS_PER_PAGE)
            domain = self.allocator.owner_of(pfn)
            if domain is None:
                domain = fallback_domain
            self.engine.handle_writeback(domain, pfn, block_in_page, now)
        if self.tracer.enabled:
            # handle_writeback retargets the ambient domain to each
            # block's owner; restore the requesting domain so later
            # events of the same access are attributed correctly.
            self.tracer.cur_domain = fallback_domain

    def _alloc_page(self, state: _CoreState, slot: int, now: float) -> float:
        confined = getattr(self.engine, "frame_range", None)
        if confined is not None:
            # Static partitioning: the OS must keep the domain's frames
            # inside its partition's chunk.
            lo, hi = confined(state.domain)
            pfn = self.allocator.alloc_in_range(state.domain, lo, hi)
        else:
            pfn = self.allocator.alloc(state.domain)
        lat = self.engine.on_page_alloc(state.domain, pfn, now)
        state.live[slot] = pfn
        state.live_list.append(slot)
        state.page_table.map(state.vpn_base + slot, pfn)
        self.tlb.insert(state.domain, state.vpn_base + slot, pfn)
        return lat

    def _churn(self, state: _CoreState, now: float) -> float:
        """Free ``churn_pages`` random live pages (they refault later)."""
        lat = 0.0
        n = min(state.trace.churn_pages, max(0, len(state.live_list) - 8))
        for _ in range(n):
            idx = int(self._rng.integers(len(state.live_list)))
            slot = state.live_list[idx]
            state.live_list[idx] = state.live_list[-1]
            state.live_list.pop()
            pfn = state.live.pop(slot)
            if self.tracer.enabled:
                self.tracer.instant("page", "free", ts=now + lat,
                                    domain=state.domain, pfn=pfn)
            lat += self.engine.on_page_free(state.domain, pfn, now + lat)
            state.page_table.unmap(state.vpn_base + slot)
            self.tlb.invalidate(state.domain, state.vpn_base + slot)
            self.allocator.free(pfn)
        return lat

    # -- main loop -------------------------------------------------------------------

    def _core_gen(self, ci: int, st: _CoreState, limit: int):
        """Step loop of core ``ci`` as a generator.

        Yields the core's clock whenever another core becomes the
        global minimum; receives the new ``(clock, core)`` threshold to
        run against.  Returns (StopIteration) once ``limit`` accesses
        are done, flushing the deferred counters first.
        """
        cfg = self.config
        tr = self.tracer
        tracing = tr.enabled
        tlb = self.tlb
        tlb_sets = tlb._sets
        tlb_nsets = tlb.n_sets
        tlb_lookup = tlb.lookup
        tlb_insert = tlb.insert
        hier = self.hierarchy
        llc = hier.llc
        l1 = hier.l1[ci]
        l2 = hier.l2[ci]
        l1_sets = l1._sets
        l2_sets = l2._sets
        l1_nsets = l1.n_sets
        l2_nsets = l2.n_sets
        # Pre-bound probe/fill closures (the caches' one probe and fill
        # bodies; see mem/cache.py).  ``fill_absent`` only follows a
        # probe that just missed, and emits the place and evict events
        # of the tracer it is bound with; dirty-victim re-inserts use
        # ``fill``, which checks presence first, because the victim may
        # already be present downstream.
        llc_lookup = llc.bind_fast_probe()
        llc_fill = llc.fill
        l2_fill = l2.fill
        l1_fill_absent = l1.bind_fast_fill(tr)
        l2_fill_absent = l2.bind_fast_fill(tr)
        llc_fill_absent = llc.bind_fast_fill(tr)
        engine_access = self.engine.data_access
        handle_wb = self._handle_writebacks
        churn = self._churn
        alloc_page = self._alloc_page
        page_walk = self._page_walk
        h_fault_rec = self._h_fault.record
        h_walk_rec = self._h_walk.record
        h_mem_rec = self._class_hist["mem"].record
        access_cycles = self.core_model.access_cycles
        l1f = float(cfg.core.l1.hit_latency)
        l2f = float(cfg.core.l2.hit_latency)
        llcf = float(cfg.llc.hit_latency)
        l1_cost = access_cycles(l1f)
        l2_cost = access_cycles(l2f)
        llc_cost = access_cycles(llcf)

        # Per-trace request fields as plain lists: list indexing instead
        # of per-access ndarray scalar extraction.  int64 -> float64 is
        # exact at these magnitudes, so each gap cost is the same IEEE
        # product as ``int(gap) * base_cpi``.
        t = st.trace
        gap = np.asarray(t.gap)
        gaps = gap.tolist()
        gapc = (gap.astype(np.float64) * cfg.core.base_cpi).tolist()
        vpages = np.asarray(t.vpage).tolist()
        blocks = np.asarray(t.block).tolist()
        writes = np.asarray(t.is_write).astype(bool).tolist()
        churn_every = t.churn_every
        live = st.live
        live_list = st.live_list
        stats = st.stats
        domain = st.domain
        vpn_base = st.vpn_base
        asid_mix = domain * 0x9E37
        page_table = st.page_table

        clock = st.clock
        pos = start = st.pos
        # Deferred commutative counters, flushed on exhaustion (integer
        # adds and integer-valued histogram samples only).  Each access
        # is exactly one of an L1 hit, L2 hit, LLC hit or LLC miss.
        n_tlb = n_l1h = n_l2h = n_llch = n_miss = n_instr = 0

        # Prime: wait for the first scheduling threshold.
        nxt = yield
        if nxt is None:
            nxt0 = None
        else:
            nxt0, nxt1 = nxt

        while pos < limit:
            i = pos
            pos = i + 1
            if (churn_every and i and i % churn_every == 0
                    and len(live_list) > 16):
                if tracing:
                    tr.cur_tid = ci
                    tr.cur_domain = domain
                    tr.clock = clock
                t0 = clock
                clock += churn(st, clock)
                if tracing:
                    tr.complete("sim", "churn", ts=t0, dur=clock - t0,
                                core=ci, domain=domain)
            clock += gapc[i]
            n_instr += gaps[i] + 1
            if tracing:
                # Caches, TLB and DRAM stamp their events with the
                # tracer's ambient core, domain and clock.
                tr.cur_tid = ci
                tr.cur_domain = domain
                tr.clock = clock

            slot = vpages[i]
            pfn = live.get(slot)
            if pfn is None:
                # The fault maps the page and fills the TLB, so no TLB
                # probe is counted.
                lat = alloc_page(st, slot, clock)
                h_fault_rec(lat)
                pfn = live[slot]
                if tracing:
                    tr.complete("page", "fault", ts=clock, dur=lat,
                                core=ci, domain=domain, pfn=pfn)
                    tr.clock = clock + lat
                clock += lat
            else:
                vpn = vpn_base + slot
                key = (domain, vpn)
                ts = tlb_sets[(vpn ^ asid_mix) % tlb_nsets]
                if key in ts:
                    ts.move_to_end(key)
                    n_tlb += 1
                else:
                    tlb_lookup(domain, vpn)  # counts and emits the miss
                    lat = page_walk(ci, domain, page_table, vpn, clock)
                    h_walk_rec(lat)
                    if tracing:
                        tr.complete("tlb", "walk", ts=clock, dur=lat,
                                    core=ci, domain=domain)
                    clock += lat
                    tlb_insert(domain, vpn, pfn)
                    if tracing:
                        tr.clock = clock

            is_write = writes[i]
            addr = pfn * BLOCKS_PER_PAGE + blocks[i]  # DATA tag is 0
            s1 = l1_sets[addr % l1_nsets]
            if addr in s1:                              # L1 hit
                s1.move_to_end(addr)
                if is_write:
                    s1[addr] = True
                n_l1h += 1
                if tracing:
                    tr.complete("request", "l1_hit", ts=clock, dur=l1f,
                                core=ci, domain=domain, write=is_write,
                                pfn=pfn)
                clock += l1_cost
            else:
                s2 = l2_sets[addr % l2_nsets]
                if addr in s2:                          # L2 hit
                    s2.move_to_end(addr)
                    if is_write:
                        s2[addr] = True
                    n_l2h += 1
                    wb1 = l1_fill_absent(addr, is_write)
                    if wb1 is not None:
                        l2_fill(wb1, dirty=True)
                    if tracing:
                        tr.complete("request", "l2_hit", ts=clock,
                                    dur=l2f, core=ci, domain=domain,
                                    write=is_write, pfn=pfn)
                    clock += l2_cost
                else:
                    llc_hit = llc_lookup(addr, is_write)
                    writebacks = None
                    wb2 = l2_fill_absent(addr)
                    if wb2 is not None:
                        wbllc = llc_fill(wb2, dirty=True)
                        if wbllc is not None:
                            writebacks = [wbllc]
                    wb1 = l1_fill_absent(addr, is_write)
                    if wb1 is not None:
                        l2_fill(wb1, dirty=True)
                    if llc_hit:                         # LLC hit
                        if writebacks:
                            handle_wb(writebacks, domain, clock)
                        n_llch += 1
                        if tracing:
                            tr.complete("request", "llc_hit", ts=clock,
                                        dur=llcf, core=ci, domain=domain,
                                        write=is_write, pfn=pfn)
                        clock += llc_cost
                    else:                               # LLC miss
                        wbllc = llc_fill_absent(addr)
                        if wbllc is not None:
                            if writebacks is None:
                                writebacks = [wbllc]
                            else:
                                writebacks.append(wbllc)
                        n_miss += 1
                        latency = llcf + engine_access(
                            domain, pfn, blocks[i], is_write, clock)
                        if writebacks:
                            handle_wb(writebacks, domain, clock)
                        h_mem_rec(latency)
                        if tracing:
                            tr.complete("request", "llc_miss", ts=clock,
                                        dur=latency, core=ci,
                                        domain=domain, write=is_write,
                                        pfn=pfn)
                        clock += access_cycles(latency)

            if nxt0 is None or clock < nxt0 or (clock == nxt0 and ci < nxt1):
                continue
            st.clock = clock
            st.pos = pos
            nxt = yield clock
            if nxt is None:
                nxt0 = None
            else:
                nxt0, nxt1 = nxt

        # -- exhausted: sync and flush the deferred counters ------------------
        st.clock = clock
        st.pos = pos
        stats.mem_accesses += pos - start
        stats.instructions += n_instr
        stats.llc_misses += n_miss
        tlb.stats.hits += n_tlb
        l1.stats.hits += n_l1h
        l1.stats.misses += n_l2h + n_llch + n_miss
        l2.stats.hits += n_l2h
        l2.stats.misses += n_llch + n_miss
        self._class_hist["l1"].record_many(l1f, n_l1h)
        self._class_hist["l2"].record_many(l2f, n_l2h)
        self._class_hist["llc"].record_many(llcf, n_llch)

    def _drain(self, states: list[_CoreState], until: int) -> None:
        """Advance every core to access index ``until`` (min-clock order)."""
        gens = []
        heap = []
        for ci, st in enumerate(states):
            limit = min(until, len(st.trace))
            gen = None
            if st.pos < limit:
                gen = self._core_gen(ci, st, limit)
                next(gen)  # run the prologue up to the priming yield
                heap.append((st.clock, ci))
            gens.append(gen)
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            _, ci = pop(heap)
            try:
                clk = gens[ci].send(heap[0] if heap else None)
            except StopIteration:
                continue
            push(heap, (clk, ci))

    def _reset_measurement(self, states: list[_CoreState]) -> None:
        """Zero accumulated statistics at the warmup boundary.

        Every counter goes through the registry, so warmup traffic can
        never leak into a reported rate just because some component was
        forgotten here: components register their counters, the registry
        resets them all.  Warm *state* (cache contents, open DRAM rows,
        TLB entries) is deliberately preserved -- that is the point of
        the warmup phase.
        """
        self.registry.reset_all()
        for st in states:
            st.warmup_clock = st.clock

    def run(self, workload: WorkloadSpec, warmup: int = 0,
            check_invariants: bool | None = None) -> RunResult:
        """Simulate; the first ``warmup`` accesses per core are excluded
        from all reported statistics (the paper skips 2-5B instructions
        before its 1B-instruction measurement window).

        ``check_invariants`` runs the registry's conservation laws after
        the run (``None`` defers to the REPRO_CHECK_INVARIANTS env var);
        a violation raises :class:`repro.sim.registry.InvariantViolation`.
        """
        cfg = self.config
        if len(workload.traces) > cfg.n_cores:
            raise ValueError(
                f"workload has {len(workload.traces)} traces but the "
                f"machine has {cfg.n_cores} cores")
        if warmup:
            shortest = min(len(t) for t in workload.traces)
            if warmup >= shortest:
                # A core whose whole trace fits inside the warmup window
                # would end the run with ``warmup_clock`` equal to its
                # final clock: cycles == 0 and zero instructions, which
                # silently poisons weighted-IPC aggregation downstream.
                raise ValueError(
                    f"warmup={warmup} consumes the shortest trace "
                    f"({shortest} accesses) entirely; nothing would be "
                    f"measured for that core")
        extended = hasattr(self.engine, "leafmap")
        # Filled in place: the registry's ``cores`` provider and the
        # ``llc-miss-to-engine`` law read this list.
        states = self._states
        states.clear()
        tables: dict[int, PageTable] = {}
        for i, trace in enumerate(workload.traces):
            domain = workload.domain_of(i)
            self.engine.on_domain_start(domain)
            # Threads of one process share the IV domain and the page
            # table; each thread works in its own VA region.
            table = tables.setdefault(
                domain, PageTable(domain, extended=extended))
            st = _CoreState(
                domain=domain, trace=trace, stats=CoreStats(),
                live={}, live_list=[], page_table=table)
            st.vpn_base = i << 24
            st.warmup_clock = 0.0
            states.append(st)

        if warmup:
            self._drain(states, warmup)
            self._reset_measurement(states)
        self._drain(states, max(len(st.trace) for st in states))

        result = RunResult(scheme=self.engine.name, workload=workload.name)
        for st in states:
            st.stats.cycles = st.clock - st.warmup_clock
            result.cores.append(st.stats)
        result.engine = self.engine.stats
        for i, st in enumerate(states):
            rec = self.engine.domain_path.get(st.domain, [0, 0])
            result.per_core_path[i] = (rec[0], rec[1])
            result.core_benchmarks.append(st.trace.benchmark)
            result.core_domains.append(st.domain)
        result.registry_snapshot = self.registry.snapshot()
        if check_invariants is None:
            check_invariants = _env_check_invariants()
        if check_invariants:
            self.registry.check_invariants()
        return result


def run_workload(config: MachineConfig, engine_cls, workload: WorkloadSpec,
                 seed: int = 123, warmup: int = 0,
                 frame_policy: str = "sequential",
                 check_invariants: bool | None = None,
                 tracer=None, **engine_kwargs) -> RunResult:
    """Convenience: build an engine, run one workload, return the result."""
    engine = engine_cls(config, seed=seed, **engine_kwargs)
    sim = Simulator(config, engine, seed=seed, frame_policy=frame_policy,
                    tracer=tracer)
    return sim.run(workload, warmup=warmup,
                   check_invariants=check_invariants)
