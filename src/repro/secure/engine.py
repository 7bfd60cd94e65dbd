"""Secure-memory engine protocol and the Baseline (global BMT) engine.

The *engine* is everything behind the LLC: DRAM plus the secure-memory
machinery (counters, MACs, integrity tree, metadata caches).  The
simulator calls its four entry points: ``data_access`` on LLC misses,
``handle_writeback`` on dirty write-backs, and ``on_page_alloc`` /
``on_page_free`` on page lifecycle events.  All nine engines (Baseline,
IvLeague-Basic/-Invert/-Pro, the two bit-vector allocator ablations
IvLeague-BV1/-BV2, the SGX counter tree, VAULT and static partitioning)
implement this interface, which is what makes every experiment
scheme-agnostic.

Timing model: the data fetch and the metadata fetch proceed in parallel;
within the metadata path, counter fetch -> leaf-to-trusted-node traversal
-> decryption is serial (each step needs the previous).  The access
latency returned to the core is the max of the two paths.  Dirty
write-backs are posted (they occupy DRAM banks but do not stall).

There is one verify walk, :meth:`SecureMemoryEngine._verify`.  A scheme
supplies only the path it walks, through ``_locate``: Baseline, the SGX
counter tree and VAULT their static global path, static partitioning
an offset subtree's, and IvLeague the TreeLing path of the slot its
LMM maps the page to.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.mem import spaces
from repro.mem.memctrl import MemoryController
from repro.mem.mirage import make_cache
from repro.secure.bmt import TreeGeometry
from repro.sim.config import BLOCKS_PER_PAGE, MachineConfig
from repro.sim.hist import HistogramSet
from repro.sim.stats import EngineStats
from repro.sim.trace import NULL_TRACER

#: Writes to one page between modelled minor-counter overflows
#: (7-bit minors overflow after 128 writes to one block; page-level we
#: approximate with the expected fill across blocks).
OVERFLOW_WRITES_PER_PAGE = 1024


def _observed_probe(probe, observer):
    """``probe`` that also reports ``(addr, hit)`` to ``observer`` after
    every call; closes over the two, never over the engine."""
    def observed(addr: int, is_write: bool = False) -> bool:
        hit = probe(addr, is_write)
        observer(addr, hit)
        return hit
    return observed


class SecureMemoryEngine(ABC):
    """Base class: owns DRAM, metadata caches and shared accounting."""

    name = "abstract"
    tracer = NULL_TRACER
    #: ``observer(addr, hit)`` called after every counter-cache probe
    #: (set by the differential oracle, which then rebinds the hooks).
    counter_observer = None

    def __init__(self, config: MachineConfig, seed: int = 11) -> None:
        self.config = config
        self.mc = MemoryController(config.dram)
        self.stats = EngineStats()
        # Latency/path distributions for the profiling layer: total
        # engine access latency, the serial metadata (verify) component,
        # and tree nodes visited per verification.
        self.hists = HistogramSet()
        self._h_access = self.hists.get("access_latency")
        self._h_verify = self.hists.get("verify_latency")
        self._h_path = self.hists.get("path_length")
        sec = config.secure
        # Hot-path constants hoisted out of the per-access attribute
        # chains (values identical to the config fields they mirror).
        self._mac_hit_lat = float(sec.mac_cache.hit_latency)
        self._ctr_hit_lat = float(sec.counter_cache.hit_latency)
        self._aes_lat = sec.aes_latency
        self._hash_lat = sec.hash_latency
        self._mac_base = spaces.MAC << spaces.SPACE_SHIFT
        self._ctr_base = spaces.COUNTER << spaces.SPACE_SHIFT
        self.counter_cache = make_cache(sec.counter_cache, "ctr$",
                                        seed=seed * 3 + 1)
        self.mac_cache = make_cache(sec.mac_cache, "mac$", seed=seed * 3 + 2)
        self.tree_cache = self._build_tree_cache(seed)
        # Per-domain (verifications, nodes_visited) for Fig. 16.
        self.domain_path: dict[int, list[int]] = {}
        self._page_writes: dict[int, int] = {}
        #: Writes to one page between modelled minor-counter overflows;
        #: instance-level so tests (and the differential oracle's fault
        #: campaigns) can force or suppress overflows per engine.
        self.overflow_writes_per_page = OVERFLOW_WRITES_PER_PAGE
        #: Resolved verify-path memo (scheme-specific key; see the
        #: ``_locate`` implementations).  Every entry is a pure function
        #: of its key, so no invalidation is ever needed.
        self._path_memo: dict = {}
        #: Pages that have a tree slot, for schemes that reclaim a freed
        #: page's slot (IvLeague's LMM); ``None`` where every page has a
        #: path.  A walk for a page outside it verifies nothing.  An
        #: instance attribute: the walk reads it on every call.
        self._live_pages = None
        self._bind_hooks()

    # -- hooks for subclasses ------------------------------------------------------

    def _build_tree_cache(self, seed: int):
        return make_cache(self.config.secure.tree_cache, "tree$",
                          seed=seed * 3)

    @abstractmethod
    def _locate(self, pfn: int, now: float) -> tuple:
        """Find the verify path of ``pfn`` after a counter miss.

        Returns ``(clock, path, level, labels)``: the time the path is
        known (the counter read starts then), the tagged node addresses
        leaf first, up to but excluding the node trusted on chip, the
        tree level of the first, and the extra arguments of the walk's
        ``tree.node`` events (built only when tracing, ``None``
        otherwise)."""

    def _page_labels(self, pfn: int) -> dict:
        """Extra arguments of ``pfn``'s ``tree.counter_miss`` event;
        called only when tracing."""
        return {}

    # -- bound metadata hooks ------------------------------------------------------
    #
    # Every LLC-missing access funnels through ``data_access`` /
    # ``handle_writeback`` into the one ``_verify`` walk, and every
    # engine path reaches the metadata caches and DRAM only through the
    # hooks bound here: the caches' probe/fill closures and the fused
    # controller+DRAM closures.  There is one binding whatever tracer is
    # installed.  The fills and the DRAM's open-row body take the tracer
    # at bind time and emit the cache and DRAM events themselves, so
    # traced, sampled and fault-injected runs and the leakage contracts
    # execute the hooks the figures come from.  Only instrumentation
    # that needs walk-local values (counter, tree-node, LMM and MAC
    # events, the engine span) stays in the bodies, behind one
    # ``_instrumented`` read per call.  A ``counter_observer`` wraps the
    # counter probe, so the oracle sees every probed counter address.

    def _bind_hooks(self) -> None:
        """(Re)bind the metadata hooks for the installed tracer and
        counter observer.  The hooks close over the controller, the
        stats, the caches, the tracer and the observer, never over the
        engine."""
        caches = (self.mac_cache, self.counter_cache, self.tree_cache)
        tracer = self.tracer
        self._instrumented = tracer.enabled
        (self._read_data, self._read_meta, self._write_data,
         self._write_meta) = self.mc.bind_engine_ops(self.stats)
        self._mac_probe, ctr_probe, self._tree_probe = [
            cache.bind_fast_probe() for cache in caches]
        if self.counter_observer is not None:
            ctr_probe = _observed_probe(ctr_probe, self.counter_observer)
        self._ctr_probe = ctr_probe
        self._mac_fill, self._ctr_fill, self._tree_fill = [
            cache.bind_fast_fill(tracer) for cache in caches]

    # -- statistics registration ---------------------------------------------------

    def register_stats(self, registry) -> None:
        """Register every engine-side counter plus the conservation laws
        that tie the engine's own attribution to the memory controller's
        ground truth.  Subclasses extend this with their structures."""
        registry.register("engine", self.stats)
        self.hists.register(registry, "hist.engine")
        self.mc.register_stats(registry)
        for cache in (self.counter_cache, self.mac_cache, self.tree_cache):
            cache.register_stats(registry)
        registry.register_custom(
            "engine.domain_path",
            reset=self._reset_domain_path,
            values=lambda: {
                f"domain{d}.{k}": rec[i]
                for d, rec in sorted(self.domain_path.items())
                for i, k in enumerate(("verifications", "nodes_visited"))})
        s, t = self.stats, self.mc.traffic
        registry.add_equality(
            "engine-data-read-attribution",
            "engine.dram_data_reads", lambda: s.dram_data_reads,
            "mc.traffic.data_reads", lambda: t.data_reads)
        registry.add_equality(
            "engine-data-write-attribution",
            "engine.dram_data_writes", lambda: s.dram_data_writes,
            "mc.traffic.data_writes", lambda: t.data_writes)
        registry.add_equality(
            "engine-metadata-write-attribution",
            "engine.dram_metadata_writes", lambda: s.dram_metadata_writes,
            "mc.traffic.metadata_writes", lambda: t.metadata_writes)
        # Page-table walks read metadata through the controller without
        # the engine seeing them; the simulator tightens this bound to
        # an equality once it registers its walk counter.
        registry.add_bound(
            "engine-metadata-read-attribution",
            "engine.dram_metadata_reads", lambda: s.dram_metadata_reads,
            "mc.traffic.metadata_reads", lambda: t.metadata_reads)
        registry.add_equality(
            "tree-path-accounting",
            "tree_nodes_visited", lambda: s.tree_nodes_visited,
            "verifications + tree_node_dram_reads",
            lambda: s.verifications + s.tree_node_dram_reads)
        registry.add_equality(
            "mac-accounting",
            "mac hits+misses", lambda: s.mac_hits + s.mac_misses,
            "data accesses + absorbed writebacks",
            lambda: s.data_reads + s.data_writes + s.writebacks_absorbed)
        registry.add_equality(
            "domain-path-accounting",
            "sum of per-domain (verifications, nodes)",
            lambda: (sum(r[0] for r in self.domain_path.values()),
                     sum(r[1] for r in self.domain_path.values())),
            "engine (verifications, tree_nodes_visited)",
            lambda: (s.verifications, s.tree_nodes_visited))

    def _reset_domain_path(self) -> None:
        for rec in self.domain_path.values():
            rec[0] = rec[1] = 0

    def set_tracer(self, tracer) -> None:
        """Install ``tracer`` on this engine and everything behind it."""
        self.tracer = tracer
        self.mc.set_tracer(tracer)
        for cache in (self.counter_cache, self.mac_cache, self.tree_cache):
            cache.set_tracer(tracer)
        self._bind_hooks()

    @staticmethod
    def data_addr(pfn: int, block_in_page: int) -> int:
        return spaces.tag(spaces.DATA, pfn * BLOCKS_PER_PAGE + block_in_page)

    # -- main entry points ------------------------------------------------------------

    def data_access(self, domain: int, pfn: int, block_in_page: int,
                    is_write: bool, now: float) -> float:
        """LLC-missing access: fetch data + metadata; returns latency."""
        instrumented = self._instrumented
        if instrumented:
            tracer = self.tracer
            # Engine entry point: everything emitted below (counter /
            # tree / MAC / DRAM events) belongs to this domain.
            tracer.cur_domain = domain
            tracer.begin("engine", "data_access", ts=now,
                         domain=domain, pfn=pfn, write=is_write)
        stats = self.stats
        if is_write:
            stats.data_writes += 1
        else:
            stats.data_reads += 1
        block = pfn * BLOCKS_PER_PAGE + block_in_page
        lat_data = self._read_data(block, now)  # DATA tag is 0
        # One MAC block covers 8 data blocks.
        mac_addr = self._mac_base | (block >> 3)
        if self._mac_probe(mac_addr, is_write):
            stats.mac_hits += 1
            if instrumented:
                tracer.instant("mac", "hit", ts=now, addr=mac_addr)
            lat_mac = self._mac_hit_lat
        else:
            stats.mac_misses += 1
            if instrumented:
                tracer.instant("mac", "miss", ts=now, addr=mac_addr)
            lat_mac = self._read_meta(mac_addr, now)
            wb = self._mac_fill(mac_addr, is_write)
            if wb is not None:
                self._write_meta(wb, now)
        # Decryption needs the verified counter; OTP generation overlaps
        # the data fetch, so only the residual AES latency serialises.
        lat_meta = self._verify(domain, pfn, now, is_write) + self._aes_lat
        lat = max(lat_data, lat_mac, lat_meta)
        self._h_verify.record(lat_meta)
        self._h_access.record(lat)
        if instrumented:
            tracer.end("engine", "data_access", ts=now + lat)
        return lat

    def handle_writeback(self, domain: int, pfn: int, block_in_page: int,
                         now: float) -> None:
        """Dirty LLC eviction: counter bump, MAC refresh, posted write."""
        stats = self.stats
        stats.writebacks_absorbed += 1
        instrumented = self._instrumented
        if instrumented:
            tracer = self.tracer
            tracer.cur_domain = domain
            tracer.instant("engine", "writeback", ts=now,
                           domain=domain, pfn=pfn)
        self._verify(domain, pfn, now, True)
        block = pfn * BLOCKS_PER_PAGE + block_in_page
        mac_addr = self._mac_base | (block >> 3)
        if self._mac_probe(mac_addr, True):
            stats.mac_hits += 1
            if instrumented:
                tracer.instant("mac", "hit", ts=now, addr=mac_addr)
        else:
            stats.mac_misses += 1
            if instrumented:
                tracer.instant("mac", "miss", ts=now, addr=mac_addr)
            self._read_meta(mac_addr, now)
            wb = self._mac_fill(mac_addr, True)
            if wb is not None:
                self._write_meta(wb, now)
        self._write_data(block, now)
        writes = self._page_writes.get(pfn, 0) + 1
        if writes >= self.overflow_writes_per_page:
            writes = 0
            self._reencrypt_page(domain, pfn, now)
        self._page_writes[pfn] = writes

    def _reencrypt_page(self, domain: int, pfn: int, now: float) -> None:
        """Minor-counter overflow: stream the page through the crypto
        engine (posted reads+writes; rare, so modelled without stall).

        Beyond the data burst, the overflow changes the page's counter
        block (major bump, minors reset), so the counter block must be
        written back and the integrity-tree path above it updated -- the
        functional model always did this (``CounterStore.increment``
        flags the overflow and the BMT refreshes the path), but the
        timing engines only charged the data traffic, under-reporting
        metadata writes on write-heavy workloads.
        """
        self.stats.page_reencrypts += 1
        if self.tracer.enabled:
            self.tracer.instant("page", "reencrypt", ts=now,
                                domain=domain, pfn=pfn)
        for b in range(0, BLOCKS_PER_PAGE, 8):
            addr = self.data_addr(pfn, b)
            self._read_data(addr, now)
            self._write_data(addr, now)
        # Counter write-back + dirty tree-path update (the scheme's
        # path: partition offsets, TreeLing slots, VAULT arities).
        self._write_meta(self._ctr_base | pfn, now)
        self._verify(domain, pfn, now, True)

    # -- the verify walk ----------------------------------------------------------------

    def _verify(self, domain: int, pfn: int, now: float,
                for_write: bool) -> float:
        """Fetch + verify the counter block of ``pfn``; returns latency.

        Counter probe; on a miss, ``_locate`` finds the path, the counter
        block is read and the walk reads nodes up to the first cached
        (trusted) one: at the latest the on-chip root, a partition's
        root, or the locked parent of a TreeLing root.  One counter
        block per page, densely indexed by PFN, in every scheme.
        """
        live = self._live_pages
        if live is not None and pfn not in live:
            # Late write-back of a block whose page was already freed: the
            # slot was reclaimed on free, so there is nothing to verify.
            return 0.0
        ctr_addr = self._ctr_base | pfn
        stats = self.stats
        instrumented = self._instrumented
        if self._ctr_probe(ctr_addr, for_write):
            stats.counter_hits += 1
            if instrumented:
                self.tracer.instant("tree", "counter_hit", ts=now, pfn=pfn)
            return self._ctr_hit_lat
        stats.counter_misses += 1
        if instrumented:
            self.tracer.instant("tree", "counter_miss", ts=now, pfn=pfn,
                                **self._page_labels(pfn))
        clock, paddrs, level, labels = self._locate(pfn, now)
        read_meta = self._read_meta
        clock += read_meta(ctr_addr, clock)
        visited = 1  # the trusted terminator (cached node or root)
        tree_probe = self._tree_probe
        tree_fill = self._tree_fill
        write_meta = self._write_meta
        hash_lat = self._hash_lat
        for addr in paddrs:
            if tree_probe(addr, for_write):
                break  # verified against an on-chip (trusted) copy
            visited += 1
            stats.tree_node_dram_reads += 1
            if instrumented:
                self.tracer.instant("tree", "node", ts=clock,
                                    level=level + visited - 2, addr=addr,
                                    **labels)
            clock += read_meta(addr, clock) + hash_lat
            wb = tree_fill(addr, for_write)
            if wb is not None:
                write_meta(wb, clock)
        # Fig. 16: nodes visited per verification, overall and per domain.
        stats.verifications += 1
        stats.tree_nodes_visited += visited
        self._h_path.record(visited)
        rec = self.domain_path.setdefault(domain, [0, 0])
        rec[0] += 1
        rec[1] += visited
        wb = self._ctr_fill(ctr_addr, for_write)
        if wb is not None:
            write_meta(wb, clock)
        return clock - now

    # -- page / domain lifecycle (overridden by IvLeague) ---------------------------------

    def on_domain_start(self, domain: int) -> None:
        self.domain_path.setdefault(domain, [0, 0])
        if self.tracer.enabled:
            self.tracer.instant("domain", "start", domain=domain)

    def on_domain_end(self, domain: int) -> None:
        if self.tracer.enabled:
            self.tracer.instant("domain", "end", domain=domain)

    def on_page_alloc(self, domain: int, pfn: int, now: float) -> float:
        self.stats.page_allocs += 1
        return 0.0

    def on_page_free(self, domain: int, pfn: int, now: float) -> float:
        self.stats.page_frees += 1
        self._page_writes.pop(pfn, None)
        return 0.0


class BaselineEngine(SecureMemoryEngine):
    """The paper's Baseline: one global BMT shared by every domain.

    Statically addressed (no LMM/NFL); the global root is the only
    implicitly trusted node.  Side-channel-insecure: tree blocks are
    shared across domains, which the attack harness exploits.
    """

    name = "baseline"

    def __init__(self, config: MachineConfig, seed: int = 11) -> None:
        super().__init__(config, seed)
        self.geo = TreeGeometry(config.counter_blocks)

    def _locate(self, pfn: int, now: float) -> tuple:
        """The static path: a pure function of the PFN for every static
        geometry, so it is memoized per PFN.  Cache residency is
        re-probed on every walk, which is why the memo never needs
        invalidating."""
        paddrs = self._path_memo.get(pfn)
        if paddrs is None:
            paddrs = self._path_memo[pfn] = self._static_path(pfn)
            self.tree_cache.prime_candidates(paddrs)
        return (now, paddrs, 1,
                self._page_labels(pfn) if self._instrumented else None)

    def _static_path(self, pfn: int) -> list[int]:
        """Tree-node addresses above ``pfn``'s counter, leaf first,
        on-chip root excluded."""
        return self.geo.path_addrs(pfn)
