"""Fast-path vs generic-path equivalence.

The cache models offer pre-bound probe/fill closures
(``bind_fast_probe`` / ``bind_fast_fill``), a fused ``touch_dirty``
probe and batched MIRAGE candidate hashing (``prime_candidates``).
The engines and the simulator's drain loop bind the closures whatever
tracer is installed (a fill takes the tracer at bind time), so the
closures promise *bit-identical* behaviour to the caches' own
``lookup``/``fill`` in every observable: hit/miss outcomes, LRU order,
dirty bits, victims, stats, latencies and emitted events.  This suite
drives the fast and generic forms in lockstep and compares the full
state:

* a seeded property test runs a random probe/fill stream through two
  identically-configured caches -- one via ``lookup``/``fill``, one via
  the bound closures -- for plain, locked-way and MIRAGE organisations,
  untraced and with a tracer on each side (the event lists must match);
* ``prime_candidates`` must memoize exactly the values the lazy
  per-address hash would have produced (64-bit wraparound included);
* ``touch_dirty`` must equal the ``contains`` + ``lookup(is_write=True)``
  pair it fused (the SGX counter-tree dirty-walk regression);
* every engine in the registry must produce identical results with and
  without a tracer installed (``tests/test_golden.py`` pins both against
  committed digests), and its hooks must create no reference cycle.
"""

import gc
import random
import sys
import weakref

import pytest

from repro.experiments.parallel import resolve_engine
from repro.mem.cache import Cache
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.memctrl import MemoryController
from repro.mem.mirage import MirageCache
from repro.obs.leakage import PairSpec, run_pair
from repro.sim.config import CacheConfig, tiny_config
from repro.sim.oracle import DifferentialOracle
from repro.sim.simulator import Simulator
from repro.sim.trace import NULL_TRACER, EventTracer
from repro.workloads.mixes import build_mix

from tests.test_golden import ALL_NINE

#: Small geometry so a few hundred addresses generate real conflict
#: pressure (evictions, write-backs, power-of-two-choices imbalance).
_CFG = CacheConfig(4096, 4, hit_latency=10)       # 16 sets x 4 ways
_N_ADDRS = 200
_N_OPS = 4000


def _snapshot(cache):
    """Full observable state: per-set (addr, [dirty, locked]) in LRU
    order, plus every counter the registry would see."""
    state = [list(s.items()) for s in cache._sets]
    counters = (cache.stats.hits, cache.stats.misses,
                cache.evictions, cache.writebacks, cache._locked)
    if isinstance(cache, MirageCache):
        counters += (cache.skew0_fills, cache.skew1_fills)
    return state, counters


def _drive_pair(generic, fast, seed, n_ops=_N_OPS, traced=False):
    """Random probe/fill stream; ``generic`` uses the caches' own
    methods, ``fast`` the pre-bound closures.  Divergence is asserted
    per-operation so a failure names the first differing op.  Traced,
    ``generic`` gets a tracer of its own and the fast fill is bound with
    another; the two event lists must be equal.  Returns the events."""
    tracer = EventTracer(limit=None) if traced else NULL_TRACER
    if traced:
        generic.tracer = EventTracer(limit=None)
    probe = fast.bind_fast_probe()
    fill_absent = fast.bind_fast_fill(tracer)
    rng = random.Random(seed)
    for op in range(n_ops):
        addr = rng.randrange(_N_ADDRS)
        is_write = rng.random() < 0.4
        hit_g = generic.lookup(addr, is_write=is_write)
        hit_f = probe(addr, is_write)
        assert hit_g == hit_f, f"probe diverged at op {op} addr {addr}"
        if not hit_g:
            # The fill_absent contract: only for a just-observed miss.
            ev = generic.fill(addr, dirty=is_write)
            wb_g = ev.addr if ev is not None and ev.dirty else None
            wb_f = fill_absent(addr, dirty=is_write)
            assert wb_g == wb_f, \
                f"fill victim diverged at op {op} addr {addr}"
    assert _snapshot(generic) == _snapshot(fast)
    if not traced:
        return []
    events = tracer.events()
    assert generic.tracer.events() == events
    return events


def _locked(cache):
    """Way-locking (TreeLing root pinning) switches the victim pick from
    the LRU head to a locked-aware scan; set 0 is even fully locked so
    fills into it are dropped."""
    n_sets = cache.n_sets
    for way in range(cache.assoc):              # set 0: fully locked
        cache.lock(0 + way * n_sets)
    cache.lock(1)                                # set 1: one locked way
    cache.lock(2 + n_sets)                       # set 2: one locked way
    return cache


def _mirage_locked(cache):
    for addr in (0, 3, 17, 101):
        cache.lock(addr)
    return cache


#: organisation -> cache factory (same-seeded MIRAGE caches share hash
#: keys, so the skewed probe, power-of-two-choices placement and skew
#: counters must all match).
_ORGANISATIONS = {
    "plain": lambda name: Cache(_CFG, name),
    "locked": lambda name: _locked(Cache(_CFG, name)),
    "mirage": lambda name: MirageCache(_CFG, name, seed=7),
    "mirage-locked": lambda name: _mirage_locked(
        MirageCache(_CFG, name, seed=7)),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plain_cache_fast_probe_fill_equivalent(seed):
    make = _ORGANISATIONS["plain"]
    _drive_pair(make("g"), make("f"), seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_locked_way_cache_fast_probe_fill_equivalent(seed):
    """The closures must mirror the locked-aware victim pick and the
    dropped fills of a fully locked set."""
    make = _ORGANISATIONS["locked"]
    _drive_pair(make("g"), make("f"), seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mirage_cache_fast_probe_fill_equivalent(seed):
    make = _ORGANISATIONS["mirage"]
    _drive_pair(make("g"), make("f"), seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mirage_locked_fast_probe_fill_equivalent(seed):
    make = _ORGANISATIONS["mirage-locked"]
    _drive_pair(make("g"), make("f"), seed)


@pytest.mark.parametrize("org", sorted(_ORGANISATIONS))
def test_traced_fast_fill_emits_the_fill_events(org):
    """A fill bound with a tracer emits ``fill``'s events in ``fill``'s
    order: MIRAGE's ``place`` skew before the victim pick, and an
    ``evict`` for every victim, clean ones included.  Both caches share
    one name, so the two event lists must be equal."""
    make = _ORGANISATIONS[org]
    events = _drive_pair(make("c"), make("c"), 0, traced=True)
    names = {ev["name"] for ev in events}
    assert "evict" in names
    assert ("place" in names) == org.startswith("mirage")
    assert any(not ev["args"]["dirty"] for ev in events
               if ev["name"] == "evict"), "no clean victim was reported"


def test_mirage_traced_fill_places_before_a_dropped_fill():
    """With both candidate sets fully locked, MIRAGE still emits its
    ``place`` skew before it drops the fill, in both forms."""
    generic = MirageCache(_CFG, "c", seed=7)
    fast = MirageCache(_CFG, "c", seed=7)
    for cache in (generic, fast):
        for addr in range(1000, 11_000):
            if len(cache) == cache.n_sets * cache.assoc:
                break
            cache.lock(addr)
        assert len(cache) == cache.n_sets * cache.assoc
    tracer = EventTracer(limit=None)
    generic.tracer = EventTracer(limit=None)
    assert generic.fill(5) is None
    assert fast.bind_fast_fill(tracer)(5) is None
    assert not fast.contains(5)
    assert [ev["name"] for ev in tracer.events()] == ["place"]
    assert generic.tracer.events() == tracer.events()
    assert _snapshot(generic) == _snapshot(fast)


def test_prime_candidates_matches_lazy_hash():
    """Priming a batch must memoize exactly the values the lazy
    per-address splitmix64 produces -- including 64-bit wraparound."""
    primed = MirageCache(_CFG, "p", seed=13)
    lazy = MirageCache(_CFG, "l", seed=13)
    addrs = list(range(0, 3000, 37)) + [2**40 + 123, 2**63, 2**64 - 5]
    primed.prime_candidates(addrs)
    for addr in addrs:
        assert primed._cand[addr] == lazy._candidates(addr), hex(addr)
    # Re-priming with overlap only hashes the missing tail.
    primed.prime_candidates(addrs + [999_999])
    assert primed._cand[999_999] == lazy._candidates(999_999)
    # Plain caches expose the hook as a no-op.
    Cache(_CFG, "c").prime_candidates(addrs)


@pytest.mark.parametrize("make", [
    lambda name: Cache(_CFG, name),
    lambda name: MirageCache(_CFG, name, seed=7),
], ids=["plain", "mirage"])
def test_touch_dirty_equals_contains_then_dirty_lookup(make):
    """``touch_dirty`` fuses the SGX dirty walk's old ``contains`` +
    ``lookup(is_write=True)`` pair into one probe; hit/absent outcomes,
    LRU refresh, dirty bits and stats must be indistinguishable."""
    fused, paired = make("fused"), make("paired")
    rng = random.Random(42)
    for _ in range(600):
        addr = rng.randrange(_N_ADDRS)
        if rng.random() < 0.5:
            for c in (fused, paired):
                c.fill(addr, dirty=False)
        else:
            hit_f = fused.touch_dirty(addr)
            present = paired.contains(addr)
            if present:
                paired.lookup(addr, is_write=True)
            assert hit_f == present, f"touch_dirty diverged at {addr}"
    assert _snapshot(fused) == _snapshot(paired)


def test_sgx_dirty_walk_probes_each_node_once():
    """Regression for the counter-tree write walk: the old code probed
    the tree cache twice per path node (``contains`` then
    ``lookup(is_write=True)``); the fused walk issues exactly one
    ``touch_dirty`` per node and stops at the first cached level."""
    eng = resolve_engine("sgx-counter-tree")(tiny_config(n_cores=2),
                                             seed=11)
    tc = eng.tree_cache
    calls = {"touch": 0, "contains": 0}
    orig_touch = tc.touch_dirty

    def counting_touch(addr):
        calls["touch"] += 1
        return orig_touch(addr)

    def counting_contains(addr):
        calls["contains"] += 1
        return Cache.contains(tc, addr)

    tc.touch_dirty = counting_touch
    tc.contains = counting_contains
    path_len = len(eng.geo.path_addrs(5))
    assert path_len > 0
    # Cold write: the verification walk fills the whole path (dirty), so
    # the dirty walk's first probe hits and the walk stops -- one fused
    # probe, zero contains.
    eng.data_access(0, 5, 0, True, 0.0)
    assert calls["contains"] == 0, "dirty walk still double-probes"
    assert 1 <= calls["touch"] <= path_len
    # Warm write: path fully cached, the walk terminates on probe #1.
    calls["touch"] = 0
    eng.data_access(0, 5, 1, True, 100.0)
    assert calls["touch"] == 1
    assert calls["contains"] == 0


def _run_engine(scheme, traced, mix="M-2", n_accesses=400, seed=3,
                warmup=100):
    """The golden M-2 stream, with or without a tracer.  A tracer
    installed on the engine alone rebinds its hooks (emitting the cache
    and DRAM events) while the simulator runs untraced."""
    cfg = tiny_config(n_cores=4)
    engine = resolve_engine(scheme)(cfg, seed=11)
    if traced:
        engine.set_tracer(EventTracer(limit=1))
    workload = build_mix(mix, n_accesses=n_accesses, seed=seed, scale=0.05)
    frame_policy = ("sequential" if scheme.startswith("static-partition")
                    else "fragmented")
    sim = Simulator(cfg, engine, seed=seed, frame_policy=frame_policy)
    result = sim.run(workload, warmup=warmup)
    hists = {name: h.to_dict() for name, h in sim._class_hist.items()}
    return result.to_dict(), sim.registry.snapshot(), hists


@pytest.mark.parametrize("scheme", ALL_NINE)
def test_engine_fast_path_bit_identical(scheme):
    """Every engine: a tracer changes no result.  The one walk over
    hooks bound with and without a tracer yields equal results,
    registry snapshots and histogram buckets."""
    f_res, f_reg, f_hist = _run_engine(scheme, traced=False)
    t_res, t_reg, t_hist = _run_engine(scheme, traced=True)
    assert f_reg == t_reg
    assert f_hist == t_hist, "per-class latency histogram buckets differ"
    assert f_res == t_res


@pytest.mark.parametrize("scheme", ALL_NINE)
def test_bound_hooks_leave_no_reference_cycle(scheme):
    """The hooks close over the controller, the stats, the caches, the
    tracer and the counter observer, never over the engine, and the
    DRAM's bound open-row body holds the device's state, never the
    device: a used engine, its controller, its DRAM and its three
    metadata caches are freed by reference counting alone, untraced,
    traced and with an oracle attached (an engine kept alive until a
    full cycle collection inflates the peak memory of oracle replays)."""
    cfg = tiny_config(n_cores=2)
    installs = (lambda e: None,
                lambda e: e.set_tracer(EventTracer(limit=8)),
                lambda e: DifferentialOracle(cfg, e, seed=0))
    gc.disable()
    try:
        for install in installs:
            engine = resolve_engine(scheme)(cfg, seed=11)
            attached = install(engine)
            engine.on_domain_start(1)
            pfn = (engine.frame_range(1)[0]
                   if hasattr(engine, "frame_range") else 5)
            engine.on_page_alloc(1, pfn, 0.0)
            engine.data_access(1, pfn, 0, True, 0.0)
            engine.handle_writeback(1, pfn, 0, 10.0)
            refs = [weakref.ref(obj) for obj in (
                engine, engine.mc, engine.mc.dram, engine.counter_cache,
                engine.mac_cache, engine.tree_cache)]
            del engine, attached
            assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _spy_generic_bodies(monkeypatch):
    """Record ``(name, caller code)`` for every call of the caches' own
    ``lookup``/``fill`` and the controller's ``read``/``write``."""
    calls = []
    for cls, attr in ((Cache, "lookup"), (MirageCache, "lookup"),
                      (Cache, "fill"), (MirageCache, "fill"),
                      (MemoryController, "read"),
                      (MemoryController, "write")):
        def counted(*args, _orig=getattr(cls, attr),
                    _name=f"{cls.__name__}.{attr}", **kwargs):
            calls.append((_name, sys._getframe(1).f_code))
            return _orig(*args, **kwargs)
        monkeypatch.setattr(cls, attr, counted)
    return calls


@pytest.mark.parametrize("scheme", ["baseline", "ivleague-pro"])
def test_traced_run_binds_the_fused_hooks(scheme, monkeypatch):
    """Under an ``EventTracer`` the engine and the drain loop bind the
    same closures as untraced: the generic bodies run only for page
    walks, through the hierarchy and the controller, and for the drain
    loop's dirty-victim re-inserts."""
    calls = _spy_generic_bodies(monkeypatch)
    walk_code = {Simulator._page_walk.__code__,
                 CacheHierarchy.access.__code__}
    cfg = tiny_config(n_cores=4)
    engine = resolve_engine(scheme)(cfg, seed=11)
    workload = build_mix("M-2", n_accesses=400, seed=3, scale=0.05)
    Simulator(cfg, engine, seed=3, frame_policy="fragmented",
              tracer=EventTracer(limit=1)).run(workload, warmup=100)
    assert engine._instrumented
    assert any(code in walk_code for _, code in calls), \
        "no page walk ran: the spy proves nothing"
    stray = [(name, code.co_name) for name, code in calls
             if code not in walk_code
             and not (code is Simulator._core_gen.__code__
                      and name.endswith(".fill"))]
    assert stray == []


@pytest.mark.parametrize("scheme", ["ivleague-basic", "baseline+mirage",
                                    "static-partition"])
def test_leakage_pairs_run_the_fused_hooks(scheme, monkeypatch):
    """The leakage contracts check the hooks the figures run: a traced
    pair calls none of the generic cache or controller bodies."""
    calls = _spy_generic_bodies(monkeypatch)
    res = run_pair(PairSpec(scheme, rounds=8))
    assert res.failure is None
    assert all(rec["events"][0] > 0 for rec in res.domains.values())
    assert [name for name, _ in calls] == []
