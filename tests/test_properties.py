"""Property-based tests (hypothesis) on the core data structures.

These target the invariants the paper's correctness rests on:

* the NFL never double-allocates a slot, never loses an allocated slot,
  and reallocation after frees converges (utilization);
* the cache never exceeds capacity and hits exactly what it holds;
* split counters are strictly monotone per block;
* the functional BMT accepts all honest histories and rejects replays;
* TreeLing slot ids round-trip.
"""

from hypothesis import given, settings, strategies as st

from repro.core.nfl import ChainedNFL
from repro.core.treeling import SlotRef, TreeLingGeometry
from repro.mem.cache import Cache
from repro.secure.bmt import BonsaiMerkleTree, TamperDetected, TreeGeometry
from repro.secure.counters import CounterBlock, CounterStore
from repro.sim.config import CacheConfig, TREE_ARITY


# --------------------------------------------------------------------------
# NFL
# --------------------------------------------------------------------------

@st.composite
def nfl_scripts(draw):
    """A random interleaving of alloc/free operations."""
    n_nodes = draw(st.integers(2, 24))
    ops = draw(st.lists(st.booleans(), min_size=1, max_size=200))
    return n_nodes, ops


@given(nfl_scripts())
@settings(max_examples=60, deadline=None)
def test_nfl_never_double_allocates(script):
    n_nodes, ops = script
    chain = ChainedNFL()
    chain.append_treeling(0, list(range(n_nodes)))
    live: set[tuple[int, int]] = set()
    freed_order: list[tuple[int, int]] = []
    for is_alloc in ops:
        if is_alloc:
            op = chain.alloc()
            if not op.ok:
                continue
            key = (op.node_global, op.slot)
            assert key not in live, "slot handed out twice"
            live.add(key)
        elif live:
            key = live.pop()
            chain.free(*key)
            freed_order.append(key)
    # invariant: tracked free + live + leaked covers all slots
    total = n_nodes * TREE_ARITY
    assert chain.tracked_free_slots() + len(live) \
        + chain.leaked_slots == total


@given(st.integers(1, 16), st.integers(1, 100))
@settings(max_examples=40, deadline=None)
def test_nfl_alloc_until_exhaustion_counts_capacity(n_nodes, seed):
    chain = ChainedNFL()
    chain.append_treeling(0, list(range(n_nodes)))
    got = 0
    while chain.alloc().ok:
        got += 1
    assert got == n_nodes * TREE_ARITY


@given(st.lists(st.integers(0, 500), min_size=1, max_size=300))
@settings(max_examples=40, deadline=None)
def test_cache_capacity_and_presence(addresses):
    c = Cache(CacheConfig(16 * 64, 4, hit_latency=1))
    for a in addresses:
        c.fill(a)
        assert c.contains(a)      # most recent fill always present
        assert len(c) <= c.config.n_blocks


@given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
@settings(max_examples=40, deadline=None)
def test_counter_strictly_monotone(blocks):
    cb = CounterBlock()
    last = {b: -1 for b in range(64)}
    for b in blocks:
        v = cb.value(b)
        assert v > last[b]
        last[b] = v
        cb.increment(b)
        # an overflow resets minors but bumps major: value still grows
        assert cb.value(b) > v or cb.value(b) > last[b]


@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                min_size=1, max_size=40))
@settings(max_examples=25, deadline=None)
def test_bmt_accepts_honest_histories(writes):
    store = CounterStore()
    tree = BonsaiMerkleTree(TreeGeometry(64), store)
    for page, block in writes:
        tree.update_counter(page, block)
    for page, _ in writes:
        tree.verify(page)        # must not raise


@given(st.integers(0, 63), st.integers(0, 63), st.integers(2, 50))
@settings(max_examples=25, deadline=None)
def test_bmt_rejects_replays(page, block, n_writes):
    store = CounterStore()
    tree = BonsaiMerkleTree(TreeGeometry(64), store)
    for _ in range(n_writes):
        tree.update_counter(page, block)
    old = store.block(page).minors[block] - 1
    tree.tamper_counter(page, block, old)
    try:
        tree.verify(page)
        raised = False
    except TamperDetected:
        raised = True
    assert raised


@given(st.integers(1, 5), st.integers(0, 63), st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_slot_id_roundtrip(height, raw_index, slot):
    geo = TreeLingGeometry(height)
    for level in range(1, height + 1):
        index = raw_index % geo.level_nodes[level]
        ref = SlotRef(3, level, index, slot)
        assert geo.decode_slot(geo.slot_id(ref)) == ref


@given(st.lists(st.integers(0, 2000), min_size=1, max_size=200),
       st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_tree_geometry_paths_always_reach_root(counters, scale):
    geo = TreeGeometry(512 * scale)
    for c in counters:
        c %= geo.n_counter_blocks
        path = geo.path_to_root(c)
        assert path[-1].level == geo.height
        assert len(path) == geo.height


@given(st.lists(st.integers(2, 64), min_size=1, max_size=3),
       st.integers(1, 50_000), st.sampled_from([0, 1 << 40, 1 << 44]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_tree_geometry_path_follows_parent_links(arities, n, region, data):
    """With any per-level arities and region, the verification path is
    the leaf's parent chain and ``path_addrs`` its node addresses."""
    geo = TreeGeometry(n, tuple(arities), region=region)
    c = data.draw(st.integers(0, n - 1))
    path = geo.path_to_root(c)
    assert path[0] == geo.leaf_for_counter(c)
    for node, parent in zip(path, path[1:]):
        assert geo.parent(node) == parent
    assert geo.path_addrs(c) == [geo.node_addr(node) for node in path[:-1]]
