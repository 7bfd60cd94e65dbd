"""Stateful property testing of the IvLeague engines.

Hypothesis drives random interleavings of page allocation, freeing and
data accesses against each engine and checks the structural invariants
after every step:

* page -> slot mapping is a bijection (no slot serves two pages);
* no page ever maps to a slot flagged ``is_parent``;
* all of a domain's slots live in TreeLings owned by that domain;
* the TreeLing pool accounting balances (assigned + unassigned = total).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.core.invert import IvLeagueInvertEngine
from repro.core.ivleague import IvLeagueBasicEngine
from repro.core.pro import IvLeagueProEngine
from repro.sim.config import tiny_config


class _EngineMachine(RuleBasedStateMachine):
    engine_cls = IvLeagueBasicEngine

    @initialize()
    def setup(self) -> None:
        self.engine = self.engine_cls(tiny_config(n_cores=2))
        self.engine.on_domain_start(1)
        self.engine.on_domain_start(2)
        self.live: dict[int, int] = {}   # pfn -> domain
        self.now = 0.0
        self.next_pfn = {1: 0, 2: 8000}

    # -- actions ------------------------------------------------------------------

    @rule(domain=st.sampled_from([1, 2]))
    def alloc(self, domain: int) -> None:
        pfn = self.next_pfn[domain]
        self.next_pfn[domain] += 1
        self.engine.on_page_alloc(domain, pfn, self.now)
        self.live[pfn] = domain
        self.now += 100

    @rule(data=st.data())
    def free(self, data) -> None:
        if not self.live:
            return
        pfn = data.draw(st.sampled_from(sorted(self.live)))
        domain = self.live.pop(pfn)
        self.engine.on_page_free(domain, pfn, self.now)
        self.now += 100

    @rule(data=st.data(), block=st.integers(0, 63),
          write=st.booleans())
    def access(self, data, block: int, write: bool) -> None:
        if not self.live:
            return
        pfn = data.draw(st.sampled_from(sorted(self.live)))
        self.engine.data_access(self.live[pfn], pfn, block, write,
                                self.now)
        self.now += 200

    # -- invariants -----------------------------------------------------------------

    @invariant()
    def slots_are_a_bijection(self) -> None:
        e = self.engine
        seen = {}
        for pfn in self.live:
            slot = e.leafmap.get(pfn)
            assert slot not in seen, \
                f"slot shared by pages {seen[slot]} and {pfn}"
            seen[slot] = pfn
            assert e._slot_pfn.get(slot) == pfn

    @invariant()
    def no_page_on_a_parent_slot(self) -> None:
        e = self.engine
        for pfn in self.live:
            assert e.leafmap.get(pfn) not in e._parent_slots

    @invariant()
    def slots_live_in_owned_treelings(self) -> None:
        e = self.engine
        owned = {d: set(e.pool.treelings_of(d)) for d in (1, 2)}
        for pfn, domain in self.live.items():
            ref = e.geometry.decode_slot(e.leafmap.get(pfn))
            assert ref.treeling in owned[domain]

    @invariant()
    def pool_accounting_balances(self) -> None:
        e = self.engine
        assigned = sum(len(e.pool.treelings_of(d)) for d in (1, 2))
        assert assigned + e.pool.unassigned_count == e.pool.n_treelings


class TestBasicStateful(_EngineMachine.TestCase):
    pass


class _InvertMachine(_EngineMachine):
    engine_cls = IvLeagueInvertEngine


class TestInvertStateful(_InvertMachine.TestCase):
    pass


class _ProMachine(_EngineMachine):
    engine_cls = IvLeagueProEngine


class TestProStateful(_ProMachine.TestCase):
    pass


for cls in (TestBasicStateful, TestInvertStateful, TestProStateful):
    cls.settings = settings(max_examples=12, stateful_step_count=40,
                            deadline=None)
del cls   # else pytest collects the loop variable as a fourth test class
