"""Observable-trace projection tests: the per-domain canonical
projection itself, every engine's observable traces on the golden S-1
stream (schema-valid, fully attributed, several domains, repeatable;
``tests/test_golden.py`` pins their digests), and the leakage
statistics (plug-in MI / total-variation distance) on synthetic
fixtures with known mutual information."""

import math

import pytest

from repro.experiments.parallel import resolve_engine
from repro.obs.leakage import plugin_mi_bits, tv_distance
from repro.obs.observables import (ObservableTrace, first_divergence,
                                   observable_tuple, project_events)
from repro.sim.config import tiny_config
from repro.sim.simulator import Simulator
from repro.sim.trace import EventTracer, validate_events
from repro.workloads.mixes import build_mix

ALL_NINE = ["baseline", "ivleague-basic", "ivleague-invert",
            "ivleague-pro", "ivleague-bv1", "ivleague-bv2",
            "sgx-counter-tree", "vault", "static-partition"]


def _ev(cat, name, ph="i", ts=0, **args):
    return {"ph": ph, "cat": cat, "name": name, "ts": ts, "args": args}


class TestProjection:
    def test_tuple_shape_and_sorted_resource(self):
        ev = _ev("tree", "node", addr=7, level=2, domain=1)
        assert observable_tuple(ev, 5) == ("tree.node", "addr=7,level=2", 5)

    def test_excluded_args_do_not_reach_resource(self):
        ev = _ev("dram", "read", bank=3, row=9, row_hit=True, core=2,
                 domain=0)
        cls, resource, _ = observable_tuple(ev, 0)
        assert cls == "dram.read"
        assert resource == "bank=3,row=9"

    def test_non_observables_project_to_none(self):
        # span ends and metadata are noise; non-observable cats skipped
        assert observable_tuple({"ph": "E", "cat": "tree", "name": "node",
                                 "ts": 0}, 0) is None
        assert observable_tuple(_ev("sim", "tick", n=1), 0) is None
        assert observable_tuple(_ev("request", "llc_miss", core=0), 0) \
            is None

    def test_per_domain_split_with_ordinal_ts(self):
        evs = [_ev("cache", "evict", ts=100, addr=1, domain=0),
               _ev("cache", "evict", ts=200, addr=2, domain=1),
               _ev("tree", "node", ts=300, addr=3, domain=0),
               _ev("sim", "tick", ts=400, n=1)]
        traces, problems = project_events(evs)
        assert problems == []
        assert sorted(traces) == [0, 1]
        # ordinal ts restarts per domain and ignores the cycle stamps
        assert traces[0].tuples == [("cache.evict", "addr=1", 0),
                                    ("tree.node", "addr=3", 1)]
        assert traces[1].tuples == [("cache.evict", "addr=2", 0)]

    def test_cycle_ts_mode_keeps_cycle_stamps(self):
        evs = [_ev("cache", "evict", ts=100.0, addr=1, domain=0)]
        traces, _ = project_events(evs, ts_mode="cycle")
        assert traces[0].tuples[0][2] == 100.0
        with pytest.raises(ValueError):
            project_events(evs, ts_mode="wallclock")

    def test_untagged_observables_become_problems(self):
        evs = [_ev("cache", "evict", addr=1),            # missing
               _ev("tree", "node", addr=2, domain=-1),   # negative
               _ev("dram", "read", bank=0, domain=True),  # bool
               _ev("nfl", "hit", addr=4, domain=2)]      # fine
        traces, problems = project_events(evs)
        assert len(problems) == 3
        assert all("domain tag" in p for p in problems)
        assert sorted(traces) == [2]

    def test_canonical_digest_and_counts(self):
        t = ObservableTrace(0, [("cache.evict", "addr=1", 0),
                                ("cache.evict", "addr=2", 1),
                                ("tree.node", "addr=3", 2)])
        assert t.canonical() == ('[["cache.evict","addr=1",0],'
                                 '["cache.evict","addr=2",1],'
                                 '["tree.node","addr=3",2]]')
        assert len(t.digest()) == 16
        assert t.class_counts() == {"cache.evict": 2, "tree.node": 1}
        assert len(t) == 3

    def test_first_divergence(self):
        a = ObservableTrace(0, [("x", "1", 0), ("x", "2", 1)])
        b = ObservableTrace(0, [("x", "1", 0), ("x", "2", 1)])
        assert first_divergence(a, b) is None
        c = ObservableTrace(0, [("x", "1", 0), ("y", "2", 1)])
        div = first_divergence(a, c)
        assert div["index"] == 1 and div["b"] == ["y", "2", 1]
        d = ObservableTrace(0, [("x", "1", 0)])
        div = first_divergence(a, d)
        assert div["length_mismatch"] == [2, 1] and div["extra_in"] == "a"


class TestGoldenCrossCore:
    """Every engine's traced golden S-1 stream yields schema-valid
    events, no unattributed observable and several non-empty domains,
    and identical runs produce byte-identical per-domain observable
    traces."""

    @staticmethod
    def _observables(scheme):
        cfg = tiny_config(n_cores=4)
        engine = resolve_engine(scheme)(cfg, seed=11)
        tracer = EventTracer(limit=None)
        policy = ("sequential" if scheme.startswith("static-partition")
                  else "fragmented")
        sim = Simulator(cfg, engine, seed=3, frame_policy=policy,
                        tracer=tracer)
        wl = build_mix("S-1", n_accesses=400, seed=3, scale=0.05)
        sim.run(wl, warmup=100)
        evs = tracer.events()
        assert validate_events(evs) == []
        traces, problems = project_events(evs)
        assert problems == [], problems[:5]
        return traces

    @pytest.mark.parametrize("scheme", ALL_NINE)
    def test_observable_traces_cover_several_domains(self, scheme):
        traces = self._observables(scheme)
        assert len(traces) >= 2   # several domains actually observed
        for d in traces:
            assert len(traces[d]) > 0, f"{scheme} domain {d} is empty"

    def test_repeated_run_is_byte_identical(self):
        a = self._observables("ivleague-basic")
        b = self._observables("ivleague-basic")
        assert {d: t.digest() for d, t in a.items()} \
            == {d: t.digest() for d, t in b.items()}


class TestLeakageStatistics:
    """Satellite 4: the MI estimator and histogram distance on synthetic
    distributions with known mutual information."""

    def test_zero_leak_has_zero_mi(self):
        # the feature is constant: I(bit; feature) = 0 exactly
        pairs = [(b, 7) for b in (0, 1) * 16]
        assert plugin_mi_bits(pairs) == 0.0
        # independent but non-constant: identical conditionals, MI = 0
        pairs = [(b, v) for b in (0, 1) for v in (3, 3, 5, 5)]
        assert plugin_mi_bits(pairs) == pytest.approx(0.0, abs=1e-12)

    def test_full_leak_is_one_bit(self):
        pairs = [(b, b) for b in (0, 1) * 16]
        assert plugin_mi_bits(pairs) == pytest.approx(1.0)

    def test_partial_leak_matches_channel_capacity(self):
        # binary symmetric channel with crossover 0.25:
        # I = 1 - H(0.25) = 0.18872... bits
        pairs = ([(0, 0)] * 12 + [(0, 1)] * 4
                 + [(1, 1)] * 12 + [(1, 0)] * 4)
        h = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert plugin_mi_bits(pairs) == pytest.approx(1.0 - h)

    def test_mi_edge_cases(self):
        assert plugin_mi_bits([]) == 0.0
        assert plugin_mi_bits([(0, 1)]) == 0.0   # single sample

    def test_tv_distance(self):
        assert tv_distance([1, 2, 3], [1, 2, 3]) == 0.0
        assert tv_distance([1, 1], [2, 2]) == 1.0
        assert tv_distance([0, 0, 1, 1], [0, 0, 0, 0]) \
            == pytest.approx(0.5)
        assert tv_distance([], []) == 0.0
