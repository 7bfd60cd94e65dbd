"""Tests for the tracing layer: tracer mechanics, trace-event schema
validation on real runs, provenance manifests, the NullTracer overhead
guard, and the CLI trace/profile plumbing."""

import json
import time
import timeit

import pytest

from repro import ENGINES
from repro.secure.engine import BaselineEngine
from repro.core.pro import IvLeagueProEngine
from repro.sim.config import scaled_config, tiny_config
from repro.sim.provenance import config_hash, git_sha, run_manifest
from repro.sim.simulator import Simulator
from repro.sim.trace import (CATEGORIES, NULL_TRACER, EventTracer,
                             NullTracer, chrome_payload, validate_events,
                             write_chrome_trace)
from repro.workloads.generator import build_workload


def _wl(n=1500):
    return build_workload("t", ["gcc", "x264"], n, seed=1, scale=0.03)


class TestNullTracer:
    def test_disabled_and_noop(self):
        t = NullTracer()
        assert t.enabled is False
        assert t.begin("sim", "x") is None
        assert t.end("sim", "x") is None
        assert t.complete("sim", "x", 0, 1) is None
        assert t.instant("sim", "x") is None

    def test_shared_singleton(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled


class TestEventTracer:
    def test_records_chrome_events(self):
        t = EventTracer(limit=None)
        t.begin("engine", "data_access", ts=10, pfn=3)
        t.end("engine", "data_access", ts=20)
        t.complete("request", "llc_miss", ts=10, dur=10, core=0)
        t.instant("tlb", "miss", ts=12)
        evs = t.events()
        assert [e["ph"] for e in evs] == ["B", "E", "X", "i"]
        # every event with args is stamped with the ambient domain (0)
        assert evs[0]["args"] == {"pfn": 3, "domain": 0}
        assert evs[2]["dur"] == 10
        assert validate_events(evs) == []

    def test_ambient_domain_stamping(self):
        t = EventTracer(limit=None)
        t.instant("cache", "evict", ts=1, addr=5)
        t.cur_domain = 3
        t.instant("cache", "evict", ts=2, addr=5)
        # an explicit domain arg wins over the ambient one
        t.instant("cache", "evict", ts=3, addr=5, domain=7)
        doms = [e["args"]["domain"] for e in t.events()]
        assert doms == [0, 3, 7]

    def test_ambient_clock_and_tid(self):
        t = EventTracer(limit=None)
        t.clock = 42.0
        t.cur_tid = 3
        t.instant("cache", "evict")
        ev = t.events()[0]
        assert ev["ts"] == 42.0 and ev["tid"] == 3

    def test_ring_buffer_drops_oldest(self):
        t = EventTracer(limit=5)
        for i in range(12):
            t.instant("sim", "tick", ts=i, n=i)
        assert t.emitted == 12
        assert t.dropped == 7
        assert [e["args"]["n"] for e in t.events()] == [7, 8, 9, 10, 11]

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            EventTracer(limit=0)

    def test_payload_merges_schemes_with_process_names(self):
        a, b = EventTracer(limit=None, pid=0), EventTracer(limit=None, pid=1)
        a.instant("sim", "x", ts=1)
        b.instant("sim", "y", ts=2)
        payload = chrome_payload({"baseline": a, "ivleague-pro": b},
                                 {"seed": 7})
        names = [e["args"]["name"] for e in payload["traceEvents"]
                 if e["ph"] == "M"]
        assert names == ["baseline", "ivleague-pro"]
        pids = {e["pid"] for e in payload["traceEvents"] if e["ph"] != "M"}
        assert pids == {0, 1}
        assert payload["metadata"]["seed"] == 7
        assert payload["metadata"]["emitted_events"] \
            == {"baseline": 1, "ivleague-pro": 1}
        # no drops: the dropped_events key stays absent
        assert "dropped_events" not in payload["metadata"]


class TestValidator:
    def test_detects_unknown_category(self):
        assert validate_events([{"ph": "i", "cat": "bogus", "name": "x",
                                 "ts": 0}])

    def test_detects_unmatched_spans(self):
        probs = validate_events([{"ph": "B", "cat": "sim", "name": "a",
                                  "ts": 0}])
        assert any("unclosed" in p for p in probs)
        probs = validate_events([{"ph": "E", "cat": "sim", "name": "a",
                                  "ts": 0}])
        assert any("without begin" in p for p in probs)

    def test_detects_backwards_begin(self):
        evs = [{"ph": "B", "cat": "sim", "name": "a", "ts": 5},
               {"ph": "E", "cat": "sim", "name": "a", "ts": 6},
               {"ph": "B", "cat": "sim", "name": "b", "ts": 2},
               {"ph": "E", "cat": "sim", "name": "b", "ts": 3}]
        assert any("backwards" in p for p in validate_events(evs))

    def test_detects_bad_ts_and_dur(self):
        assert validate_events([{"ph": "i", "cat": "sim", "name": "x",
                                 "ts": -1}])
        assert validate_events([{"ph": "X", "cat": "sim", "name": "x",
                                 "ts": 0, "dur": -2}])

    def test_observable_events_require_domain_tag(self):
        # cache/tree/dram/... events must carry a valid domain arg
        bad = [{"ph": "i", "cat": "cache", "name": "evict", "ts": 0,
                "args": {"addr": 1}},
               {"ph": "i", "cat": "tree", "name": "node", "ts": 1,
                "args": {"addr": 2, "domain": -1}},
               {"ph": "i", "cat": "dram", "name": "read", "ts": 2,
                "args": {"bank": 0, "domain": True}}]
        probs = validate_events(bad)
        assert len([p for p in probs if "domain tag" in p]) == 3
        ok = [{"ph": "i", "cat": "cache", "name": "evict", "ts": 0,
               "args": {"addr": 1, "domain": 0}},
              # non-observable categories are exempt
              {"ph": "i", "cat": "sim", "name": "tick", "ts": 1,
               "args": {"n": 1}}]
        assert validate_events(ok) == []


class TestSimulatorTraces:
    """The acceptance-criterion tests: real runs produce schema-valid,
    Perfetto-loadable traces for every engine."""

    @pytest.mark.parametrize("scheme", sorted(ENGINES))
    def test_every_engine_emits_valid_trace(self, tiny, scheme):
        tracer = EventTracer(limit=None)
        sim = Simulator(tiny, ENGINES[scheme](tiny), tracer=tracer)
        sim.run(_wl(), warmup=500)
        evs = tracer.events()
        assert len(evs) > 1000
        assert validate_events(evs) == []
        cats = {e["cat"] for e in evs}
        assert cats <= CATEGORIES
        # the full request lifecycle is represented
        assert {"request", "engine", "tree", "mac", "dram",
                "cache", "tlb", "page"} <= cats

    def test_request_classes_cover_hierarchy_levels(self, tiny):
        tracer = EventTracer(limit=None)
        sim = Simulator(tiny, BaselineEngine(tiny), tracer=tracer)
        sim.run(_wl(), warmup=0)
        req_names = {e["name"] for e in tracer.events()
                     if e["cat"] == "request"}
        assert "llc_miss" in req_names
        assert req_names <= {"l1_hit", "l2_hit", "llc_hit", "llc_miss"}

    def test_ivleague_domain_lifecycle_events(self, tiny):
        tracer = EventTracer(limit=None)
        sim = Simulator(tiny, IvLeagueProEngine(tiny), tracer=tracer)
        sim.run(_wl(), warmup=0)
        names = {(e["cat"], e["name"]) for e in tracer.events()}
        assert ("domain", "start") in names
        assert ("domain", "treeling_attach") in names
        assert ("page", "fault") in names
        assert ("nfl", "hit") in names or ("nfl", "miss") in names

    def test_tracing_does_not_change_simulation(self, tiny):
        wl = _wl()
        plain = Simulator(tiny, BaselineEngine(tiny))
        traced = Simulator(tiny, BaselineEngine(tiny),
                           tracer=EventTracer(limit=64))
        r0 = plain.run(wl, warmup=500)
        r1 = traced.run(wl, warmup=500)
        assert r0.registry_snapshot == r1.registry_snapshot

    def test_trace_file_is_perfetto_loadable_json(self, tiny, tmp_path):
        tracer = EventTracer(limit=None)
        sim = Simulator(tiny, BaselineEngine(tiny), tracer=tracer)
        sim.run(_wl(), warmup=0)
        path = tmp_path / "out" / "trace.json"
        write_chrome_trace(str(path), {"baseline": tracer},
                           run_manifest(config=tiny, seed=1))
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert validate_events(payload["traceEvents"]) == []
        assert payload["metadata"]["config_hash"] == config_hash(tiny)
        assert payload["metadata"]["trace_schema_version"] >= 1


class TestProvenance:
    def test_config_hash_is_stable_and_sensitive(self):
        assert config_hash(scaled_config(4)) == config_hash(scaled_config(4))
        assert config_hash(scaled_config(4)) != config_hash(scaled_config(8))
        assert len(config_hash(tiny_config(2))) == 16

    def test_git_sha_shape(self):
        sha = git_sha()
        assert sha is None or (len(sha) == 40
                               and all(c in "0123456789abcdef" for c in sha))

    def test_manifest_contents(self):
        m = run_manifest(config=tiny_config(2), seed=9, mix="S-1")
        assert m["seed"] == 9
        assert m["mix"] == "S-1"
        assert m["schema_version"] >= 1
        assert m["tool"] == "repro"
        assert "created" in m and "python" in m

    def test_deterministic_manifest_drops_volatile_fields(self):
        m = run_manifest(config=tiny_config(2), seed=9, deterministic=True)
        assert "created" not in m and "host" not in m
        m2 = run_manifest(config=tiny_config(2), seed=9, deterministic=True)
        assert m == m2


class TestOverheadGuard:
    """Acceptance criterion: with tracing off, telemetry must cost <5% of
    the smoke workload's wall time.

    Measured compositionally (robust on shared CI boxes): count exactly
    what the untraced run executes for telemetry, microbenchmark the
    price of each kind of operation, and compare the product against
    the measured run time with a margin.
    """

    def test_null_tracer_overhead_under_5_percent(self, tiny, monkeypatch):
        """The untraced run's null-guard reads and flag tests cost under
        5% of its wall time.

        Two costs are counted exactly in one untraced run and each is
        priced by its own microbenchmark:

        - every read of ``NullTracer.enabled``, counted by a property as
          in the test below and priced as ``t.enabled and None``;
        - every truth test of the value those reads return, counted by
          the value's ``__bool__`` and priced as ``if tracing: pass`` on
          a local ``False``.  These are the drain loop's tests of its
          cached ``tracing`` flag (two per access, one per page fault
          and two per page walk), the engine's tests of its cached
          ``_instrumented`` flag and each guard's own branch, which the
          read's price already includes, so it is charged twice.

        Derivation, over 25 isolated runs on a 2-vCPU VM: this
        2 x 2,000-access run makes 5,627 reads and 32,780 tests, 9,861 of
        them in the drain loop (2 x 4,000 accesses + 315 faults + 2 x 773
        walks).  A read prices at 24-62 ns and a test at 4.9-7.3 ns, and
        the run takes 0.11-0.20 s, so the count comes to 0.2-0.4% of the
        run.  The read's price varies 2.6x between runs, which the 3x
        margin covers; with it the estimate is 0.65-1.10%, at least 4.5x
        inside the 5% budget.
        """
        wl = _wl(2000)
        counts = {"reads": 0, "tests": 0}

        class _Off:
            """What ``enabled`` reads as: false, counting its tests."""

            def __bool__(self):
                counts["tests"] += 1
                return False

        off = _Off()

        def _counting(self):
            counts["reads"] += 1
            return off

        with monkeypatch.context() as mp:
            mp.setattr(NullTracer, "enabled", property(_counting))
            Simulator(tiny, BaselineEngine(tiny)).run(wl)
        n_reads, n_tests = counts["reads"], counts["tests"]
        assert n_reads > 0 and n_tests > n_reads
        # wall time of the same run with plain (restored) nulls, best of 2
        run_time = float("inf")
        for _ in range(2):
            sim = Simulator(tiny, BaselineEngine(tiny))
            t0 = time.perf_counter()
            sim.run(wl)
            run_time = min(run_time, time.perf_counter() - t0)
        # each operation's price, with the timeit loop's own overhead
        # subtracted out; tests are timed ten to a loop pass, or the
        # loop's jitter can swallow a test's few nanoseconds
        n_bench = 100_000
        loop = min(timeit.repeat("pass", number=n_bench, repeat=5))
        read = min(timeit.repeat("t.enabled and None",
                                 globals={"t": NULL_TRACER},
                                 number=n_bench, repeat=5))
        test = min(timeit.repeat("if tracing: pass\n" * 10,
                                 setup="tracing = False",
                                 number=n_bench, repeat=5))
        per_read = max(read - loop, 0.0) / n_bench
        per_test = max(test - loop, 0.0) / (10 * n_bench)
        overhead = (n_reads * per_read + n_tests * per_test) * 3
        assert overhead < 0.05 * run_time, (
            f"estimated NullTracer overhead {overhead:.4f}s "
            f"({n_reads} guard reads, {n_tests} flag tests) vs run "
            f"{run_time:.4f}s ({100 * overhead / run_time:.1f}%)")

    def test_batched_core_disabled_telemetry_under_5_percent(
            self, tiny, monkeypatch):
        """The simulator with tracer and metrics off must stay under a 5%
        telemetry budget.

        The drain loop reads ``enabled`` once per drain, not per event;
        the remaining guard checks sit on engine, fault and walk paths.
        The drain loop's tests of its cached ``tracing`` flag read no
        ``enabled`` and are not counted here; the test above counts and
        charges them.  The count is exact:
        ``enabled`` on the null tracer becomes a counting property for
        one run, then the product with a microbenchmarked guard cost is
        compared against an uninstrumented run's wall time.  The cache
        fills and the DRAM's open-row body read ``enabled`` once, at
        bind time, and test their bound tracer with ``is not None``
        instead: once per DRAM command and at most twice per fill, and
        a fill follows each cache miss.  Those tests are counted from
        the run's registry snapshot and priced by a microbenchmark of
        their own.
        """
        wl = _wl(2000)
        counts = {"n": 0}

        def _counting(self):
            counts["n"] += 1
            return False

        with monkeypatch.context() as mp:
            mp.setattr(NullTracer, "enabled", property(_counting))
            snap = Simulator(tiny, BaselineEngine(tiny)).run(
                wl).registry_snapshot
        n_checks = counts["n"]
        assert n_checks > 0, "no guard site was exercised at all"
        n_emit_tests = (snap["dram"]["reads"] + snap["dram"]["writes"]
                        + 2 * sum(rec["misses"] for rec in snap.values()
                                  if "evictions" in rec))
        # wall time of the same run with plain (restored) nulls
        run_time = float("inf")
        for _ in range(2):
            sim = Simulator(tiny, BaselineEngine(tiny))
            t0 = time.perf_counter()
            sim.run(wl)
            run_time = min(run_time, time.perf_counter() - t0)
        t = NULL_TRACER
        n_bench = 100_000
        loop = min(timeit.repeat("pass", number=n_bench, repeat=5))
        check = min(timeit.repeat("t.enabled and None", globals={"t": t},
                                  number=n_bench, repeat=5))
        per_check = max(check - loop, 0.0) / n_bench
        emit_test = min(timeit.repeat("e is not None", globals={"e": None},
                                      number=n_bench, repeat=5))
        per_emit_test = max(emit_test - loop, 0.0) / n_bench
        # 3x estimator margin
        overhead = (n_checks * per_check + n_emit_tests * per_emit_test) * 3
        assert overhead < 0.05 * run_time, (
            f"estimated telemetry overhead {overhead:.4f}s "
            f"({n_checks} guard checks, {n_emit_tests} bound-tracer "
            f"tests) vs run {run_time:.4f}s "
            f"({100 * overhead / run_time:.1f}%)")


class TestCliTraceProfile:
    def test_run_with_trace_profile_and_manifest(self, capsys, tmp_path):
        from repro.cli import main
        trace_path = tmp_path / "trace.json"
        stats_path = tmp_path / "stats.json"
        # limit sized above the busiest scheme's full event count (PR-8
        # added page/placement instrumentation): a truncated ring
        # legitimately orphans span-end events, which the validator flags
        rc = main(["run", "S-4", "--accesses", "1200", "--seed", "5",
                   "--trace", str(trace_path), "--trace-limit", "200000",
                   "--profile", "--dump-stats", str(stats_path)])
        assert rc == 0
        out = capsys.readouterr().out
        # profile table shows percentiles per request class per scheme
        assert "p95" in out and "p99" in out
        assert "sim:req.llc_miss" in out
        assert "baseline" in out and "ivleague-pro" in out
        payload = json.loads(trace_path.read_text())
        assert validate_events(payload["traceEvents"]) == []
        assert payload["metadata"]["seed"] == 5
        # one trace process per scheme
        names = {e["args"]["name"] for e in payload["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == set(ENGINES)
        stats = json.loads(stats_path.read_text())
        assert stats["manifest"]["config_hash"] \
            == payload["metadata"]["config_hash"]

    def test_trace_limit_bounds_file(self, tmp_path):
        from repro.cli import main
        trace_path = tmp_path / "trace.json"
        rc = main(["run", "S-4", "--scheme", "baseline",
                   "--accesses", "1200", "--trace", str(trace_path),
                   "--trace-limit", "500"])
        assert rc == 0
        payload = json.loads(trace_path.read_text())
        n_events = sum(1 for e in payload["traceEvents"] if e["ph"] != "M")
        assert n_events <= 500
        assert payload["metadata"]["dropped_events"]["baseline"] > 0
        emitted = payload["metadata"]["emitted_events"]["baseline"]
        assert emitted == n_events \
            + payload["metadata"]["dropped_events"]["baseline"]
