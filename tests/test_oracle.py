"""Tests for the differential functional-vs-timing oracle
(:mod:`repro.sim.oracle`): clean lockstep replays agree for every
scheme on the fused hooks, injected model faults are flagged, and the
regressions the oracle found during bring-up stay fixed."""

import pytest

from repro.sim.oracle import (DEFAULT_SCHEMES, MODEL_FAULTS,
                              OracleDisagreement, verify_scheme)


@pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
class TestCleanReplay:
    def test_engine_agrees_with_functional_model(self, scheme):
        rep = verify_scheme(scheme, "S-1", n_accesses=300, seed=0,
                            checkpoint_every=100,
                            overflow_writes_per_page=48)
        assert rep.ok, [f"{d.kind}: {d.detail}" for d in rep.disagreements]
        assert rep.ops == 4 * 300   # 4 per-core traces
        assert rep.checkpoints >= 3
        assert rep.scheme == scheme

    def test_churny_mix_with_page_recycling_agrees(self, scheme):
        """Regression (oracle bring-up): freed-then-reallocated frames
        still decrypt to the previous owner's bytes (the functional
        model never scrubs), and the engine's per-page write count dies
        with the page while the plaintext expectation survives."""
        rep = verify_scheme(scheme, "M-2", n_accesses=300, seed=3,
                            checkpoint_every=100,
                            overflow_writes_per_page=48)
        assert rep.ok, [f"{d.kind}: {d.detail}" for d in rep.disagreements]


class TestModelFaultSensitivity:
    """A differential harness that cannot catch an injected engine bug
    would silently certify broken engines."""

    @pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
    @pytest.mark.parametrize("fault", MODEL_FAULTS)
    def test_fault_is_flagged(self, fault, scheme):
        """Every engine: ``skip-verify`` wraps the instance's ``_verify``,
        so it also proves each engine's walk honours the wrapper."""
        rep = verify_scheme(scheme, "S-2", n_accesses=400, seed=5,
                            checkpoint_every=100,
                            overflow_writes_per_page=16,
                            model_fault=fault)
        assert rep.disagreements
        assert not rep.ok

    def test_drop_writeback_breaks_writeback_contract(self):
        rep = verify_scheme("baseline", "S-2", n_accesses=400, seed=5,
                            checkpoint_every=100,
                            overflow_writes_per_page=16,
                            model_fault="drop-writeback")
        assert any(d.kind == "stat:writebacks-absorbed"
                   for d in rep.disagreements)

    def test_missed_reencrypt_breaks_reencrypt_contract(self):
        rep = verify_scheme("baseline", "S-2", n_accesses=400, seed=5,
                            checkpoint_every=100,
                            overflow_writes_per_page=16,
                            model_fault="missed-reencrypt")
        assert any(d.kind == "stat:page-reencrypts"
                   for d in rep.disagreements)

    def test_stale_counter_fill_trips_cold_start_rule(self):
        rep = verify_scheme("baseline", "S-2", n_accesses=400, seed=5,
                            checkpoint_every=100,
                            overflow_writes_per_page=16,
                            model_fault="stale-counter-fill")
        assert any(d.kind == "stale-counter-hit"
                   for d in rep.disagreements)

    def test_strict_mode_raises(self):
        with pytest.raises(OracleDisagreement):
            verify_scheme("baseline", "S-2", n_accesses=400, seed=5,
                          checkpoint_every=100,
                          overflow_writes_per_page=16,
                          model_fault="drop-writeback", strict=True)

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            verify_scheme("baseline", "S-1", n_accesses=50,
                          model_fault="no-such-fault")


class TestTreeRootContract:
    def test_dropped_refresh_is_flagged_as_tree_root_only(self):
        """A functional tree that silently skips one path refresh keeps
        a stale root; only the from-scratch rebuild can notice, and the
        oracle must report exactly that contract."""
        from repro.experiments.parallel import resolve_engine
        from repro.sim.config import tiny_config
        from repro.sim.oracle import DifferentialOracle
        from repro.workloads.mixes import build_mix

        cfg = tiny_config(n_cores=4)
        engine = resolve_engine("baseline")(cfg, seed=11)
        engine.overflow_writes_per_page = 16
        oracle = DifferentialOracle(cfg, engine, seed=5,
                                    checkpoint_every=100)
        tree = oracle.fsm.tree
        refresh = tree.refresh_path
        calls = 0

        def drop_50th(counter_block):
            nonlocal calls
            calls += 1
            if calls != 50:
                refresh(counter_block)

        tree.refresh_path = drop_50th
        rep = oracle.run(build_mix("S-2", n_accesses=400, seed=5,
                                   scale=0.05))
        assert calls > 50
        assert sorted({d.kind for d in rep.disagreements}) == ["tree-root"]
        assert not rep.ok


class TestOracleReport:
    def test_report_roundtrips_to_dict(self):
        rep = verify_scheme("baseline", "S-1", n_accesses=200, seed=1,
                            checkpoint_every=100)
        d = rep.to_dict()
        assert d["ok"] is True
        assert d["scheme"] == "baseline"
        assert d["ops"] == 4 * 200
        assert d["faults"]["injected"] == 0

    def test_replay_is_deterministic(self):
        a = verify_scheme("ivleague-basic", "S-1", n_accesses=200,
                          seed=2, checkpoint_every=100).to_dict()
        b = verify_scheme("ivleague-basic", "S-1", n_accesses=200,
                          seed=2, checkpoint_every=100).to_dict()
        assert a == b


def _attached_oracle(scheme="baseline", **kwargs):
    from repro.experiments.parallel import resolve_engine
    from repro.sim.config import tiny_config
    from repro.sim.oracle import DifferentialOracle

    cfg = tiny_config(n_cores=4)
    engine = resolve_engine(scheme)(cfg, seed=11)
    return DifferentialOracle(cfg, engine, **kwargs), engine


def _replayed_oracle():
    """A clean baseline replay, ready for one more checkpoint."""
    from repro.workloads.mixes import build_mix

    oracle, _ = _attached_oracle(seed=1, checkpoint_every=100)
    rep = oracle.run(build_mix("S-1", n_accesses=100, seed=1, scale=0.05))
    assert rep.ok, [f"{d.kind}: {d.detail}" for d in rep.disagreements]
    return oracle


class TestCounterDigestRegression:
    """The ``counter-digest`` contract compares the functional counter
    store with the stream-driven shadow store block for block."""

    def test_digest_never_materialises_blocks(self):
        """Regression (oracle bring-up): comparing the counter stores
        must not materialise lazily-zero blocks -- a materialised
        all-zero block hashes differently from the tree's canonical
        zero hash and corrupts later verifications."""
        oracle = _replayed_oracle()
        before = (set(oracle.fsm.counters._blocks),
                  set(oracle.shadow._blocks))
        assert before[0]
        oracle.checkpoint()
        assert (set(oracle.fsm.counters._blocks),
                set(oracle.shadow._blocks)) == before
        assert oracle.disagreements == []

    def test_digest_distinguishes_stores(self):
        """One minor counter apart is a divergence, and only that
        contract reports it."""
        oracle = _replayed_oracle()
        page = min(oracle.shadow._blocks)
        oracle.shadow.increment(page, 1)
        oracle.checkpoint()
        assert [d.kind for d in oracle.disagreements] == ["counter-digest"]

    def test_materialised_zero_block_differs_from_absent(self):
        oracle = _replayed_oracle()
        page = next(p for p in range(oracle.fsm.n_pages)
                    if p not in oracle.fsm.counters._blocks)
        oracle.shadow.block(page)   # all-zero, but materialised
        oracle.checkpoint()
        assert [d.kind for d in oracle.disagreements] == ["counter-digest"]


class TestFusedReplay:
    """The oracle gathers its evidence on the fused path the figures
    come from, from the counter addresses the engine actually probes."""

    @pytest.mark.parametrize("scheme", DEFAULT_SCHEMES)
    def test_replay_runs_the_fused_hooks(self, scheme, monkeypatch):
        """No tracer is installed, and neither the controller's own
        ``read``/``write`` nor a metadata cache's ``lookup`` method
        (``MirageCache`` inherits it) is ever called.  Each spy replaces
        an attribute its class defines itself."""
        from repro.mem.cache import Cache
        from repro.mem.memctrl import MemoryController
        from repro.sim.trace import NULL_TRACER
        from repro.workloads.mixes import build_mix

        calls = []
        for cls, attr in ((MemoryController, "read"),
                          (MemoryController, "write"),
                          (Cache, "lookup")):
            assert attr in cls.__dict__, f"{cls.__name__}.{attr}"
            def counted(*args, _orig=getattr(cls, attr),
                        _name=f"{cls.__name__}.{attr}", **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)
            monkeypatch.setattr(cls, attr, counted)
        oracle, engine = _attached_oracle(scheme, seed=0,
                                          checkpoint_every=100)
        rep = oracle.run(build_mix("S-1", n_accesses=200, seed=0,
                                   scale=0.05))
        assert rep.ok, [f"{d.kind}: {d.detail}" for d in rep.disagreements]
        assert engine.tracer is NULL_TRACER
        assert calls == []

    def test_wrong_counter_address_is_flagged(self):
        """A baseline whose walks fetch the next page's counter block
        verifies every access and keeps every stat; only the probed
        addresses give it away."""
        from repro.workloads.mixes import build_mix

        oracle, engine = _attached_oracle(seed=5, checkpoint_every=100)
        geo = engine.geo
        for pfn in range(oracle.fsm.n_pages):
            engine._path_memo[pfn] = (geo.counter_addr(pfn + 1),
                                      geo.path_addrs(pfn))
        rep = oracle.run(build_mix("S-2", n_accesses=400, seed=5,
                                   scale=0.05))
        assert sorted({d.kind for d in rep.disagreements}) \
            == ["counter-touch-set"]

    def test_probe_outside_counter_space_is_flagged(self):
        from repro.mem import spaces

        oracle = _replayed_oracle()
        oracle.probe.counter(spaces.tag(spaces.TREE, 3), False)
        oracle.checkpoint()
        assert [d.kind for d in oracle.disagreements] == ["counter-space"]

    @pytest.mark.parametrize("scheme", ["baseline", "ivleague-basic"])
    @pytest.mark.parametrize("install", ["tracer", "null-tracer"])
    def test_later_instrumentation_keeps_the_evidence(self, scheme,
                                                      install):
        """The observer survives every rebinding of the hooks."""
        from repro.sim.trace import NULL_TRACER, EventTracer
        from repro.workloads.mixes import build_mix

        def replay(install):
            oracle, engine = _attached_oracle(scheme, seed=5,
                                              checkpoint_every=100)
            if install == "tracer":
                engine.set_tracer(EventTracer(limit=8))
            elif install == "null-tracer":
                engine.set_tracer(NULL_TRACER)
            return oracle.run(build_mix("S-2", n_accesses=200, seed=5,
                                        scale=0.05)).to_dict()

        plain = replay(None)
        assert plain["ok"]
        assert replay(install) == plain
