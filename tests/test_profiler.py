"""Tests for the sampling layer profiler: the layer table, the entry
rule, the coverage self-check on real runs, zero perturbation of
simulation results, the fused hooks under sampling, and the CLI
``--profile-phases`` plumbing."""

import dis
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

from repro import ENGINES
from repro.secure.engine import BaselineEngine
from repro.sim.profiler import (COVERAGE_FLOOR, LAYERS, Sampler,
                                format_phase_table)
from repro.sim.simulator import Simulator
from repro.workloads.generator import build_workload


def _wl(n=1200):
    return build_workload("p", ["gcc", "x264"], n, seed=1, scale=0.03)


def _function_names(module) -> set:
    """``co_name`` of every function compiled from ``module``'s source,
    methods and nested closures included."""
    path = module.__file__
    todo = [compile(Path(path).read_text(), path, "exec")]
    names = set()
    while todo:
        code = todo.pop()
        if code.co_flags & inspect.CO_NEWLOCALS:
            names.add(code.co_name)
        todo.extend(c for c in code.co_consts
                    if isinstance(c, types.CodeType))
    return names


class TestLayerTable:
    def test_layer_names(self):
        assert set(LAYERS.values()) == {
            "drain", "churn", "page_fault", "tlb_walk", "tlb",
            "pagetable", "allocator", "cache", "mirage_hash", "dram",
            "histogram", "trace", "engine", "verify", "nfl", "lmm",
            "hotpage"}

    def test_every_key_names_existing_code(self):
        """Renaming a named function (``_verify``, ``_alloc_page``)
        fails here instead of silently sending its layer's samples to
        the caller."""
        for key in LAYERS:
            name, func = key if isinstance(key, tuple) else (key, None)
            module = importlib.import_module(name)
            if func is not None:
                assert func in _function_names(module), key

    def test_function_names_see_nested_closures(self):
        from repro.mem import memctrl
        assert "read_meta" in _function_names(memctrl)


def _callee():
    pass


def _caller(callee=_callee):
    return callee()


def _gen():
    yield


@pytest.fixture
def named(monkeypatch):
    """Name this module's probe functions as layers of their own."""
    for func in ("_callee", "_caller", "_gen"):
        monkeypatch.setitem(LAYERS, (__name__, func), func)


class TestEntryRule:
    """A sample taken at or before a frame's ``RESUME`` is charged to
    its caller; interpreters without ``RESUME`` charge the frame."""

    has_resume = "RESUME" in dis.opmap

    def test_frame_at_its_first_instruction_goes_to_caller(self, named):
        sampler = Sampler()
        charged = []

        def on_event(frame, event, arg):
            if event == "call" and frame.f_code is _callee.__code__:
                charged.append((frame.f_lasti, sampler.layer_of(frame)))

        previous = sys.getprofile()
        sys.setprofile(on_event)
        try:
            _caller()
        finally:
            sys.setprofile(previous)
        (lasti, layer), = charged
        assert layer == ("_caller" if self.has_resume else "_callee")
        if self.has_resume:
            assert lasti == 0
        # A not-yet-started generator stops before its RESUME and has no
        # caller yet, so nothing on its stack is named.
        gen = _gen()
        assert sampler.layer_of(gen.gi_frame) == (
            None if self.has_resume else "_gen")

    def test_frame_past_its_resume_is_charged_to_itself(self, named):
        gen = _gen()
        next(gen)
        assert Sampler().layer_of(gen.gi_frame) == "_gen"

    def test_unnamed_frames_fall_through_to_the_caller(self, named):
        sampler = Sampler()
        assert _caller(lambda: sampler.layer_of(sys._getframe())) \
            == "_caller"
        # no named frame on the stack: unattributed
        assert sampler.layer_of(sys._getframe()) is None


def _report(named, unattributed):
    sampler = Sampler()
    sampler.samples["drain"] = named
    sampler.unattributed = unattributed
    return sampler.report()


class TestFormatPhaseTable:
    def test_ok_when_all_reports_clear_the_floor(self):
        text, ok = format_phase_table([("baseline", _report(95, 5))])
        assert ok
        assert "drain" in text and "[ok]" in text

    def test_flags_low_coverage(self):
        reports = [("baseline", _report(95, 5)),
                   ("ivleague-pro", _report(50, 50))]
        text, ok = format_phase_table(reports)
        assert not ok
        assert "[LOW]" in text and "[ok]" in text


class TestProfiledRuns:
    """Real runs name ≥90% of their samples without changing any
    result, and sample the fused hooks every figure runs."""

    @pytest.mark.parametrize("scheme", ["baseline", "ivleague-pro"])
    def test_coverage_floor_on_real_runs(self, tiny, scheme):
        sim = Simulator(tiny, ENGINES[scheme](tiny))
        with Sampler() as sampler:
            sim.run(_wl(8000), warmup=300)
        rep = sampler.report()
        assert rep["samples"] > 0, "no SIGPROF sample arrived"
        assert rep["coverage"] >= COVERAGE_FLOOR, (
            f"{scheme}: named only {rep['coverage']:.1%} of "
            f"{rep['samples']} samples")
        assert "drain" in sampler.samples

    def test_profiling_does_not_change_simulation(self, tiny):
        wl = _wl()
        r0 = Simulator(tiny, BaselineEngine(tiny)).run(wl, warmup=300)
        with Sampler():
            r1 = Simulator(tiny, BaselineEngine(tiny)).run(wl, warmup=300)
        assert r0.registry_snapshot == r1.registry_snapshot

    @pytest.mark.parametrize("scheme", ["baseline", "ivleague-pro"])
    def test_sampled_run_binds_the_fused_hooks(self, tiny, scheme,
                                               monkeypatch):
        """The engine never calls a cache's ``lookup`` method
        (``MirageCache`` inherits it) or the controller's
        ``read``/``write``.  Page walks do, through the hierarchy and
        the controller, so their calls are set apart.  Each spy
        replaces an attribute its class defines itself."""
        from repro.mem.cache import Cache
        from repro.mem.hierarchy import CacheHierarchy
        from repro.mem.memctrl import MemoryController

        walk_code = {Simulator._page_walk.__code__,
                     CacheHierarchy.access.__code__}
        calls, walk_calls = [], []
        for cls, attr in ((MemoryController, "read"),
                          (MemoryController, "write"),
                          (Cache, "lookup")):
            assert attr in cls.__dict__, f"{cls.__name__}.{attr}"
            def counted(*args, _orig=getattr(cls, attr),
                        _name=f"{cls.__name__}.{attr}", **kwargs):
                caller = sys._getframe(1).f_code
                (walk_calls if caller in walk_code else calls).append(_name)
                return _orig(*args, **kwargs)
            monkeypatch.setattr(cls, attr, counted)
        engine = ENGINES[scheme](tiny)
        with Sampler():
            Simulator(tiny, engine).run(_wl(), warmup=300)
        assert not engine._instrumented
        assert walk_calls, "no page walk ran: the spy proves nothing"
        assert calls == []


class TestCliProfilePhases:
    def test_run_profile_phases_prints_table(self, capsys):
        from repro.cli import main
        rc = main(["run", "S-1", "--scheme", "baseline",
                   "--accesses", "1500", "--profile-phases"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "phase attribution" in out
        assert "drain" in out and "[ok]" in out
