"""Per-layer spans recorded from outside the program.

The traced run installs no tracer or profiler and changes no types, so
the simulator keeps its fused fast path.  Instead it wraps each layer's
public calls: class methods, engine entry points on the instance, and
the closures the ``bind_*`` fast-path binders return (the binders are
wrapped before any engine is built, so every closure they hand out is a
wrapped one).  A span's self time is its duration minus its child
spans, minus the calibrated cost of the wrappers themselves.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

#: (module, class, method, span) for plain method wrappers.
METHOD_SPANS = (
    ("repro.mem.hierarchy", "CacheHierarchy", "access", "hierarchy.access"),
    ("repro.mem.memctrl", "MemoryController", "read", "mc.read"),
    ("repro.mem.memctrl", "MemoryController", "write", "mc.write"),
    ("repro.core.lmm", "LMMCache", "lookup", "lmm.lookup"),
    ("repro.core.lmm", "LMMCache", "insert", "lmm.insert"),
    ("repro.core.hotpage", "HotpageTracker", "access", "hotpage.access"),
    ("repro.osmodel.allocator", "FrameAllocator", "alloc",
     "allocator.alloc"),
    ("repro.osmodel.allocator", "FrameAllocator", "alloc_in_range",
     "allocator.alloc"),
    ("repro.osmodel.allocator", "FrameAllocator", "free", "allocator.free"),
    ("repro.osmodel.pagetable", "PageTable", "walk", "pagetable.walk"),
    ("repro.osmodel.tlb", "TLB", "insert", "tlb.insert"),
    ("repro.experiments.parallel", "ResultCache", "put", "cache.put"),
    ("repro.experiments.parallel", "ResultCache", "get", "cache.get"),
    ("repro.sim.oracle", "DifferentialOracle", "access", "oracle.access"),
    ("repro.sim.oracle", "DifferentialOracle", "checkpoint",
     "oracle.checkpoint"),
    ("repro.sim.oracle", "ProbeTracer", "instant", "probe.instant"),
    ("repro.secure.functional", "FunctionalSecureMemory", "read",
     "fsm.read"),
    ("repro.secure.functional", "FunctionalSecureMemory", "write",
     "fsm.write"),
    ("repro.secure.bmt", "BonsaiMerkleTree", "refresh_path",
     "bmt.refresh_path"),
)

#: Engine entry points, wrapped on each engine instance.
ENGINE_SPANS = ("data_access", "handle_writeback", "on_page_alloc",
                "on_page_free")

#: Closures returned by ``MemoryController.bind_engine_ops``, in order.
DRAM_OPS = ("dram.read_data", "dram.read_meta", "dram.write_data",
            "dram.write_meta")

#: Cache name prefix -> layer name of its probe/fill spans.
CACHE_LAYERS = {"l1": "l1", "l2": "l2", "llc": "llc", "ctr$": "ctr_cache",
                "tree$": "tree_cache", "mac$": "mac_cache"}

#: Root span: the drive loop of one cell (``Simulator.run`` on sweeps,
#: ``DifferentialOracle.run`` on replays).  Its self time is the loop's.
ROOT = "sim.run"

#: Spans that run before or after the root, once per cell.
PER_CELL = ("workloads.build_mix", "engine.init", "sim.init", "cache.put",
            "cache.get")


def cache_layer(cache_name: str) -> str:
    return CACHE_LAYERS.get(cache_name.split(".")[0], cache_name)


class Recorder:
    """Span table: name -> [calls, total ns, child ns, wrapped child calls].

    Spans nest through one stack; a finished span adds its duration to
    its parent's child time.  Only calls through :meth:`wrap` count as
    wrapped children, whose calibrated cost is charged back to the
    parent.
    """

    def __init__(self) -> None:
        self.table: dict[str, list[int]] = {}
        self.wrapped: set[str] = set()
        self._stack = [[0, 0]]
        self._undo: list = []

    def _row(self, name: str) -> list[int]:
        return self.table.setdefault(name, [0, 0, 0, 0])

    def wrap(self, name: str, fn):
        row = self._row(name)
        self.wrapped.add(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                row[0] += 1
                row[1] += dt
                row[2] += frame[0]
                row[3] += frame[1]
                parent = stack[-1]
                parent[0] += dt
                parent[1] += 1
        return traced

    @contextmanager
    def span(self, name: str):
        row = self._row(name)
        frame = [0, 0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            dt = time.perf_counter_ns() - t0
            self._stack.pop()
            row[0] += 1
            row[1] += dt
            row[2] += frame[0]
            row[3] += frame[1]
            self._stack[-1][0] += dt

    # -- installation ----------------------------------------------------------

    def _replace(self, cls, attr: str, new) -> None:
        had = attr in cls.__dict__
        self._undo.append((cls, attr, cls.__dict__.get(attr), had))
        setattr(cls, attr, new)

    def _patch_method(self, cls, attr: str, name: str) -> None:
        self._replace(cls, attr, self.wrap(name, getattr(cls, attr)))

    def _patch_cache_binder(self, cls, attr: str, kind: str) -> None:
        binder = getattr(cls, attr)
        rec = self

        def bind(cache, *args, **kwargs):
            return rec.wrap(f"{cache_layer(cache.name)}.{kind}",
                            binder(cache, *args, **kwargs))
        self._replace(cls, attr, bind)

    def _patch_dram_binder(self, cls) -> None:
        binder = cls.bind_engine_ops
        rec = self

        def bind(mc, *args, **kwargs):
            ops = binder(mc, *args, **kwargs)
            return tuple(rec.wrap(name, op) for name, op in zip(DRAM_OPS, ops))
        self._replace(cls, "bind_engine_ops", bind)

    def install(self) -> None:
        """Wrap every layer's public calls (undone by :meth:`restore`)."""
        import importlib

        from repro.mem.cache import Cache
        from repro.mem.memctrl import MemoryController
        from repro.mem.mirage import MirageCache

        for module, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch_method(cls, attr, name)
        for cls in (Cache, MirageCache):
            self._patch_cache_binder(cls, "bind_fast_probe", "probe")
            self._patch_cache_binder(cls, "bind_fast_fill", "fill")
        self._patch_dram_binder(MemoryController)

    def restore(self) -> None:
        while self._undo:
            cls, attr, old, had = self._undo.pop()
            if had:
                setattr(cls, attr, old)
            else:
                delattr(cls, attr)

    def instrument_engine(self, engine) -> None:
        for attr in ENGINE_SPANS:
            setattr(engine, attr,
                    self.wrap(f"engine.{attr}", getattr(engine, attr)))

    # -- results ---------------------------------------------------------------

    def wrapper_ns(self, name: str, cal: "Calibration") -> float:
        """Calibrated wrapper cost inside ``name``'s own interval: its
        own wrapper's inner part plus its wrapped children's outer part."""
        calls, _, _, child_calls = self.table.get(name, (0, 0, 0, 0))
        inner = cal.inner_ns * calls if name in self.wrapped else 0.0
        return inner + cal.outer_ns * child_calls

    def self_ns(self, name: str, cal: "Calibration") -> float:
        """Self time of ``name`` with the wrappers' own cost removed."""
        _, total, child, _ = self.table.get(name, (0, 0, 0, 0))
        return total - child - self.wrapper_ns(name, cal)

    def calls(self, name: str) -> int:
        return self.table.get(name, (0,))[0]

    def total_ns(self, name: str) -> int:
        return self.table.get(name, (0, 0))[1]


class Calibration:
    """Per-call cost of one span wrapper, split where it lands.

    ``inner_ns`` falls inside the wrapped call's own timed interval;
    ``outer_ns`` falls in its caller's.  Measured on a no-op callee
    against a bare call of the same callee and an empty loop.
    """

    def __init__(self, inner_ns: float, outer_ns: float) -> None:
        self.inner_ns = inner_ns
        self.outer_ns = outer_ns

    @property
    def per_call_ns(self) -> float:
        return self.inner_ns + self.outer_ns

    @classmethod
    def measure(cls, n: int = 20_000, trials: int = 7) -> "Calibration":
        def noop(a, b):
            return None

        clock = time.perf_counter_ns
        inner, outer = [], []
        for _ in range(trials):
            rec = Recorder()
            wrapped = rec.wrap("noop", noop)
            t0 = clock()
            for _ in range(n):
                pass
            loop = (clock() - t0) / n
            t0 = clock()
            for _ in range(n):
                noop(1, 2)
            bare = (clock() - t0) / n
            t0 = clock()
            for _ in range(n):
                wrapped(1, 2)
            traced = (clock() - t0) / n
            recorded = rec.total_ns("noop") / n
            inner.append(max(0.0, recorded - (bare - loop)))
            outer.append(max(0.0, traced - loop - recorded))
        return cls(statistics.median(inner), statistics.median(outer))
