"""Sampling layer profiler: where a run's host CPU time goes.

``repro run --profile-phases`` and ``scripts/bench.py`` ask which model
layer the interpreter is busy in.  This module answers by sampling the
code that runs: while a :class:`Sampler` is active, an ``ITIMER_PROF``
interval timer delivers ``SIGPROF`` every :data:`INTERVAL_S` seconds of
process CPU time (Linux checks CPU timers once per scheduler tick, so a
coarser tick sets the real interval), and the handler charges one
sample to the innermost frame of the interrupted stack that
:data:`LAYERS` names.  Nothing is
installed on the simulator, so a sampled run executes the same code,
fused cache and DRAM hooks included, as an unsampled one.

Layer table
-----------

:data:`LAYERS` maps a module (``f_globals["__name__"]``) to a layer,
and a ``(module, function)`` pair (``f_code.co_name``) to a layer that
overrides the module's.  Frames of unnamed modules and functions (numpy,
the stats registry, an engine's page-lifecycle hooks) fall through to
their caller, so an engine's ``on_page_alloc`` counts as ``page_fault``
because the simulator's ``_alloc_page`` called it.  A sample with no
named frame on its stack counts as unattributed.

Entry rule
----------

CPython runs a signal handler only at an eval-breaker check, and the
first check a called function reaches is its ``RESUME`` instruction.
A sample taken at or before a frame's ``RESUME`` offset is charged to
the caller, whose work was running when the timer fired; charging the
not-yet-started callee inflates small functions that are called often
(histogram records above all).  Interpreters without ``RESUME``
(before 3.11) have no entry offset, so the innermost frame is charged.

Coverage and error
------------------

:meth:`Sampler.report` gives each layer's share of all samples and the
named fraction; ``repro run --profile-phases`` requires at least
:data:`COVERAGE_FLOOR` of the samples to be named.  A share measured
from ``n`` samples carries a sampling error of about ``1/sqrt(n)``.
"""

from __future__ import annotations

import dis
import signal
from typing import Dict, Iterable, Optional

#: CPU seconds between samples.
INTERVAL_S = 0.001

#: Minimum named fraction of the samples for a healthy report.
COVERAGE_FLOOR = 0.90

#: Layer of each module, and of each (module, function) override.
LAYERS = {
    "repro.sim.simulator": "drain",
    "repro.sim.cpu": "drain",
    ("repro.sim.simulator", "_churn"): "churn",
    ("repro.sim.simulator", "_alloc_page"): "page_fault",
    ("repro.sim.simulator", "_page_walk"): "tlb_walk",
    "repro.osmodel.tlb": "tlb",
    "repro.osmodel.pagetable": "pagetable",
    "repro.osmodel.allocator": "allocator",
    "repro.mem.cache": "cache",
    "repro.mem.mirage": "cache",
    ("repro.mem.mirage", "_skews"): "mirage_hash",
    ("repro.mem.mirage", "_mix"): "mirage_hash",
    "repro.mem.memctrl": "dram",
    "repro.mem.dram": "dram",
    "repro.sim.hist": "histogram",
    "repro.sim.trace": "trace",
    ("repro.secure.engine", "data_access"): "engine",
    ("repro.secure.engine", "handle_writeback"): "engine",
    ("repro.secure.static_partition", "data_access"): "engine",
    ("repro.secure.vault", "handle_writeback"): "engine",
    ("repro.core.pro", "data_access"): "engine",
    ("repro.secure.engine", "_verify"): "verify",
    ("repro.secure.counter_tree", "_verify"): "verify",
    "repro.core.nfl": "nfl",
    "repro.core.bitvector": "nfl",
    "repro.core.lmm": "lmm",
    "repro.core.hotpage": "hotpage",
}

#: ``RESUME`` opcode, or None on interpreters without one.
_RESUME = dis.opmap.get("RESUME")


def _entry_offset(code) -> int:
    """Offset of the ``RESUME`` that starts ``code``'s body."""
    for ins in dis.get_instructions(code):
        if ins.opcode == _RESUME:
            return ins.offset
    return -1


class Sampler:
    """Context manager counting ``SIGPROF`` samples per layer.

    The timer and the signal handler are process-wide, so one sampler
    runs at a time, on the main thread.
    """

    def __init__(self) -> None:
        #: Samples per named layer.
        self.samples: Dict[str, int] = {}
        #: Samples with no named frame on the stack.
        self.unattributed = 0
        self._entry: dict = {}
        self._saved_handler = None

    def __enter__(self) -> "Sampler":
        self._saved_handler = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._saved_handler)

    def _on_sample(self, signum, frame) -> None:
        layer = self.layer_of(frame)
        if layer is None:
            self.unattributed += 1
        else:
            self.samples[layer] = self.samples.get(layer, 0) + 1

    def layer_of(self, frame) -> Optional[str]:
        """Layer charged for a sample taken in ``frame`` (None when no
        frame on its stack is named), after the entry rule."""
        if frame is not None and _RESUME is not None:
            code = frame.f_code
            entry = self._entry.get(code)
            if entry is None:
                entry = self._entry[code] = _entry_offset(code)
            if frame.f_lasti <= entry:
                frame = frame.f_back
        while frame is not None:
            module = frame.f_globals.get("__name__")
            layer = (LAYERS.get((module, frame.f_code.co_name))
                     or LAYERS.get(module))
            if layer is not None:
                return layer
            frame = frame.f_back
        return None

    def report(self) -> dict:
        """JSON-friendly summary: samples and share per layer (largest
        first), the named fraction and the floor it must clear."""
        named = sum(self.samples.values())
        total = named + self.unattributed
        layers = [{"layer": name, "samples": n,
                   "share": n / total}
                  for name, n in sorted(self.samples.items(),
                                        key=lambda kv: (-kv[1], kv[0]))]
        return {
            "layers": layers,
            "samples": total,
            "coverage": named / total if total else 0.0,
            "coverage_floor": COVERAGE_FLOOR,
        }


def format_phase_table(
        reports: Iterable[tuple[str, dict]]) -> tuple[str, bool]:
    """Render per-scheme sampler reports as the CLI table.

    Returns ``(text, ok)`` where ``ok`` is the ≥ :data:`COVERAGE_FLOOR`
    self-check over every report (the CLI exits non-zero when it fails,
    so a run whose samples the layer table cannot name is reported, not
    passed off as a fast layer).
    """
    lines = ["\nphase attribution (sampled host CPU time):",
             f"{'scheme':18s} {'layer':14s} {'samples':>8s} {'share':>7s}"]
    ok = True
    for scheme, rep in reports:
        for row in rep["layers"]:
            lines.append(f"{scheme:18s} {row['layer']:14s} "
                         f"{row['samples']:8d} {row['share']:6.1%}")
        cov = rep["coverage"]
        status = "ok" if cov >= rep["coverage_floor"] else "LOW"
        ok &= cov >= rep["coverage_floor"]
        lines.append(f"{scheme:18s} {'(total)':14s} {rep['samples']:8d} "
                     f"named {cov:.1%} [{status}]")
    return "\n".join(lines), ok
