"""Zero-overhead-when-off phase-attribution profiler.

ROADMAP item 1 stalled with the diagnosis "the remaining time is
per-access model work" — but nothing could say *which* model work.
This module answers that: it attributes **host wall time** (not
simulated cycles — that is what the histograms are for) to a small set
of named model phases, so `repro run --profile-phases` can print where
an interpreter-second actually goes for any scheme.  A profiled run
takes the same drain loop as an unprofiled one: churn frees, page
faults and TLB walks run inline inside their ``churn``,
``page_fault`` and ``tlb_walk`` phases.

Two profilers share one protocol, mirroring the tracer design
(:mod:`repro.sim.trace`):

* :class:`NullProfiler` — the default.  ``enabled`` is a class
  attribute ``False`` and every method is a no-op; hook sites guard
  with ``if profiler.enabled:`` (or a hoisted local), so the off state
  costs one attribute load and a branch — and only on the paths that
  carry hooks at all (the drain loop reads ``enabled`` once per drain
  and tests a local on its churn, fault and walk paths).
* :class:`PhaseProfiler` — a stack-based *exclusive-time* profiler.
  ``push(phase)`` charges the elapsed interval to the phase currently
  on top of the stack and enters the new phase; ``pop()`` charges the
  top phase and resumes its parent.  Nested phases therefore carve
  their time *out* of the enclosing phase (DRAM time inside a verify
  walk is "dram", not "verify"), and the per-phase numbers are
  additive: their sum over a run window is the attributed total, with
  no double counting.

Phase taxonomy (informational — the profiler accepts any name, and the
report sorts by time):

=================  ==========================================================
``scheduler``      the drain loop: heap scheduling, core stepping, L1/L2/LLC
                   and TLB probes — everything inside ``_drain`` not claimed
                   by a nested phase (the root phase of every run)
``page_fault``     first-touch page allocation incl. the engine's
                   ``on_page_alloc`` (TreeLing attach, partition bookkeeping)
``tlb_walk``       hardware page-table walks through the shared hierarchy
``pagetable``      the radix-walk address computation itself
``churn``          page-free machinery (``on_page_free``, unmap, TLB shootdown)
``verify``         the engine verify path: counter fetch + tree-path walk
``counter_probe``  the counter-metadata-cache probe inside the verify path
``tree_update``    counter-tree write-path node dirtying (SGX-style engine)
``mac``            MAC-cache probe + MAC block fetches
``mirage_hash``    MIRAGE candidate-set hashing (memoization misses)
``dram``           the DRAM timing model (bank/row state, queueing)
=================  ==========================================================

Coverage self-check
-------------------

``coverage(measured_ns)`` relates the attributed total to an
*externally* measured wall time of the same run (the caller times
``sim.run``).  Because the root ``scheduler`` phase wraps only the
drain loops, the unattributed residue is the simulator's setup and
result assembly — small for any realistic cell — so a healthy run
attributes ≥ :data:`COVERAGE_FLOOR` (90%) of its measured time.  A
collapse of that ratio means instrumentation went missing (e.g. a drain
loop nobody wrapped), which is exactly what the CLI self-check and the
test suite guard against.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional

#: Canonical phase names, in display-priority order (see module doc).
PHASES = (
    "scheduler", "verify", "counter_probe", "tree_update", "mac",
    "mirage_hash", "dram", "page_fault", "tlb_walk", "pagetable", "churn",
)

#: Minimum attributed/measured ratio for a healthy profiled run.
COVERAGE_FLOOR = 0.90

#: Clock source, swappable by tests for deterministic accounting.
_now = time.perf_counter_ns


class NullProfiler:
    """Profiling disabled: every hook is a no-op.

    Hook sites must guard the push/pop pair with
    ``if profiler.enabled:`` so the off state never pays for argument
    evaluation or clock reads.
    """

    enabled = False
    __slots__ = ()

    def push(self, phase: str) -> None:
        pass

    def pop(self) -> None:
        pass

    def run_begin(self) -> None:
        pass

    def run_end(self) -> None:
        pass


#: Shared default instance — components point here until a real
#: profiler is installed, so ``self.profiler`` is never ``None``.
NULL_PROFILER = NullProfiler()


class PhaseProfiler:
    """Stack-based exclusive-time wall-clock phase profiler."""

    enabled = True
    __slots__ = ("phase_ns", "phase_calls", "_stack", "_t0", "measured_ns")

    def __init__(self) -> None:
        #: Exclusive nanoseconds per phase (nested phases subtracted).
        self.phase_ns: Dict[str, int] = {}
        #: Number of times each phase was entered.
        self.phase_calls: Dict[str, int] = {}
        self._stack: list = []          # [phase, resume_ns] frames
        self._t0: Optional[int] = None
        #: Wall nanoseconds between run_begin/run_end pairs (the
        #: profiler's own view; prefer an external measurement for the
        #: coverage check so the check stays falsifiable).
        self.measured_ns = 0

    # -- hot-path hooks -----------------------------------------------------

    def push(self, phase: str) -> None:
        """Enter ``phase``; charge the interval so far to the parent."""
        now = _now()
        stack = self._stack
        if stack:
            top = stack[-1]
            name = top[0]
            self.phase_ns[name] = (
                self.phase_ns.get(name, 0) + now - top[1])
        self.phase_calls[phase] = self.phase_calls.get(phase, 0) + 1
        stack.append([phase, now])

    def pop(self) -> None:
        """Leave the current phase; the parent resumes accumulating."""
        now = _now()
        stack = self._stack
        name, resume = stack.pop()
        self.phase_ns[name] = self.phase_ns.get(name, 0) + now - resume
        if stack:
            stack[-1][1] = now

    def run_begin(self) -> None:
        self._t0 = _now()

    def run_end(self) -> None:
        if self._t0 is not None:
            self.measured_ns += _now() - self._t0
            self._t0 = None

    # -- queries ------------------------------------------------------------

    @property
    def attributed_ns(self) -> int:
        """Total nanoseconds charged to any phase (sum is double-count
        free because attribution is exclusive)."""
        return sum(self.phase_ns.values())

    def coverage(self, measured_ns: Optional[int] = None) -> float:
        """Attributed fraction of ``measured_ns`` (defaults to the
        profiler's own run_begin/run_end window)."""
        measured = self.measured_ns if measured_ns is None else measured_ns
        if measured <= 0:
            return 0.0
        return self.attributed_ns / measured

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's accumulation into this one."""
        for name, ns in other.phase_ns.items():
            self.phase_ns[name] = self.phase_ns.get(name, 0) + ns
        for name, n in other.phase_calls.items():
            self.phase_calls[name] = self.phase_calls.get(name, 0) + n
        self.measured_ns += other.measured_ns

    def report(self, measured_ns: Optional[int] = None) -> dict:
        """JSON-friendly summary: per-phase self time, calls, share of
        the measured window, plus the coverage ratio."""
        measured = self.measured_ns if measured_ns is None else measured_ns
        phases = []
        for name, ns in sorted(self.phase_ns.items(),
                               key=lambda kv: -kv[1]):
            phases.append({
                "phase": name,
                "self_ns": ns,
                "calls": self.phase_calls.get(name, 0),
                "share": ns / measured if measured else 0.0,
            })
        return {
            "phases": phases,
            "measured_ns": measured,
            "attributed_ns": self.attributed_ns,
            "coverage": self.coverage(measured),
            "coverage_floor": COVERAGE_FLOOR,
        }


def format_phase_table(
        reports: Iterable[tuple[str, dict]]) -> tuple[str, bool]:
    """Render per-scheme profiler reports as the CLI table.

    Returns ``(text, ok)`` where ``ok`` is the ≥ :data:`COVERAGE_FLOOR`
    self-check over every report (the CLI exits non-zero when it fails,
    so missing instrumentation cannot masquerade as a fast phase).
    """
    lines = ["\nphase attribution (host wall time):",
             f"{'scheme':18s} {'phase':14s} {'self':>9s} {'share':>7s} "
             f"{'calls':>10s}"]
    ok = True
    for scheme, rep in reports:
        for row in rep["phases"]:
            lines.append(
                f"{scheme:18s} {row['phase']:14s} "
                f"{row['self_ns'] / 1e9:8.3f}s {row['share']:6.1%} "
                f"{row['calls']:10d}")
        cov = rep["coverage"]
        status = "ok" if cov >= rep["coverage_floor"] else "LOW"
        ok &= cov >= rep["coverage_floor"]
        lines.append(
            f"{scheme:18s} {'(total)':14s} "
            f"{rep['measured_ns'] / 1e9:8.3f}s "
            f"attributed {cov:.1%} [{status}]")
    return "\n".join(lines), ok
