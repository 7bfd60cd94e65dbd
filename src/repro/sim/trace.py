"""Zero-overhead-when-off event tracing for the secure-memory pipeline.

Two tracers share one protocol:

* :class:`NullTracer` -- the default.  Every method is a no-op and
  ``enabled`` is ``False``; hot paths guard event construction with
  ``if tracer.enabled:`` so the off state costs one attribute load and
  a branch per site (the overhead-guard test in ``tests/test_trace.py``
  bounds this below 5% of smoke-workload wall time).
* :class:`EventTracer` -- a ring buffer of Chrome trace-event /
  Perfetto-compatible events.  When the buffer is full the *oldest*
  events are dropped (the tail of a run is usually what you are
  debugging) and :attr:`EventTracer.dropped` says how many.

Event model (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):

* ``B``/``E`` -- begin/end of a span (engine data access, page fault,
  page-table walk).  Spans on one ``tid`` must nest.
* ``X`` -- complete event with a duration (memory request, DRAM read).
* ``i`` -- instant event (cache eviction, MAC hit, tree-node touch...).
* ``M`` -- metadata (process/thread names), added at export time.

Timestamps are simulated core cycles; Perfetto renders them as
microseconds, so 1 cycle reads as 1 us on the timeline.  ``tid`` is the
issuing core; ``pid`` distinguishes schemes when several runs are merged
into one trace file (one "process" per scheme).
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Iterable, Mapping, Optional

#: Bumped whenever the event schema or the manifest layout changes.
TRACE_SCHEMA_VERSION = 1

#: The closed set of event categories the pipeline emits.  The schema
#: validator rejects anything else, so a typo in an instrumentation site
#: fails a test instead of silently fragmenting the taxonomy.
CATEGORIES = frozenset({
    "request",   # one core memory access, classified by where it hit
    "cache",     # on-chip cache evictions / write-backs
    "tlb",       # TLB misses and evictions
    "engine",    # secure-engine entry points (data access, writeback, LMM)
    "mac",       # MAC-cache hits/misses
    "tree",      # integrity-tree node touches and counter fetches
    "dram",      # device-level reads/writes with bank/row detail
    "domain",    # IV-domain lifecycle (start/end, TreeLing attach)
    "page",      # page lifecycle (fault, free, re-encryption, migration)
    "nfl",       # node-free-list block touches
    "sim",       # simulator-scope events (churn windows, ...)
    "fault",     # oracle fault campaigns: injections, detections, misses
})

#: Categories whose events are *observable* in the side-channel sense:
#: an adversary co-located with the machine can, in principle, infer
#: their occurrence (cache presence, DRAM bank activity, NFL traffic).
#: Every event in these categories must carry a ``domain`` tag so the
#: leakage checker (:mod:`repro.obs.leakage`) can attribute it; the
#: schema validator enforces the tag.
OBSERVABLE_CATEGORIES = frozenset({
    "cache", "mac", "tree", "dram", "nfl", "page", "domain",
})

_SPAN_PHASES = frozenset({"B", "E"})
_KNOWN_PHASES = frozenset({"B", "E", "X", "i", "M"})


class NullTracer:
    """Tracing disabled: every emit is a no-op.

    Instrumentation sites must guard argument construction with
    ``if tracer.enabled:`` -- the method-call cost itself is only paid
    when a site forgets the guard, and even then nothing is recorded.
    """

    enabled = False
    cur_tid = 0
    cur_domain = 0
    clock = 0.0

    def begin(self, cat, name, ts=None, **args) -> None:
        pass

    def end(self, cat, name, ts=None) -> None:
        pass

    def complete(self, cat, name, ts, dur, **args) -> None:
        pass

    def instant(self, cat, name, ts=None, **args) -> None:
        pass


#: Shared default instance -- components point here until a real tracer
#: is installed, so ``self.tracer`` is never ``None`` on a hot path.
NULL_TRACER = NullTracer()


class EventTracer:
    """Ring-buffered recorder of Chrome-trace events.

    ``limit`` bounds memory (``None`` = unbounded, for tests); when the
    ring wraps, the oldest events are discarded and counted in
    :attr:`dropped`.  ``clock``, ``cur_tid`` and ``cur_domain`` are kept
    current by the simulator / engine entry points so deep components
    (caches, TLB, DRAM) can emit events without threading a timestamp or
    a domain through every call signature -- such events carry the
    enclosing request's start time and owning IV domain.  Every event
    with ``args`` is stamped with the ambient ``domain`` unless the call
    site supplied one explicitly.
    """

    enabled = True

    def __init__(self, limit: Optional[int] = 200_000, pid: int = 0) -> None:
        if limit is not None and limit <= 0:
            raise ValueError("limit must be positive (or None for unbounded)")
        self.limit = limit
        self.pid = pid
        self.cur_tid = 0
        self.cur_domain = 0
        self.clock = 0.0
        self.emitted = 0
        self._events: deque = deque(maxlen=limit)

    # -- emission -----------------------------------------------------------

    @property
    def dropped(self) -> int:
        return self.emitted - len(self._events)

    def _emit(self, ev: dict) -> None:
        self.emitted += 1
        args = ev.get("args")
        if args is not None and "domain" not in args:
            args["domain"] = self.cur_domain
        self._events.append(ev)

    def begin(self, cat: str, name: str, ts: Optional[float] = None,
              **args) -> None:
        self._emit({"ph": "B", "cat": cat, "name": name,
                    "ts": self.clock if ts is None else ts,
                    "pid": self.pid, "tid": self.cur_tid, "args": args})

    def end(self, cat: str, name: str, ts: Optional[float] = None) -> None:
        self._emit({"ph": "E", "cat": cat, "name": name,
                    "ts": self.clock if ts is None else ts,
                    "pid": self.pid, "tid": self.cur_tid})

    def complete(self, cat: str, name: str, ts: float, dur: float,
                 **args) -> None:
        self._emit({"ph": "X", "cat": cat, "name": name, "ts": ts,
                    "dur": dur, "pid": self.pid, "tid": self.cur_tid,
                    "args": args})

    def instant(self, cat: str, name: str, ts: Optional[float] = None,
                **args) -> None:
        self._emit({"ph": "i", "cat": cat, "name": name,
                    "ts": self.clock if ts is None else ts, "s": "t",
                    "pid": self.pid, "tid": self.cur_tid, "args": args})

    # -- export -------------------------------------------------------------

    def events(self) -> list[dict]:
        return list(self._events)

    def write(self, path: str, manifest: Optional[dict] = None) -> str:
        return write_chrome_trace(path, {"run": self}, manifest)


def chrome_payload(tracers: Mapping[str, "EventTracer"],
                   manifest: Optional[dict] = None) -> dict:
    """Merge per-scheme tracers into one Chrome-trace JSON object.

    Each tracer becomes one "process" named after its key; the run
    manifest rides along under both ``metadata`` (Perfetto) and
    ``otherData`` (chrome://tracing's about-box).
    """
    events: list[dict] = []
    for pid, (label, tracer) in enumerate(tracers.items()):
        use_pid = tracer.pid if tracer.pid else pid
        events.append({"ph": "M", "name": "process_name", "pid": use_pid,
                       "tid": 0, "ts": 0,
                       "args": {"name": label}})
        for ev in tracer.events():
            if ev.get("pid") != use_pid:
                ev = {**ev, "pid": use_pid}
            events.append(ev)
    meta = dict(manifest or {})
    meta.setdefault("trace_schema_version", TRACE_SCHEMA_VERSION)
    meta["emitted_events"] = {label: t.emitted
                              for label, t in tracers.items()}
    dropped = {label: t.dropped for label, t in tracers.items()
               if t.dropped}
    if dropped:
        meta["dropped_events"] = dropped
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "metadata": meta, "otherData": meta}


def write_chrome_trace(path: str, tracers: Mapping[str, "EventTracer"],
                       manifest: Optional[dict] = None) -> str:
    """Serialise :func:`chrome_payload` to ``path`` (parents created)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as f:
        json.dump(chrome_payload(tracers, manifest), f)
    return path


# ---------------------------------------------------------------------------
# Schema validation (used by tests and by the CI smoke job).
# ---------------------------------------------------------------------------

def validate_events(events: Iterable[dict]) -> list[str]:
    """Check a list of events against the trace schema.

    Returns a list of human-readable problems (empty = valid):

    * every event has a known phase, a category from :data:`CATEGORIES`
      (metadata events exempt), a finite non-negative timestamp;
    * ``X`` events carry a non-negative duration;
    * per ``(pid, tid)``, ``B``/``E`` spans match by name, nest
      properly, and close at ``ts >=`` their opening time;
    * per ``(pid, tid)``, span-begin timestamps never run backwards
      (each core's clock is monotonic);
    * every event in an observable category
      (:data:`OBSERVABLE_CATEGORIES`, phases ``B``/``X``/``i``) carries
      a non-negative integer ``domain`` tag, so the leakage checker can
      attribute it to an IV domain.
    """
    problems: list[str] = []
    stacks: dict[tuple, list] = {}
    last_begin: dict[tuple, float] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0 or ts != ts:
            problems.append(f"event {i} ({ev.get('name')}): bad ts {ts!r}")
            continue
        cat = ev.get("cat")
        if cat not in CATEGORIES:
            problems.append(f"event {i} ({ev.get('name')}): "
                            f"unknown category {cat!r}")
        if cat in OBSERVABLE_CATEGORIES and ph in ("B", "X", "i"):
            dom = (ev.get("args") or {}).get("domain")
            if isinstance(dom, bool) or not isinstance(dom, int) or dom < 0:
                problems.append(
                    f"event {i} ({cat}/{ev.get('name')}): observable "
                    f"event missing domain tag (got {dom!r})")
        key = (ev.get("pid", 0), ev.get("tid", 0))
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"event {i} ({ev.get('name')}): bad dur {dur!r}")
        elif ph == "B":
            if ts < last_begin.get(key, 0.0):
                problems.append(
                    f"event {i} ({ev.get('name')}): begin ts {ts} runs "
                    f"backwards on tid {key}")
            last_begin[key] = ts
            stacks.setdefault(key, []).append((ev.get("name"), ts))
        elif ph == "E":
            stack = stacks.setdefault(key, [])
            if not stack:
                problems.append(
                    f"event {i} ({ev.get('name')}): end without begin "
                    f"on tid {key}")
                continue
            bname, bts = stack.pop()
            if bname != ev.get("name"):
                problems.append(
                    f"event {i}: end {ev.get('name')!r} does not match "
                    f"open span {bname!r} on tid {key}")
            if ts < bts:
                problems.append(
                    f"event {i} ({ev.get('name')}): span closes at {ts} "
                    f"before it opened at {bts}")
    for key, stack in stacks.items():
        for name, ts in stack:
            problems.append(f"unclosed span {name!r} (ts {ts}) on tid {key}")
    return problems
