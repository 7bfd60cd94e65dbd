"""Canonical per-domain *observable traces* over the event stream.

The leakage contract (:mod:`repro.obs.leakage`) is stated over what a
co-located adversary can in principle observe: metadata-cache presence
(counter / tree-node / MAC fills and evictions), integrity-tree node
visits, MIRAGE skew placements, DRAM bank/row activity, NFL block
touches and page lifecycle.  PR 2's :class:`~repro.sim.trace.EventTracer`
already emits all of those; this module projects the raw Chrome-trace
stream into one canonical tuple sequence per IV domain:

    (event class, resource id, timestamp)

* **event class** is ``"<cat>.<name>"`` (e.g. ``tree.node``,
  ``cache.evict``, ``dram.read``).
* **resource id** is a canonical rendering of the event's identifying
  args (address, bank/row, skew, ...) with non-observable and
  wall-clock-ish fields stripped.
* **timestamp** is, by default, the event's *ordinal* position inside
  its domain's stream (``ts_mode="ordinal"``) rather than the raw cycle
  stamp: observer-side cycle stamps accumulate DRAM latencies that are
  coupled to other domains' traffic under *every* scheme, so raw cycles
  would make even a perfectly isolated scheme look leaky.  Raw
  simulated-cycle stamps are available with ``ts_mode="cycle"`` for
  debugging; wall-clock time never appears in either mode.

Determinism: the projection is a pure function of the event list, and
the event list itself contains only simulated quantities, so two
identical runs yield byte-identical canonical traces (asserted in
``tests/test_observables.py``; ``tests/test_golden.py`` pins every
engine's traces and its full event stream to committed digests).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.sim.trace import OBSERVABLE_CATEGORIES

#: Event phases that denote something *happening* (metadata "M" and span
#: ends "E" carry no args and are projection noise).
_OBSERVED_PHASES = ("B", "X", "i")

#: Args stripped from the resource id.  ``domain`` is the stream key,
#: not part of the resource.  ``row_hit`` (and implicitly ``dur``, which
#: lives outside ``args``) are latency-side quantities: DRAM row-buffer
#: and timing state is shared by construction under every scheme in the
#: paper, so they belong to the statistical arm of the contract, never
#: to exact stream equality.  ``core`` is a harness artifact (domains
#: are pinned to cores by the workload, and the engine-level leakage
#: harness has no cores at all).
_EXCLUDED_ARGS = frozenset({"domain", "row_hit", "core"})


def observable_tuple(ev: dict, ts) -> Optional[tuple]:
    """Project one raw event to ``(class, resource, ts)`` or ``None``
    if the event is not an observable."""
    if ev.get("ph") not in _OBSERVED_PHASES:
        return None
    cat = ev.get("cat")
    if cat not in OBSERVABLE_CATEGORIES:
        return None
    args = ev.get("args") or {}
    resource = ",".join(
        f"{k}={args[k]}" for k in sorted(args) if k not in _EXCLUDED_ARGS)
    return (f"{cat}.{ev.get('name')}", resource, ts)


@dataclass
class ObservableTrace:
    """One domain's canonical observable stream."""

    domain: int
    tuples: list = field(default_factory=list)

    def canonical(self) -> str:
        """Deterministic JSON rendering (the byte-comparable form)."""
        return json.dumps(self.tuples, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def class_counts(self) -> dict:
        counts: dict[str, int] = {}
        for cls, _res, _ts in self.tuples:
            counts[cls] = counts.get(cls, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.tuples)


def project_events(events: Iterable[dict], ts_mode: str = "ordinal",
                   ) -> tuple[dict[int, ObservableTrace], list[str]]:
    """Split an event stream into per-domain observable traces.

    Returns ``(traces, problems)`` where ``traces`` maps domain id to
    its :class:`ObservableTrace` and ``problems`` lists observable
    events that could not be attributed (missing/invalid ``domain``
    tag) — a non-empty problem list is itself a contract violation,
    because untagged observables are exactly how leakage hides.
    """
    if ts_mode not in ("ordinal", "cycle"):
        raise ValueError(f"unknown ts_mode {ts_mode!r}")
    traces: dict[int, ObservableTrace] = {}
    problems: list[str] = []
    for i, ev in enumerate(events):
        if ev.get("ph") not in _OBSERVED_PHASES:
            continue
        cat = ev.get("cat")
        if cat not in OBSERVABLE_CATEGORIES:
            continue
        dom = (ev.get("args") or {}).get("domain")
        if isinstance(dom, bool) or not isinstance(dom, int) or dom < 0:
            problems.append(
                f"event {i} ({cat}/{ev.get('name')}): observable event "
                f"without a valid domain tag (got {dom!r})")
            continue
        trace = traces.get(dom)
        if trace is None:
            trace = traces[dom] = ObservableTrace(dom)
        ts = len(trace.tuples) if ts_mode == "ordinal" else ev.get("ts")
        trace.tuples.append(observable_tuple(ev, ts))
    return traces, problems


def first_divergence(a: ObservableTrace, b: ObservableTrace,
                     ) -> Optional[dict]:
    """First index where two observable streams differ, with the tuple
    pair for debugging; ``None`` if the streams are identical."""
    for i, (x, y) in enumerate(zip(a.tuples, b.tuples)):
        if x != y:
            return {"index": i, "a": list(x), "b": list(y)}
    if len(a.tuples) != len(b.tuples):
        i = min(len(a.tuples), len(b.tuples))
        longer = a if len(a.tuples) > len(b.tuples) else b
        return {"index": i,
                "a": list(a.tuples[i]) if i < len(a.tuples) else None,
                "b": list(b.tuples[i]) if i < len(b.tuples) else None,
                "length_mismatch": [len(a.tuples), len(b.tuples)],
                "extra_in": "a" if longer is a else "b"}
    return None
