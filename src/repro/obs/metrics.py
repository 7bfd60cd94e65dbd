"""Small labeled counter/gauge/timer metrics facade.

Where :class:`repro.sim.registry.StatsRegistry` holds *model* counters
(things conservation laws are written about), this module holds
*harness* measurements: cells executed, cache hits, wall seconds, peak
RSS.

Design points:

* **Labels are part of the identity.**  ``m.counter("cells", mix="S-1")``
  and ``m.counter("cells", mix="L-2")`` are distinct series; the key is
  the canonical ``name{k=v,...}`` string with sorted label keys.
* **Instruments are memoized.**  Repeated calls with the same
  name+labels return the same object, so hot paths can look an
  instrument up once and hold it.
* **Snapshots are plain dicts** (JSON-ready) and **mergeable** across
  process boundaries: counters and timers add, gauges keep the max —
  the right fold for the gauges this harness uses (peak RSS).  A
  merged snapshot from N pool workers therefore reads like one
  process's totals.
"""

from __future__ import annotations

from typing import Dict


def series_key(name: str, labels: dict) -> str:
    """Canonical ``name{k=v,...}`` identity of one labeled series."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """High-water mark; merged across processes by max."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Timer:
    """Accumulated duration with an observation count."""

    __slots__ = ("total_s", "count")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        self.total_s += seconds
        self.count += 1


class Metrics:
    """A set of labeled instruments with snapshot/merge semantics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    # -- instrument access (memoized per name+labels) -----------------------

    def counter(self, name: str, **labels) -> Counter:
        key = series_key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = series_key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def timer(self, name: str, **labels) -> Timer:
        key = series_key(name, labels)
        inst = self._timers.get(key)
        if inst is None:
            inst = self._timers[key] = Timer()
        return inst

    # -- snapshot / merge ----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view, structured by instrument kind."""
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
            "timers": {k: {"total_s": t.total_s, "count": t.count}
                       for k, t in self._timers.items()},
        }

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a pool worker) into this
        set: counters and timers add, gauges keep the max."""
        for key, v in snap.get("counters", {}).items():
            self.counter_by_key(key).inc(v)
        for key, v in snap.get("gauges", {}).items():
            self.gauge_by_key(key).set_max(v)
        for key, v in snap.get("timers", {}).items():
            t = self.timer_by_key(key)
            t.total_s += v["total_s"]
            t.count += v["count"]

    # Pre-canonicalised access, for merge and for callers that carry the
    # full series key around (label round-tripping not required).
    def counter_by_key(self, key: str) -> Counter:
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge_by_key(self, key: str) -> Gauge:
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def timer_by_key(self, key: str) -> Timer:
        inst = self._timers.get(key)
        if inst is None:
            inst = self._timers[key] = Timer()
        return inst
