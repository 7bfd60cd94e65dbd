"""Structured progress telemetry for experiment sweeps.

A long sweep through :func:`repro.experiments.parallel.execute_tasks`
is opaque today: nothing moves until every cell returns.  The
:class:`ProgressReporter` makes it observable in two forms at once:

* a **JSONL event stream** (one JSON object per line) suitable for
  tailing, archiving next to run artifacts, or feeding a dashboard; and
* a **live TTY progress line** (carriage-return rewritten) for humans,
  degrading to plain per-cell lines when stderr is not a TTY.

Event schema (all events carry ``event`` and ``ts`` — a UNIX
timestamp; documented in docs/OBSERVABILITY.md):

``sweep_start``   total, cached, pending, jobs
``cell_start``    key, label
``cell_cached``   key, label
``cell_finish``   key, label, wall_s, peak_rss_kb
``cell_failed``   key, label, wall_s, peak_rss_kb, kind, message
``sweep_end``     total, completed, failed, cached, wall_s, busy_s,
                  worker_utilization, cache_hits, cache_misses,
                  cache_hit_ratio

``worker_utilization`` is ``busy_s / (jobs * wall_s)`` — the fraction
of the pool's capacity the sweep actually used (1.0 = perfectly packed,
low values = stragglers or an oversized pool).

Selection is via the ``--progress`` CLI flag (or the ``progress``
setting of :func:`repro.experiments.runner.configure`): ``0``/empty =
off, ``1`` = live line on stderr, anything else = path to append the
JSONL stream to (the live line stays on too when stderr is a TTY).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Optional, TextIO


def read_events(path: str | os.PathLike) -> list:
    """Parse a JSONL event stream, tolerating a torn trailing line.

    A sweep that crashed (or was SIGKILLed) mid-write leaves at most
    one partial record at the *end* of the file — every earlier record
    was flushed whole by :meth:`ProgressReporter._emit`.  The torn tail
    is silently dropped; corruption anywhere *before* the tail is real
    damage and still raises ``ValueError`` (with the line number), so a
    truncated log reads cleanly but a mangled one does not pass silently.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        lines = f.read().split("\n")
    last = len(lines) - 1
    while last >= 0 and not lines[last].strip():
        last -= 1
    events = []
    for i, line in enumerate(lines[:last + 1]):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except ValueError:
            if i == last:
                break   # torn trailing record from a crashed writer
            raise ValueError(
                f"corrupt JSONL event stream {path}: unparsable record "
                f"at line {i + 1} (not the trailing line)")
    return events


def make_reporter(progress: str | None = None,
                  stream: TextIO | None = None) -> Optional["ProgressReporter"]:
    """Build a reporter from a ``--progress``-style setting.

    ``None``, ``"0"`` and empty disable; ``"1"`` enables the live line
    only; any other value is a JSONL path.
    """
    if progress in (None, "", "0"):
        return None
    jsonl_path = None if progress == "1" else progress
    return ProgressReporter(jsonl_path=jsonl_path, stream=stream)


class ProgressReporter:
    """Emits sweep/cell lifecycle events as JSONL and/or a live line."""

    def __init__(self, jsonl_path: str | None = None,
                 stream: TextIO | None = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._jsonl: TextIO | None = None
        if jsonl_path:
            d = os.path.dirname(jsonl_path)
            if d:
                os.makedirs(d, exist_ok=True)
            self._jsonl = open(jsonl_path, "a", encoding="utf-8")
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._live_open = False
        # Sweep accounting (one reporter per execute_tasks call).
        self.total = 0
        self.jobs = 1
        self.completed = 0
        self.failed = 0
        self.cached = 0
        self.busy_s = 0.0
        self._t0 = 0.0

    # -- event plumbing ------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        if self._jsonl is not None:
            rec = {"event": event, "ts": time.time(), **fields}
            # One write + flush per record: a crashed sweep loses at
            # most a torn *trailing* line (which read_events skips),
            # never whole buffered events.
            self._jsonl.write(json.dumps(rec, sort_keys=True) + "\n")
            self._jsonl.flush()

    def _fsync(self) -> None:
        """Push the stream to stable storage (sweep boundaries only —
        per-event fsync would serialize the pool on disk latency)."""
        if self._jsonl is not None:
            try:
                os.fsync(self._jsonl.fileno())
            except (OSError, ValueError):
                pass   # not a real file (StringIO) or already closed

    def _live(self, text: str) -> None:
        if self._is_tty:
            self.stream.write("\r\x1b[K" + text)
            self.stream.flush()
            self._live_open = True
        else:
            self.stream.write(text + "\n")

    def _end_live(self) -> None:
        if self._live_open:
            self.stream.write("\n")
            self.stream.flush()
            self._live_open = False

    def _line(self) -> str:
        done = self.completed + self.failed + self.cached
        parts = [f"cells {done}/{self.total}"]
        if self.cached:
            parts.append(f"{self.cached} cached")
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        if self.completed:
            parts.append(f"{self.busy_s / max(self.completed, 1):.2f}s/cell")
        return "  ".join(parts)

    # -- lifecycle -----------------------------------------------------------

    def sweep_start(self, total: int, cached: int, jobs: int) -> None:
        self.total = total
        self.cached = cached
        self.jobs = max(1, jobs)
        self._t0 = time.perf_counter()
        self._emit("sweep_start", total=total, cached=cached,
                   pending=total - cached, jobs=self.jobs)
        self._live(self._line())

    def cell_start(self, key: str, label: str = "") -> None:
        self._emit("cell_start", key=key, label=label)

    def cell_cached(self, key: str, label: str = "") -> None:
        self._emit("cell_cached", key=key, label=label)

    def cell_finish(self, key: str, label: str = "", wall_s: float = 0.0,
                    peak_rss_kb: int = 0) -> None:
        self.completed += 1
        self.busy_s += wall_s
        self._emit("cell_finish", key=key, label=label,
                   wall_s=round(wall_s, 6), peak_rss_kb=peak_rss_kb)
        self._live(self._line())

    def cell_failed(self, key: str, kind: str, message: str,
                    label: str = "", wall_s: float = 0.0,
                    peak_rss_kb: int = 0) -> None:
        self.failed += 1
        self.busy_s += wall_s
        self._emit("cell_failed", key=key, label=label, kind=kind,
                   message=message, wall_s=round(wall_s, 6),
                   peak_rss_kb=peak_rss_kb)
        self._live(self._line())

    def sweep_end(self, cache_hits: int = 0, cache_misses: int = 0) -> None:
        wall = time.perf_counter() - self._t0
        probes = cache_hits + cache_misses
        util = (self.busy_s / (self.jobs * wall)) if wall > 0 else 0.0
        self._emit("sweep_end", total=self.total, completed=self.completed,
                   failed=self.failed, cached=self.cached,
                   wall_s=round(wall, 6), busy_s=round(self.busy_s, 6),
                   worker_utilization=round(util, 4),
                   cache_hits=cache_hits, cache_misses=cache_misses,
                   cache_hit_ratio=round(cache_hits / probes, 4)
                   if probes else 0.0)
        self._fsync()
        self._end_live()

    def close(self) -> None:
        self._end_live()
        if self._jsonl is not None:
            self._jsonl.close()
            self._jsonl = None
