"""Hotpage access-frequency tracker (paper Section VII-B, Fig. 14a).

An n-entry table in the memory controller: each entry holds a PFN and a
saturating counter.  On access, the page's counter increments; when the
page is absent and the table is full, the entry with the smallest counter
is replaced (paper's replacement rule).  A page whose counter reaches the
threshold is reported as a promotion candidate.  All counters are cleared
every ``clear_interval`` accesses; hot pages that cooled down (counter
below half the threshold at clear time) are reported for demotion.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


@dataclass
class TrackerEvent:
    promote: list[int]
    demote: list[int]


class HotpageTracker:
    """Per-domain n-entry saturating-counter tracker.

    Victim selection (the coldest non-hot entry, ties broken by table
    insertion order) is served from a lazy min-heap instead of a linear
    scan: every state change of an entry pushes its new
    ``(is_hot, count, seq)`` key, and stale heap entries are discarded
    at pop time.  With a full table this turns an O(entries) scan per
    replacement into O(log entries) amortized — the scan was the single
    hottest loop in IvLeague-Pro cells — while selecting *exactly* the
    same victim: ``seq`` is a per-insertion serial, so the heap's
    tie-break equals the dict-iteration (insertion) order the scan used.
    """

    def __init__(self, entries: int, counter_max: int, threshold: int,
                 clear_interval: int) -> None:
        if threshold > counter_max:
            raise ValueError("threshold exceeds the counter range")
        self.entries = entries
        self.counter_max = counter_max
        self.threshold = threshold
        self.clear_interval = clear_interval
        self._table: dict[int, int] = {}
        self._hot: set[int] = set()
        #: Lazy victim heap of (is_hot, count, seq, pfn) plus the
        #: per-entry insertion serial that validates heap entries.
        self._victim_heap: list[tuple[bool, int, int, int]] = []
        self._entry_seq: dict[int, int] = {}
        self._next_seq = 0
        #: Pages that crossed the threshold in the current / previous
        #: interval: promotion requires two consecutive hot intervals,
        #: which filters one-burst streaming pages out (a page a scan
        #: sweeps through looks locally hot but never recurs).
        self._candidates: set[int] = set()
        self._prev_candidates: set[int] = set()
        self._cooling: set[int] = set()
        self._touched: set[int] = set()
        self._accesses_since_clear = 0
        self.replacements = 0
        self.clears = 0

    # -- queries ---------------------------------------------------------------------

    @property
    def hot_pages(self) -> frozenset[int]:
        return frozenset(self._hot)

    def is_hot(self, pfn: int) -> bool:
        return pfn in self._hot

    def count_of(self, pfn: int) -> int:
        return self._table.get(pfn, 0)

    # -- updates ---------------------------------------------------------------------

    def _push(self, pfn: int, count: int) -> None:
        heapq.heappush(self._victim_heap,
                       (pfn in self._hot, count, self._entry_seq[pfn], pfn))

    def _pick_victim(self) -> int:
        """Pop heap entries until one matches live state; that entry is
        the true minimum by (is_hot, count, insertion order)."""
        heap = self._victim_heap
        table = self._table
        hot = self._hot
        seqs = self._entry_seq
        while heap:
            is_hot, count, seq, pfn = heapq.heappop(heap)
            if (table.get(pfn) == count and seqs.get(pfn) == seq
                    and (pfn in hot) == is_hot):
                return pfn
        # Defensive rebuild: every live entry is (re)pushed, so the heap
        # can only run dry if a state transition missed a push.
        for p, c in table.items():
            self._push(p, c)
        return self._pick_victim()

    def access(self, pfn: int) -> TrackerEvent:
        """Record one access; returns promotion/demotion requests."""
        promote: list[int] = []
        demote: list[int] = []
        count = self._table.get(pfn)
        if count is None:
            if len(self._table) >= self.entries:
                # Evict the coldest *non-hot* entry; established hotpages
                # are only displaced when nothing else is available.
                victim = self._pick_victim()
                del self._table[victim]
                del self._entry_seq[victim]
                self.replacements += 1
                if victim in self._hot:
                    self._hot.discard(victim)
                    demote.append(victim)
            self._table[pfn] = 1
            self._entry_seq[pfn] = self._next_seq
            self._next_seq += 1
            self._push(pfn, 1)
        else:
            bumped = min(count + 1, self.counter_max)
            self._table[pfn] = bumped
            if bumped != count:
                self._push(pfn, bumped)
        self._touched.add(pfn)
        if (self._table[pfn] >= self.threshold
                and pfn not in self._hot):
            self._candidates.add(pfn)
            if pfn in self._prev_candidates:
                self._hot.add(pfn)
                self._push(pfn, self._table[pfn])
                promote.append(pfn)
        self._accesses_since_clear += 1
        if self._accesses_since_clear >= self.clear_interval:
            demote.extend(self._clear())
        return TrackerEvent(promote, demote)

    def _clear(self) -> list[int]:
        """Periodic counter decay; cooled-down hot pages demote.

        Counters are halved rather than zeroed so that relative hotness
        survives the interval boundary (a page must fall cold for two
        consecutive intervals before demotion)."""
        self.clears += 1
        self._accesses_since_clear = 0
        # Demotion is lazy: a hot page must go *untouched* for two
        # consecutive intervals (symmetric with two-interval promotion).
        cold_now = {p for p in self._hot if p not in self._touched}
        cooled = [p for p in cold_now if p in self._cooling]
        self._cooling = cold_now - set(cooled)
        for p in cooled:
            self._hot.discard(p)
            self._table.pop(p, None)
        self._prev_candidates = self._candidates
        self._candidates = set()
        self._touched = set()
        # The dict comprehension preserves iteration (= insertion) order,
        # so the surviving entries keep their relative ``seq`` ordering
        # and the rebuilt heap still tie-breaks like the original scan.
        self._table = {p: max(1, c // 2) for p, c in self._table.items()
                       if c > 1 or p in self._hot}
        seqs = self._entry_seq
        self._entry_seq = {p: seqs[p] for p in self._table}
        self._victim_heap = [(p in self._hot, c, self._entry_seq[p], p)
                             for p, c in self._table.items()]
        heapq.heapify(self._victim_heap)
        return cooled

    def forget(self, pfn: int) -> None:
        """Drop a page entirely (page freed / migrated away)."""
        self._table.pop(pfn, None)
        self._entry_seq.pop(pfn, None)
        self._hot.discard(pfn)

    def force_demote(self, pfn: int) -> None:
        """Engine-side demotion (e.g. hot region pressure)."""
        if pfn in self._hot:
            self._hot.discard(pfn)
            count = self._table.get(pfn)
            if count is not None:
                self._push(pfn, count)

    @property
    def storage_bits(self) -> int:
        """On-chip cost: PFN tag (~44b) + counter bits per entry."""
        counter_bits = self.counter_max.bit_length()
        return self.entries * (44 + counter_bits)
