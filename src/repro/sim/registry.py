"""Central statistics registry with cross-component conservation checks.

Every stat-bearing component (caches, DRAM, memory controller, TLB,
secure-memory engines, per-core counters) registers its counter fields
here, which buys three things by construction:

* ``reset_all()`` -- *one* warmup-boundary reset that cannot miss a
  counter (the bug class this module exists to kill: a component whose
  counters survive the measurement reset silently pollutes every
  reported hit rate);
* ``snapshot()`` / ``delta()`` -- windowed measurement over any region
  of a run, not just warmup-to-end;
* ``check_invariants()`` -- conservation laws relating counters across
  components (engine-attributed DRAM traffic vs. the controller's
  ground truth, LLC write-backs issued vs. absorbed, tree-path
  accounting, ...).  A violation means some code path bumped one side
  of a ledger without the other -- exactly the silent accounting
  regression a perf PR would otherwise ship.

Counters register either as dataclasses (numeric fields are discovered)
or as explicit ``(obj, fields)`` pairs.  Components whose stat objects
appear over time (e.g. per-domain NFL buffers) register a *provider*
that is re-enumerated at reset/snapshot time, so late-created counters
are still governed by the measurement window.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Optional

_NUMERIC = (int, float)

#: A provider yields (subname, obj, fields) triples; ``fields=None``
#: means "discover numeric dataclass fields".
Provider = Callable[[], Iterable[tuple[str, object, Optional[tuple[str, ...]]]]]


class InvariantViolation(AssertionError):
    """One or more registered conservation laws do not hold."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        lines = "\n  ".join(self.violations)
        super().__init__(
            f"{len(self.violations)} stat invariant(s) violated:\n  {lines}")


def _numeric_fields(obj: object) -> tuple[str, ...]:
    """Numeric field names of a dataclass instance (bools excluded)."""
    if not dataclasses.is_dataclass(obj):
        raise TypeError(
            f"cannot discover fields of {type(obj).__name__}; "
            f"pass fields= explicitly for non-dataclass objects")
    return tuple(
        f.name for f in dataclasses.fields(obj)
        if isinstance(getattr(obj, f.name), _NUMERIC)
        and not isinstance(getattr(obj, f.name), bool))


class _Entry:
    """One named group of counters, possibly spanning several objects."""

    __slots__ = ("name", "parts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.parts: list[tuple[object, tuple[str, ...]]] = []

    def add(self, obj: object, fields: Optional[tuple[str, ...]]) -> None:
        fields = tuple(fields) if fields is not None else _numeric_fields(obj)
        taken = {f for _, fs in self.parts for f in fs}
        for f in fields:
            if f in taken:
                raise ValueError(
                    f"field {f!r} already registered under {self.name!r}")
            if not isinstance(getattr(obj, f), _NUMERIC):
                raise TypeError(
                    f"{self.name}.{f} is not a numeric counter")
        self.parts.append((obj, fields))

    def reset(self) -> None:
        for obj, fields in self.parts:
            for f in fields:
                # zero of the same type: int -> 0, float -> 0.0
                setattr(obj, f, type(getattr(obj, f))())

    def values(self) -> dict[str, int | float]:
        out: dict[str, int | float] = {}
        for obj, fields in self.parts:
            for f in fields:
                out[f] = getattr(obj, f)
        return out


class _CustomEntry:
    """Escape hatch for oddly shaped state (e.g. per-domain dicts)."""

    __slots__ = ("name", "_reset", "_values")

    def __init__(self, name: str, reset: Callable[[], None],
                 values: Callable[[], dict]) -> None:
        self.name = name
        self._reset = reset
        self._values = values

    def reset(self) -> None:
        self._reset()

    def values(self) -> dict[str, int | float]:
        return dict(self._values())


class StatsRegistry:
    """Registry of every measurement counter in one simulated machine."""

    def __init__(self) -> None:
        self._entries: dict[str, _Entry | _CustomEntry] = {}
        self._providers: dict[str, Provider] = {}
        self._invariants: dict[str, Callable[[], Optional[str]]] = {}

    # -- registration -------------------------------------------------------

    def register(self, name: str, obj: object,
                 fields: Optional[tuple[str, ...]] = None) -> None:
        """Register ``obj``'s counters under ``name``.

        ``fields=None`` discovers the numeric fields of a dataclass.
        Registering the same name again merges the new fields into the
        existing group (field-name collisions raise).
        """
        entry = self._entries.get(name)
        if entry is None:
            entry = _Entry(name)
            self._entries[name] = entry
        elif not isinstance(entry, _Entry):
            raise ValueError(f"{name!r} is registered as a custom entry")
        entry.add(obj, fields)

    def register_custom(self, name: str, reset: Callable[[], None],
                        values: Callable[[], dict]) -> None:
        """Register state with bespoke reset/snapshot behaviour."""
        if name in self._entries:
            raise ValueError(f"{name!r} already registered")
        self._entries[name] = _CustomEntry(name, reset, values)

    def register_provider(self, name: str, provider: Provider) -> None:
        """Register a lazily re-enumerated family of counter objects."""
        self._providers[name] = provider

    # -- invariants ---------------------------------------------------------

    def add_invariant(self, name: str,
                      check: Callable[[], Optional[str]]) -> None:
        """``check()`` returns ``None`` when the law holds, else a
        human-readable description of the imbalance."""
        if name in self._invariants:
            raise ValueError(f"invariant {name!r} already registered")
        self._invariants[name] = check

    def add_equality(self, name: str,
                     lhs_label: str, lhs: Callable[[], int | float],
                     rhs_label: str, rhs: Callable[[], int | float]) -> None:
        """Conservation law of the form ``lhs == rhs``."""
        def check() -> Optional[str]:
            a, b = lhs(), rhs()
            if a != b:
                return f"{lhs_label} ({a}) != {rhs_label} ({b})"
            return None
        self.add_invariant(name, check)

    def add_bound(self, name: str,
                  lhs_label: str, lhs: Callable[[], int | float],
                  rhs_label: str, rhs: Callable[[], int | float]) -> None:
        """Conservation law of the form ``lhs <= rhs``."""
        def check() -> Optional[str]:
            a, b = lhs(), rhs()
            if a > b:
                return f"{lhs_label} ({a}) > {rhs_label} ({b})"
            return None
        self.add_invariant(name, check)

    def check_invariants(self, raise_on_violation: bool = True) -> list[str]:
        """Run every registered law; returns the violation list."""
        violations = []
        for name, check in self._invariants.items():
            msg = check()
            if msg is not None:
                violations.append(f"{name}: {msg}")
        if violations and raise_on_violation:
            raise InvariantViolation(violations)
        return violations

    # -- measurement window -------------------------------------------------

    def _all_entries(self) -> Iterable[_Entry | _CustomEntry]:
        yield from self._entries.values()
        for name, provider in self._providers.items():
            for subname, obj, fields in provider():
                e = _Entry(f"{name}.{subname}")
                e.add(obj, fields)
                yield e

    def reset_all(self) -> None:
        """Zero every registered counter (the warmup-boundary reset)."""
        for entry in self._all_entries():
            entry.reset()

    def snapshot(self) -> dict[str, dict[str, int | float]]:
        """Current value of every registered counter, by group."""
        return {e.name: e.values() for e in self._all_entries()}

    @staticmethod
    def delta(before: dict[str, dict[str, int | float]],
              after: dict[str, dict[str, int | float]]
              ) -> dict[str, dict[str, int | float]]:
        """Per-counter ``after - before`` (windowed measurement).

        Groups or fields absent from ``before`` (e.g. a domain's NFL
        buffer created mid-window) are reported at full value.
        """
        out: dict[str, dict[str, int | float]] = {}
        for name, fields in after.items():
            prev = before.get(name, {})
            out[name] = {f: v - prev.get(f, 0) for f, v in fields.items()}
        return out

    # -- introspection ------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return sorted(self._entries) + sorted(self._providers)
