"""Cached mix runner shared by the Fig. 15/16/18/19 experiments.

Running a workload mix under a scheme is the expensive operation; four
different figures read different statistics off the same run.  Results
are memoised at two levels:

* an in-process memo (same object returned for repeated requests within
  one process), keyed by the cell's *content hash* — the provenance
  ``config_hash`` plus every workload/scale parameter.  The seed keyed
  configs by ``id(config)``, which is unsound both ways: CPython reuses
  ids after GC (two different configs could alias one entry) and two
  equal configs never matched (every caller paid a cold run);
* the persistent on-disk :class:`~repro.experiments.parallel.ResultCache`
  shared across processes and sessions, so each figure script and CI
  job only pays for cells nobody has simulated before.

``run_all`` fans uncached cells out across CPU cores through
:func:`repro.experiments.parallel.execute`; :func:`configure` (or the
CLI's ``--jobs/--no-cache/--cache-dir``) sets the policy.
"""

from __future__ import annotations

import sys

from repro import ENGINES
from repro.experiments import parallel
from repro.experiments.common import Scale, get_scale
from repro.experiments.parallel import Cell, CellFailure, ResultCache
from repro.obs.progress import make_reporter
from repro.sim.stats import RunResult
from repro.workloads.mixes import ALL

_MEMO: dict[str, RunResult] = {}

SCHEMES = list(ENGINES)   # baseline, ivleague-basic, -invert, -pro

#: Process-wide execution policy; see :func:`configure`.
_JOBS: int = 1
_USE_CACHE: bool = True
_CACHE_DIR: str | None = None
_DISK_CACHE: ResultCache | None = None
#: Progress-telemetry setting ("0" off, "1" live line, else JSONL path).
_PROGRESS: str = "0"


def configure(jobs: int | None = None, cache_dir: str | None = None,
              use_cache: bool | None = None,
              progress: str | None = None) -> None:
    """Set the runner's parallelism, persistent-cache and progress policy.

    ``None`` leaves a setting unchanged; the defaults are a serial run,
    the default cache directory and no progress output.  Changing
    ``cache_dir`` or ``use_cache`` drops the current :class:`ResultCache`
    handle (the next run opens the new location); the in-process memo is
    untouched.
    ``progress`` follows the ``--progress`` convention: ``"0"`` off,
    ``"1"`` live stderr line, anything else a JSONL event-stream path.
    """
    global _JOBS, _CACHE_DIR, _USE_CACHE, _DISK_CACHE, _PROGRESS
    if jobs is not None:
        _JOBS = max(1, int(jobs))
    if cache_dir is not None:
        _CACHE_DIR = cache_dir
        _DISK_CACHE = None
    if use_cache is not None:
        _USE_CACHE = bool(use_cache)
        _DISK_CACHE = None
    if progress is not None:
        _PROGRESS = progress


def disk_cache() -> ResultCache | None:
    """The active persistent cache, or ``None`` when caching is off."""
    global _DISK_CACHE
    if not _USE_CACHE:
        return None
    if _DISK_CACHE is None:
        _DISK_CACHE = ResultCache(_CACHE_DIR)
    return _DISK_CACHE


def _unwrap(cell: Cell, outcome) -> RunResult:
    if isinstance(outcome, CellFailure):
        raise RuntimeError(
            f"cell ({cell.mix}, {cell.scheme}) failed "
            f"deterministically: {outcome.kind}: {outcome.message}")
    return outcome


def run_cells(cells: list[Cell]) -> list:
    """Run arbitrary cells under the runner's jobs/cache policy.

    Returns outcomes aligned with ``cells`` (RunResult or CellFailure),
    memoising RunResults in-process.  When a sweep produced any
    :class:`CellFailure` outcomes, a per-kind summary is printed to
    stderr — failures are legitimate data points, but they should never
    scroll past silently.
    """
    keys = [parallel.cell_key(c) for c in cells]
    missing = [(k, c) for k, c in zip(keys, cells) if k not in _MEMO]
    fresh: dict[str, object] = {}
    if missing:
        reporter = make_reporter(_PROGRESS)
        try:
            outcomes = parallel.execute([c for _, c in missing],
                                        jobs=_JOBS, cache=disk_cache(),
                                        reporter=reporter)
        finally:
            if reporter is not None:
                reporter.close()
        for (key, _), outcome in zip(missing, outcomes):
            fresh[key] = outcome
            if isinstance(outcome, RunResult):
                _MEMO[key] = outcome
    results = [_MEMO.get(key) or fresh[key] for key in keys]
    failures = [(c, o) for c, o in zip(cells, results)
                if isinstance(o, CellFailure)]
    if failures:
        by_kind: dict[str, int] = {}
        for _, f in failures:
            by_kind[f.kind] = by_kind.get(f.kind, 0) + 1
        detail = ", ".join(f"{k}: {n}" for k, n in sorted(by_kind.items()))
        print(f"run_cells: {len(failures)}/{len(cells)} cells failed "
              f"({detail})", file=sys.stderr)
        for cell, f in failures[:5]:
            print(f"  {cell.mix}/{cell.scheme}: {f.kind}: {f.message}",
                  file=sys.stderr)
        if len(failures) > 5:
            print(f"  ... and {len(failures) - 5} more", file=sys.stderr)
    return results


def run_all(scale: str | Scale = "quick", mixes: list[str] | None = None,
            schemes: list[str] | None = None,
            frame_policy: str | None = None
            ) -> dict[str, dict[str, RunResult]]:
    """All requested mixes under all requested schemes, fanned out
    across cores for cells not already memoised or cached on disk."""
    sc = get_scale(scale)
    mixes = list(mixes or ALL)
    schemes = list(schemes or SCHEMES)
    grid = [(mix, scheme) for mix in mixes for scheme in schemes]
    cells = [parallel.scale_cell(mix, scheme, sc, frame_policy=frame_policy)
             for mix, scheme in grid]
    outcomes = run_cells(cells)
    out: dict[str, dict[str, RunResult]] = {mix: {} for mix in mixes}
    for (mix, scheme), cell, outcome in zip(grid, cells, outcomes):
        out[mix][scheme] = _unwrap(cell, outcome)
    return out


def clear_cache() -> None:
    """Drop the in-process memo (the on-disk cache is left alone; use
    ``disk_cache().clear()`` or ``--no-cache`` to force cold runs)."""
    _MEMO.clear()
