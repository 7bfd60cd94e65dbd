"""Parallel experiment execution engine with a persistent result cache.

The evaluation sweeps are embarrassingly parallel: every *cell* — one
(mix, scheme, scale, frame policy, seed) combination — is an independent
simulation whose outcome is fully determined by its specification.  This
module turns that structure into wall-clock:

* :class:`Cell` is the picklable specification of one simulation;
  :func:`cell_key` derives a stable content hash from it (via the
  provenance ``config_hash``), which is both the dedupe key and the
  on-disk cache key.
* :class:`ResultCache` persists :class:`~repro.sim.stats.RunResult`
  payloads under ``.cache/runs/`` so figure scripts, the CLI and CI
  re-runs are incremental — a cell is simulated once per configuration,
  ever, until the cache schema or the config changes.
* :func:`execute` fans cells out across CPU cores with a
  ``ProcessPoolExecutor``, consulting the cache first and returning
  results in input order.

Domain-model failures (TreeLing starvation, partition overflow) are
*outcomes*, not errors: workers return a :class:`CellFailure` marker so
one starved allocator cell cannot poison a whole sweep, and the failure
itself is cached (it is just as deterministic as a result).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Optional, Sequence

from repro.sim.config import MachineConfig, scaled_config
from repro.sim.provenance import (STATS_SCHEMA_VERSION, config_hash,
                                  peak_rss_kb)
from repro.sim.stats import RunResult

#: Bumped whenever the pickled payload layout (RunResult/CoreStats/
#: EngineStats fields, Cell fields, payload envelope) changes, so stale
#: cache entries from an older code schema are never deserialised.
#: v2: EngineStats.page_reencrypts.
CACHE_SCHEMA_VERSION = 2

#: Default persistent cache location, overridable per-process.
DEFAULT_CACHE_DIR = os.path.join(".cache", "runs")

#: Environment overrides honoured by :func:`default_cache_dir`.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
JOBS_ENV = "REPRO_JOBS"
CELL_TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"

#: CellFailure kinds that describe the *host*, not the model: a hung or
#: killed worker is not a deterministic outcome of the cell spec, so
#: these are never written to the result cache (a healthy re-run must
#: get a fresh chance).
TRANSIENT_FAILURE_KINDS = frozenset({"timeout", "worker-crashed"})


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else 1 (serial)."""
    raw = os.environ.get(JOBS_ENV, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return 1


def cell_timeout_from_env() -> float | None:
    """Per-cell wall-clock budget from ``REPRO_CELL_TIMEOUT`` (seconds).

    Unset, empty or ``0`` means no timeout — the batch default, where a
    long cell is usually a big cell, not a hung one.
    """
    raw = os.environ.get(CELL_TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        t = float(raw)
    except ValueError:
        return None
    return t if t > 0 else None


class CellTimeout(Exception):
    """Raised inside a worker when the per-cell budget expires."""


def is_transient_failure(outcome) -> bool:
    """True for host-level failures that must not be cached."""
    return (isinstance(outcome, CellFailure)
            and outcome.kind in TRANSIENT_FAILURE_KINDS)


def call_with_timeout(worker, spec, timeout: float | None):
    """Run ``worker(spec)`` under a wall-clock budget.

    The budget is enforced with ``SIGALRM``/``setitimer`` in the calling
    process — which is the pool *worker* process on the parallel path and
    the driver itself on the serial path — so a cell stuck in a Python
    loop (or a sleeping syscall) is interrupted and converted into a
    :class:`CellFailure` of kind ``"timeout"``, and the worker process
    survives to take the next task.  Where ``SIGALRM`` is unavailable
    (non-POSIX, or a non-main thread) the call degrades to no timeout
    rather than failing.
    """
    if not timeout:
        return worker(spec)
    import signal
    import threading
    if (not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        return worker(spec)   # pragma: no cover - non-POSIX fallback

    def _on_alarm(signum, frame):
        raise CellTimeout(f"cell exceeded {timeout:g}s budget")

    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return worker(spec)
    except CellTimeout as exc:
        return CellFailure("timeout", str(exc))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)


# ---------------------------------------------------------------------------
# Cell specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One simulation: a workload mix under a scheme at a given scale.

    ``config=None`` means the standard scaled machine for ``n_cores``;
    sweeps that vary the machine attach their explicit
    :class:`MachineConfig` (it is a frozen dataclass, so it pickles
    across the process pool and hashes stably via ``repr``).
    """

    mix: str
    scheme: str
    n_accesses: int
    warmup: int
    seed: int                       # workload/placement seed
    frame_policy: str
    n_cores: int = 4
    engine_seed: int = 11
    config: Optional[MachineConfig] = None

    def resolve_config(self) -> MachineConfig:
        return self.config or scaled_config(n_cores=self.n_cores)


@dataclass(frozen=True)
class CellFailure:
    """A deterministic domain-model failure (e.g. TreeLing starvation).

    Carried in place of a RunResult so sweeps can report the failure as
    a data point — the live form of the paper's Fig. 22 'x' marks.
    """

    kind: str
    message: str


def cell_key(cell: Cell) -> str:
    """Stable content hash identifying ``cell``'s result.

    Keyed by the provenance ``config_hash`` of the *resolved* machine
    configuration — not object identity — so two separately built but
    equal configs share one cache entry, and any config change (however
    deep in the nested dataclasses) invalidates it.  The cache and
    stats schema versions are mixed in so a payload-layout change can
    never serve stale bytes.
    """
    spec = (
        CACHE_SCHEMA_VERSION, STATS_SCHEMA_VERSION,
        config_hash(cell.resolve_config()),
        cell.mix, cell.scheme, cell.n_accesses, cell.warmup,
        cell.seed, cell.frame_policy, cell.n_cores, cell.engine_seed,
    )
    return sha256(repr(spec).encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Engine resolution + the worker
# ---------------------------------------------------------------------------

def resolve_engine(scheme: str):
    """Engine class for a scheme name (paper engines, comparators, and
    the Fig. 17 bit-vector allocator ablations)."""
    from repro import ENGINES, EXTRA_ENGINES
    cls = ENGINES.get(scheme) or EXTRA_ENGINES.get(scheme)
    if cls is not None:
        return cls
    if scheme in ("ivleague-bv1", "ivleague-bv2"):
        from repro.core.bv_engine import (IvLeagueBVv1Engine,
                                          IvLeagueBVv2Engine)
        return (IvLeagueBVv1Engine if scheme == "ivleague-bv1"
                else IvLeagueBVv2Engine)
    if scheme.startswith("static-partition:"):
        from functools import partial

        from repro.secure.static_partition import StaticPartitionEngine
        return partial(StaticPartitionEngine,
                       n_partitions=int(scheme.split(":", 1)[1]))
    raise KeyError(f"unknown scheme {scheme!r}")


def _engine_metrics(engine) -> dict:
    """Scheme-specific scalars that only exist on the live engine object
    (the engine itself cannot cross the process boundary)."""
    metrics: dict = {}
    if hasattr(engine, "treeling_utilization"):
        metrics["treeling_utilization"] = engine.treeling_utilization()
        metrics["untracked_slots"] = engine.untracked_slots()
    return metrics


def run_cell(cell: Cell):
    """Simulate one cell; the process-pool worker entry point.

    Returns a :class:`RunResult` (with ``engine_metrics`` attached) or a
    :class:`CellFailure` for deterministic domain-model failures.
    """
    from repro.core.domain import TreeLingStarvation
    from repro.osmodel.allocator import OutOfMemoryError
    from repro.sim.simulator import Simulator
    from repro.workloads.mixes import build_mix

    cfg = cell.resolve_config()
    workload = build_mix(cell.mix, n_accesses=cell.n_accesses,
                         seed=cell.seed)
    engine = resolve_engine(cell.scheme)(cfg, seed=cell.engine_seed)
    sim = Simulator(cfg, engine, seed=cell.seed,
                    frame_policy=cell.frame_policy)
    try:
        result = sim.run(workload, warmup=cell.warmup)
    except TreeLingStarvation as exc:
        return CellFailure("treeling-starvation", str(exc))
    except OutOfMemoryError as exc:
        return CellFailure("out-of-memory", str(exc))
    result.engine_metrics = _engine_metrics(engine)
    return result


# ---------------------------------------------------------------------------
# Persistent result cache
# ---------------------------------------------------------------------------

class ResultCache:
    """Content-addressed on-disk store of simulation outcomes.

    One pickle file per cell key, sharded into 256 subdirectories by the
    first two hex characters of the key (``ab/<key>.pkl``) so many
    worker processes — or many hosts over a shared filesystem — can use
    one store without ever producing a 100k-entry flat directory.
    Stores written by older versions in the flat layout are migrated
    transparently: a flat entry is moved into its shard the first time
    it is read (``os.replace``, so concurrent migrators race safely).

    Writes are atomic (tempfile + ``os.replace``), reads validate the
    envelope (schema version + key echo) and treat *any* failure —
    truncated file, stale schema, unpicklable bytes — as a miss: the
    entry is dropped and the cell is re-simulated.  A corrupted cache
    can cost time, never correctness.

    A process killed between ``mkstemp`` and ``os.replace`` orphans a
    ``*.tmp`` file; construction sweeps tmp files older than
    ``tmp_grace_s`` (stale by definition: a live writer holds its tmp
    for milliseconds) so crashes cannot accumulate garbage.
    """

    #: Outcome types a payload may legally carry; other callers (e.g.
    #: the fault-injection campaigns) pass their own result types.
    DEFAULT_PAYLOAD_TYPES = (RunResult, CellFailure)

    #: Age (seconds) past which an orphaned ``*.tmp`` file is fair game.
    TMP_GRACE_S = 300.0

    def __init__(self, root: str | os.PathLike | None = None,
                 payload_types: tuple[type, ...] | None = None,
                 tmp_grace_s: float | None = None) -> None:
        self.root = Path(root if root is not None else default_cache_dir())
        self.payload_types = payload_types or self.DEFAULT_PAYLOAD_TYPES
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.recovered = 0   # corrupted/stale entries dropped on read
        self.migrated = 0    # flat-layout entries moved into shards
        self.tmp_swept = sweep_stale_tmp(
            self.root,
            self.TMP_GRACE_S if tmp_grace_s is None else tmp_grace_s)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _flat_path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def _migrate_flat(self, key: str) -> Path:
        """Best-effort move of a pre-sharding flat entry into its shard.

        Returns the path the entry should now be read from: the sharded
        path after a successful move (or after losing the race to a
        concurrent migrator — ``os.replace`` is atomic either way), or
        the flat path itself when the store is read-only.
        """
        flat = self._flat_path(key)
        dest = self._path(key)
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(flat, dest)
            self.migrated += 1
        except FileNotFoundError:
            pass   # no flat entry, or a concurrent migrator won the race
        except OSError:
            return flat   # read-only store: read the flat entry in place
        return dest

    def get(self, key: str):
        """Cached outcome for ``key`` or ``None`` (never raises)."""
        path = self._path(key)
        try:
            try:
                f = open(path, "rb")
            except FileNotFoundError:
                f = open(self._migrate_flat(key), "rb")
            with f:
                payload = pickle.load(f)
            if (not isinstance(payload, dict)
                    or payload.get("cache_schema") != CACHE_SCHEMA_VERSION
                    or payload.get("key") != key):
                raise ValueError("stale or foreign cache envelope")
            outcome = payload["outcome"]
            if not isinstance(outcome, self.payload_types):
                raise TypeError("unexpected payload type")
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupted entry: drop it and fall back to a re-run.
            self.recovered += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return outcome

    def put(self, key: str, outcome, cell: Cell | None = None) -> None:
        """Persist ``outcome`` under ``key``; best-effort (never raises)."""
        payload = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "cell": cell,
            "outcome": outcome,
        }
        try:
            dest = self._path(key)
            dest.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=dest.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, dest)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return   # read-only/ full disk: run uncached
        self.stores += 1

    def _entries(self):
        """Every on-disk artifact: (path, is_tmp) over both layouts."""
        if not self.root.is_dir():
            return
        for pattern in ("*.pkl", "*.tmp", "*/*.pkl", "*/*.tmp"):
            for p in self.root.glob(pattern):
                yield p, p.suffix == ".tmp"

    def clear(self) -> int:
        """Delete every cache entry — sharded and legacy-flat, plus any
        orphaned ``*.tmp`` files; returns the number removed."""
        n = 0
        for p, is_tmp in list(self._entries()):
            try:
                p.unlink()
                n += 1
                if is_tmp:
                    self.tmp_swept += 1
            except OSError:
                pass
        return n


def sweep_stale_tmp(root: Path, grace_s: float) -> int:
    """Unlink orphaned ``*.tmp`` files older than ``grace_s`` seconds.

    A crash between ``mkstemp`` and ``os.replace`` leaves the tempfile
    behind; anything past the grace window cannot belong to a live
    writer (a put holds its tmp for the duration of one pickle dump).
    Returns the number removed; never raises.
    """
    swept = 0
    if not root.is_dir():
        return 0
    cutoff = time.time() - grace_s
    for pattern in ("*.tmp", "*/*.tmp"):
        for p in root.glob(pattern):
            try:
                if p.stat().st_mtime <= cutoff:
                    p.unlink()
                    swept += 1
            except OSError:
                pass   # racing writer finished, or concurrent sweeper
    return swept


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def _pool_context():
    """Prefer fork on POSIX: workers inherit the already-imported
    modules instead of re-importing numpy per process."""
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:   # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _spec_label(spec) -> str:
    """Short human identity of a spec for progress events."""
    if isinstance(spec, Cell):
        return f"{spec.mix}/{spec.scheme}"
    return type(spec).__name__


def _crash_failure(exc) -> CellFailure:
    return CellFailure("worker-crashed",
                       f"worker process died ({exc!r}) — OOM kill or "
                       f"hard crash; outcome not cached")


def _instrumented(worker, spec, timeout=None):
    """Run one task under per-cell telemetry (module-level: it crosses
    the process-pool pickle boundary).

    Returns ``(outcome, meta)`` where ``meta`` carries the cell's wall
    time, the worker process's peak RSS, and a worker-side
    :class:`repro.obs.metrics.Metrics` snapshot for the parent to merge
    (so pool workers' instruments read like one process's totals).
    """
    from repro.obs.metrics import Metrics

    m = Metrics()
    t0 = time.perf_counter()
    outcome = call_with_timeout(worker, spec, timeout)
    wall = time.perf_counter() - t0
    rss = peak_rss_kb()
    failed = isinstance(outcome, CellFailure)
    m.timer("cell_wall").observe(wall)
    m.gauge("peak_rss_kb").set_max(rss)
    m.counter("cells_failed" if failed else "cells_finished").inc()
    return outcome, {"wall_s": wall, "peak_rss_kb": rss,
                     "metrics": m.snapshot()}


def _note_done(reporter, metrics, key: str, spec, outcome, meta) -> None:
    """Fan one finished cell's telemetry to the reporter and metrics."""
    if metrics is not None:
        metrics.merge(meta["metrics"])
    if reporter is not None:
        if isinstance(outcome, CellFailure):
            reporter.cell_failed(key, outcome.kind, outcome.message,
                                 label=_spec_label(spec),
                                 wall_s=meta["wall_s"],
                                 peak_rss_kb=meta["peak_rss_kb"])
        else:
            reporter.cell_finish(key, label=_spec_label(spec),
                                 wall_s=meta["wall_s"],
                                 peak_rss_kb=meta["peak_rss_kb"])


def execute_tasks(specs: Sequence, worker, key_fn, jobs: int = 1,
                  cache: ResultCache | None = None,
                  reporter=None, metrics=None,
                  timeout: float | None = None) -> list:
    """Generic fan-out: run ``worker(spec)`` for every spec through the
    persistent cache.

    ``worker`` must be a picklable module-level callable and every spec
    picklable (they cross the process boundary); ``key_fn(spec)`` is the
    content-hash identity used for dedupe and cache addressing.  This is
    the machinery under :func:`execute` (simulation cells) and the
    fault-injection campaign runner — any deterministic, embarrassingly
    parallel sweep can ride it.

    ``reporter`` (a :class:`repro.obs.progress.ProgressReporter`) and
    ``metrics`` (a :class:`repro.obs.metrics.Metrics`) opt into
    telemetry: lifecycle events per cell, per-cell wall time and worker
    peak RSS, live results via ``as_completed``.  Every cold cell runs
    through :func:`_instrumented` either way; with both ``None`` (the
    default) its telemetry is simply dropped.

    ``timeout`` bounds each cell's wall-clock time: a hung worker is
    interrupted (see :func:`call_with_timeout`) and its cell becomes a
    ``CellFailure(kind="timeout")`` instead of stalling the sweep
    forever; an OOM-killed worker surfaces as ``kind="worker-crashed"``.
    ``None`` defers to ``$REPRO_CELL_TIMEOUT`` (default: no timeout);
    neither failure kind is ever cached.
    """
    if timeout is None:
        timeout = cell_timeout_from_env()
    keys = [key_fn(spec) for spec in specs]
    outcomes: dict[str, object] = {}
    pending: list[tuple[str, object]] = []
    cached: list[tuple[str, object]] = []
    seen: set[str] = set()
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0
    for key, spec in zip(keys, specs):
        if key in seen:
            continue
        seen.add(key)
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            outcomes[key] = hit
            cached.append((key, spec))
        else:
            pending.append((key, spec))

    if reporter is not None:
        reporter.sweep_start(total=len(seen), cached=len(cached), jobs=jobs)
        for key, spec in cached:
            reporter.cell_cached(key, label=_spec_label(spec))
    if metrics is not None:
        metrics.counter("cells_total").inc(len(seen))
        metrics.counter("cells_cached").inc(len(cached))

    if jobs <= 1 or len(pending) <= 1:
        for key, spec in pending:
            if reporter is not None:
                reporter.cell_start(key, label=_spec_label(spec))
            outcome, meta = _instrumented(worker, spec, timeout)
            _note_done(reporter, metrics, key, spec, outcome, meta)
            outcomes[key] = outcome
    else:
        with ProcessPoolExecutor(
                max_workers=min(jobs, len(pending)),
                mp_context=_pool_context()) as pool:
            fut_info = {}
            for key, spec in pending:
                if reporter is not None:
                    reporter.cell_start(key, label=_spec_label(spec))
                fut = pool.submit(_instrumented, worker, spec, timeout)
                fut_info[fut] = (key, spec)
            # as_completed so progress is live, not end-of-sweep.
            for fut in as_completed(fut_info):
                key, spec = fut_info[fut]
                try:
                    outcome, meta = fut.result()
                except BrokenProcessPool as exc:
                    outcome = _crash_failure(exc)
                    meta = {"wall_s": 0.0, "peak_rss_kb": 0, "metrics": {}}
                _note_done(reporter, metrics, key, spec, outcome, meta)
                outcomes[key] = outcome
    if cache is not None:
        for key, spec in pending:
            if not is_transient_failure(outcomes[key]):
                cache.put(key, outcomes[key],
                          spec if isinstance(spec, Cell) else None)

    if reporter is not None:
        reporter.sweep_end(
            cache_hits=(cache.hits - hits0) if cache is not None else 0,
            cache_misses=(cache.misses - misses0) if cache is not None else 0)
    if metrics is not None and cache is not None:
        metrics.counter("cache_hits").inc(cache.hits - hits0)
        metrics.counter("cache_misses").inc(cache.misses - misses0)

    return [outcomes[key] for key in keys]


def execute(cells: Sequence[Cell], jobs: int = 1,
            cache: ResultCache | None = None,
            reporter=None, metrics=None,
            timeout: float | None = None) -> list:
    """Run every cell, in parallel, through the persistent cache.

    Returns outcomes aligned with ``cells`` (a :class:`RunResult` or
    :class:`CellFailure` per cell).  Duplicate cells are simulated once.
    ``jobs<=1`` runs in-process; otherwise misses fan out over a
    ``ProcessPoolExecutor`` with ``min(jobs, misses)`` workers.
    ``timeout`` (or ``$REPRO_CELL_TIMEOUT``) bounds each cell's wall
    time; see :func:`execute_tasks`.
    """
    return execute_tasks(cells, run_cell, cell_key, jobs=jobs, cache=cache,
                         reporter=reporter, metrics=metrics,
                         timeout=timeout)


def scale_cell(mix: str, scheme: str, sc,
               frame_policy: str | None = None,
               config: MachineConfig | None = None) -> Cell:
    """Build a :class:`Cell` from an experiment ``Scale`` object."""
    return Cell(mix=mix, scheme=scheme, n_accesses=sc.n_accesses,
                warmup=sc.warmup, seed=sc.seed,
                frame_policy=frame_policy or sc.frame_policy,
                n_cores=sc.n_cores, config=config)
