"""Parallel execution engine + persistent result cache.

Covers the properties the experiment layer depends on:

* content-hashed cell keys (equal configs share a key; any parameter or
  config change separates them);
* persistent cache hit/miss/invalidation and corrupted-entry recovery
  (a damaged cache may cost a re-run, never a crash or a wrong result);
* ``execute`` ordering, dedupe and failure pass-through;
* RunResult serialization round-trips (pickle for the pool + cache,
  ``to_dict``/``from_dict`` for JSON artifacts);
* bit-identical results regardless of ``jobs`` (serial vs process pool).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.experiments import parallel, runner
from repro.experiments.parallel import (Cell, CellFailure, ResultCache,
                                        cell_key, execute)
from repro.sim.config import scaled_config
from repro.sim.stats import RunResult


def _cell(**kw) -> Cell:
    base = dict(mix="S-1", scheme="baseline", n_accesses=400, warmup=100,
                seed=123, frame_policy="fragmented", n_cores=4)
    base.update(kw)
    return Cell(**base)


# ---------------------------------------------------------------------------
# cell keys
# ---------------------------------------------------------------------------

class TestCellKey:
    def test_stable_across_equal_cells(self):
        assert cell_key(_cell()) == cell_key(_cell())

    def test_separately_built_equal_configs_share_a_key(self):
        # The seed's id(config)-keyed memo could never hit this case.
        a = _cell(config=scaled_config(n_cores=4))
        b = _cell(config=scaled_config(n_cores=4))
        assert a.config is not b.config
        assert cell_key(a) == cell_key(b)

    def test_default_config_matches_explicit_equal_config(self):
        assert cell_key(_cell()) == cell_key(
            _cell(config=scaled_config(n_cores=4)))

    @pytest.mark.parametrize("change", [
        {"mix": "S-2"}, {"scheme": "ivleague-basic"}, {"n_accesses": 401},
        {"warmup": 99}, {"seed": 124}, {"frame_policy": "random"},
        {"engine_seed": 12},
    ])
    def test_any_parameter_change_changes_the_key(self, change):
        assert cell_key(_cell()) != cell_key(_cell(**change))

    def test_config_change_changes_the_key(self):
        cfg = scaled_config(n_cores=4)
        assert cell_key(_cell(config=cfg)) != cell_key(
            _cell(config=cfg.with_ivleague(nflb_entries=7)))

    def test_schema_version_is_part_of_the_key(self, monkeypatch):
        before = cell_key(_cell())
        monkeypatch.setattr(parallel, "CACHE_SCHEMA_VERSION", 999)
        assert cell_key(_cell()) != before


# ---------------------------------------------------------------------------
# persistent cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = _cell()
        key = cell_key(cell)
        assert cache.get(key) is None
        outcome = parallel.run_cell(cell)
        cache.put(key, outcome, cell)
        got = cache.get(key)
        assert isinstance(got, RunResult)
        assert got.to_dict() == outcome.to_dict()
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_failures_are_cacheable(self, tmp_path):
        cache = ResultCache(tmp_path)
        failure = CellFailure("treeling-starvation", "pool exhausted")
        cache.put("deadbeef", failure, None)
        assert cache.get("deadbeef") == failure

    def test_corrupted_entry_recovers_by_rerunning(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = _cell()
        key = cell_key(cell)
        cache.put(key, parallel.run_cell(cell), cell)
        cache._path(key).write_bytes(b"\x80garbage not a pickle")
        assert cache.get(key) is None          # never raises
        assert cache.recovered == 1
        assert not cache._path(key).exists()   # entry dropped
        # a full execute() round-trip re-simulates and re-stores
        (outcome,) = execute([cell], jobs=1, cache=cache)
        assert isinstance(outcome, RunResult)
        assert isinstance(cache.get(key), RunResult)

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = _cell()
        key = cell_key(cell)
        cache.put(key, parallel.run_cell(cell), cell)
        raw = cache._path(key).read_bytes()
        cache._path(key).write_bytes(raw[: len(raw) // 2])
        assert cache.get(key) is None
        assert cache.recovered == 1

    def test_wrong_key_envelope_is_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = _cell()
        cache.put("0" * 32, parallel.run_cell(cell), cell)
        # same bytes presented under a different key: stale envelope
        alias = cache._path("f" * 32)
        alias.parent.mkdir(parents=True, exist_ok=True)
        alias.write_bytes(cache._path("0" * 32).read_bytes())
        assert cache.get("f" * 32) is None
        assert cache.recovered == 1

    def test_schema_bump_invalidates_old_entries(self, tmp_path,
                                                 monkeypatch):
        cache = ResultCache(tmp_path)
        cell = _cell()
        key = cell_key(cell)
        cache.put(key, parallel.run_cell(cell), cell)
        monkeypatch.setattr(parallel, "CACHE_SCHEMA_VERSION", 999)
        # the key itself changes with the schema -- and even a forced
        # read of the old entry refuses the stale envelope
        assert cell_key(cell) != key
        assert cache.get(key) is None
        assert cache.recovered == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = _cell()
        cache.put(cell_key(cell), parallel.run_cell(cell), cell)
        assert cache.clear() == 1
        assert cache.get(cell_key(cell)) is None

    def test_unwritable_root_degrades_to_uncached(self):
        cache = ResultCache("/proc/definitely-not-writable/cache")
        cell = _cell()
        cache.put(cell_key(cell), parallel.run_cell(cell), cell)
        assert cache.stores == 0
        assert cache.get(cell_key(cell)) is None


# ---------------------------------------------------------------------------
# execute()
# ---------------------------------------------------------------------------

class TestExecute:
    def test_outcomes_align_with_input_order(self, tmp_path):
        cells = [_cell(mix="S-1"), _cell(mix="S-2"),
                 _cell(mix="S-1", scheme="ivleague-basic")]
        outcomes = execute(cells, jobs=1, cache=ResultCache(tmp_path))
        assert [o.workload for o in outcomes] == ["S-1", "S-2", "S-1"]
        assert [o.scheme for o in outcomes] == [
            "baseline", "baseline", "ivleague-basic"]

    def test_duplicate_cells_simulate_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b = execute([_cell(), _cell()], jobs=1, cache=cache)
        assert a is b
        assert cache.stores == 1

    def test_cache_hits_skip_simulation(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = _cell()
        execute([cell], jobs=1, cache=cache)
        cache2 = ResultCache(tmp_path)   # fresh process-equivalent view
        (again,) = execute([cell], jobs=1, cache=cache2)
        assert cache2.hits == 1 and cache2.stores == 0
        assert isinstance(again, RunResult)

    def test_starvation_becomes_a_failure_outcome(self, tmp_path):
        # BV-v1 wastes slots and starves the TreeLing pool on a large
        # mix -- exactly the paper's Fig. 17 'x' entries.
        cfg = scaled_config(n_cores=4).with_ivleague(n_treelings=2)
        cells = [_cell(mix="L-2", scheme="ivleague-bv1",
                       n_accesses=4000, warmup=0, config=cfg),
                 _cell()]
        cache = ResultCache(tmp_path)
        failure, ok = execute(cells, jobs=1, cache=cache)
        assert isinstance(failure, CellFailure)
        assert failure.kind == "treeling-starvation"
        assert isinstance(ok, RunResult)   # sweep survives the failure
        # the deterministic failure is served from cache next time
        cache2 = ResultCache(tmp_path)
        (cached,) = execute([cells[0]], jobs=1, cache=cache2)
        assert cached == failure and cache2.hits == 1


# ---------------------------------------------------------------------------
# serialization round-trips
# ---------------------------------------------------------------------------

class TestSerialization:
    @pytest.fixture(scope="class")
    def result(self):
        return parallel.run_cell(_cell(scheme="ivleague-basic"))

    def test_pickle_round_trip(self, result):
        clone = pickle.loads(pickle.dumps(result))
        assert clone.to_dict() == result.to_dict()
        assert clone.per_core_path == result.per_core_path

    def test_json_dict_round_trip(self, result):
        import json
        payload = json.loads(json.dumps(result.to_dict()))
        clone = RunResult.from_dict(payload)
        assert clone.to_dict() == result.to_dict()
        assert clone.per_core_path == result.per_core_path
        assert [c.ipc for c in clone.cores] == result.ipcs
        assert clone.engine.avg_path_length == \
            result.engine.avg_path_length

    def test_engine_metrics_survive(self, result):
        assert "treeling_utilization" in result.engine_metrics
        clone = RunResult.from_dict(result.to_dict())
        assert clone.engine_metrics == result.engine_metrics


# ---------------------------------------------------------------------------
# parallel == serial
# ---------------------------------------------------------------------------

GRID = [("S-1", "baseline"), ("S-1", "ivleague-basic"),
        ("S-2", "baseline"), ("S-2", "ivleague-pro")]


def _grid_cells():
    return [_cell(mix=m, scheme=s) for m, s in GRID]


class TestDeterminism:
    def test_jobs_do_not_change_results(self, tmp_path):
        """--jobs 1 and --jobs 4 must produce identical statistics and
        registry snapshots for every cell (each cell is an independent,
        fully seeded simulation)."""
        serial = execute(_grid_cells(), jobs=1,
                         cache=ResultCache(tmp_path / "serial"))
        pooled = execute(_grid_cells(), jobs=4,
                         cache=ResultCache(tmp_path / "pooled"))
        for s, p in zip(serial, pooled):
            assert s.to_dict() == p.to_dict()
            assert s.registry_snapshot == p.registry_snapshot

    def test_warm_cache_matches_cold_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = execute(_grid_cells(), jobs=1, cache=cache)
        warm = execute(_grid_cells(), jobs=1, cache=cache)
        assert cache.hits >= len(GRID)
        for c, w in zip(cold, warm):
            assert c.to_dict() == w.to_dict()


# ---------------------------------------------------------------------------
# runner integration
# ---------------------------------------------------------------------------

class TestRunnerPolicy:
    def test_configure_jobs_floor(self):
        runner.configure(jobs=0)
        assert runner._JOBS == 1

    def test_no_cache_disables_disk(self, tmp_path):
        runner.configure(cache_dir=str(tmp_path), use_cache=False)
        assert runner.disk_cache() is None
        runner.configure(use_cache=True)
        assert runner.disk_cache() is not None

    def test_run_cells_memoises_and_persists(self, tmp_path):
        runner.configure(jobs=1, cache_dir=str(tmp_path), use_cache=True)
        cells = [_cell(), _cell(mix="S-2")]
        first = runner.run_cells(cells)
        second = runner.run_cells(cells)
        assert first[0] is second[0] and first[1] is second[1]
        # a fresh memo still avoids simulation via the disk cache
        runner.clear_cache()
        runner.configure(cache_dir=str(tmp_path))   # new cache handle
        third = runner.run_cells(cells)
        assert runner.disk_cache().hits == 2
        assert third[0].to_dict() == first[0].to_dict()

    def test_run_mix_raises_on_failure(self, tmp_path):
        runner.configure(jobs=1, cache_dir=str(tmp_path), use_cache=True)
        cfg = scaled_config(n_cores=4).with_ivleague(n_treelings=2)
        sc_kw = dict(n_accesses=4000, warmup=0, config=cfg)
        (outcome,) = runner.run_cells(
            [_cell(mix="L-2", scheme="ivleague-bv1", **sc_kw)])
        assert isinstance(outcome, CellFailure)
        with pytest.raises(RuntimeError, match="treeling-starvation"):
            runner._unwrap(_cell(), outcome)


@pytest.mark.slow
class TestFullSweepParallel:
    def test_all_schemes_all_small_mixes_pooled(self, tmp_path):
        """Wider determinism net: the full Fig. 15 small-mix grid through
        a real 4-worker pool vs serial."""
        cells = [_cell(mix=m, scheme=s, n_accesses=1500, warmup=500)
                 for m in ("S-1", "S-2", "S-3")
                 for s in runner.SCHEMES]
        serial = execute(cells, jobs=1,
                         cache=ResultCache(tmp_path / "a"))
        pooled = execute(cells, jobs=4,
                         cache=ResultCache(tmp_path / "b"))
        assert [s.to_dict() for s in serial] == \
            [p.to_dict() for p in pooled]


# ---------------------------------------------------------------------------
# per-cell timeouts (workers used below are module-level so they cross
# the pool's pickle boundary)
# ---------------------------------------------------------------------------

def _sleep_worker(seconds: float):
    time.sleep(seconds)
    return f"done-{seconds}"


def _sleep_key(seconds: float) -> str:
    return f"ee{int(seconds * 1000):028x}"


def _starving_worker(seconds: float):
    return CellFailure("treeling-starvation", f"after {seconds}")


def _crashing_worker(seconds: float):
    """Dies like an OOM-killed worker on the ``0.0`` spec."""
    if seconds == 0.0:
        os._exit(1)
    return _sleep_worker(seconds)


class TestCellTimeout:
    def test_serial_sleeping_worker_becomes_timeout_failure(self):
        before = signal.getsignal(signal.SIGALRM)
        t0 = time.monotonic()
        (out,) = parallel.execute_tasks(
            [30.0], _sleep_worker, _sleep_key, jobs=1, timeout=0.2)
        assert time.monotonic() - t0 < 10
        assert isinstance(out, CellFailure) and out.kind == "timeout"
        assert "0.2" in out.message
        # the driver's SIGALRM handler is restored afterwards
        assert signal.getsignal(signal.SIGALRM) == before

    def test_pooled_hung_cell_times_out_and_worker_survives(self):
        # 2 workers, 3 cells: whichever worker draws the 30s cell must
        # survive its alarm and still drain the remaining queue.
        t0 = time.monotonic()
        outs = parallel.execute_tasks(
            [30.0, 0.01, 0.02], _sleep_worker, _sleep_key,
            jobs=2, timeout=0.5)
        assert time.monotonic() - t0 < 20
        assert isinstance(outs[0], CellFailure)
        assert outs[0].kind == "timeout"
        assert outs[1:] == ["done-0.01", "done-0.02"]

    def test_fast_cells_are_unaffected_by_a_timeout(self):
        outs = parallel.execute_tasks(
            [0.0, 0.01], _sleep_worker, _sleep_key, jobs=1, timeout=30)
        assert outs == ["done-0.0", "done-0.01"]

    def test_env_var_arms_the_timeout(self, monkeypatch):
        monkeypatch.setenv(parallel.CELL_TIMEOUT_ENV, "0.2")
        (out,) = parallel.execute_tasks(
            [30.0], _sleep_worker, _sleep_key, jobs=1)
        assert isinstance(out, CellFailure) and out.kind == "timeout"

    @pytest.mark.parametrize("raw", ["", "0", "-3", "nope"])
    def test_env_var_off_values_mean_no_timeout(self, monkeypatch, raw):
        monkeypatch.setenv(parallel.CELL_TIMEOUT_ENV, raw)
        assert parallel.cell_timeout_from_env() is None

    def test_timeout_failures_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path, payload_types=(str, CellFailure))
        (out,) = parallel.execute_tasks(
            [30.0], _sleep_worker, _sleep_key, jobs=1,
            cache=cache, timeout=0.2)
        assert out.kind == "timeout"
        assert cache.stores == 0
        assert cache.get(_sleep_key(30.0)) is None

    def test_deterministic_failures_are_still_cached(self, tmp_path):
        cache = ResultCache(tmp_path, payload_types=(str, CellFailure))
        (out,) = parallel.execute_tasks(
            [1.0], _starving_worker, _sleep_key, jobs=1,
            cache=cache, timeout=5)
        assert out.kind == "treeling-starvation"
        assert cache.stores == 1
        assert cache.get(_sleep_key(1.0)) == out

    def test_telemetered_timeout_emits_cell_failed(self, tmp_path):
        from repro.obs.progress import ProgressReporter, read_events
        log = tmp_path / "events.jsonl"
        reporter = ProgressReporter(jsonl_path=str(log),
                                    stream=open(os.devnull, "w"))
        outs = parallel.execute_tasks(
            [30.0, 0.01], _sleep_worker, _sleep_key, jobs=2,
            reporter=reporter, timeout=0.5)
        reporter.close()
        assert outs[0].kind == "timeout" and outs[1] == "done-0.01"
        failed = [e for e in read_events(log)
                  if e["event"] == "cell_failed"]
        assert len(failed) == 1 and failed[0]["kind"] == "timeout"
        finished = [e for e in read_events(log)
                    if e["event"] == "cell_finish"]
        assert len(finished) == 1


class TestWorkerCrash:
    def test_killed_worker_becomes_uncached_crash_failure(self, tmp_path):
        cache = ResultCache(tmp_path, payload_types=(str, CellFailure))
        specs = [0.01, 0.0, 0.02, 0.03]
        outs = parallel.execute_tasks(specs, _crashing_worker, _sleep_key,
                                      jobs=2, cache=cache)
        assert isinstance(outs[1], CellFailure)
        assert outs[1].kind == "worker-crashed"
        assert cache.get(_sleep_key(0.0)) is None
        # the broken pool may take queued cells down with it, but each
        # of them is a result or a crash, never anything else
        for spec, out in zip(specs, outs):
            assert (out == f"done-{spec}"
                    or (isinstance(out, CellFailure)
                        and out.kind == "worker-crashed"))
        results = [out for out in outs if isinstance(out, str)]
        assert cache.stores == len(results)


# ---------------------------------------------------------------------------
# sharded layout, orphaned-tmp hygiene
# ---------------------------------------------------------------------------

def _crashing_put(root, key) -> None:
    """Child-process body: die between mkstemp and os.replace, exactly
    the crash window that orphans a ``*.tmp`` file."""
    cache = ResultCache(root, payload_types=(CellFailure,))
    parallel.os.replace = lambda src, dst: os._exit(7)
    cache.put(key, CellFailure("x", "y"), None)
    os._exit(0)   # pragma: no cover - put must have hit the stub


class TestShardedCache:
    KEY = "ab" + "0" * 30

    def test_entries_land_in_two_hex_shards(self, tmp_path):
        cache = ResultCache(tmp_path, payload_types=(CellFailure,))
        cache.put(self.KEY, CellFailure("v", "1"), None)
        assert (tmp_path / "ab" / f"{self.KEY}.pkl").is_file()
        assert not (tmp_path / f"{self.KEY}.pkl").exists()

    def test_flat_entry_reads_as_miss(self, tmp_path):
        """A pre-sharding ``<root>/<key>.pkl`` entry is never read."""
        payload = {"cache_schema": parallel.CACHE_SCHEMA_VERSION,
                   "key": self.KEY, "cell": None,
                   "outcome": CellFailure("v", "flat-era")}
        (tmp_path / f"{self.KEY}.pkl").write_bytes(pickle.dumps(payload))
        cache = ResultCache(tmp_path, payload_types=(CellFailure,))
        assert cache.get(self.KEY) is None
        assert (cache.misses, cache.recovered) == (1, 0)

    def test_init_sweeps_only_stale_tmp(self, tmp_path):
        stale = tmp_path / "ab" / "old.tmp"
        stale.parent.mkdir()
        stale.write_bytes(b"orphan")
        os.utime(stale, (time.time() - 3600, time.time() - 3600))
        fresh = tmp_path / "cd" / "live.tmp"
        fresh.parent.mkdir()
        fresh.write_bytes(b"in-flight put")
        cache = ResultCache(tmp_path, payload_types=(CellFailure,))
        assert cache.tmp_swept == 1
        assert not stale.exists()
        assert fresh.exists()   # inside the grace window: a live writer

    def test_clear_removes_and_counts_tmp_orphans(self, tmp_path):
        cache = ResultCache(tmp_path, payload_types=(CellFailure,))
        cache.put(self.KEY, CellFailure("v", "1"), None)
        (tmp_path / "ab" / "orphan.tmp").write_bytes(b"x")
        assert cache.clear() == 2
        assert cache.tmp_swept == 1
        assert cache.get(self.KEY) is None

    def test_crashed_put_orphan_is_swept_on_next_startup(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        p = ctx.Process(target=_crashing_put, args=(tmp_path, self.KEY))
        p.start()
        p.join(30)
        assert p.exitcode == 7
        orphans = list(tmp_path.glob("*/*.tmp"))
        assert len(orphans) == 1   # the regression: garbage left behind
        time.sleep(0.05)
        cache = ResultCache(tmp_path, payload_types=(CellFailure,),
                            tmp_grace_s=0.0)
        assert cache.tmp_swept == 1
        assert not orphans[0].exists()
        assert cache.get(self.KEY) is None   # the put never landed


# ---------------------------------------------------------------------------
# multi-process cache contention
# ---------------------------------------------------------------------------

_KEYS = [f"{i:02x}" + "c" * 30 for i in range(8)]


def _hammer(root, n_iter: int, out_q) -> None:
    """put/get the shared key set as fast as possible; report how many
    reads were torn (parsed but wrong) — misses are legal, tears are not."""
    cache = ResultCache(root, payload_types=(CellFailure,))
    torn = 0
    for i in range(n_iter):
        k = _KEYS[i % len(_KEYS)]
        cache.put(k, CellFailure("v", f"{os.getpid()}:{i}"), None)
        got = cache.get(k)
        if got is not None and (not isinstance(got, CellFailure)
                                or got.kind != "v"):
            torn += 1
    out_q.put(("torn", torn, cache.recovered))


def _clear_loop(root, rounds: int, out_q) -> None:
    cache = ResultCache(root, payload_types=(CellFailure,))
    removed = 0
    for _ in range(rounds):
        removed += cache.clear()
        time.sleep(0.005)
    out_q.put(("cleared", removed, 0))


class TestCacheContention:
    def test_hammering_processes_see_no_torn_reads(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        out_q = ctx.Queue()
        procs = [ctx.Process(target=_hammer,
                             args=(tmp_path, 150, out_q))
                 for _ in range(4)]
        procs.append(ctx.Process(target=_clear_loop,
                                 args=(tmp_path, 20, out_q)))
        for p in procs:
            p.start()
        results = [out_q.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(30)
            assert p.exitcode == 0
        torn = [r for r in results if r[0] == "torn"]
        assert len(torn) == 4
        assert all(t[1] == 0 for t in torn)       # no torn reads
        assert all(t[2] == 0 for t in torn)       # nothing corrupted
        # after the storm the store still works end to end
        cache = ResultCache(tmp_path, payload_types=(CellFailure,))
        for k in _KEYS:
            cache.put(k, CellFailure("v", "final"), None)
            assert cache.get(k) == CellFailure("v", "final")
