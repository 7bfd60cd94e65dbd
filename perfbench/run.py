"""Repository benchmark: cold-sweep throughput of the experiment runner.

    python3 perfbench/run.py --workload gap-large --seed 123 \
        --seconds 25 --trace 0

``--trace 0`` times untraced cold passes through
``repro.experiments.parallel.execute`` (one serial process, a fresh
ResultCache per pass), answers each cell again from the cache right
after its cold run, times three cold set-ups in fresh interpreters, and
reports the end-to-end metrics.  ``--trace 1`` makes one untraced pass
and one traced pass built from the same public pieces, and reports
per-layer spans (see ``spans.py``).

Every run checks its outputs: each cell's ``to_dict()`` digest must
repeat across passes, between the cold and warm answers and between the
traced and untraced passes; every sweep cell runs with the registry's
invariant checks on; a failed cell is counted, not fatal.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Cold set-ups timed per run (each in a fresh interpreter).
SETUP_REPEATS = 3
#: Warm lookups after each cold cell (one takes well under a millisecond).
WARM_REPEATS = 10

#: Spans reported as calls / self seconds / ns per call.
SPANS = (
    "l1.fill", "l2.fill", "llc.probe", "llc.fill", "hierarchy.access",
    "ctr_cache.probe", "ctr_cache.fill", "tree_cache.probe",
    "tree_cache.fill", "mac_cache.probe", "mac_cache.fill",
    "dram.read_data", "dram.read_meta", "dram.write_data",
    "dram.write_meta", "mc.read", "mc.write",
    "engine.data_access", "engine.handle_writeback",
    "engine.on_page_alloc", "engine.on_page_free",
    "lmm.lookup", "lmm.insert", "hotpage.access",
    "allocator.alloc", "allocator.free", "pagetable.walk", "tlb.insert",
    "oracle.access", "oracle.checkpoint", "fsm.read", "fsm.write",
    "bmt.refresh_path", "probe.instant",
)

#: Hit ratios: metric -> counter prefix in ``workloads.layer_counts``.
RATIOS = {
    "llc.hit_ratio": "llc", "ctr_cache.hit_ratio": "ctr_cache",
    "tree_cache.hit_ratio": "tree_cache", "mac_cache.hit_ratio": "mac_cache",
    "lmm.hit_ratio": "lmm", "nflb.hit_ratio": "nflb", "tlb.hit_ratio": "tlb",
}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def import_repro() -> None:
    """Import the package from this checkout's ``src`` (and only there)."""
    sys.path.insert(0, str(SRC))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {SRC}")
    # Modules the runner imports lazily; loaded here so the first timed
    # cell does not pay for them (set-up time is measured on its own).
    import repro.experiments.parallel  # noqa: F401
    import repro.sim.batched  # noqa: F401
    import repro.sim.oracle  # noqa: F401
    import repro.workloads.mixes  # noqa: F401


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds of each cold set-up, every one in its own interpreter."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


class Runner:
    """Runs a workload's cells through the package's sweep executor."""

    def __init__(self, workload: str, scratch: Path) -> None:
        from repro.experiments import parallel
        self.parallel = parallel
        self.oracle = workload == wl.ORACLE
        self.scratch = scratch
        self._n_caches = 0

    def fresh_cache(self):
        self._n_caches += 1
        types = (dict, self.parallel.CellFailure) if self.oracle else None
        return self.parallel.ResultCache(
            self.scratch / f"cache{self._n_caches}", payload_types=types)

    def key(self, spec) -> str:
        if self.oracle:
            return wl.replay_key(spec)
        return self.parallel.cell_key(spec)

    def failure(self, exc: Exception):
        return self.parallel.CellFailure(type(exc).__name__, str(exc))

    def run_all(self, specs, cache) -> list:
        if self.oracle:
            return self.parallel.execute_tasks(specs, wl.replay, wl.replay_key,
                                               jobs=1, cache=cache)
        return self.parallel.execute(specs, jobs=1, cache=cache)

    def run_one(self, spec, cache):
        """Outcome of one cell; an exception becomes a failure outcome."""
        try:
            return self.run_all([spec], cache)[0]
        except Exception as exc:   # a broken cell must not stop the sweep
            return self.failure(exc)


class Tally:
    """Outcomes per cell across passes, with the output checks."""

    def __init__(self, specs) -> None:
        self.specs = specs
        self.times: list[list[float]] = [[] for _ in specs]
        self.digests: list[set[str]] = [set() for _ in specs]
        self.outcomes: list = [None] * len(specs)
        self.failures: list[tuple[int, str]] = []
        self.problems: list[str] = []
        self.warm_s: list[float] = []

    def add(self, i: int, outcome, seconds: float) -> None:
        self.times[i].append(seconds)
        kind = wl.failure_of(outcome)
        if kind is not None:
            self.failures.append((i, kind))
            return
        self.digests[i].add(wl.digest(outcome))
        if self.outcomes[i] is None:
            self.outcomes[i] = outcome

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.problems

    def label(self, i: int) -> str:
        spec = self.specs[i]
        return f"{spec.mix}/{spec.scheme}"

    def check_repeats(self) -> None:
        for i, seen in enumerate(self.digests):
            if len(seen) > 1:
                self.problems.append(
                    f"{self.label(i)}: digest differs across passes")

    def check_one(self, i: int, outcome, what: str) -> None:
        if not self.digests[i]:
            return   # the cold pass failed; already counted
        kind = wl.failure_of(outcome)
        if kind is not None:
            self.problems.append(f"{self.label(i)}: {what} failed ({kind})")
        elif wl.digest(outcome) not in self.digests[i]:
            self.problems.append(f"{self.label(i)}: {what} digest differs "
                                 f"from the cold pass")

    def check_against(self, outcomes: list, what: str) -> None:
        for i, outcome in enumerate(outcomes):
            self.check_one(i, outcome, what)

    def check_warm(self, runner: "Runner", cache) -> None:
        """Answer every good cell again from ``cache`` (failed cells were
        never cached and would re-simulate)."""
        for i, seen in enumerate(self.digests):
            if seen:
                self.check_one(i, runner.run_one(self.specs[i], cache),
                               "warm pass")

    def cell_digest(self, i: int) -> str:
        return min(self.digests[i], default="failed")

    def workload_digest(self) -> str:
        joined = ",".join(self.cell_digest(i) for i in range(len(self.specs)))
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    def op_counts(self) -> dict:
        total: dict = {}
        for outcome in self.outcomes:
            if outcome is not None:
                for k, v in wl.op_counts(outcome).items():
                    total[k] = total.get(k, 0) + v
        return total

    def report(self, seed: int) -> None:
        for i, kind in self.failures:
            print(f"FAILED {self.label(i)}: {kind}")
        for problem in self.problems:
            print(f"CHECK FAILED {problem}")
        print(f"seed {seed} digest {self.workload_digest()}")
        print(f"ops {json.dumps(self.op_counts(), sort_keys=True)}")


def cold_passes(runner: Runner, specs, seconds: float, warm_reps: int = 0):
    """Fresh-cache passes until ``seconds`` have passed (at least one
    whole pass).  Returns the tally and the first pass's full cache.

    After each good cold cell, ``warm_reps`` lookups answer it again from
    the cache.  Spreading them through the run samples the host's slow
    and fast stretches in the same proportion as the cold cells.
    """
    tally = Tally(specs)
    deadline = time.perf_counter() + seconds
    first_cache = None
    while True:
        cache = runner.fresh_cache()
        for i, spec in enumerate(specs):
            if first_cache is not None and time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            outcome = runner.run_one(spec, cache)
            tally.add(i, outcome, time.perf_counter() - t0)
            if warm_reps and wl.failure_of(outcome) is None:
                for _ in range(warm_reps):
                    t0 = time.perf_counter()
                    again = runner.run_one(spec, cache)
                    tally.warm_s.append(time.perf_counter() - t0)
                tally.check_one(i, again, "warm")
        if first_cache is None:
            first_cache = cache
        else:
            shutil.rmtree(cache.root, ignore_errors=True)
        if time.perf_counter() >= deadline:
            return tally, first_cache


def timed_run(args, scratch: Path) -> dict:
    setups = measure_setup(args.workload, args.seed)
    import_repro()
    specs = wl.specs(args.workload, args.seed)
    runner = Runner(args.workload, scratch)
    tally, cache = cold_passes(runner, specs, args.seconds, WARM_REPEATS)
    tally.check_repeats()
    tally.check_warm(runner, cache)

    # Per-cell medians over the passes, so a slow stretch of the host
    # during one repeat of a cell does not move the estimate.
    cell_s = [statistics.median(t) for t in tally.times]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "cells_per_s": metric(len(specs) / sum(cell_s), "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    passes = tally.attempted / len(specs)
    print(f"workload {args.workload}: {len(specs)} cells, "
          f"{passes:.2f} cold passes, {tally.attempted} cell runs, "
          f"{len(tally.failures)} failed")
    for i, times in enumerate(tally.times):
        print(f"  {tally.label(i):24s} {tally.cell_digest(i)}  median "
              f"{cell_s[i]:7.3f} s over {len(times)}")
    print(f"set-up runs (s): {', '.join(f'{s:.3f}' for s in setups)}")
    # Reported, not a gated metric: these sub-millisecond lookups swing
    # by up to 2x with the host's load from one minute to the next.
    if tally.warm_s:
        print(f"warm_ms_per_cell = {statistics.median(tally.warm_s) * 1e3:.4f}"
              f" ms (median of {len(tally.warm_s)} lookups)")
    tally.report(args.seed)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": tally.ok, "attempted": tally.attempted,
            "failed": len(tally.failures), "metrics": metrics}


def traced_pass(runner: Runner, specs, rec):
    """One pass built from the package's public pieces under spans.
    Returns outcomes, per-cell wall seconds, accesses and the cache."""
    cache = runner.fresh_cache()
    outcomes, walls, accesses = [], [], 0
    for spec in specs:
        t0 = time.perf_counter()
        try:
            if runner.oracle:
                workload, _, oracle = wl.build_replay(spec, rec)
                with rec.span(spans.ROOT):
                    report = oracle.run(workload)
                outcome = wl.replay_outcome(report, oracle)
                put_spec = None
            else:
                workload, engine, sim = wl.build_cell(spec, rec)
                with rec.span(spans.ROOT):
                    outcome = sim.run(workload, warmup=spec.warmup,
                                      check_invariants=True)
                outcome.engine_metrics = wl.engine_metrics(engine)
                put_spec = spec
            accesses += sum(len(t) for t in workload.traces)
            cache.put(runner.key(spec), outcome, put_spec)
        except Exception as exc:   # a broken cell must not stop the pass
            outcome = runner.failure(exc)
        walls.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    return outcomes, walls, accesses, cache


def layer_metrics(rec, cal, outcomes, accesses: int, cache_root: Path,
                  n_cells: int, overhead: float) -> dict:
    m = {}
    run_s = rec.total_ns(spans.ROOT) / 1e9
    m["sim.run"] = metric(run_s, "s")
    m["sim.drain"] = metric(rec.self_ns(spans.ROOT, cal) / 1e9, "s")
    m["sim.accesses"] = metric(accesses, "count")
    m["sim.ns_per_access"] = metric(
        run_s * 1e9 / accesses if accesses else 0.0, "ns")
    for name in SPANS + spans.PER_CELL:
        calls = rec.calls(name)
        self_ns = rec.self_ns(name, cal)
        if name not in spans.PER_CELL:
            m[f"{name}.calls"] = metric(calls, "count")
        m[f"{name}.self_s"] = metric(self_ns / 1e9, "s")
        m[f"{name}.ns_per_call"] = metric(
            self_ns / calls if calls else 0.0, "ns")

    counts: dict = {}
    for outcome in outcomes:
        if wl.failure_of(outcome) is None:
            for k, v in wl.layer_counts(outcome).items():
                counts[k] = counts.get(k, 0) + v

    def ratio(num, den):
        return num / den if den else 0.0

    for name, layer in RATIOS.items():
        hits = counts.get(f"{layer}.hits", 0)
        m[name] = metric(ratio(hits, hits + counts.get(f"{layer}.misses", 0)),
                         "ratio")
    rows = counts.get("dram.row_hits", 0)
    m["dram.row_hit_ratio"] = metric(
        ratio(rows, rows + counts.get("dram.row_misses", 0)), "ratio")
    m["engine.nodes_per_verify"] = metric(
        ratio(counts.get("engine.tree_node_dram_reads", 0),
              counts.get("engine.verifications", 0)), "ratio")
    stored = sum(p.stat().st_size for p in cache_root.glob("*/*.pkl"))
    m["cache.bytes_per_cell"] = metric(stored / n_cells, "bytes")
    m["trace.overhead"] = metric(overhead, "ratio")
    m["trace.wrapper_ns"] = metric(cal.per_call_ns, "ns")
    return m


def self_checks(rec, cal, oracle: bool) -> list[str]:
    """Problems with what the traced run measured (empty when sound)."""
    problems = []
    if not oracle and (rec.calls("dram.read_data")
                       != rec.calls("engine.data_access")):
        problems.append(
            f"fused path: dram.read_data.calls "
            f"{rec.calls('dram.read_data')} != engine.data_access.calls "
            f"{rec.calls('engine.data_access')}")
    # Every span inside the root, plus the root's own (drain) time and
    # the wrappers' cost, must add up to the root's duration.
    inside = [n for n in rec.table if n not in spans.PER_CELL]
    covered = sum(rec.self_ns(n, cal) + rec.wrapper_ns(n, cal)
                  for n in inside)
    root = rec.total_ns(spans.ROOT)
    if abs(covered - root) > 1e-3 * root:
        problems.append(f"coverage: spans add up to {covered / 1e9:.4f} s "
                        f"of sim.run's {root / 1e9:.4f} s")
    if rec.self_ns(spans.ROOT, cal) < 0:
        problems.append("sim.drain self time is negative")
    return problems


def traced_run(args, scratch: Path) -> dict:
    import_repro()
    specs = wl.specs(args.workload, args.seed)
    runner = Runner(args.workload, scratch)
    cal = spans.Calibration.measure()
    untraced, _ = cold_passes(runner, specs, 0.0)
    untraced.check_repeats()

    rec = spans.Recorder()
    rec.install()
    try:
        outcomes, walls, accesses, cache = traced_pass(runner, specs, rec)
        untraced.check_against(outcomes, "traced pass")
        untraced.check_warm(runner, cache)
    finally:
        rec.restore()
    untraced.problems += self_checks(rec, cal, runner.oracle)
    overhead = sum(walls) / sum(sum(t) for t in untraced.times)
    metrics = layer_metrics(rec, cal, outcomes, accesses, cache.root,
                            len(specs), overhead)

    run_ns = rec.total_ns(spans.ROOT)
    print(f"workload {args.workload} traced: {len(specs)} cells, "
          f"overhead {overhead:.3f}x, wrapper {cal.inner_ns:.0f}+"
          f"{cal.outer_ns:.0f} ns/call; self time as a share of sim.run:")
    shares = sorted(((rec.self_ns(n, cal), n) for n in rec.table
                     if n != spans.ROOT and rec.calls(n)), reverse=True)
    print(f"  {'sim.drain':22s} {rec.self_ns(spans.ROOT, cal) / run_ns:6.1%}")
    for self_ns, name in shares:
        print(f"  {name:22s} {self_ns / run_ns:6.1%} "
              f"{rec.calls(name):9d} calls")
    untraced.report(args.seed)
    return {"correct": untraced.ok, "attempted": untraced.attempted,
            "failed": len(untraced.failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ["REPRO_CHECK_INVARIANTS"] = "1"
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build_dir))
    try:
        run = traced_run if args.trace else timed_run
        result = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
