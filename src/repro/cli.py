"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
run            simulate one workload mix under one or all schemes
serve          async HTTP/JSON simulation service over the result cache
attack         run the MetaLeak demonstration
verify-oracle  differential functional-vs-timing replay + fault campaigns
check-leakage  paired-secret leakage contracts + mutation self-proof
experiment     regenerate one paper table/figure by id (fig15, tab3, ...)
ablations      run the beyond-the-paper ablation studies
list           show available mixes, schemes and experiment ids
"""

from __future__ import annotations

import argparse
import sys


#: Histogram groups the --profile table walks, in display order.
_PROFILE_GROUPS = ("hist.sim", "hist.engine", "hist.mc")


def _print_profile(results) -> None:
    """p50/p95/p99 per request class per scheme, from the registry
    snapshots (so the table obeys the measurement window)."""
    from repro.sim.hist import HistogramSet
    print(f"\n{'scheme':18s} {'class':22s} {'count':>8s} "
          f"{'mean':>8s} {'p50':>7s} {'p95':>7s} {'p99':>7s}")
    for scheme, r in results.items():
        for group in _PROFILE_GROUPS:
            values = r.registry_snapshot.get(group, {})
            prefix = group.split(".", 1)[1]
            for name, h in sorted(HistogramSet.from_values(values).items()):
                if h.count == 0:
                    continue
                print(f"{scheme:18s} {prefix + ':' + name:22s} "
                      f"{h.count:8d} {h.mean:8.1f} "
                      f"{h.percentile(50):7.0f} {h.percentile(95):7.0f} "
                      f"{h.percentile(99):7.0f}")


def _cmd_run(args) -> int:
    from contextlib import nullcontext

    from repro import ENGINES, build_mix, scaled_config
    from repro.sim.provenance import run_manifest
    from repro.sim.simulator import Simulator
    cfg = scaled_config(n_cores=4)
    workload = build_mix(args.mix, n_accesses=args.accesses)
    schemes = [args.scheme] if args.scheme != "all" else list(ENGINES)
    tracers = {}
    samplers = {}
    results = {}
    rc = 0
    for pid, scheme in enumerate(schemes):
        tracer = None
        if args.trace:
            from repro.sim.trace import EventTracer
            tracer = EventTracer(limit=args.trace_limit, pid=pid)
            tracers[scheme] = tracer
        sampler = nullcontext()
        if args.profile_phases:
            from repro.sim.profiler import Sampler
            sampler = samplers[scheme] = Sampler()
        engine = ENGINES[scheme](cfg, seed=args.seed)
        sim = Simulator(cfg, engine, seed=args.seed,
                        frame_policy=args.frames, tracer=tracer)
        with sampler:
            results[scheme] = sim.run(
                workload, warmup=args.accesses // 3,
                check_invariants=args.check_invariants or None)
    base = results.get("baseline")
    print(f"{'scheme':18s} {'IPC/core':>24s} {'path':>6s} {'DRAM':>9s}")
    for scheme, r in results.items():
        ipcs = " ".join(f"{c.ipc:.3f}" for c in r.cores)
        print(f"{scheme:18s} {ipcs:>24s} "
              f"{r.engine.avg_path_length:6.2f} "
              f"{r.engine.total_dram_accesses:9d}"
              + (f"  (weighted {r.weighted_ipc(base):.3f})"
                 if base and scheme != "baseline" else ""))
    if args.check_invariants:
        print(f"invariants OK for {len(results)} scheme(s)")
    if args.profile:
        _print_profile(results)
    if args.profile_phases:
        from repro.sim.profiler import format_phase_table
        reports = [(scheme, sampler.report())
                   for scheme, sampler in samplers.items()]
        text, coverage_ok = format_phase_table(reports)
        print(text)
        if not coverage_ok:
            print("profile-phases: named samples fell below the "
                  "coverage floor — the layer table is missing a hot "
                  "module", file=sys.stderr)
            rc = 1
    manifest = run_manifest(
        config=cfg, seed=args.seed, mix=args.mix, accesses=args.accesses,
        warmup=args.accesses // 3, frames=args.frames, schemes=schemes)
    if args.trace:
        from repro.sim.trace import write_chrome_trace
        write_chrome_trace(args.trace, tracers, manifest)
        dropped = sum(t.dropped for t in tracers.values())
        print(f"wrote trace ({sum(t.emitted for t in tracers.values())} "
              f"events, {dropped} dropped) to {args.trace}")
        if dropped:
            per = ", ".join(f"{s}: {t.dropped}"
                            for s, t in tracers.items() if t.dropped)
            print(f"warning: trace ring buffer overflowed — {dropped} "
                  f"oldest events dropped ({per}); raise --trace-limit "
                  f"to keep them", file=sys.stderr)
    if args.dump_stats:
        import json
        import os
        payload = {
            "manifest": manifest,
            "schemes": {s: r.registry_snapshot for s, r in results.items()},
        }
        parent = os.path.dirname(os.path.abspath(args.dump_stats))
        os.makedirs(parent, exist_ok=True)
        with open(args.dump_stats, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
        print(f"wrote measurement-window stats to {args.dump_stats}")
    return rc


def _cmd_serve(args) -> int:
    """Run the async simulation service until interrupted."""
    import asyncio

    from repro.experiments.parallel import default_jobs
    from repro.serve import DEFAULT_SERVE_TIMEOUT, ServeApp

    jobs = args.jobs if args.jobs else default_jobs()
    timeout = (DEFAULT_SERVE_TIMEOUT if args.cell_timeout is None
               else (args.cell_timeout or None))
    app = ServeApp(host=args.host, port=args.port,
                   cache_dir=args.cache_dir, jobs=jobs,
                   queue_depth=args.queue_depth,
                   cell_timeout=timeout,
                   memo_size=args.memo_size,
                   max_accesses=args.max_accesses,
                   events_log=args.events_log)

    async def _main() -> None:
        port = await app.start()
        print(f"repro serve listening on http://{app.host}:{port}  "
              f"(jobs={jobs}, queue-depth={args.queue_depth}, "
              f"cache={app.cache.root})", flush=True)
        assert app._server is not None
        try:
            async with app._server:
                await app._server.serve_forever()
        finally:
            await app.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    return 0


def _cmd_attack(args) -> int:
    from repro.experiments import fig03_attack
    fig03_attack.main(n_bits=args.bits)
    return 0


def _cmd_verify_oracle(args) -> int:
    """Clean lockstep replays + tamper campaigns + model-fault
    sensitivity; exits non-zero on any disagreement, missed detection
    or false alarm (the CI ``oracle-smoke`` gate)."""
    import json
    import os

    from repro.attacks.faultinject import (campaign_cache,
                                           default_campaign_specs,
                                           detection_matrix,
                                           model_fault_matrix,
                                           run_campaigns)
    from repro.experiments.parallel import default_jobs
    from repro.sim.oracle import DEFAULT_SCHEMES, verify_scheme
    from repro.sim.provenance import run_manifest

    schemes = (DEFAULT_SCHEMES if args.schemes == "all"
               else tuple(args.schemes.split(",")))
    mixes = tuple(args.mixes.split(","))
    accesses = 400 if args.quick else args.accesses
    ok = True

    print(f"{'scheme':18s} {'mix':5s} {'ops':>6s} {'ckpts':>5s}  "
          f"clean-replay")
    clean = {}
    for scheme in schemes:
        for mix in mixes:
            rep = verify_scheme(scheme, mix, n_accesses=accesses,
                                seed=args.seed,
                                overflow_writes_per_page=48)
            clean[f"{scheme}/{mix}"] = rep.to_dict()
            ok &= rep.ok
            status = ("agree" if rep.ok
                      else f"{len(rep.disagreements)} DISAGREEMENT(S)")
            print(f"{scheme:18s} {mix:5s} {rep.ops:6d} "
                  f"{rep.checkpoints:5d}  {status}")
            for d in rep.disagreements[:5]:
                print(f"    [ckpt {d.checkpoint}] {d.kind}: {d.detail}")

    jobs = args.jobs if args.jobs else default_jobs()
    cache = None
    if not args.no_cache:
        root = (os.path.join(args.cache_dir, "campaigns")
                if args.cache_dir else None)
        cache = campaign_cache(root)
    specs = default_campaign_specs(schemes=schemes, mixes=mixes,
                                   seed=args.seed, n_accesses=accesses)
    results = run_campaigns(specs, jobs=jobs, cache=cache)
    matrix = detection_matrix(results)
    ok &= matrix["ok"]
    print("\ntamper detection matrix (detected/injected over "
          f"{len(results)} campaigns):")
    for kind, (inj, det) in sorted(matrix["by_kind"].items()):
        print(f"  {kind:20s} {det:4d}/{inj:<4d} "
              f"{'ok' if inj == det else 'MISSED'}")
    print(f"  clean probes: {matrix['clean_probes']}, "
          f"false positives: {matrix['false_positives']}")
    for line in matrix["failures"] + matrix["disagreements"]:
        print(f"  !! {line}")

    sensitivity = {}
    if not args.skip_model_faults:
        print("\nmodel-fault sensitivity (the oracle must flag each):")
        for scheme in ("baseline", "ivleague-basic"):
            caught = model_fault_matrix(scheme)
            sensitivity[scheme] = caught
            for fault, hit in caught.items():
                ok &= hit
                print(f"  {scheme:18s} {fault:20s} "
                      f"{'caught' if hit else 'NOT CAUGHT'}")

    if args.report:
        payload = {
            "manifest": run_manifest(seed=args.seed,
                                     schemes=list(schemes),
                                     mixes=list(mixes),
                                     accesses=accesses),
            "ok": ok,
            "clean_replays": clean,
            "campaigns": [r.to_dict() for r in results],
            "detection_matrix": matrix,
            "model_fault_sensitivity": sensitivity,
        }
        parent = os.path.dirname(os.path.abspath(args.report))
        os.makedirs(parent, exist_ok=True)
        with open(args.report, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
        print(f"\nwrote oracle report to {args.report}")
    print("\nverify-oracle:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_check_leakage(args) -> int:
    """Paired-secret leakage contracts over observable traces, plus the
    mutation self-proof; exits non-zero on any isolation violation,
    power-control failure or undetected mutation (the CI
    ``leakage-smoke`` gate)."""
    import json
    import os

    from repro.experiments.parallel import default_jobs
    from repro.obs.leakage import (DEFAULT_SCHEMES, QUICK_SCHEMES,
                                   build_report, contract_of,
                                   default_pair_specs, leakage_matrix,
                                   mutation_matrix, mutation_pair_specs,
                                   pair_cache, record_leakage_metrics,
                                   run_pairs)
    from repro.obs.metrics import Metrics
    from repro.sim.provenance import run_manifest

    if args.schemes == "default":
        schemes = QUICK_SCHEMES if args.quick else DEFAULT_SCHEMES
    else:
        schemes = tuple(args.schemes.split(","))
    mixes = tuple(args.mixes.split(","))
    rounds = 24 if args.quick else args.rounds
    jobs = args.jobs if args.jobs else default_jobs()
    cache = None
    if not args.no_cache:
        root = (os.path.join(args.cache_dir, "leakage")
                if args.cache_dir else None)
        cache = pair_cache(root)

    specs = default_pair_specs(schemes=schemes, mixes=mixes,
                               pairs=args.pairs, rounds=rounds,
                               seed=args.seed)
    results = run_pairs(specs, jobs=jobs, cache=cache)
    matrix = leakage_matrix(results)

    print(f"{'scheme':18s} {'mix':5s} {'contract':11s} "
          f"{'max MI':>8s}  verdict")
    for res in results:
        if res.contract == "exact":
            verdict = ("isolated" if res.ok else
                       f"{len(res.violations)} VIOLATION(S)")
        else:
            verdict = ("leaks (as expected)" if res.leaked
                       else "no measurable leakage")
            if res.violations:
                verdict = f"{len(res.violations)} VIOLATION(S)"
        print(f"{res.scheme:18s} {res.mix:5s} {res.contract:11s} "
              f"{res.max_mi:8.3f}  {verdict}")
        for v in res.violations[:3]:
            print(f"    !! {v}")
    for line in matrix["power_failures"]:
        print(f"  !! {line}")
    ok = matrix["ok"]

    mutated = []
    if not args.skip_mutations:
        mut_specs = mutation_pair_specs(schemes, mix=mixes[0],
                                        rounds=min(rounds, 24),
                                        seed=args.seed)
        mutated = run_pairs(mut_specs, jobs=jobs, cache=cache)
        mut = mutation_matrix(mutated)
        ok &= mut["ok"]
        print("\nmutation self-proof (every model leak must trip the "
              "checker):")
        for key, hit in sorted(mut["detected"].items()):
            print(f"  {key:42s} {'detected' if hit else 'NOT DETECTED'}")
        if not mut["detected"]:
            print("  (no exact-contract scheme selected -- nothing to "
                  "mutate)")

    metrics = Metrics()
    record_leakage_metrics(metrics, results)

    if args.report:
        manifest = run_manifest(seed=args.seed, schemes=list(schemes),
                                mixes=list(mixes), rounds=rounds,
                                pairs=args.pairs)
        payload = build_report(results, mutated, manifest=manifest)
        payload["metrics"] = metrics.snapshot()
        parent = os.path.dirname(os.path.abspath(args.report))
        os.makedirs(parent, exist_ok=True)
        with open(args.report, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
        print(f"\nwrote leakage report to {args.report}")
    contracts = ", ".join(f"{s}={contract_of(s)}" for s in schemes)
    print(f"\ncheck-leakage ({contracts}):", "OK" if ok else "FAILED")
    return 0 if ok else 1


_EXPERIMENTS = {
    "fig3": "fig03_attack", "fig15": "fig15_weighted_ipc",
    "fig16": "fig16_path_length", "fig17": "fig17_nfl",
    "fig18": "fig18_nflb", "fig19": "fig19_mem_accesses",
    "fig20": "fig20_sensitivity", "fig21": "fig21_treeling_count",
    "fig22": "fig22_success_rate", "tab1": "tab01_config",
    "tab2": "tab02_workloads", "tab3": "tab03_hwcost",
    "comparators": "comparators",
}


def _configure_runner(args) -> None:
    """Apply --jobs/--no-cache/--cache-dir/--progress to the runner."""
    from repro.experiments import runner
    runner.configure(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=False if args.no_cache else None,
        progress=args.progress)


def _add_runner_flags(sub) -> None:
    sub.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="simulate up to N cells in parallel worker "
                          "processes (default: serial, or $REPRO_JOBS)")
    sub.add_argument("--no-cache", action="store_true",
                     help="ignore the persistent result cache: "
                          "re-simulate every cell and store nothing")
    sub.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="persistent result cache location "
                          "(default: .cache/runs, or $REPRO_CACHE_DIR)")
    sub.add_argument("--progress", default=None, nargs="?", const="1",
                     metavar="PATH",
                     help="live per-cell progress on stderr; with PATH, "
                          "also append structured JSONL events there "
                          "(default: $REPRO_PROGRESS)")


def _cmd_experiment(args) -> int:
    import importlib
    mod_name = _EXPERIMENTS.get(args.id)
    if mod_name is None:
        print(f"unknown experiment {args.id!r}; "
              f"known: {sorted(_EXPERIMENTS)}", file=sys.stderr)
        return 2
    _configure_runner(args)
    module = importlib.import_module(f"repro.experiments.{mod_name}")
    if args.id in ("fig3", "fig21", "fig22", "tab1", "tab2", "tab3"):
        rows = module.main()
    else:
        rows = module.main(args.scale)
    if args.export and isinstance(rows, list) and rows \
            and isinstance(rows[0], dict):
        from repro.analysis.export import rows_to_csv
        path = rows_to_csv(rows, f"{args.export}/{args.id}.csv")
        print(f"exported {path}")
    return 0


def _cmd_ablations(args) -> int:
    from repro.experiments import ablations
    _configure_runner(args)
    ablations.main(args.scale)
    return 0


def _cmd_list(args) -> int:
    from repro import ENGINES
    from repro.workloads.mixes import MIXES, mix_footprint_pages
    print("schemes:")
    for s in ENGINES:
        print(f"  {s}")
    print("mixes (Table II):")
    for mix, benches in MIXES.items():
        print(f"  {mix}: {'-'.join(benches)} "
              f"({mix_footprint_pages(mix)} pages)")
    print("experiments:")
    for eid in sorted(_EXPERIMENTS):
        print(f"  {eid}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="IvLeague reproduction CLI")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one mix")
    run.add_argument("mix", help="Table II mix id, e.g. S-1")
    run.add_argument("--scheme", default="all",
                     choices=["all", "baseline", "ivleague-basic",
                              "ivleague-invert", "ivleague-pro"])
    run.add_argument("--accesses", type=int, default=12_000)
    run.add_argument("--frames", default="fragmented",
                     choices=["sequential", "fragmented", "random"])
    run.add_argument("--check-invariants", action="store_true",
                     help="verify cross-component stat conservation laws "
                          "after each run (exits non-zero on violation)")
    run.add_argument("--dump-stats", default=None, metavar="PATH",
                     help="write the full per-scheme counter snapshot "
                          "(measurement window only) as JSON, with a "
                          "run-provenance manifest")
    run.add_argument("--seed", type=int, default=123,
                     help="workload/placement seed (recorded in the "
                          "run manifest)")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="record a Chrome/Perfetto trace of every "
                          "memory-request lifecycle to PATH (one trace "
                          "process per scheme)")
    run.add_argument("--trace-limit", type=int, default=200_000,
                     metavar="N",
                     help="ring-buffer capacity per scheme; oldest "
                          "events are dropped beyond this (default "
                          "200000)")
    run.add_argument("--profile", action="store_true",
                     help="print p50/p95/p99 latency per request class "
                          "per scheme from the log-bucketed histograms")
    run.add_argument("--profile-phases", action="store_true",
                     help="sample host CPU time into named model "
                          "layers (verify walk, caches, DRAM, ...) per "
                          "scheme; MAC, counter and tree-cache probes "
                          "share the cache layer (perfbench/run.py "
                          "--trace 1 times each cache); exits non-zero "
                          "if under 90%% of samples are named")
    run.set_defaults(func=_cmd_run)

    srv = sub.add_parser(
        "serve",
        help="async HTTP/JSON simulation service: warm cells from the "
             "result cache, cold cells on a bounded worker queue")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8642,
                     help="listen port (0 picks a free one; default "
                          "8642)")
    srv.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="simulation worker processes (default: "
                          "$REPRO_JOBS or 1)")
    srv.add_argument("--queue-depth", type=int, default=16, metavar="N",
                     help="max outstanding cold cells before the "
                          "server sheds load with 429 (default 16)")
    srv.add_argument("--cell-timeout", type=float, default=None,
                     metavar="S",
                     help="per-cell wall-clock budget in seconds; a "
                          "hung cell becomes a timeout failure "
                          "(default 120, 0 disables)")
    srv.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="shared result store (default: .cache/runs, "
                          "or $REPRO_CACHE_DIR)")
    srv.add_argument("--memo-size", type=int, default=1024,
                     help="in-memory LRU of response envelopes "
                          "(default 1024)")
    srv.add_argument("--max-accesses", type=int, default=200_000,
                     help="largest accepted per-cell trace length "
                          "(default 200000)")
    srv.add_argument("--events-log", default=None, metavar="PATH",
                     help="also append progress events as JSONL to "
                          "PATH (the --progress schema)")
    srv.set_defaults(func=_cmd_serve)

    atk = sub.add_parser("attack", help="MetaLeak demonstration")
    atk.add_argument("--bits", type=int, default=128)
    atk.set_defaults(func=_cmd_attack)

    vor = sub.add_parser(
        "verify-oracle",
        help="replay streams through timing engines and the functional "
             "model in lockstep; run tamper + model-fault campaigns")
    vor.add_argument("--quick", action="store_true",
                     help="short streams (the CI smoke configuration)")
    vor.add_argument("--schemes", default="all", metavar="S1,S2",
                     help="comma-separated scheme list (default: all "
                          "nine engines)")
    vor.add_argument("--mixes", default="S-1,M-2", metavar="M1,M2",
                     help="comma-separated Table II mix ids")
    vor.add_argument("--accesses", type=int, default=1200,
                     help="stream length per core (400 with --quick)")
    vor.add_argument("--seed", type=int, default=0)
    vor.add_argument("--report", default=None, metavar="PATH",
                     help="write the full JSON report (clean replays, "
                          "detection matrix, sensitivity) to PATH")
    vor.add_argument("--skip-model-faults", action="store_true",
                     help="skip the engine-bug sensitivity arm")
    _add_runner_flags(vor)
    vor.set_defaults(func=_cmd_verify_oracle)

    lkg = sub.add_parser(
        "check-leakage",
        help="paired-secret runs per scheme: exact non-interference for "
             "isolation schemes, measured MI for leaky ones, plus the "
             "mutation self-proof")
    lkg.add_argument("--quick", action="store_true",
                     help="short rounds + the CI smoke scheme set")
    lkg.add_argument("--schemes", default="default", metavar="S1,S2",
                     help="comma-separated scheme list; '+mirage' "
                          "suffixes enable randomized metadata caches "
                          "(default: the smoke or full grid)")
    lkg.add_argument("--mixes", default="S-1", metavar="M1,M2",
                     help="Table II mixes driving the mix-replay "
                          "observer")
    lkg.add_argument("--pairs", type=int, default=1, metavar="N",
                     help="paired-secret replicas per scheme x mix "
                          "(seeds seed..seed+N-1)")
    lkg.add_argument("--rounds", type=int, default=48,
                     help="victim key bits per pair (24 with --quick)")
    lkg.add_argument("--seed", type=int, default=0)
    lkg.add_argument("--report", default=None, metavar="PATH",
                     help="write the JSON leakage report (verdicts, "
                          "first divergences, MI estimates) to PATH")
    lkg.add_argument("--skip-mutations", action="store_true",
                     help="skip the mutation self-proof arm")
    _add_runner_flags(lkg)
    lkg.set_defaults(func=_cmd_check_leakage)

    exp = sub.add_parser("experiment", help="regenerate a table/figure")
    exp.add_argument("id", help="e.g. fig15, fig3, tab3")
    exp.add_argument("--scale", default="quick",
                     choices=["quick", "full"])
    exp.add_argument("--export", default=None, metavar="DIR",
                     help="also write the rows to DIR/<id>.csv")
    _add_runner_flags(exp)
    exp.set_defaults(func=_cmd_experiment)

    abl = sub.add_parser("ablations", help="beyond-the-paper sweeps")
    abl.add_argument("--scale", default="quick",
                     choices=["quick", "full"])
    _add_runner_flags(abl)
    abl.set_defaults(func=_cmd_ablations)

    lst = sub.add_parser("list", help="list mixes/schemes/experiments")
    lst.set_defaults(func=_cmd_list)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        return 0
    except Exception as exc:
        from repro.sim.registry import InvariantViolation
        if isinstance(exc, InvariantViolation):
            print(f"stat invariant violation:\n{exc}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    raise SystemExit(main())
