#!/usr/bin/env python
"""Regenerate every paper table/figure at full scale.

Writes the formatted outputs to stdout (tee it) -- this is the script
that produced the measured numbers recorded in EXPERIMENTS.md.

Usage:
    python scripts/run_experiments.py [quick|full] [--env fragmented|sequential|both]
                                      [--jobs N] [--no-cache] [--cache-dir DIR]
                                      [--progress [PATH]]
"""

from __future__ import annotations

import argparse
import time

from repro.experiments import (fig03_attack, fig15_weighted_ipc,
                               fig16_path_length, fig17_nfl, fig18_nflb,
                               fig19_mem_accesses, fig20_sensitivity,
                               fig21_treeling_count, fig22_success_rate,
                               runner, tab01_config, tab02_workloads,
                               tab03_hwcost)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("scale", nargs="?", default="full",
                    choices=["quick", "full"])
    ap.add_argument("--env", default="both",
                    choices=["fragmented", "sequential", "both"])
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="parallel simulation workers (default: serial)")
    ap.add_argument("--no-cache", action="store_true",
                    help="bypass the persistent result cache")
    ap.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="persistent cache location (default .cache/runs)")
    ap.add_argument("--progress", default=None, nargs="?", const="1",
                    metavar="PATH",
                    help="live per-cell progress on stderr; with PATH, "
                         "also append structured JSONL events there "
                         "(default: off)")
    args = ap.parse_args()
    runner.configure(jobs=args.jobs, cache_dir=args.cache_dir,
                     use_cache=False if args.no_cache else None,
                     progress=args.progress)

    t0 = time.time()
    tab01_config.main()
    tab02_workloads.main()
    tab03_hwcost.main()
    fig03_attack.main(n_bits=256)
    fig21_treeling_count.main()
    fig22_success_rate.main(trials=200)

    envs = (["fragmented", "sequential"] if args.env == "both"
            else [args.env])
    for env in envs:
        runner.clear_cache()
        fig15_weighted_ipc.main(args.scale, frame_policy=env)
        fig16_path_length.main(args.scale, frame_policy=env)
        fig18_nflb.main(args.scale, frame_policy=env)
        fig19_mem_accesses.main(args.scale, frame_policy=env)

    fig17_nfl.main(args.scale)
    fig20_sensitivity.main(args.scale)

    print(f"\ntotal wall-clock: {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
