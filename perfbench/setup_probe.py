"""Time one cold set-up of a benchmark workload, in a fresh interpreter.

Set-up is everything before the first access is simulated: ``import
repro`` plus building every cell's traces, engine and simulator (or
oracle).  Cells are built one at a time and dropped, so only their
construction is timed.  Prints one JSON line.

    python3 perfbench/setup_probe.py --workload spec-small --seed 123
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - t0

    import workloads

    build_s = 0.0
    t0 = time.perf_counter()
    cells = workloads.specs(args.workload, args.seed)
    build_s += time.perf_counter() - t0
    build = (workloads.build_replay if args.workload == workloads.ORACLE
             else workloads.build_cell)
    for cell in cells:
        t0 = time.perf_counter()
        built = build(cell)
        build_s += time.perf_counter() - t0
        del built
    print(json.dumps({"setup_s": import_s + build_s, "import_s": import_s,
                      "build_s": build_s}))


if __name__ == "__main__":
    main()
