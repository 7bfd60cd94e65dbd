#!/usr/bin/env python
"""Gate the latest perf-history record against a trailing baseline.

``scripts/bench.py --append-history`` grows ``BENCH_history.jsonl`` one
record per benchmark run; this script turns that series into a
regression gate.  The **latest** record is compared against the median
of the trailing window of **comparable** records — same bench and
sweep size (``quick``/``n_cells``/``n_accesses``) — and the check fails
when either headline metric regressed beyond the tolerance:

* ``cells_per_sec_serial`` dropped below ``(1 - tolerance) * median``
  (the interpreter-speed axis ROADMAP item 8 tracks), or
* ``warm_seconds_per_cell`` rose above ``(1 + tolerance) * median``
  (the caching-layer axis).

A series with no comparable prior records (the first entry, a new
sweep shape) passes by construction — the gate needs a baseline before
it can bite.

When a throughput regression is flagged and records carry the bench's
``phases`` attribution (per-scheme shares of the sampling profiler's
layers, :mod:`repro.sim.profiler`), the report also names the layer
whose share grew most against the baseline median — pointing at *what*
got slower, not just that something did.  Only layers some baseline
record carries are compared, so a layer the profiler newly names is not
blamed with its whole share.

On 1-CPU hosts timing is noisy enough that a hard gate flakes; unless
``--strict`` is given, such hosts (and an explicit ``--warn-only``)
report regressions as warnings and exit 0.

Exit codes: 0 pass/warned, 1 regression, 2 no usable history.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Fields two records must share to be timing-comparable.
COMPARABLE_KEYS = ("bench", "quick", "n_cells", "n_accesses")


def load_history(path: str) -> list[dict]:
    """Parse the JSONL series, skipping (and reporting) malformed lines
    — a truncated append must degrade the baseline, not kill the gate."""
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                print(f"perf_check: skipping malformed line {lineno} "
                      f"of {path}", file=sys.stderr)
                continue
            if isinstance(rec, dict):
                records.append(rec)
    return records


def comparable(latest: dict, rec: dict) -> bool:
    return all(rec.get(k) == latest.get(k) for k in COMPARABLE_KEYS)


def _mean_phase_shares(phases) -> dict:
    """Collapse a record's per-scheme {phase: share} maps into one
    mean-share-per-phase map (absent/odd data yields {})."""
    if not isinstance(phases, dict):
        return {}
    acc: dict = {}
    n = 0
    for shares in phases.values():
        if not isinstance(shares, dict):
            continue
        n += 1
        for name, share in shares.items():
            acc[name] = acc.get(name, 0.0) + float(share)
    return {k: v / n for k, v in acc.items()} if n else {}


def worst_phase_shift(latest: dict, baseline: list[dict]):
    """Name the phase whose attributed share grew most versus the
    baseline median — the first suspect when throughput regresses.
    Phases no baseline record carries are skipped.

    Returns ``(phase, latest_share, delta)`` or ``None`` when either
    side lacks phase attribution (records predating it) or the two
    share no phase.
    """
    lat = _mean_phase_shares(latest.get("phases"))
    base = [_mean_phase_shares(r.get("phases")) for r in baseline]
    base = [b for b in base if b]
    known = set().union(*base)
    deltas = {
        phase: share - statistics.median(b.get(phase, 0.0) for b in base)
        for phase, share in lat.items() if phase in known}
    if not deltas:
        return None
    phase = max(sorted(deltas), key=lambda p: deltas[p])
    return phase, lat[phase], deltas[phase]


def check(records: list[dict], window: int = 5,
          tolerance: float = 0.25) -> tuple[bool, list[str]]:
    """Evaluate the latest record; returns ``(ok, messages)``."""
    latest = records[-1]
    baseline = [r for r in records[:-1] if comparable(latest, r)]
    baseline = baseline[-window:]
    key = ", ".join(f"{k}={latest.get(k)}" for k in COMPARABLE_KEYS)
    if not baseline:
        return True, [f"first comparable record ({key}): nothing to "
                      f"regress against, pass"]

    msgs = [f"baseline: median of {len(baseline)} record(s) ({key}), "
            f"tolerance {tolerance:.0%}"]
    ok = True

    med_tput = statistics.median(
        r["cells_per_sec_serial"] for r in baseline)
    tput = latest["cells_per_sec_serial"]
    floor = (1.0 - tolerance) * med_tput
    verdict = "ok" if tput >= floor else "REGRESSED"
    msgs.append(f"  cells_per_sec_serial: {tput:.3f} vs median "
                f"{med_tput:.3f} (floor {floor:.3f}) [{verdict}]")
    if tput < floor:
        shift = worst_phase_shift(latest, baseline)
        if shift is not None:
            phase, share, delta = shift
            msgs.append(f"  suspect phase: '{phase}' now {share:.1%} of "
                        f"attributed time ({delta:+.1%} vs baseline "
                        f"median)")
    ok &= tput >= floor

    med_warm = statistics.median(
        r["warm_seconds_per_cell"] for r in baseline)
    warm = latest["warm_seconds_per_cell"]
    ceil = (1.0 + tolerance) * med_warm
    verdict = "ok" if warm <= ceil else "REGRESSED"
    msgs.append(f"  warm_seconds_per_cell: {warm:.4f} vs median "
                f"{med_warm:.4f} (ceiling {ceil:.4f}) [{verdict}]")
    ok &= warm <= ceil

    return ok, msgs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--history", default=DEFAULT_HISTORY,
                    help=f"perf-history JSONL path (default "
                         f"{DEFAULT_HISTORY})")
    ap.add_argument("--window", type=int, default=5,
                    help="trailing comparable records forming the "
                         "baseline median (default 5)")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional regression before failing "
                         "(default 0.25)")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0")
    ap.add_argument("--strict", action="store_true",
                    help="hard-fail even on 1-CPU hosts")
    args = ap.parse_args(argv)

    if not os.path.exists(args.history):
        print(f"perf_check: no history file at {args.history}",
              file=sys.stderr)
        return 2
    records = load_history(args.history)
    if not records:
        print(f"perf_check: {args.history} holds no usable records",
              file=sys.stderr)
        return 2

    warn_only = args.warn_only
    if not args.strict and not warn_only and (os.cpu_count() or 1) <= 1:
        print("perf_check: 1-CPU host, timing too noisy for a hard "
              "gate — running warn-only (pass --strict to override)")
        warn_only = True

    ok, msgs = check(records, window=args.window,
                     tolerance=args.tolerance)
    for m in msgs:
        print(m)
    if ok:
        print("perf_check: pass")
        return 0
    if warn_only:
        print("perf_check: REGRESSION (warn-only, not failing)")
        return 0
    print("perf_check: REGRESSION", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
