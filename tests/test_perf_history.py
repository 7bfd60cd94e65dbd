"""Tests for the perf-history pipeline: bench.py's history records and
JSONL append, and perf_check.py's trailing-baseline regression gate."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def bench():
    return _load_script("bench")


@pytest.fixture(scope="module")
def perf_check():
    return _load_script("perf_check")


def _payload(tput=4.0, warm=0.05, quick=True, n_accesses=2000,
             phases=None):
    """Minimal BENCH_runner payload shaped like bench.py's output."""
    return {
        "phase_attribution": phases,
        "bench": "experiment-runner",
        "host": {"cpus": 4, "platform": "linux"},
        "sweep": {"quick": quick, "n_cells": 8, "n_accesses": n_accesses},
        "cells_per_sec_serial": tput,
        "warm_seconds_per_cell": warm,
        "parallel_speedup": None,
        "seconds": {"serial_cold": 2.0},
        "manifest": {"git_sha": "f" * 40, "config_hash": "ab" * 8,
                     "created": "2026-08-08T00:00:00Z"},
    }


def _record(bench, **kw):
    return bench.history_record(_payload(**kw))


class TestHistoryRecord:
    def test_flattens_payload_with_comparability_key_first(self, bench):
        rec = _record(bench)
        assert rec["bench"] == "experiment-runner"
        assert rec["quick"] is True
        assert rec["n_cells"] == 8
        assert rec["n_accesses"] == 2000
        assert rec["cells_per_sec_serial"] == 4.0
        assert rec["warm_seconds_per_cell"] == 0.05
        assert rec["git_sha"] == "f" * 40
        assert rec["host"]["cpus"] == 4

    def test_append_history_grows_jsonl(self, bench, tmp_path):
        path = tmp_path / "hist.jsonl"
        bench.append_history(str(path), _record(bench))
        bench.append_history(str(path), _record(bench, tput=5.0))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["cells_per_sec_serial"] == 5.0


class TestLoadHistory:
    def test_skips_malformed_lines(self, perf_check, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"a": 1}\nnot json\n\n{"b": 2}\n')
        recs = perf_check.load_history(str(path))
        assert recs == [{"a": 1}, {"b": 2}]
        assert "malformed line 2" in capsys.readouterr().err


class TestCheck:
    def test_first_comparable_record_passes(self, bench, perf_check):
        ok, msgs = perf_check.check([_record(bench)])
        assert ok
        assert any("nothing to regress against" in m for m in msgs)

    def test_incomparable_history_is_ignored(self, bench, perf_check):
        # prior records are a different sweep size: still a first-entry
        # pass
        records = [_record(bench, n_accesses=4000, tput=100.0),
                   _record(bench, tput=1.0)]
        ok, msgs = perf_check.check(records)
        assert ok
        assert any("nothing to regress against" in m for m in msgs)

    def test_within_tolerance_passes(self, bench, perf_check):
        records = [_record(bench, tput=4.0, warm=0.05) for _ in range(3)]
        records.append(_record(bench, tput=3.2, warm=0.06))  # -20%, +20%
        ok, _ = perf_check.check(records, tolerance=0.25)
        assert ok

    def test_throughput_regression_fails(self, bench, perf_check):
        records = [_record(bench, tput=4.0) for _ in range(3)]
        records.append(_record(bench, tput=2.0))   # -50%
        ok, msgs = perf_check.check(records, tolerance=0.25)
        assert not ok
        assert any("cells_per_sec_serial" in m and "REGRESSED" in m
                   for m in msgs)

    def test_warm_cache_regression_fails(self, bench, perf_check):
        records = [_record(bench, warm=0.05) for _ in range(3)]
        records.append(_record(bench, warm=0.2))   # 4x slower
        ok, msgs = perf_check.check(records, tolerance=0.25)
        assert not ok
        assert any("warm_seconds_per_cell" in m and "REGRESSED" in m
                   for m in msgs)

    def test_window_bounds_the_baseline(self, bench, perf_check):
        # ancient fast records fall outside the window: median comes
        # from the recent slow ones, so the latest passes
        records = [_record(bench, tput=100.0) for _ in range(5)]
        records += [_record(bench, tput=4.0) for _ in range(5)]
        records.append(_record(bench, tput=3.5))
        ok, _ = perf_check.check(records, window=5, tolerance=0.25)
        assert ok


class TestWorstPhaseShift:
    def test_names_the_largest_growth(self, bench, perf_check):
        base = {"baseline": {"drain": 0.5, "verify": 0.3, "dram": 0.2}}
        records = [_record(bench, tput=4.0, phases=base)
                   for _ in range(3)]
        records.append(_record(bench, tput=2.0, phases={
            "baseline": {"drain": 0.4, "verify": 0.45, "dram": 0.15}}))
        shift = perf_check.worst_phase_shift(records[-1], records[:-1])
        assert shift[0] == "verify"
        assert shift[1:] == pytest.approx((0.45, 0.15))
        ok, msgs = perf_check.check(records)
        assert not ok
        assert any("suspect phase: 'verify'" in m for m in msgs)

    def test_ignores_a_phase_absent_from_every_baseline(self, bench,
                                                        perf_check):
        # a layer the profiler newly names would otherwise be blamed
        # with its whole share
        base = [_record(bench, phases={"baseline": {"verify": 0.4,
                                                    "dram": 0.6}})]
        latest = _record(bench, phases={"baseline": {
            "verify": 0.3, "dram": 0.2, "cache": 0.5}})
        assert perf_check.worst_phase_shift(latest, base)[0] == "verify"

    def test_none_without_attribution_on_either_side(self, bench,
                                                     perf_check):
        attributed = _record(bench, phases={"baseline": {"drain": 1.0}})
        bare = _record(bench)
        assert perf_check.worst_phase_shift(bare, [attributed]) is None
        assert perf_check.worst_phase_shift(attributed, [bare]) is None


class TestMain:
    def _write(self, path, records):
        with open(path, "w") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")

    def test_missing_history_exits_2(self, perf_check, tmp_path, capsys):
        rc = perf_check.main(["--history", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "no history file" in capsys.readouterr().err

    def test_empty_history_exits_2(self, perf_check, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text("")
        assert perf_check.main(["--history", str(path)]) == 2

    def test_first_record_passes(self, bench, perf_check, tmp_path,
                                 capsys):
        path = tmp_path / "hist.jsonl"
        self._write(path, [_record(bench)])
        assert perf_check.main(["--history", str(path)]) == 0
        assert "perf_check: pass" in capsys.readouterr().out

    def test_strict_regression_exits_1(self, bench, perf_check, tmp_path,
                                       capsys):
        path = tmp_path / "hist.jsonl"
        self._write(path, [_record(bench, tput=4.0)] * 3
                    + [_record(bench, tput=1.0)])
        rc = perf_check.main(["--history", str(path), "--strict"])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_warn_only_regression_exits_0(self, bench, perf_check,
                                          tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        self._write(path, [_record(bench, tput=4.0)] * 3
                    + [_record(bench, tput=1.0)])
        rc = perf_check.main(["--history", str(path), "--warn-only"])
        assert rc == 0
        assert "warn-only" in capsys.readouterr().out
