"""Tests for the harness-observability layer: the sweep progress
reporter and its JSONL event schema, telemetry through ``execute_tasks``
including failure visibility, and the runner's end-of-sweep failure
summary."""

import io
import json

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import CellFailure, ResultCache, execute_tasks
from repro.obs.progress import ProgressReporter, make_reporter


class TestMakeReporter:
    def test_off_settings(self):
        assert make_reporter(None) is None
        assert make_reporter("") is None
        assert make_reporter("0") is None

    def test_live_setting_writes_no_jsonl(self):
        rep = make_reporter("1", stream=io.StringIO())
        assert rep is not None and rep._jsonl is None
        rep.close()

    def test_path_setting_opens_jsonl(self, tmp_path):
        path = tmp_path / "ev" / "prog.jsonl"
        rep = make_reporter(str(path), stream=io.StringIO())
        rep.sweep_start(total=1, cached=0, jobs=1)
        rep.sweep_end()
        rep.close()
        events = [json.loads(ln) for ln in
                  path.read_text().splitlines()]
        assert [e["event"] for e in events] == ["sweep_start", "sweep_end"]
        assert all("ts" in e for e in events)


class TestProgressReporter:
    def test_event_stream_schema(self, tmp_path):
        path = tmp_path / "prog.jsonl"
        rep = ProgressReporter(jsonl_path=str(path), stream=io.StringIO())
        rep.sweep_start(total=3, cached=1, jobs=2)
        rep.cell_cached("k0", label="S-1/baseline")
        rep.cell_start("k1", label="S-1/pro")
        rep.cell_finish("k1", label="S-1/pro", wall_s=0.5, peak_rss_kb=900)
        rep.cell_failed("k2", "treeling-starvation", "no slots",
                        label="L-2/pro", wall_s=0.1, peak_rss_kb=800)
        rep.sweep_end(cache_hits=1, cache_misses=2)
        rep.close()
        events = {e["event"]: e for e in
                  (json.loads(ln) for ln in path.read_text().splitlines())}
        assert events["sweep_start"]["pending"] == 2
        assert events["cell_finish"]["peak_rss_kb"] == 900
        assert events["cell_failed"]["kind"] == "treeling-starvation"
        end = events["sweep_end"]
        assert end["completed"] == 1 and end["failed"] == 1
        assert end["cache_hit_ratio"] == pytest.approx(1 / 3, abs=1e-4)
        # busy 0.6s over jobs=2: utilization = busy / (jobs * wall)
        assert end["worker_utilization"] == pytest.approx(
            end["busy_s"] / (2 * end["wall_s"]), rel=1e-2)

    def test_non_tty_stream_gets_plain_lines(self):
        stream = io.StringIO()
        rep = ProgressReporter(stream=stream)
        rep.sweep_start(total=2, cached=0, jobs=1)
        rep.cell_finish("k", wall_s=0.5)
        rep.cell_failed("k2", "boom", "msg")
        rep.sweep_end()
        text = stream.getvalue()
        assert "\r" not in text
        assert "cells 2/2" in text and "1 FAILED" in text


def _flaky_worker(spec):
    if spec == "bad":
        return CellFailure("boom", "deterministic failure")
    return ("ok", spec)


class TestExecuteTasksTelemetry:
    def test_lifecycle_events(self, tmp_path):
        path = tmp_path / "prog.jsonl"
        rep = ProgressReporter(jsonl_path=str(path), stream=io.StringIO())
        out = execute_tasks(["a", "bad", "c"], _flaky_worker, str,
                            jobs=1, reporter=rep)
        rep.close()
        assert out == [("ok", "a"),
                       CellFailure("boom", "deterministic failure"),
                       ("ok", "c")]
        events = [json.loads(ln) for ln in path.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "sweep_start" and kinds[-1] == "sweep_end"
        assert kinds.count("cell_start") == 3
        assert kinds.count("cell_finish") == 2
        failed = [e for e in events if e["event"] == "cell_failed"]
        assert len(failed) == 1
        assert failed[0]["kind"] == "boom"
        assert failed[0]["label"] == "str"   # non-Cell spec: type name

    def test_cached_cells_visible_in_stream(self, tmp_path):
        cache = ResultCache(tmp_path / "c", payload_types=(tuple,))
        execute_tasks(["a", "b"], _flaky_worker, str, jobs=1, cache=cache)
        path = tmp_path / "prog.jsonl"
        rep = ProgressReporter(jsonl_path=str(path), stream=io.StringIO())
        out = execute_tasks(["a", "b"], _flaky_worker, str, jobs=1,
                            cache=cache, reporter=rep)
        rep.close()
        assert out == [("ok", "a"), ("ok", "b")]
        events = [json.loads(ln) for ln in path.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds.count("cell_cached") == 2
        assert kinds.count("cell_start") == 0
        end = [e for e in events if e["event"] == "sweep_end"][0]
        assert end["cache_hits"] == 2 and end["cache_hit_ratio"] == 1.0

    def test_untelemetered_path_unchanged(self):
        out = execute_tasks(["a", "bad"], _flaky_worker, str, jobs=1)
        assert out == [("ok", "a"),
                       CellFailure("boom", "deterministic failure")]


class TestRunnerFailureSummary:
    def test_run_cells_prints_per_kind_summary(self, capsys, monkeypatch):
        from repro.experiments import runner
        from repro.experiments.common import get_scale
        cells = [parallel.scale_cell(mix, "ivleague-pro",
                                     get_scale("quick"))
                 for mix in ("S-1", "S-2", "M-1")]
        outcomes = [CellFailure("treeling-starvation", "no free slots"),
                    CellFailure("out-of-memory", "heap exhausted"),
                    CellFailure("treeling-starvation", "no free slots")]
        monkeypatch.setattr(
            parallel, "execute",
            lambda specs, jobs=1, cache=None, reporter=None:
            outcomes[:len(specs)])
        results = runner.run_cells(cells)
        assert results == outcomes
        err = capsys.readouterr().err
        assert "3/3 cells failed" in err
        assert "treeling-starvation: 2" in err
        assert "out-of-memory: 1" in err
        assert "S-1/ivleague-pro" in err


class TestReadEvents:
    def _reporter_log(self, tmp_path):
        log = tmp_path / "events.jsonl"
        r = ProgressReporter(jsonl_path=str(log), stream=io.StringIO())
        r.sweep_start(total=2, cached=0, jobs=1)
        r.cell_finish("k1", label="a", wall_s=0.5)
        r.cell_finish("k2", label="b", wall_s=0.5)
        r.sweep_end()
        r.close()
        return log

    def test_round_trip(self, tmp_path):
        from repro.obs.progress import read_events
        events = read_events(self._reporter_log(tmp_path))
        assert [e["event"] for e in events] == [
            "sweep_start", "cell_finish", "cell_finish", "sweep_end"]

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        from repro.obs.progress import read_events
        log = self._reporter_log(tmp_path)
        with open(log, "a") as f:
            f.write('{"event": "cell_finish", "ke')   # SIGKILL mid-write
        events = read_events(log)
        assert [e["event"] for e in events] == [
            "sweep_start", "cell_finish", "cell_finish", "sweep_end"]

    def test_corruption_before_the_tail_still_raises(self, tmp_path):
        from repro.obs.progress import read_events
        log = self._reporter_log(tmp_path)
        lines = log.read_text().splitlines()
        lines[1] = lines[1][:10]   # mangle a *middle* record
        log.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            read_events(log)

    def test_garbage_followed_by_valid_record_still_raises(self, tmp_path):
        from repro.obs.progress import read_events
        log = self._reporter_log(tmp_path)
        with open(log, "a") as f:
            f.write('not json\n{"event": "sweep_end", "ts": 0}\n')
        with pytest.raises(ValueError, match="line 5"):
            read_events(log)

    def test_every_event_is_flushed_immediately(self, tmp_path):
        from repro.obs.progress import read_events
        log = tmp_path / "events.jsonl"
        r = ProgressReporter(jsonl_path=str(log), stream=io.StringIO())
        r.sweep_start(total=1, cached=0, jobs=1)
        r.cell_start("k1", label="a")
        # readable mid-sweep, before close(): per-event flush, so a
        # crashed sweep's log holds everything up to the crash
        events = read_events(log)
        assert [e["event"] for e in events] == ["sweep_start",
                                               "cell_start"]
        r.close()
