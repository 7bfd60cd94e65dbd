"""Tests for the CSV/JSON result export helpers."""

import csv
import json

import pytest

from repro.analysis.export import rows_to_csv, rows_to_json

ROWS = [{"mix": "S-1", "baseline": 1.0, "pro": 1.1},
        {"mix": "L-1", "baseline": 1.0, "pro": 1.17, "extra": "x"}]


class TestExport:
    def test_csv_roundtrip(self, tmp_path):
        path = rows_to_csv(ROWS, str(tmp_path / "f.csv"))
        with open(path) as fh:
            back = list(csv.DictReader(fh))
        assert back[0]["mix"] == "S-1"
        assert float(back[1]["pro"]) == 1.17
        assert back[0]["extra"] == ""   # union of columns

    def test_json_roundtrip(self, tmp_path):
        path = rows_to_json(ROWS, str(tmp_path / "f.json"))
        assert json.load(open(path))[1]["extra"] == "x"

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            rows_to_csv([], str(tmp_path / "f.csv"))
