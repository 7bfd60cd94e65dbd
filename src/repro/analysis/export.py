"""Result export helpers.

The experiment harnesses return plain row dicts; these helpers serialise
them to CSV/JSON so downstream plotting (matplotlib, gnuplot, a
spreadsheet) can regenerate the paper's figures without re-running the
simulations.  No plotting dependency is taken here.
"""

from __future__ import annotations

import csv
import json
import os


def rows_to_csv(rows: list[dict], path: str) -> str:
    """Write experiment rows to a CSV file; returns the path."""
    if not rows:
        raise ValueError("no rows to export")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return path


def rows_to_json(rows: list[dict], path: str) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
    return path
