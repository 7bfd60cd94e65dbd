"""Shared experiment infrastructure.

Every figure/table module exposes ``compute(scale) -> rows`` returning a
list of dicts and ``main()`` that pretty-prints them, so the same code
serves the experiment tests, the examples and the EXPERIMENTS.md
regeneration script.

Two scales are provided:

* ``quick`` -- minutes-scale, used by the CLI's default runs and CI;
  noisier, and its short warm-up does not reproduce every paper shape.
* ``full``  -- the configuration used to fill EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    name: str
    n_accesses: int
    warmup: int
    n_cores: int = 4
    seed: int = 123
    #: Default evaluation environment: a steady-state (fragmented)
    #: machine.  ``sequential`` reproduces the paper's fresh-boot gem5
    #: environment and is reported as the bracketing ablation.
    frame_policy: str = "fragmented"


QUICK = Scale("quick", n_accesses=8_000, warmup=3_000)
FULL = Scale("full", n_accesses=30_000, warmup=12_000)

SCALES = {"quick": QUICK, "full": FULL}


def get_scale(scale: str | Scale) -> Scale:
    if isinstance(scale, Scale):
        return scale
    return SCALES[scale]


def format_table(rows: list[dict], columns: list[str] | None = None,
                 floatfmt: str = ".3f") -> str:
    """Plain-text table (no external deps)."""
    if not rows:
        return "(no rows)"
    cols = columns or list(rows[0].keys())
    def fmt(v):
        if isinstance(v, float):
            return f"{v:{floatfmt}}"
        return str(v)
    cells = [[fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells))
              for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths))
              for row in cells]
    return "\n".join(lines)


def print_header(title: str) -> None:
    print("=" * 72)
    print(title)
    print("=" * 72)
