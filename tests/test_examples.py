"""Smoke test: every script under ``examples/`` runs to completion.

Each script runs in a fresh interpreter from a temporary working
directory, against this checkout's ``src``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = EXAMPLES.parent / "src"

#: A few seconds together, so they run by default.
FAST = ("custom_benchmark.py", "hotpage_study.py", "multidomain_scaling.py",
        "tamper_detection.py")
#: Several times longer each: run with ``-m slow``.
SLOW = ("quickstart.py", "attack_demo.py")


def test_every_example_is_listed():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) \
        == sorted(FAST + SLOW)


@pytest.mark.parametrize("script", FAST + tuple(
    pytest.param(name, marks=pytest.mark.slow) for name in SLOW))
def test_example_exits_zero(script, tmp_path):
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
