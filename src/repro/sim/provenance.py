"""Run provenance: make every JSON artifact attributable.

A *manifest* records enough to re-run (or at least to attribute) any
trace or stats dump: a stable hash of the machine configuration, the
workload seed, the git revision the artifact was produced from (and
whether tracked files differed from it), and a schema version so
downstream tooling can detect layout changes.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from datetime import datetime, timezone
from typing import Optional

#: Bumped whenever the manifest or --dump-stats payload layout changes.
#: v2: EngineStats.page_reencrypts, float histogram sums, float
#: DRAMStats.total_read_latency.
STATS_SCHEMA_VERSION = 2


def config_hash(config) -> str:
    """Stable short hash of a (frozen, nested-dataclass) MachineConfig.

    ``repr`` of frozen dataclasses is deterministic field order, so two
    processes building the same config agree on the hash.
    """
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


def _git(*args: str) -> Optional[str]:
    """Output of ``git *args`` in the repo this package lives in, or
    None when git is missing or fails."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def git_sha() -> Optional[str]:
    """Current git revision of the repo this package lives in, or None."""
    sha = (_git("rev-parse", "HEAD") or "").strip()
    return sha if len(sha) == 40 else None


def git_dirty() -> Optional[bool]:
    """True when a tracked file differs from the current revision, so
    an artifact was built from code that ``git_sha`` does not name;
    None without git."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return None if status is None else bool(status.strip())


def peak_rss_kb() -> int:
    """Peak resident-set size of this process in kilobytes.

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; normalised
    here so artifacts compare across hosts.  Returns 0 where the
    ``resource`` module is unavailable (non-POSIX)."""
    try:
        import resource
    except ImportError:   # pragma: no cover - non-POSIX platforms
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform.system() == "Darwin":   # pragma: no cover - macOS only
        rss //= 1024
    return int(rss)


def host_facts() -> dict:
    """Facts about the machine an artifact was produced on — the same
    block ``BENCH_runner.json`` carries, so stats dumps and benchmark
    records are comparable by host."""
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "peak_rss_kb": peak_rss_kb(),
    }


def run_manifest(config=None, seed: Optional[int] = None,
                 **extra) -> dict:
    """Build the provenance manifest embedded in every JSON artifact."""
    from repro import __version__

    manifest = {
        "schema_version": STATS_SCHEMA_VERSION,
        "tool": "repro",
        "tool_version": __version__,
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "python": platform.python_version(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": host_facts(),
    }
    if config is not None:
        manifest["config_hash"] = config_hash(config)
    if seed is not None:
        manifest["seed"] = seed
    manifest.update(extra)
    return manifest
