"""The 16 multiprogrammed workload mixes of Table II."""

from __future__ import annotations

from functools import lru_cache

from repro.workloads.benchmarks import profile
from repro.workloads.generator import WorkloadSpec, build_workload

#: Table II verbatim: mix name -> 4 benchmarks.
MIXES: dict[str, list[str]] = {
    # Small (SPEC2017)
    "S-1": ["gcc", "cactuBSSN", "perlbench", "deepsjeng"],
    "S-2": ["mcf", "omnetpp", "lbm", "xalancbmk"],
    "S-3": ["bwaves", "lbm", "x264", "cactuBSSN"],
    "S-4": ["perlbench", "xalancbmk", "gcc", "omnetpp"],
    "S-5": ["mcf", "bwaves", "deepsjeng", "x264"],
    "S-6": ["omnetpp", "gcc", "mcf", "perlbench"],
    # Medium (PARSEC)
    "M-1": ["dedup", "ferret", "blackscholes", "bodytrack"],
    "M-2": ["canneal", "swaptions", "vips", "ferret"],
    "M-3": ["freqmine", "fluidanimate", "canneal", "facesim"],
    "M-4": ["vips", "swaptions", "dedup", "ferret"],
    "M-5": ["blackscholes", "bodytrack", "freqmine", "fluidanimate"],
    "M-6": ["dedup", "facesim", "bodytrack", "swaptions"],
    # Large (Graph)
    "L-1": ["bfs", "pr", "bc", "sssp"],
    "L-2": ["bfs", "pr", "cc", "tc"],
    "L-3": ["bc", "sssp", "cc", "tc"],
    "L-4": ["sssp", "pr", "bc", "tc"],
}

SMALL = [m for m in MIXES if m.startswith("S")]
MEDIUM = [m for m in MIXES if m.startswith("M")]
LARGE = [m for m in MIXES if m.startswith("L")]
ALL = list(MIXES)


def size_class(mix: str) -> str:
    return {"S": "small", "M": "medium", "L": "large"}[mix[0]]


def mix_footprint_pages(mix: str) -> int:
    return sum(profile(b).footprint_pages for b in MIXES[mix])


def build_mix(mix: str, n_accesses: int, seed: int = 0,
              scale: float = 1.0) -> WorkloadSpec:
    """Build the named Table II mix as a runnable workload.

    A workload is a pure function of these four arguments and is
    immutable, so repeat calls in one process return one shared build.
    """
    if mix not in MIXES:
        raise KeyError(f"unknown mix {mix!r}; known: {ALL}")
    return _shared_build(mix, n_accesses, seed, scale)


# Two entries.  ``run_all`` submits its cells mix-major, which one entry
# serves; perfbench repeats L-1 then L-2 every pass and the ablation
# grids cycle over two mixes, which need the second.  A miss builds
# exactly what a hit returns, so no result depends on the cache; the
# bound only caps what it holds.
@lru_cache(maxsize=2)
def _shared_build(mix: str, n_accesses: int, seed: int,
                  scale: float) -> WorkloadSpec:
    return build_workload(mix, MIXES[mix], n_accesses,
                          seed=seed + ALL.index(mix), scale=scale)
