"""Synthetic trace generation from benchmark profiles.

A trace is a flat array of memory accesses: virtual page slot, block
within page, read/write flag, and the number of non-memory instructions
preceding the access.  Page popularity follows a bounded Zipf
distribution over the footprint (through a fixed permutation, so hot
pages are scattered in the address space like real heaps); sequential
runs continue the previous page with incrementing block offsets.

Churn is modelled as *refault churn*: every ``churn_every`` accesses the
process frees ``churn_pages`` random live pages; a later access to a
freed page refaults and re-allocates it (new frame, new TreeLing slot).
This is what exercises the NFL's deallocation path (Fig. 8d-f).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.sim.config import BLOCKS_PER_PAGE
from repro.workloads.benchmarks import BenchmarkProfile, profile


@dataclass(frozen=True)
class CoreTrace:
    """One core's access stream.

    Frozen, and :func:`generate_trace` makes its arrays read-only, so
    one trace can be shared by every run that replays it.
    """

    benchmark: str
    footprint: int
    vpage: np.ndarray      # int64, page slot in [0, footprint)
    block: np.ndarray      # int64, block within page [0, 64)
    is_write: np.ndarray   # bool
    gap: np.ndarray        # int64, non-memory instructions before access
    churn_every: int
    churn_pages: int

    def __len__(self) -> int:
        return len(self.vpage)

    @property
    def instructions(self) -> int:
        return int(self.gap.sum()) + len(self.vpage)


#: Pages per layout chunk: popularity-adjacent pages land in contiguous
#: address runs of this length, giving real-heap-like spatial clustering
#: (neighbouring pages share integrity-tree leaf nodes).
CHUNK_PAGES = 8


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalised Zipf(s) weights over ranks 1..n."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-s)
    return w / w.sum()


def chunked_layout(fp: int, rng: np.random.Generator) -> np.ndarray:
    """Bijection rank -> page that permutes chunks, not single pages."""
    n_chunks = (fp + CHUNK_PAGES - 1) // CHUNK_PAGES
    chunk_perm = rng.permutation(n_chunks)
    ranks = np.arange(fp)
    pages = chunk_perm[ranks // CHUNK_PAGES] * CHUNK_PAGES \
        + ranks % CHUNK_PAGES
    return np.minimum(pages, fp - 1)


def generate_trace(bench: BenchmarkProfile | str, n_accesses: int,
                   seed: int = 0) -> CoreTrace:
    """Produce a deterministic access trace for one benchmark instance."""
    if isinstance(bench, str):
        bench = profile(bench)
    if n_accesses < 1:
        raise ValueError("need at least one access")
    # crc32, not hash(): str hashing is salted per process
    # (PYTHONHASHSEED), which would make "deterministic" a lie across runs.
    rng = np.random.default_rng(
        seed ^ zlib.crc32(bench.name.encode()) & 0xFFFFFFFF)
    n = n_accesses
    fp = bench.footprint_pages
    layout = chunked_layout(fp, rng)

    # --- page choice: persistent hot set + drifting phase windows --------
    # The hot set deliberately exceeds counter-cache reach (paper regime:
    # hot counters do not all fit on-chip, so hot pages keep verifying).
    hot_size = max(64, int(fp * bench.hot_set_frac))
    hot_cdf = np.cumsum(zipf_weights(hot_size, bench.hot_zipf_s))
    window = max(hot_size * 2, int(fp * bench.window_frac))
    window = min(window, fp)
    win_cdf = np.cumsum(zipf_weights(window, bench.zipf_s))

    u = rng.random(n)
    is_hot = u < bench.hot_frac
    is_scan = (~is_hot) & (u < bench.hot_frac
                           + (1 - bench.hot_frac) * bench.seq_prob)
    # Hot pages are *scattered* across the address space (high-degree
    # vertices, hash-table heads, stack guard pages...).  Under a static
    # page-to-leaf mapping each hot page therefore occupies its own tree
    # leaf; IvLeague's fault-order slot packing is what re-clusters them.
    hot_pages = rng.permutation(fp)[:hot_size]
    hot_ranks = np.searchsorted(hot_cdf, rng.random(n), side="right")
    win_ranks = np.searchsorted(win_cdf, rng.random(n), side="right")
    # Phase p's window starts at a drifting offset in rank space.
    phase = np.arange(n) // max(1, bench.phase_len)
    n_phases = int(phase[-1]) + 1
    drift = max(1, (fp - window) // max(1, n_phases)) if fp > window else 0
    offsets = (phase * drift) % max(1, fp - window + 1)

    # Streaming scan: a cursor walks the current window block by block
    # (with a stride of a few blocks), so consecutive scan accesses touch
    # spatially adjacent pages -- adjacent pages share tree leaf nodes,
    # the locality that keeps real verification paths short.
    stride = 4
    scan_pos = np.cumsum(is_scan) * stride
    scan_page_off = (scan_pos // BLOCKS_PER_PAGE) % window
    scan_block = scan_pos % BLOCKS_PER_PAGE

    # Window popularity is newest-first: rank 0 is the page most recently
    # brought into the window (allocate-and-use recency, the behaviour
    # that concentrates verification traffic on recently faulted pages).
    ranks = np.where(
        is_scan,
        (offsets + scan_page_off) % fp,
        (offsets + (window - 1 - win_ranks)) % fp)
    vpage = np.where(is_hot,
                     hot_pages[np.minimum(hot_ranks, hot_size - 1)],
                     layout[np.minimum(ranks, fp - 1)])
    # Hot pages are reused across their whole 4KB (hash buckets, vertex
    # data): collectively they exceed LLC reach, so they keep missing and
    # keep re-verifying -- the traffic IvLeague-Pro accelerates.
    block = np.where(is_scan, scan_block,
                     rng.integers(0, BLOCKS_PER_PAGE, size=n))

    is_write = rng.random(n) < bench.write_frac
    # Geometric gaps with mean (1/mem_ratio - 1) non-memory instructions.
    gap = rng.geometric(min(1.0, bench.mem_ratio), size=n) - 1

    vpage = vpage.astype(np.int64)
    block = block.astype(np.int64)
    gap = gap.astype(np.int64)
    for a in (vpage, block, is_write, gap):
        a.flags.writeable = False
    return CoreTrace(
        benchmark=bench.name,
        footprint=fp,
        vpage=vpage,
        block=block,
        is_write=is_write,
        gap=gap,
        churn_every=bench.churn_every,
        churn_pages=bench.churn_pages,
    )


@dataclass(frozen=True)
class WorkloadSpec:
    """A multiprogrammed mix: one trace per core.

    ``domains`` optionally maps each core to an IV-domain id; cores
    sharing an id model threads of one process (the paper groups threads
    into a single IV domain, Section IX).  Default: one domain per core.
    Both sequences are stored as tuples, so a spec is immutable.
    """

    name: str
    traces: tuple[CoreTrace, ...]
    domains: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "traces", tuple(self.traces))
        if self.domains is not None:
            object.__setattr__(self, "domains", tuple(self.domains))
            if len(self.domains) != len(self.traces):
                raise ValueError("domains must map every trace")

    def domain_of(self, core: int) -> int:
        if self.domains is None:
            return core + 1
        return self.domains[core]

    @property
    def total_footprint(self) -> int:
        return sum(t.footprint for t in self.traces)


def threaded_workload(name: str, bench_names: list[str], n_accesses: int,
                      threads_per_process: int = 2, seed: int = 0,
                      scale: float = 1.0) -> WorkloadSpec:
    """A mix where each benchmark runs ``threads_per_process`` threads.

    Threads of one process share the footprint (same profile, different
    access interleavings via distinct seeds) and one IV domain.
    """
    traces, domains = [], []
    for i, bname in enumerate(bench_names):
        prof = profile(bname)
        if scale != 1.0:
            from dataclasses import replace
            prof = replace(prof, footprint_pages=max(
                64, int(prof.footprint_pages * scale)))
        for t in range(threads_per_process):
            traces.append(generate_trace(
                prof, n_accesses, seed=seed * 97 + i * 7 + t))
            domains.append(i + 1)
    return WorkloadSpec(name, traces, domains=domains)


def build_workload(name: str, bench_names: list[str], n_accesses: int,
                   seed: int = 0,
                   scale: float = 1.0) -> WorkloadSpec:
    """Assemble a mix; ``scale`` shrinks footprints for quick tests."""
    traces = []
    for i, bname in enumerate(bench_names):
        prof = profile(bname)
        if scale != 1.0:
            from dataclasses import replace
            prof = replace(prof, footprint_pages=max(
                64, int(prof.footprint_pages * scale)))
        traces.append(generate_trace(prof, n_accesses, seed=seed * 97 + i))
    return WorkloadSpec(name, traces)
