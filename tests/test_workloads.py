"""Tests for benchmark profiles, trace generation and workload mixes."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.sim.config import BLOCKS_PER_PAGE
from repro.workloads import mixes
from repro.workloads.benchmarks import PROFILES, profile
from repro.workloads.generator import (CHUNK_PAGES, build_workload,
                                       chunked_layout, generate_trace,
                                       zipf_weights)
from repro.workloads.mixes import (ALL, LARGE, MEDIUM, MIXES, SMALL,
                                   build_mix, mix_footprint_pages,
                                   size_class)


class TestProfiles:
    def test_all_table2_benchmarks_present(self):
        needed = {b for benches in MIXES.values() for b in benches}
        assert needed <= set(PROFILES)

    def test_class_footprint_ordering(self):
        spec = np.mean([p.footprint_pages for p in PROFILES.values()
                        if p.suite == "spec2017"])
        parsec = np.mean([p.footprint_pages for p in PROFILES.values()
                          if p.suite == "parsec"])
        gap = np.mean([p.footprint_pages for p in PROFILES.values()
                       if p.suite == "gap"])
        assert spec < parsec < gap

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            profile("doom")


class TestZipf:
    def test_weights_normalised_and_decreasing(self):
        w = zipf_weights(100, 1.1)
        assert w.sum() == pytest.approx(1.0)
        assert (np.diff(w) <= 0).all()

    def test_higher_s_more_skewed(self):
        flat = zipf_weights(100, 0.5)[0]
        skew = zipf_weights(100, 1.5)[0]
        assert skew > flat


class TestLayout:
    def test_chunked_layout_is_bijection(self):
        rng = np.random.default_rng(1)
        lay = chunked_layout(1000, rng)
        assert sorted(lay.tolist()) == list(range(1000))

    def test_chunks_are_contiguous(self):
        rng = np.random.default_rng(1)
        lay = chunked_layout(1024, rng)
        for start in range(0, 1024 - CHUNK_PAGES, CHUNK_PAGES):
            run = lay[start:start + CHUNK_PAGES]
            assert (np.diff(run) == 1).all()


class TestTraceGeneration:
    def test_deterministic(self):
        t1 = generate_trace("gcc", 2000, seed=5)
        t2 = generate_trace("gcc", 2000, seed=5)
        assert (t1.vpage == t2.vpage).all()
        assert (t1.block == t2.block).all()

    def test_seed_changes_trace(self):
        t1 = generate_trace("gcc", 2000, seed=5)
        t2 = generate_trace("gcc", 2000, seed=6)
        assert not (t1.vpage == t2.vpage).all()

    def test_pages_within_footprint(self):
        t = generate_trace("x264", 5000, seed=1)
        assert t.vpage.min() >= 0
        assert t.vpage.max() < t.footprint

    def test_blocks_within_page(self):
        t = generate_trace("mcf", 5000, seed=1)
        assert t.block.min() >= 0
        assert t.block.max() < BLOCKS_PER_PAGE

    def test_write_fraction_approximate(self):
        prof = profile("lbm")
        t = generate_trace(prof, 20000, seed=1)
        assert t.is_write.mean() == pytest.approx(prof.write_frac, abs=0.05)

    def test_memory_intensity_approximate(self):
        prof = profile("pr")
        t = generate_trace(prof, 20000, seed=1)
        ratio = len(t) / t.instructions
        assert ratio == pytest.approx(prof.mem_ratio, abs=0.05)

    def test_hot_set_dominates_popularity(self):
        t = generate_trace("gcc", 50000, seed=1)
        counts = np.bincount(t.vpage, minlength=t.footprint)
        top = np.sort(counts)[::-1]
        hot_share = top[:600].sum() / counts.sum()
        assert hot_share > 0.3

    def test_scans_produce_sequential_runs(self):
        t = generate_trace("lbm", 10000, seed=1)  # seq_prob 0.85
        same_or_next = np.abs(np.diff(t.vpage)) <= 1
        assert same_or_next.mean() > 0.3

    def test_invalid_access_count(self):
        with pytest.raises(ValueError):
            generate_trace("gcc", 0)


class TestMixes:
    def test_sixteen_mixes(self):
        assert len(ALL) == 16
        assert len(SMALL) == 6 and len(MEDIUM) == 6 and len(LARGE) == 4

    def test_each_mix_has_four_benchmarks(self):
        for benches in MIXES.values():
            assert len(benches) == 4

    def test_size_classes(self):
        assert size_class("S-1") == "small"
        assert size_class("M-3") == "medium"
        assert size_class("L-4") == "large"

    def test_footprint_ordering_small_to_large(self):
        s = max(mix_footprint_pages(m) for m in SMALL)
        l = min(mix_footprint_pages(m) for m in LARGE)
        assert s < l

    def test_build_mix(self):
        wl = build_mix("S-1", n_accesses=100, seed=3)
        assert wl.name == "S-1"
        assert [t.benchmark for t in wl.traces] == MIXES["S-1"]

    def test_build_mix_unknown(self):
        for _ in range(2):   # a failed build is never cached
            with pytest.raises(KeyError):
                build_mix("Z-9", 100)

    def test_scale_shrinks_footprints(self):
        full = build_mix("M-1", 100)
        small = build_workload("M-1", MIXES["M-1"], 100, scale=0.1)
        assert small.total_footprint < full.total_footprint


class TestSharedBuild:
    """``build_mix`` shares one build per (mix, n_accesses, seed, scale)
    in a process."""

    ARGS = ("S-1", 120, 3, 0.05)
    ARRAYS = ("vpage", "block", "is_write", "gap")

    def test_cached_equals_fresh_build(self):
        mix, n, seed, scale = self.ARGS
        build_mix(*self.ARGS)
        cached = build_mix(*self.ARGS)   # answered from the cache
        fresh = build_workload(mix, MIXES[mix], n,
                               seed=seed + ALL.index(mix), scale=scale)
        assert (cached.name, cached.domains) == (fresh.name, fresh.domains)
        assert len(cached.traces) == len(fresh.traces)
        for a, b in zip(cached.traces, fresh.traces):
            assert (a.benchmark, a.footprint, a.churn_every, a.churn_pages) \
                == (b.benchmark, b.footprint, b.churn_every, b.churn_pages)
            for name in self.ARRAYS:
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype
                assert np.array_equal(x, y)

    def test_repeat_call_returns_the_cached_traces(self):
        first = build_mix(*self.ARGS)
        again = build_mix("S-1", n_accesses=120, seed=3, scale=0.05)
        assert again is first
        assert again.traces[0].vpage is first.traces[0].vpage

    @pytest.mark.parametrize("changed", [
        ("S-2", 120, 3, 0.05), ("S-1", 121, 3, 0.05),
        ("S-1", 120, 4, 0.05), ("S-1", 120, 3, 0.06)],
        ids=["mix", "n_accesses", "seed", "scale"])
    def test_changed_argument_builds_anew(self, changed):
        first = build_mix(*self.ARGS)
        other = build_mix(*changed)
        assert not any(a is b for a in first.traces for b in other.traces)

    def test_bound_holds(self):
        first = build_mix("S-1", 100, seed=1, scale=0.05)
        build_mix("S-2", 100, seed=1, scale=0.05)
        last = build_mix("S-3", 100, seed=1, scale=0.05)
        info = mixes._shared_build.cache_info()
        assert (info.maxsize, info.currsize) == (2, 2)
        assert build_mix("S-3", 100, seed=1, scale=0.05) is last
        assert build_mix("S-1", 100, seed=1, scale=0.05) is not first

    def test_shared_workload_is_read_only(self):
        wl = build_mix(*self.ARGS)
        trace = wl.traces[0]
        for name in self.ARRAYS:
            with pytest.raises(ValueError):
                getattr(trace, name)[0] = 0
        with pytest.raises(FrozenInstanceError):
            trace.vpage = trace.vpage.copy()
        with pytest.raises(FrozenInstanceError):
            wl.traces = ()
        assert isinstance(wl.traces, tuple)
