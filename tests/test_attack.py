"""Integration tests for the MetaLeak attack reproduction (Fig. 3): the
leakage contracts' round driver, primed by eviction, against every
scheme."""

import numpy as np
import pytest

from repro import ENGINES
from repro.experiments import comparators, fig03_attack
from repro.experiments.parallel import resolve_engine
from repro.obs.leakage import (OBSERVERS, VICTIM, PairSpec, _Evict,
                               _place_pages, _run_half, attack_config,
                               key_bits, leakage_config, probe_latencies,
                               recovery_accuracy, signal_to_noise)

IVLEAGUE = ("ivleague-basic", "ivleague-invert", "ivleague-pro")


@pytest.fixture(scope="module")
def traces():
    """Run the attack once per scheme (module-scoped: it is expensive)."""
    key = key_bits(96, seed=7)
    return {scheme: (key, probe_latencies(scheme, key, seed=7))
            for scheme in ENGINES}


class TestVictim:
    def test_bit_to_pages(self):
        """Square every round, multiply iff the round's key bit is 1."""
        events, bounds, _ = _run_half(PairSpec("baseline", rounds=2),
                                      leakage_config(), (1, 0))

        def victim_pages(r):
            return [ev["args"]["pfn"]
                    for ev in events[bounds[r]:bounds[r + 1]]
                    if ev["ph"] == "B" and ev["name"] == "data_access"
                    and ev["args"]["domain"] == VICTIM]
        sqr, mul = 10 * 64 + 3, 20 * 64 + 5
        assert victim_pages(0) == [sqr, mul]
        assert victim_pages(1) == [sqr]

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            probe_latencies("baseline", (0, 2))

    def test_random_reproducible(self):
        assert key_bits(64, seed=1) == key_bits(64, seed=1)
        assert key_bits(64, seed=1) != key_bits(64, seed=2)
        drawn = np.random.default_rng(1).integers(0, 2, 64)
        assert key_bits(64, seed=1) == tuple(int(b) for b in drawn)


class TestEvictionPrime:
    @pytest.mark.parametrize("scheme,pages", [("baseline", 1536),
                                              ("vault", 3072),
                                              ("ivleague-pro", 1536)])
    def test_buffer_sized_from_the_machine(self, scheme, pages):
        """1.5 leaf nodes' worth of pages per tree-cache block (128 in
        ``attack_config``): 8-ary leaves, and VAULT's 16-ary ones."""
        engine = resolve_engine(scheme)(attack_config(), seed=11)
        prime = _Evict(engine, seed=0)
        assert len(prime.buffer) == pages
        placement = _place_pages(engine)
        taken = set()
        for d in (VICTIM,) + OBSERVERS:
            taken.update(placement.pages_of(d))
        assert not taken & set(prime.pages)   # clear of observer B
        assert len(set(prime.pages)) == len(prime.pages)


class TestAttackOutcomes:
    def test_baseline_leaks_the_exponent(self, traces):
        key, latency = traces["baseline"]
        assert recovery_accuracy(latency, key) > 0.85   # paper: 91.6%

    def test_baseline_has_clear_signal(self, traces):
        key, latency = traces["baseline"]
        assert signal_to_noise(latency, key) > 2.0

    @pytest.mark.parametrize("scheme", IVLEAGUE)
    def test_ivleague_defeats_the_attack(self, traces, scheme):
        key, latency = traces[scheme]
        assert 0.35 <= recovery_accuracy(latency, key) <= 0.65   # chance

    @pytest.mark.parametrize("scheme", IVLEAGUE)
    def test_ivleague_kills_the_signal(self, traces, scheme):
        key, latency = traces[scheme]
        assert signal_to_noise(latency, key) < 1.0

    def test_victim_truth_recorded(self, traces):
        key, latency = traces["baseline"]
        assert len(key) == len(latency) == 96


class TestComparatorsAttackColumn:
    """The comparators' attack setting: every global tree leaks, VAULT's
    16-ary leaves included, and IvLeague-Pro stays inside the two-sided
    99% binomial band around 32 of 64 bits."""

    def _recovered(self, scheme):
        row = fig03_attack.run_attack(scheme, n_bits=64,
                                      seed=comparators.ATTACK_SEED)
        return row["accuracy"] * 64

    @pytest.mark.parametrize("scheme", ["baseline", "sgx-counter-tree",
                                        "vault"])
    def test_global_trees_leak(self, scheme):
        assert self._recovered(scheme) >= 0.9 * 64

    def test_ivleague_pro_at_chance(self):
        assert 22 <= self._recovered("ivleague-pro") <= 42


@pytest.mark.slow
def test_fig03_published_bounds():
    """EXPERIMENTS.md's Fig. 3 table: Baseline recovers at least 90% of
    a 256-bit key (the paper has 91.6%), and each IvLeague variant stays
    inside the two-sided 99% binomial band around 128 of 256 bits."""
    rows = {r["scheme"]: r for r in fig03_attack.compute(n_bits=256,
                                                         seed=42)}
    assert rows["baseline"]["accuracy"] >= 0.90
    for scheme in IVLEAGUE:
        assert 108 <= rows[scheme]["accuracy"] * 256 <= 148


class TestChannelAnalysis:
    def test_recovery_on_synthetic_bimodal(self):
        bits = [0, 1] * 50
        latency = [100.0 if b else 300.0 for b in bits]
        assert recovery_accuracy(latency, bits) == 1.0

    def test_no_modulation_is_chance(self):
        bits = [0, 1] * 50
        latency = [200.0] * len(bits)
        assert recovery_accuracy(latency, bits) == pytest.approx(0.5)
        assert signal_to_noise(latency, bits) == 0.0
