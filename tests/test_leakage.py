"""Paired-secret leakage contracts (the PR-8 tentpole): isolation
schemes show exact non-interference, leaky schemes show *measured*
leakage, every model-leak mutation trips the checker, pair results
cache and round-trip through the PR-3 machinery, and the
``check-leakage`` CLI gates correctly."""

import json
import pickle

import pytest

from repro.obs.leakage import (DEFAULT_SCHEMES, LEAK_POWER_MIN_BITS,
                               MODEL_LEAKS, OBSERVERS, VICTIM, PairResult,
                               PairSpec, build_report, contract_of,
                               default_pair_specs, leakage_matrix,
                               mutation_matrix, mutation_pair_specs,
                               pair_cache, pair_key, run_pair, run_pairs,
                               secret_bits, split_scheme)

EXACT_SCHEMES = ("static-partition", "ivleague-basic", "ivleague-invert",
                 "ivleague-pro")
LEAKY_SCHEMES = ("baseline", "baseline+mirage", "sgx-counter-tree",
                 "vault")


class TestContractTaxonomy:
    def test_split_scheme(self):
        assert split_scheme("baseline+mirage") == ("baseline", True)
        assert split_scheme("ivleague-pro") == ("ivleague-pro", False)

    def test_contract_of_full_grid(self):
        for s in DEFAULT_SCHEMES:
            expected = ("exact" if s in EXACT_SCHEMES else "statistical")
            assert contract_of(s) == expected

    def test_secret_bits_shape(self):
        h0, h1 = secret_bits(seed=0, rounds=16)
        assert len(h0) == len(h1) == 16
        assert h0 != h1                      # halves always differ
        assert {0, 1} <= set(h0) and {0, 1} <= set(h1)
        assert secret_bits(0, 16) == (h0, h1)   # deterministic
        assert secret_bits(1, 16) != (h0, h1)
        with pytest.raises(ValueError):
            secret_bits(0, 1)


class TestCleanContracts:
    @pytest.mark.parametrize("scheme", EXACT_SCHEMES)
    def test_isolation_schemes_show_non_interference(self, scheme):
        res = run_pair(PairSpec(scheme=scheme, rounds=12))
        assert res.contract == "exact"
        assert res.failure is None
        assert res.victim_diverged          # the secret is in the stream
        assert res.divergent_domains == []  # ...but not in the observers'
        assert res.n_tag_problems == 0
        assert res.ok, res.violations
        # observer streams are non-empty: the contract is not vacuous
        for d in OBSERVERS:
            assert res.domains[d]["events"][0] > 0

    @pytest.mark.parametrize("scheme", LEAKY_SCHEMES)
    def test_shared_tree_schemes_measurably_leak(self, scheme):
        res = run_pair(PairSpec(scheme=scheme, rounds=16))
        assert res.contract == "statistical"
        assert res.failure is None
        assert res.victim_diverged
        assert res.ok, res.violations   # statistical contract measures,
        assert res.leaked               # ...and the MetaLeak channel shows
        assert res.max_mi >= LEAK_POWER_MIN_BITS
        # the channel is the shared integrity tree, seen by observer A
        assert any(k.startswith(f"{OBSERVERS[0]}/tree.")
                   for k, v in res.mi_bits.items()
                   if v >= LEAK_POWER_MIN_BITS)

    def test_victim_stream_carries_the_secret(self):
        res = run_pair(PairSpec(scheme="ivleague-basic", rounds=12))
        v = res.domains[VICTIM]
        assert v["divergence"] is not None
        assert v["digests"][0] != v["digests"][1]


class TestMutationSelfProof:
    @pytest.mark.parametrize("scheme", EXACT_SCHEMES)
    @pytest.mark.parametrize("mutation", MODEL_LEAKS)
    def test_every_model_leak_is_detected(self, scheme, mutation):
        res = run_pair(PairSpec(scheme=scheme, rounds=8,
                                mutation=mutation))
        assert not res.ok, (
            f"mutation {mutation} on {scheme} did NOT trip the checker")
        if mutation == "disabled-domain-tags":
            assert res.n_tag_problems > 0
        else:
            assert res.divergent_domains

    def test_aliasing_wrapper_binds_masked_hooks(self):
        """The ``aliased-counters`` wrapper hands the engine masked
        closures, so the mutation reaches the one hook binding: a
        counter line filled for PFN 1 answers a probe for PFN 9."""
        from repro.mem import spaces
        from repro.mem.cache import Cache
        from repro.obs.leakage import _AliasingCounterCache, leakage_config
        from repro.sim.trace import NULL_TRACER

        cache = _AliasingCounterCache(
            Cache(leakage_config().secure.counter_cache, "ctr$"))
        probe = cache.bind_fast_probe()
        fill_absent = cache.bind_fast_fill(NULL_TRACER)
        assert not probe(spaces.tag(spaces.COUNTER, 1))
        assert fill_absent(spaces.tag(spaces.COUNTER, 1)) is None
        assert probe(spaces.tag(spaces.COUNTER, 9))

    def test_mutation_specs_cover_exact_schemes_only(self):
        specs = mutation_pair_specs(DEFAULT_SCHEMES, rounds=8)
        assert {s.scheme for s in specs} == set(EXACT_SCHEMES)
        assert {s.mutation for s in specs} == set(MODEL_LEAKS)
        assert len(specs) == len(EXACT_SCHEMES) * len(MODEL_LEAKS)


class TestCachingAndSerialisation:
    def test_pair_key_stable_and_sensitive(self):
        spec = PairSpec(scheme="ivleague-basic", rounds=8)
        assert pair_key(spec) == pair_key(PairSpec(scheme="ivleague-basic",
                                                   rounds=8))
        others = [PairSpec(scheme="baseline", rounds=8),
                  PairSpec(scheme="ivleague-basic", rounds=9),
                  PairSpec(scheme="ivleague-basic", rounds=8, seed=1),
                  PairSpec(scheme="ivleague-basic", rounds=8,
                           mutation="shared-tree")]
        keys = {pair_key(s) for s in others} | {pair_key(spec)}
        assert len(keys) == len(others) + 1

    def test_result_pickles_and_jsons(self):
        res = run_pair(PairSpec(scheme="ivleague-basic", rounds=8))
        clone = pickle.loads(pickle.dumps(res))
        assert clone.ok == res.ok
        assert clone.to_dict() == res.to_dict()
        payload = json.loads(json.dumps(res.to_dict()))
        assert payload["contract"] == "exact"
        assert payload["ok"] is True

    def test_run_pairs_hits_the_persistent_cache(self):
        cache = pair_cache()
        assert cache is not None   # conftest points it at a tmp dir
        specs = [PairSpec(scheme="ivleague-basic", rounds=8)]
        first = run_pairs(specs, jobs=1, cache=cache)
        assert cache.stores == 1
        again = run_pairs(specs, jobs=1, cache=cache)
        assert cache.hits == 1
        assert again[0].to_dict() == first[0].to_dict()


class TestMatricesAndReport:
    def _results(self):
        return [run_pair(PairSpec(scheme="ivleague-basic", rounds=8)),
                run_pair(PairSpec(scheme="baseline", rounds=16))]

    def test_leakage_matrix_gates_and_measures(self):
        matrix = leakage_matrix(self._results())
        assert matrix["ok"]
        assert matrix["isolation_violations"] == []
        assert matrix["power_failures"] == []
        (key, rec), = matrix["measured"].items()
        assert key.startswith("baseline/") and rec["leaked"]

    def test_leakage_matrix_power_control_failure(self):
        # a baseline pair with no measured MI means the harness lost the
        # channel: that must fail, not silently pass
        numb = PairResult(scheme="baseline", mix="S-1", seed=0, rounds=8,
                          contract="statistical", victim_diverged=True)
        matrix = leakage_matrix([numb])
        assert not matrix["ok"]
        assert matrix["power_failures"]

    def test_mutation_matrix_requires_total_detection(self):
        res = run_pair(PairSpec(scheme="ivleague-basic", rounds=8,
                                mutation="shared-tree"))
        good = mutation_matrix([res])
        assert good["ok"]
        assert good["detected"] == {"ivleague-basic/shared-tree": True}
        # an undetected mutation (simulated by a clean-looking result)
        missed = PairResult(scheme="ivleague-basic", mix="S-1", seed=0,
                            rounds=8, contract="exact",
                            mutation="shared-tree", victim_diverged=True)
        assert not mutation_matrix([missed])["ok"]
        assert not mutation_matrix([])["ok"]   # vacuous proof forbidden

    def test_build_report(self):
        clean = self._results()
        mutated = [run_pair(PairSpec(scheme="ivleague-basic", rounds=8,
                                     mutation="aliased-counters"))]
        report = build_report(clean, mutated, manifest={"seed": 0})
        assert report["ok"]
        assert report["schema_tag"] == "leakage-v1"
        assert report["contracts"] == {"baseline": "statistical",
                                       "ivleague-basic": "exact"}
        assert len(report["pairs"]) == 2
        assert len(report["mutation_pairs"]) == 1
        # per-scheme figures come from the pairs: baseline's observer A
        # reads the shared tree
        baseline = next(p for p in report["pairs"]
                        if p["scheme"] == "baseline")
        assert baseline["max_mi_bits"] >= LEAK_POWER_MIN_BITS
        assert any(k.startswith(f"{OBSERVERS[0]}/tree.")
                   for k in baseline["mi_bits"])
        json.dumps(report)   # JSON-able end to end

    def test_default_pair_specs_grid(self):
        specs = default_pair_specs(schemes=("a", "b"), mixes=("S-1", "M-2"),
                                   pairs=2, rounds=8, seed=5)
        assert len(specs) == 8
        assert {s.seed for s in specs} == {5, 6}
        assert all(s.mutation is None for s in specs)


class TestCheckLeakageCli:
    def test_quick_gate_passes_and_writes_report(self, capsys, tmp_path):
        from repro.cli import main
        report = tmp_path / "leakage.json"
        rc = main(["check-leakage", "--schemes",
                   "ivleague-basic,baseline", "--rounds", "8",
                   "--jobs", "1", "--no-cache",
                   "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "isolated" in out
        assert "leaks (as expected)" in out
        assert "detected" in out and "NOT DETECTED" not in out
        payload = json.loads(report.read_text())
        assert payload["ok"]
        assert payload["manifest"]["tool"] == "repro"
        assert payload["matrix"]["isolation_violations"] == []
        assert payload["mutations"]["ok"]
        assert len(payload["mutations"]["detected"]) == len(MODEL_LEAKS)

    def test_gate_fails_on_undetected_mutation(self, capsys, monkeypatch):
        # force the self-proof to miss: a checker that cannot see its own
        # model leaks must exit non-zero
        from repro import cli
        from repro.obs import leakage as lk
        monkeypatch.setattr(
            lk, "mutation_matrix",
            lambda results: {"ok": False, "detected": {"x/y": False}})
        rc = cli.main(["check-leakage", "--schemes", "ivleague-basic",
                       "--rounds", "8", "--jobs", "1", "--no-cache"])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out
