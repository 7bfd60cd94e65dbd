"""Fig. 3 / Section IV: the MetaLeak-style attack demonstration.

Runs the Evict+Reload protocol against the global-tree Baseline (the
paper recovers the 2048-bit RSA exponent with 91.6% accuracy on real
SGX) and against every IvLeague scheme (where the probe latencies carry
no victim-dependent modulation, so recovery collapses to chance).  The
attack is one half of the leakage contracts' round driver
(:func:`repro.obs.leakage.probe_latencies`), primed by eviction.
"""

from __future__ import annotations

from repro import ENGINES
from repro.experiments.common import format_table, print_header
from repro.obs.leakage import (key_bits, probe_latencies, recovery_accuracy,
                               signal_to_noise)


def run_attack(scheme: str, n_bits: int = 256, seed: int = 42) -> dict:
    key = key_bits(n_bits, seed)
    latency = probe_latencies(scheme, key, seed)
    return {
        "scheme": scheme,
        "bits": n_bits,
        "accuracy": recovery_accuracy(latency, key),
        "snr": signal_to_noise(latency, key),
    }


def compute(n_bits: int = 256, seed: int = 42) -> list[dict]:
    return [run_attack(scheme, n_bits=n_bits, seed=seed)
            for scheme in ENGINES]


def main(n_bits: int = 256, seed: int = 42) -> list[dict]:
    print_header("Fig. 3 / Sec. IV -- MetaLeak Evict+Reload on shared "
                 "integrity-tree metadata")
    # Show a short latency trace against the baseline (the Fig. 3 plot).
    key = key_bits(24, seed)
    latency = probe_latencies("baseline", key, seed)
    print("attacker-observed mul-probe latency (first 24 bits, baseline):")
    line = "  ".join(f"{lat:5.0f}" for lat in latency)
    bits = "  ".join(f"{b:5d}" for b in key)
    print(f"  lat: {line}")
    print(f"  bit: {bits}")
    rows = compute(n_bits=n_bits, seed=seed)
    print(format_table(rows))
    return rows
