"""Fig. 3 / Section IV: the MetaLeak-style attack demonstration.

Runs the Evict+Reload protocol against the global-tree Baseline (the
paper recovers the 2048-bit RSA exponent with 91.6% accuracy on real
SGX) and against every IvLeague scheme (where the probe latencies carry
no victim-dependent modulation, so recovery collapses to chance).
"""

from __future__ import annotations

from repro import ENGINES
from repro.attacks.channel import recover_exponent, signal_to_noise
from repro.attacks.metaleak import MetaLeakAttack, attack_config
from repro.attacks.rsa_victim import RsaVictim
from repro.experiments.common import format_table, print_header


def run_attack(scheme: str, n_bits: int = 256, seed: int = 42,
               config=None) -> dict:
    cfg = config or attack_config()
    engine = ENGINES[scheme](cfg, seed=11)
    victim = RsaVictim.random(n_bits=n_bits, seed=seed)
    attack = MetaLeakAttack(engine, seed=seed)
    trace = attack.run(victim)
    result = recover_exponent(trace)
    return {
        "scheme": scheme,
        "bits": n_bits,
        "accuracy": result.accuracy,
        "snr": signal_to_noise(trace),
        "trace": trace,
    }


def compute(n_bits: int = 256, seed: int = 42) -> list[dict]:
    rows = []
    for scheme in ENGINES:
        r = run_attack(scheme, n_bits=n_bits, seed=seed)
        r.pop("trace")
        rows.append(r)
    return rows


def main(n_bits: int = 256, seed: int = 42) -> list[dict]:
    print_header("Fig. 3 / Sec. IV -- MetaLeak Evict+Reload on shared "
                 "integrity-tree metadata")
    # Show a short latency trace against the baseline (the Fig. 3 plot).
    demo = run_attack("baseline", n_bits=24, seed=seed)
    trace = demo["trace"]
    print("attacker-observed mul-probe latency (first 24 bits, baseline):")
    line = "  ".join(f"{lat:5.0f}" for lat in trace.mul_latency)
    bits = "  ".join(f"{b:5d}" for b in trace.truth)
    print(f"  lat: {line}")
    print(f"  bit: {bits}")
    rows = compute(n_bits=n_bits, seed=seed)
    print(format_table(rows))
    return rows
