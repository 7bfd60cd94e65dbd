#!/usr/bin/env python
"""MetaLeak attack demo (paper Section IV / Fig. 3).

A victim enclave runs square-and-multiply RSA; a privileged attacker in
another enclave co-locates two probe pages with the victim's sqr/mul
pages so they share level-2 integrity-tree nodes, then runs
Evict+Reload over the *metadata cache*.  Against the global-tree
baseline the attacker recovers the private exponent; against IvLeague
the probes carry no victim-dependent signal.

Run:  python examples/attack_demo.py [n_bits]
"""

import sys

from repro import ENGINES
from repro.obs.leakage import (key_bits, probe_latencies, recovery_accuracy,
                               signal_to_noise)


def sparkline(values, lo=None, hi=None) -> str:
    marks = " .:-=+*#%@"
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = (hi - lo) or 1.0
    return "".join(marks[min(9, int((v - lo) / span * 9))] for v in values)


def main() -> None:
    n_bits = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    key = key_bits(n_bits, seed=2024)
    print(f"victim: {n_bits}-bit secret exponent, "
          f"square-and-multiply page accesses\n")

    for scheme in ENGINES:
        latency = probe_latencies(scheme, key, seed=9)
        accuracy = recovery_accuracy(latency, key)
        snr = signal_to_noise(latency, key)
        print(f"== {scheme}")
        window = slice(1, 65)
        print(f"   probe latency: {sparkline(latency[window])}")
        print(f"   secret bits  : {''.join(str(b) for b in key[window])}")
        print(f"   recovered {accuracy:6.1%} of the exponent, "
              f"SNR {snr:.2f}\n")

    print("Baseline: shared tree nodes modulate the probe -> key leaks.")
    print("IvLeague: per-domain TreeLings share no metadata -> chance.")


if __name__ == "__main__":
    main()
