"""Side-channel trace analysis: bit recovery and accuracy metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.metaleak import AttackTrace


@dataclass
class RecoveryResult:
    guesses: list[int]
    accuracy: float
    threshold: float


def _midpoint_threshold(latencies: np.ndarray) -> float:
    """Threshold between the fast (shared-node hit) and slow modes.

    Two-means split (1-D k-means with k=2), robust to unequal cluster
    sizes -- the victim's bit distribution is unknown to the attacker.
    """
    # Percentile anchors make the split robust to warm-up outliers
    # (e.g. the very first, fully-cold probe).
    lo, hi = np.percentile(latencies, [10, 90])
    lo, hi = float(lo), float(hi)
    if lo == hi:
        return lo
    t = (lo + hi) / 2.0
    for _ in range(32):
        below = latencies[latencies <= t]
        above = latencies[latencies > t]
        if len(below) == 0 or len(above) == 0:
            break
        nt = (below.mean() + above.mean()) / 2.0
        if abs(nt - t) < 1e-9:
            break
        t = nt
    return float(t)


def recover_exponent(trace: AttackTrace) -> RecoveryResult:
    """Infer exponent bits from probe latencies.

    The ``mul`` probe is fast exactly when the victim multiplied, i.e.
    when the bit was 1 (the ``sqr`` probe is fast every round and serves
    as a sanity reference).
    """
    mul = np.asarray(trace.mul_latency, dtype=np.float64)
    threshold = _midpoint_threshold(mul)
    spread = float(np.percentile(mul, 90) - np.percentile(mul, 10))
    if spread < 30.0:  # below one DRAM access: no usable modulation
        # No modulation at all: the attacker learns nothing and can only
        # guess one constant bit value.
        guesses = [0] * len(mul)
    else:
        guesses = [1 if lat <= threshold else 0 for lat in mul]
    truth = trace.truth
    correct = sum(1 for g, t in zip(guesses, truth) if g == t)
    accuracy = correct / len(truth) if truth else 0.0
    return RecoveryResult(guesses, accuracy, threshold)


def signal_to_noise(trace: AttackTrace) -> float:
    """|mean(bit=1) - mean(bit=0)| / pooled std of the mul-probe latency."""
    mul = np.asarray(trace.mul_latency, dtype=np.float64)
    truth = np.asarray(trace.truth, dtype=bool)
    if truth.all() or (~truth).all():
        return 0.0
    a, b = mul[truth], mul[~truth]
    pooled = np.sqrt((a.var() + b.var()) / 2.0)
    if pooled == 0:
        return float("inf") if abs(a.mean() - b.mean()) > 0 else 0.0
    return float(abs(a.mean() - b.mean()) / pooled)
