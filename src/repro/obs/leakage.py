"""Leakage contracts: paired-secret non-interference checking.

The paper's headline security claim (Sections V-VI, Fig. 3) is that
IvLeague's per-domain TreeLings remove the cross-domain integrity-tree
side channel that a shared global tree (baseline / SGX / VAULT) leaks
through, MIRAGE-style randomized metadata caches merely obfuscate, and
static partitioning buys at the cost of rigidity.  This module turns
that figure into an enforced invariant, in the style of the
leakage-contracts line of work (Wang et al.): a *contract* is a
predicate over the observable traces of :mod:`repro.obs.observables`,
checked on **paired-secret experiments**:

* run the same configuration twice, identical in everything except one
  victim domain's secret bit-string (an RSA-style square-and-multiply
  access pattern: ``sqr`` every round, ``mul`` only when the round's
  key bit is 1 -- the MetaLeak victim of ``attacks/metaleak.py``);
* co-resident observer domains execute *fixed* schedules at fixed
  harness-assigned cycles (an open-loop probe pair on tree-sharing
  pages, plus a mix-trace replayer), so any difference in their
  observable streams across the two halves is caused by the victim's
  secrets and nothing else.

Contract per scheme family (:func:`contract_of`):

* ``exact``   -- IvLeague variants and static partitioning: every
  non-victim domain's observable stream must be *identical* across the
  two halves (non-interference).  The first divergence, if any, is
  reported tuple-by-tuple.
* ``statistical`` -- baseline / MIRAGE / SGX / VAULT share one global
  tree, so leakage is expected and must be *measured, not hidden*:
  per-round observable features (tree-node visits, counter misses,
  DRAM reads, evictions, MIRAGE placements) feed a plug-in mutual-
  information estimate I(secret bit; feature) and a total-variation
  distance between the halves.  For the baseline family the measured
  MI must clear :data:`LEAK_POWER_MIN_BITS` -- a positive power
  control: if the harness cannot see the textbook MetaLeak channel,
  the harness is broken and the run fails.

The harness proves its own sensitivity by mutation
(:data:`MODEL_LEAKS`): scheme mutations -- a silent shared-tree
fallback, stripped domain tags, counter-address aliasing across
domains -- MUST each trip the checker, so a silently-passing checker
cannot ship.

Scope note: DRAM row-buffer hit/miss state and absolute access
latencies are shared-by-construction under every scheme here (one
memory controller), are excluded from the observable tuples
(see ``observables._EXCLUDED_ARGS``), and are out of the paper's
threat model -- the contracts are about *which* metadata resources are
touched, the channel the integrity tree adds.

Pairs are deterministic functions of their :class:`PairSpec` and ride
the PR-3 parallel machinery: :func:`run_pairs` fans specs out over a
process pool through a persistent
:class:`~repro.experiments.parallel.ResultCache`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Optional, Sequence

import numpy as np

from repro.mem.spaces import SPACE_SHIFT
from repro.obs.observables import (ObservableTrace, first_divergence,
                                   project_events)
from repro.sim.config import CacheConfig, MachineConfig, tiny_config
from repro.sim.trace import EventTracer

# ---------------------------------------------------------------------------
# The cast, the contracts, the mutations
# ---------------------------------------------------------------------------

#: The domain whose secrets differ between the two halves of a pair.
VICTIM = 1
#: Fixed-schedule co-resident domains whose streams the contract is about.
OBSERVER_A = 2   # MetaLeak-style probe pair on tree-sharing pages
OBSERVER_B = 3   # replays a mix-derived schedule over its own pages
OBSERVERS = (OBSERVER_A, OBSERVER_B)

#: Scheme mutations that MUST trip the checker (harness self-proof).
#:
#: * ``shared-tree``          -- the engine silently falls back to the
#:   baseline global tree (isolation bug #1: the isolation mechanism
#:   quietly not engaged);
#: * ``disabled-domain-tags`` -- the tracer stops tagging observable
#:   events with their domain (isolation bug #2: leakage hidden by
#:   broken attribution);
#: * ``aliased-counters``     -- the counter-cache index drops the high
#:   address bits so victim and observer counter lines alias
#:   (isolation bug #3: metadata structures shared by accident).
MODEL_LEAKS = ("shared-tree", "disabled-domain-tags", "aliased-counters")

#: Full scheme grid; ``+mirage`` enables randomized metadata caches.
DEFAULT_SCHEMES = ("baseline", "baseline+mirage", "sgx-counter-tree",
                   "vault", "static-partition", "ivleague-basic",
                   "ivleague-invert", "ivleague-pro")
#: CI smoke subset: one leaky pair, one obfuscated pair, both isolation
#: families.
QUICK_SCHEMES = ("baseline", "baseline+mirage", "static-partition",
                 "ivleague-basic")

#: Schemes whose measured leakage acts as the positive power control.
LEAK_EXPECTED = ("baseline", "baseline+mirage")

#: Minimum plug-in MI (bits) the power-control schemes must exhibit.
#: The MetaLeak probe channel carries ~1 bit/round; anything below this
#: threshold means the harness lost the channel, not that baseline got
#: secure.
LEAK_POWER_MIN_BITS = 0.2

#: Mixed into pair keys; bump when the harness protocol changes.
LEAKAGE_SCHEMA_TAG = "leakage-v1"

#: Pages covered by one level-2 tree node in the 8-ary global tree
#: (8 leaf counter blocks x 8 pages... = TREE_ARITY**2): the colocated
#: placement puts victim and probe pages in the same group so their
#: verification paths share interior nodes (the MetaLeak layout).
_GROUP = 64


def split_scheme(scheme: str) -> tuple[str, bool]:
    """``"baseline+mirage"`` -> ``("baseline", True)``."""
    if scheme.endswith("+mirage"):
        return scheme[: -len("+mirage")], True
    return scheme, False


def contract_of(scheme: str) -> str:
    """``"exact"`` (non-interference) or ``"statistical"`` (measure)."""
    base, _ = split_scheme(scheme)
    if base.startswith("ivleague") or base.startswith("static-partition"):
        return "exact"
    return "statistical"


def leakage_config(mirage: bool = False) -> MachineConfig:
    """Harness machine config: tiny memory, but metadata caches sized so
    one round's footprint never evicts -- the *only* cross-domain
    coupling left is presence (warming) on shared structures, which is
    exactly what the contract is about.  ``mirage`` flips the metadata
    caches to randomized (MIRAGE) placement."""
    base = tiny_config(n_cores=4)
    meta = CacheConfig(64 * 1024, 16, hit_latency=8, randomized=mirage)
    return base.with_secure(
        counter_cache=meta,
        tree_cache=meta,
        mac_cache=CacheConfig(32 * 1024, 8, hit_latency=8,
                              randomized=mirage),
    )


# ---------------------------------------------------------------------------
# Specs and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairSpec:
    """One deterministic paired-secret experiment (picklable)."""

    scheme: str
    mix: str = "S-1"
    rounds: int = 48
    seed: int = 0
    #: mix-replay accesses observer B issues per round
    mix_ops: int = 4
    #: one of :data:`MODEL_LEAKS`, or None for a clean run
    mutation: Optional[str] = None


@dataclass
class PairResult:
    """Verdict for one pair (picklable, JSON-able via :meth:`to_dict`)."""

    scheme: str
    mix: str
    seed: int
    rounds: int
    contract: str
    mutation: Optional[str] = None
    #: did the victim's own stream differ across halves (it must --
    #: otherwise the harness lost the secret)
    victim_diverged: bool = False
    #: domain -> {"events": [n0, n1], "digests": [...], "divergence": ...}
    domains: dict = field(default_factory=dict)
    n_tag_problems: int = 0
    tag_problems: list = field(default_factory=list)
    #: ``"<domain>/<event class>"`` -> plug-in MI estimate in bits
    mi_bits: dict = field(default_factory=dict)
    #: ``"<domain>/<event class>"`` -> total-variation distance
    tv: dict = field(default_factory=dict)
    #: deterministic domain-model failure (e.g. partition overflow)
    failure: Optional[str] = None

    @property
    def divergent_domains(self) -> list[int]:
        return [d for d, rec in sorted(self.domains.items())
                if d != VICTIM and rec["divergence"] is not None]

    @property
    def max_mi(self) -> float:
        return max(self.mi_bits.values(), default=0.0)

    @property
    def leaked(self) -> bool:
        """Did the victim's secrets measurably reach any observer?"""
        return bool(self.divergent_domains) \
            or self.max_mi >= LEAK_POWER_MIN_BITS

    @property
    def violations(self) -> list[str]:
        out = []
        if self.failure is not None:
            out.append(f"run failed: {self.failure}")
            return out
        if self.n_tag_problems:
            out.append(f"{self.n_tag_problems} observable events carry no "
                       f"domain tag (leakage cannot be attributed)")
        if not self.victim_diverged:
            out.append("victim streams identical across the secret swap "
                       "(harness lost the secret signal)")
        if self.contract == "exact":
            for d in self.divergent_domains:
                div = self.domains[d]["divergence"]
                out.append(
                    f"domain {d} observable stream diverges at tuple "
                    f"{div['index']}: {div.get('a')} != {div.get('b')}")
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme, "mix": self.mix, "seed": self.seed,
            "rounds": self.rounds, "contract": self.contract,
            "mutation": self.mutation, "ok": self.ok,
            "leaked": self.leaked, "victim_diverged": self.victim_diverged,
            "violations": self.violations,
            "domains": {str(d): rec for d, rec in
                        sorted(self.domains.items())},
            "n_tag_problems": self.n_tag_problems,
            "tag_problems": list(self.tag_problems),
            "mi_bits": dict(self.mi_bits), "tv": dict(self.tv),
            "max_mi_bits": self.max_mi, "failure": self.failure,
        }


# ---------------------------------------------------------------------------
# Statistics: plug-in MI and histogram (total-variation) distance
# ---------------------------------------------------------------------------

def plugin_mi_bits(pairs: Sequence[tuple]) -> float:
    """Plug-in (maximum-likelihood) mutual information, in bits, of a
    sample of ``(x, y)`` pairs.  Biased upward on small samples like
    every plug-in estimator; the contract thresholds are set far above
    that bias (see ``tests/test_observables.py`` fixtures)."""
    from collections import Counter
    from math import log2

    n = len(pairs)
    if n == 0:
        return 0.0
    joint = Counter(pairs)
    px = Counter(x for x, _ in pairs)
    py = Counter(y for _, y in pairs)
    mi = 0.0
    for (x, y), c in joint.items():
        p = c / n
        mi += p * log2(p / ((px[x] / n) * (py[y] / n)))
    return max(0.0, mi)


def tv_distance(a: Sequence, b: Sequence) -> float:
    """Total-variation distance between the empirical histograms of two
    samples: ``0.5 * sum_v |P_a(v) - P_b(v)|`` in ``[0, 1]``."""
    from collections import Counter

    ca, cb = Counter(a), Counter(b)
    na, nb = max(1, len(a)), max(1, len(b))
    return 0.5 * sum(abs(ca[v] / na - cb[v] / nb)
                     for v in set(ca) | set(cb))


# ---------------------------------------------------------------------------
# Scheme mutations (the checker's self-proof)
# ---------------------------------------------------------------------------

class _UntaggedTracer(EventTracer):
    """Mutation ``disabled-domain-tags``: the hardware stops tagging
    observable events with their owning domain."""

    def _emit(self, ev: dict) -> None:
        self.emitted += 1
        args = ev.get("args")
        if args is not None:
            args.pop("domain", None)
        self._events.append(ev)


class _AliasingCounterCache:
    """Mutation ``aliased-counters``: the counter-cache index keeps only
    the space tag and the low 3 address bits, so counter lines of
    different domains alias (pages whose PFNs agree mod 8 share a
    line).  Wraps the real cache so fills/lookups/flushes behave
    normally on the masked address."""

    def __init__(self, inner) -> None:
        self._inner = inner

    @staticmethod
    def _mask(addr: int) -> int:
        return (addr >> SPACE_SHIFT << SPACE_SHIFT) | (addr % 8)

    # set_tracer assigns this through the engine fan-out.
    @property
    def tracer(self):
        return self._inner.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._inner.tracer = value

    def lookup(self, addr: int, is_write: bool = False):
        return self._inner.lookup(self._mask(addr), is_write=is_write)

    def fill(self, addr: int, dirty: bool = False, locked: bool = False):
        return self._inner.fill(self._mask(addr), dirty=dirty,
                                locked=locked)

    # The engine binds its counter hooks from these, so the fused path
    # sees the masked index too.
    def bind_fast_probe(self):
        probe, mask = self._inner.bind_fast_probe(), self._mask

        def masked_probe(addr: int, is_write: bool = False) -> bool:
            return probe(mask(addr), is_write)
        return masked_probe

    def bind_fast_fill(self, tracer):
        fill_absent, mask = self._inner.bind_fast_fill(tracer), self._mask

        def masked_fill(addr: int, dirty: bool = False):
            return fill_absent(mask(addr), dirty)
        return masked_fill

    def flush(self) -> int:
        return self._inner.flush()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _build_engine(base_scheme: str, config: MachineConfig,
                  mutation: Optional[str]):
    from repro.experiments.parallel import resolve_engine

    if mutation == "shared-tree":
        # The isolation mechanism silently not engaged: whatever the
        # scheme claims, verification runs over one global tree.
        from repro.secure.engine import BaselineEngine
        return BaselineEngine(config, seed=11)
    engine = resolve_engine(base_scheme)(config, seed=11)
    if mutation == "aliased-counters":
        engine.counter_cache = _AliasingCounterCache(engine.counter_cache)
    return engine


# ---------------------------------------------------------------------------
# The paired-secret harness (engine-level, open-loop, round-based)
# ---------------------------------------------------------------------------

#: Cycles between round starts / between scheduled accesses.  Rounds are
#: spaced far apart so posted DRAM traffic from one phase cannot spill
#: into the next; all times are harness-assigned (open loop), so no
#: domain's issue time depends on another domain's latency.
_ROUND_CYCLES = 200_000.0
_SLOT_CYCLES = 500.0
_PHASE_CYCLES = 10_000.0


@dataclass
class _Placement:
    v_sqr: int
    v_mul: int
    a_sqr: int
    a_mul: int
    b_pages: tuple

    def pages_of(self, domain: int) -> tuple:
        if domain == VICTIM:
            return (self.v_sqr, self.v_mul)
        if domain == OBSERVER_A:
            return (self.a_sqr, self.a_mul)
        return self.b_pages


def _place_pages(engine) -> _Placement:
    """Physical placement.  Engines that expose ``frame_range`` (static
    partitioning) get partition-confined pages at *equal local offsets*
    (so the aliased-counters mutation has something to alias); everyone
    else gets the colocated MetaLeak layout -- victim and probe pages
    in the same level-2 tree-node groups, 8 pages apart, which is what
    makes the shared-tree channel (and the shared-tree mutation)
    visible.  IvLeague ignores physical placement by design, so
    colocation is harmless to it."""
    frame_range = getattr(engine, "frame_range", None)
    if frame_range is not None:
        lo_v, _ = frame_range(VICTIM)
        lo_a, _ = frame_range(OBSERVER_A)
        lo_b, _ = frame_range(OBSERVER_B)
        return _Placement(
            v_sqr=lo_v + 3, v_mul=lo_v + _GROUP + 5,
            a_sqr=lo_a + 3, a_mul=lo_a + _GROUP + 5,
            b_pages=tuple(lo_b + 2 * _GROUP + i for i in range(8)))
    v_sqr = 10 * _GROUP + 3
    v_mul = 20 * _GROUP + 5
    return _Placement(
        v_sqr=v_sqr, v_mul=v_mul, a_sqr=v_sqr + 8, a_mul=v_mul + 8,
        b_pages=tuple(100 * _GROUP + i * _GROUP + 7 for i in range(8)))


def secret_bits(seed: int, rounds: int) -> tuple[tuple, tuple]:
    """The two halves' victim key bits.  The first two rounds are pinned
    to (0,1) / (1,0) so the halves always differ and each half sees both
    bit values (the MI estimate needs both classes)."""
    if rounds < 2:
        raise ValueError("need at least 2 rounds")
    rng = np.random.default_rng(1_000_003 * seed + 17)
    h0 = rng.integers(0, 2, rounds)
    h1 = rng.integers(0, 2, rounds)
    h0[0], h0[1] = 0, 1
    h1[0], h1[1] = 1, 0
    return (tuple(int(b) for b in h0), tuple(int(b) for b in h1))


def _mix_schedule(spec: PairSpec, pages: tuple) -> list[list[tuple]]:
    """Observer B's per-round accesses, derived from the named mix's
    deterministic trace and folded onto B's own pages -- this is what
    gives ``--mixes`` meaning: different mixes stress the metadata
    structures with different reuse/write patterns."""
    from repro.workloads.mixes import build_mix

    workload = build_mix(spec.mix,
                         n_accesses=max(64, spec.rounds * spec.mix_ops),
                         seed=spec.seed)
    trace = workload.traces[0]
    n = len(trace)
    schedule, k = [], 0
    for _ in range(spec.rounds):
        ops = []
        for _ in range(spec.mix_ops):
            i = k % n
            ops.append((pages[int(trace.vpage[i]) % len(pages)],
                        int(trace.block[i]), bool(trace.is_write[i])))
            k += 1
        schedule.append(ops)
    return schedule


def _run_half(spec: PairSpec, config: MachineConfig, base_scheme: str,
              bits: Sequence[int]) -> tuple[list, list]:
    """One half: returns ``(events, round_boundaries)`` where
    ``round_boundaries[r]`` is the event index at which round ``r``
    begins (len rounds+1)."""
    engine = _build_engine(base_scheme, config, spec.mutation)
    tracer = (_UntaggedTracer(limit=None)
              if spec.mutation == "disabled-domain-tags"
              else EventTracer(limit=None))
    engine.set_tracer(tracer)
    for d in (VICTIM,) + OBSERVERS:
        engine.on_domain_start(d)
    placement = _place_pages(engine)
    schedule = _mix_schedule(spec, placement.b_pages)

    now = 0.0
    for d in (VICTIM,) + OBSERVERS:
        tracer.cur_domain = d
        for pfn in placement.pages_of(d):
            now += 1_000.0
            engine.on_page_alloc(d, pfn, now)
    setup_end = now + _PHASE_CYCLES

    boundaries = []
    for r, bit in enumerate(bits):
        boundaries.append(tracer.emitted)
        # The attacker's prime step, idealised: metadata caches start
        # every round empty, so observer lookups read out exactly what
        # the victim warmed this round.
        for cache in (engine.counter_cache, engine.tree_cache,
                      engine.mac_cache):
            cache.flush()
        t0 = setup_end + r * _ROUND_CYCLES
        # victim: sqr always, mul iff the round's key bit is 1
        tracer.cur_domain = VICTIM
        engine.data_access(VICTIM, placement.v_sqr, 3, False, t0)
        if bit:
            engine.data_access(VICTIM, placement.v_mul, 5, False,
                               t0 + _SLOT_CYCLES)
        # observer A: fixed probe pair at fixed cycles
        tracer.cur_domain = OBSERVER_A
        t_a = t0 + _PHASE_CYCLES
        engine.data_access(OBSERVER_A, placement.a_sqr, 3, False, t_a)
        engine.data_access(OBSERVER_A, placement.a_mul, 5, False,
                           t_a + _SLOT_CYCLES)
        # observer B: fixed mix-derived schedule over its own pages
        tracer.cur_domain = OBSERVER_B
        t_b = t0 + 2 * _PHASE_CYCLES
        for j, (pfn, block, is_write) in enumerate(schedule[r]):
            engine.data_access(OBSERVER_B, pfn, block, is_write,
                               t_b + j * _SLOT_CYCLES)
    boundaries.append(tracer.emitted)
    return tracer.events(), boundaries


#: Observable event classes fed to the per-round statistical features.
#: Deliberately count-based (how many of each class per round): counts
#: are a pure function of the observable stream, so an exact-contract
#: pass implies identically-zero feature MI -- no finite-sample false
#: alarms on isolation schemes.
FEATURE_CLASSES = ("tree.node", "tree.counter_hit", "tree.counter_miss",
                   "dram.read", "dram.write", "cache.evict", "cache.place",
                   "mac.hit", "mac.miss", "nfl.hit", "nfl.miss")


def _round_features(events: list, boundaries: list,
                    domain: int) -> list[dict]:
    rows = []
    for r in range(len(boundaries) - 1):
        counts = dict.fromkeys(FEATURE_CLASSES, 0)
        for ev in events[boundaries[r]:boundaries[r + 1]]:
            if ev.get("ph") not in ("B", "X", "i"):
                continue
            if (ev.get("args") or {}).get("domain") != domain:
                continue
            cls = f"{ev.get('cat')}.{ev.get('name')}"
            if cls in counts:
                counts[cls] += 1
        rows.append(counts)
    return rows


def run_pair(spec: PairSpec) -> PairResult:
    """Execute one paired-secret experiment and check its contract."""
    base_scheme, mirage = split_scheme(spec.scheme)
    result = PairResult(scheme=spec.scheme, mix=spec.mix, seed=spec.seed,
                        rounds=spec.rounds, mutation=spec.mutation,
                        contract=contract_of(spec.scheme))
    config = leakage_config(mirage)
    bits0, bits1 = secret_bits(spec.seed, spec.rounds)
    halves = []
    try:
        for bits in (bits0, bits1):
            halves.append(_run_half(spec, config, base_scheme, bits))
    except Exception as exc:  # deterministic domain-model failure
        result.failure = f"{type(exc).__name__}: {exc}"
        return result

    (ev0, b0), (ev1, b1) = halves
    traces0, problems0 = project_events(ev0)
    traces1, problems1 = project_events(ev1)
    problems = problems0 + problems1
    result.n_tag_problems = len(problems)
    result.tag_problems = problems[:10]

    for d in sorted(set(traces0) | set(traces1)):
        a = traces0.get(d) or ObservableTrace(d)
        b = traces1.get(d) or ObservableTrace(d)
        divergence = first_divergence(a, b)
        result.domains[d] = {
            "events": [len(a), len(b)],
            "digests": [a.digest(), b.digest()],
            "divergence": divergence,
            "class_counts": a.class_counts(),
        }
        if d == VICTIM:
            result.victim_diverged = divergence is not None

    for d in OBSERVERS:
        feats0 = _round_features(ev0, b0, d)
        feats1 = _round_features(ev1, b1, d)
        for cls in FEATURE_CLASSES:
            v0 = [row[cls] for row in feats0]
            v1 = [row[cls] for row in feats1]
            if not any(v0) and not any(v1):
                continue   # event class never fired for this observer
            pairs = list(zip(bits0, v0)) + list(zip(bits1, v1))
            result.mi_bits[f"{d}/{cls}"] = round(plugin_mi_bits(pairs), 6)
            result.tv[f"{d}/{cls}"] = round(tv_distance(v0, v1), 6)
    return result


# ---------------------------------------------------------------------------
# Parallel execution + persistent cache (PR-3 machinery)
# ---------------------------------------------------------------------------

def pair_key(spec: PairSpec) -> str:
    """Content hash for dedupe + on-disk caching (see ``cell_key``)."""
    from repro.experiments.parallel import CACHE_SCHEMA_VERSION
    from repro.sim.provenance import STATS_SCHEMA_VERSION, config_hash

    _, mirage = split_scheme(spec.scheme)
    ident = (CACHE_SCHEMA_VERSION, STATS_SCHEMA_VERSION,
             LEAKAGE_SCHEMA_TAG, config_hash(leakage_config(mirage)), spec)
    return sha256(repr(ident).encode()).hexdigest()[:32]


def pair_cache(root: Optional[str] = None):
    """Persistent pair cache (default: ``leakage/`` in the cache dir)."""
    from repro.experiments.parallel import ResultCache, default_cache_dir
    return ResultCache(root or os.path.join(default_cache_dir(), "leakage"),
                       payload_types=(PairResult,))


def run_pairs(specs: Sequence[PairSpec], jobs: int = 1,
              cache=None) -> list[PairResult]:
    """Fan pairs out over the PR-3 parallel runner."""
    from repro.experiments.parallel import execute_tasks
    return execute_tasks(specs, run_pair, pair_key, jobs=jobs, cache=cache)


def default_pair_specs(schemes: Sequence[str] = DEFAULT_SCHEMES,
                       mixes: Sequence[str] = ("S-1",), pairs: int = 1,
                       rounds: int = 48, seed: int = 0,
                       mix_ops: int = 4) -> list[PairSpec]:
    """The clean schemes x mixes x pair-replicas grid."""
    return [PairSpec(scheme=s, mix=m, rounds=rounds, seed=seed + p,
                     mix_ops=mix_ops)
            for s in schemes for m in mixes for p in range(pairs)]


def mutation_pair_specs(schemes: Sequence[str], mix: str = "S-1",
                        rounds: int = 24, seed: int = 0,
                        mix_ops: int = 4) -> list[PairSpec]:
    """Every model leak against every exact-contract scheme in
    ``schemes`` (mutating a scheme that never claimed isolation proves
    nothing)."""
    return [PairSpec(scheme=s, mix=mix, rounds=rounds, seed=seed,
                     mix_ops=mix_ops, mutation=mut)
            for s in schemes if contract_of(s) == "exact"
            for mut in MODEL_LEAKS]


# ---------------------------------------------------------------------------
# Matrix assembly (CLI / CI report)
# ---------------------------------------------------------------------------

def leakage_matrix(results: Sequence[PairResult]) -> dict:
    """Aggregate clean pair results into the gating verdict."""
    isolation_violations: list[str] = []
    power_failures: list[str] = []
    measured: dict[str, dict] = {}
    for res in results:
        if res.mutation:
            continue
        key = f"{res.scheme}/{res.mix}/s{res.seed}"
        isolation_violations.extend(f"{key}: {v}" for v in res.violations)
        if res.contract == "statistical":
            measured[key] = {"max_mi_bits": res.max_mi,
                             "leaked": res.leaked}
            if (res.scheme in LEAK_EXPECTED and not res.failure
                    and not res.leaked):
                power_failures.append(
                    f"{key}: expected measurable leakage, max MI "
                    f"{res.max_mi:.3f} bits < {LEAK_POWER_MIN_BITS}")
    ok = not isolation_violations and not power_failures
    return {"ok": ok, "isolation_violations": isolation_violations,
            "power_failures": power_failures, "measured": measured}


def mutation_matrix(results: Sequence[PairResult]) -> dict:
    """``scheme/mutation -> detected`` plus the 100%-detection verdict."""
    detected = {}
    for res in results:
        if not res.mutation:
            continue
        detected[f"{res.scheme}/{res.mutation}"] = not res.ok
    ok = bool(detected) and all(detected.values())
    return {"ok": ok, "detected": detected}


def record_leakage_metrics(metrics, results: Sequence[PairResult]) -> None:
    """Publish ``leakage{scheme=...,observable=...}`` gauges (max MI in
    bits per observable class) and per-scheme divergence counters."""
    for res in results:
        if res.mutation:
            continue
        for key, mi in res.mi_bits.items():
            _, cls = key.split("/", 1)
            metrics.gauge("leakage", scheme=res.scheme,
                          observable=cls).set_max(mi)
        metrics.counter("leakage_divergences", scheme=res.scheme).inc(
            len(res.divergent_domains))
        metrics.counter("leakage_pairs", scheme=res.scheme).inc()


def build_report(clean: Sequence[PairResult],
                 mutated: Sequence[PairResult],
                 manifest: Optional[dict] = None) -> dict:
    """The JSON leakage report (CLI ``--report`` / CI artifact)."""
    matrix = leakage_matrix(clean)
    mutations = mutation_matrix(mutated) if mutated else None
    return {
        "manifest": manifest or {},
        "schema_tag": LEAKAGE_SCHEMA_TAG,
        "contracts": {s: contract_of(s)
                      for s in sorted({r.scheme for r in clean})},
        "matrix": matrix,
        "mutations": mutations,
        "ok": matrix["ok"] and (mutations is None or mutations["ok"]),
        "pairs": [r.to_dict() for r in clean],
        "mutation_pairs": [r.to_dict() for r in mutated],
    }
