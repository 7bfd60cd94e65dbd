"""Comparator study: alternative global-tree designs on one substrate.

Runs the paper's Baseline (hash BMT) against the SGX-style counter tree
and the VAULT variable-arity tree, plus IvLeague-Pro, on the same mixes.
Two take-aways the paper argues in §II/§XI, made measurable:

* all three *global* designs leak through shared metadata (the attack
  column), whatever their performance trade-offs;
* IvLeague is orthogonal to the tree design — it isolates whichever
  tree shape the processor uses.
"""

from __future__ import annotations

from repro import ENGINES, EXTRA_ENGINES
from repro.attacks.channel import recover_exponent
from repro.attacks.metaleak import MetaLeakAttack, attack_config
from repro.attacks.rsa_victim import RsaVictim
from repro.experiments import runner
from repro.experiments.common import format_table, get_scale, print_header
from repro.experiments.parallel import scale_cell

COMPARATORS = {
    "baseline": ENGINES["baseline"],
    "sgx-counter-tree": EXTRA_ENGINES["sgx-counter-tree"],
    "vault": EXTRA_ENGINES["vault"],
    "ivleague-pro": ENGINES["ivleague-pro"],
}

DEFAULT_MIXES = ["S-2", "M-1"]


def compute(scale="quick", mixes=None, attack_bits: int = 64
            ) -> list[dict]:
    sc = get_scale(scale)
    mixes = list(mixes or DEFAULT_MIXES)
    # Timing cells for every comparator in one batch; the MetaLeak
    # attack below is trace-level (no Simulator) and stays in-process.
    cells = [scale_cell(mix, name, sc)
             for name in COMPARATORS for mix in mixes]
    outcomes = runner.run_cells(cells)
    by_cell = {(c.scheme, c.mix): o for c, o in zip(cells, outcomes)}
    rows = []
    for name, cls in COMPARATORS.items():
        row = {"scheme": name}
        ipcs, paths = [], []
        for mix in mixes:
            result = by_cell[(name, mix)]
            ipcs.append(result.weighted_ipc(by_cell[("baseline", mix)]))
            paths.append(result.engine.avg_path_length)
        row["weighted_ipc"] = sum(ipcs) / len(ipcs)
        row["avg_path"] = sum(paths) / len(paths)
        # the attack column: does MetaLeak recover the exponent?
        victim = RsaVictim.random(n_bits=attack_bits, seed=17)
        attack_engine = cls(attack_config(), seed=11)
        trace = MetaLeakAttack(attack_engine, seed=17).run(victim)
        row["attack_accuracy"] = recover_exponent(trace).accuracy
        rows.append(row)
    return rows


def main(scale="quick", mixes=None) -> list[dict]:
    rows = compute(scale, mixes)
    print_header("Comparators -- global tree designs vs IvLeague "
                 f"(scale={get_scale(scale).name})")
    print(format_table(rows))
    return rows
