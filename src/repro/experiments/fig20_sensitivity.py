"""Fig. 20: sensitivity to TreeLing size and IV metadata cache size.

(a) TreeLing size sweep (paper: 8/64/512MB; scaled here to heights
    3/4/5 = 2/16/128MB).  Paper: the middle size wins -- small TreeLings
    lock too many on-chip blocks (cache thrashing), large ones lock too
    few levels (more in-memory tree misses).
(b) Metadata cache size sweep (paper: 64KB-1MB around the 256KB
    default; scaled: 8KB-128KB around 32KB).  Paper: diminishing returns
    past the default.

Both normalized to IvLeague-Basic at the default configuration.  Every
configuration variant is an independent cell — the whole sweep (3
schemes x N mixes x N variants, plus the references) is batched through
the parallel runner, which is where fan-out pays off most: nothing here
shares in-process state.
"""

from __future__ import annotations

from repro.experiments import runner
from repro.experiments.common import format_table, get_scale, print_header
from repro.experiments.parallel import scale_cell
from repro.sim.config import CacheConfig, scaled_config
from repro.sim.stats import geomean

IV_SCHEMES = ["ivleague-basic", "ivleague-invert", "ivleague-pro"]
DEFAULT_MIXES = ["S-2", "M-1", "L-2"]

#: TreeLing height -> (coverage label, pool size keeping total coverage).
TREELING_SWEEP = {3: "2MB", 4: "16MB", 5: "128MB"}
CACHE_SWEEP_KB = [8, 16, 32, 64, 128]


def _sweep(sc, mixes, variants: list[tuple[object, object]],
           frame_policy=None) -> dict:
    """Run reference + (variant-config x scheme x mix) cells in one
    batch; returns ``{(variant_id, scheme, mix): ipc_sum}`` plus the
    per-mix reference under ``("ref", mix)``."""
    base_cfg = scaled_config(n_cores=sc.n_cores)
    cells, tags = [], []
    for mix in mixes:
        cells.append(scale_cell(mix, "ivleague-basic", sc,
                                frame_policy=frame_policy,
                                config=base_cfg))
        tags.append(("ref", mix))
    for vid, cfg in variants:
        for scheme in IV_SCHEMES:
            for mix in mixes:
                cells.append(scale_cell(mix, scheme, sc,
                                        frame_policy=frame_policy,
                                        config=cfg))
                tags.append((vid, scheme, mix))
    outcomes = runner.run_cells(cells)
    return {tag: sum(result.ipcs)
            for tag, result in zip(tags, outcomes)}


def compute_treeling_size(scale="quick", mixes=None) -> list[dict]:
    sc = get_scale(scale)
    mixes = list(mixes or DEFAULT_MIXES)
    base_cfg = scaled_config(n_cores=sc.n_cores)
    variants = []
    pools = {}
    for height in TREELING_SWEEP:
        # Keep total TreeLing coverage constant across the sweep.
        n_tl = max(64, base_cfg.ivleague.n_treelings
                   * 8 ** (base_cfg.ivleague.treeling_height - height))
        pools[height] = n_tl
        variants.append((height, base_cfg.with_ivleague(
            treeling_height=height, n_treelings=n_tl)))
    ipc = _sweep(sc, mixes, variants)
    rows = []
    for height, label in TREELING_SWEEP.items():
        row = {"treeling": label, "height": height, "pool": pools[height]}
        for scheme in IV_SCHEMES:
            row[scheme] = geomean([
                ipc[(height, scheme, m)] / ipc[("ref", m)] for m in mixes])
        rows.append(row)
    return rows


def compute_cache_size(scale="quick", mixes=None) -> list[dict]:
    sc = get_scale(scale)
    mixes = list(mixes or DEFAULT_MIXES)
    base_cfg = scaled_config(n_cores=sc.n_cores)
    variants = []
    for kb in CACHE_SWEEP_KB:
        cache = CacheConfig(kb * 1024, 8, hit_latency=8, randomized=True)
        variants.append((kb, base_cfg.with_secure(tree_cache=cache,
                                                  counter_cache=cache)))
    ipc = _sweep(sc, mixes, variants)
    rows = []
    for kb in CACHE_SWEEP_KB:
        row = {"metadata_cache": f"{kb}KB"}
        for scheme in IV_SCHEMES:
            row[scheme] = geomean([
                ipc[(kb, scheme, m)] / ipc[("ref", m)] for m in mixes])
        rows.append(row)
    return rows


def main(scale="quick", mixes=None):
    a = compute_treeling_size(scale, mixes)
    print_header(f"Fig. 20a -- TreeLing size sensitivity "
                 f"(scale={get_scale(scale).name}, IPC vs default Basic)")
    print(format_table(a))
    b = compute_cache_size(scale, mixes)
    print_header("Fig. 20b -- IV metadata cache size sensitivity")
    print(format_table(b))
    return a, b
