"""Table I: architecture configuration dump (paper vs scaled)."""

from __future__ import annotations

from repro.experiments.common import format_table, print_header
from repro.sim.config import MachineConfig, paper_config, scaled_config


def _describe(cfg: MachineConfig) -> dict[str, str]:
    iv, sec = cfg.ivleague, cfg.secure
    return {
        "Processor": f"{cfg.n_cores} OoO x86 cores "
                     f"(CPI {cfg.core.base_cpi}, MLP {cfg.core.mlp})",
        "L1 / L2": f"{cfg.core.l1.size_bytes // 1024}KB {cfg.core.l1.assoc}-way"
                   f" / {cfg.core.l2.size_bytes // 1024}KB "
                   f"{cfg.core.l2.assoc}-way",
        "LLC": f"{cfg.llc.size_bytes // 1024}KB {cfg.llc.assoc}-way, "
               f"{cfg.llc.hit_latency}-cycle hit"
               + (", randomized (MIRAGE)" if cfg.llc.randomized else ""),
        "Crypto engine": f"{sec.aes_latency}-cycle AES, "
                         f"{sec.hash_latency}-cycle hash",
        "Main memory": f"{cfg.memory_bytes // 1024 ** 3}GB, "
                       f"{cfg.dram.channels} channels, "
                       f"{cfg.dram.ranks_per_channel} ranks/channel",
        "Enc. counter": f"{sec.major_counter_bits}-bit major, "
                        f"{sec.minor_counter_bits}-bit minor",
        "MAC": f"{sec.mac_bytes} byte per block",
        "Integrity tree": "8-ary Bonsai Merkle Tree",
        "Metadata cache": f"{sec.counter_cache.size_bytes // 1024}KB counter"
                          f" + {sec.tree_cache.size_bytes // 1024}KB tree, "
                          f"{sec.tree_cache.assoc}-way",
        "LMM cache": f"{iv.lmm_entries} entries, {iv.lmm_assoc}-way",
        "NFLB": f"{iv.nflb_entries} entries per domain",
        "TreeLing": f"{iv.treeling_bytes // 1024 ** 2}MB "
                    f"(height {iv.treeling_height}); "
                    f"pool of {iv.n_treelings}",
        "Max IV domains": str(iv.max_domains),
        "Hotpage tracker": f"{iv.hot_tracker_entries} entries, "
                           f"{iv.hot_counter_bits}-bit counters, "
                           f"threshold {iv.hot_threshold}",
    }


def compute() -> list[dict]:
    paper, scaled = _describe(paper_config()), _describe(scaled_config())
    return [{"parameter": k, "paper": paper[k], "scaled": scaled[k]}
            for k in paper]


def main() -> list[dict]:
    rows = compute()
    print_header("Table I -- Architecture configurations")
    print(format_table(rows))
    return rows
