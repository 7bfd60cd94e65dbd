"""Tests for the VAULT variable-arity tree comparator."""

import pytest

from repro.secure.bmt import TreeGeometry
from repro.secure.vault import VAULT_ARITIES, VaultEngine
from repro.sim.simulator import Simulator
from repro.workloads.generator import build_workload


def vault_geometry(n: int) -> TreeGeometry:
    """VAULT's tree over ``n`` counter blocks, as :class:`VaultEngine`
    builds it."""
    return TreeGeometry(n, VAULT_ARITIES, region=1 << 44)


class TestVaultGeometry:
    def test_shallower_than_8ary(self):
        n = 1_000_000
        assert vault_geometry(n).height < TreeGeometry(n).height

    def test_path_reaches_root(self):
        g = vault_geometry(10_000)
        path = g.path_to_root(9_999)
        assert path[0].level == 1
        assert path[-1].level == g.height
        assert g.level_sizes[-1] == 1

    def test_variable_arity_applied(self):
        g = vault_geometry(16 * 32 * 64)
        assert g.level_sizes[0] == 32 * 64    # leaf level: arity 16
        assert g.level_sizes[1] == 64         # next: arity 32

    def test_addresses_unique_and_disjoint_from_bmt(self):
        g = vault_geometry(5000)
        bmt = TreeGeometry(5000)
        vault_addrs = {g.node_addr(n) for n in g.path_to_root(0)}
        bmt_addrs = {bmt.node_addr(n) for n in bmt.path_to_root(0)}
        assert vault_addrs.isdisjoint(bmt_addrs)

    def test_bounds_checked(self):
        g = vault_geometry(100)
        with pytest.raises(IndexError):
            g.leaf_for_counter(100)


class TestVaultEngine:
    def test_runs_end_to_end(self, tiny):
        wl = build_workload("t", ["gcc", "x264"], 1500, seed=1, scale=0.03)
        engine = VaultEngine(tiny)
        result = Simulator(tiny, engine).run(wl)
        assert all(c.ipc > 0 for c in result.cores)

    def test_walks_shorter_than_bmt_under_pressure(self, tiny):
        from repro.secure.engine import BaselineEngine
        wl = build_workload("t", ["mcf", "canneal"], 4000, seed=2,
                            scale=0.2)
        bmt = Simulator(tiny, BaselineEngine(tiny),
                        frame_policy="random").run(wl)
        vlt = Simulator(tiny, VaultEngine(tiny),
                        frame_policy="random").run(wl)
        assert vlt.engine.avg_path_length <= bmt.engine.avg_path_length

    def test_upper_overflow_charged(self, tiny):
        engine = VaultEngine(tiny)
        engine.on_domain_start(1)
        for i in range(engine.OVERFLOW_PERIOD + 1):
            engine.handle_writeback(1, 5, i % 64, i * 10.0)
        assert engine.upper_overflows >= 1
