"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.sim.config import scaled_config, tiny_config


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep every test hermetic with respect to the persistent result
    cache: redirect it to a per-test temp dir (so no test reads stale
    results from, or writes into, the repo's .cache/runs) and reset the
    runner's in-process policy and the shared-workload cache
    afterwards."""
    from repro.experiments import parallel, runner
    from repro.workloads import mixes
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(tmp_path / "runs"))
    runner.configure(jobs=1, cache_dir=str(tmp_path / "runs"),
                     use_cache=True)
    yield
    runner.clear_cache()
    mixes._shared_build.cache_clear()


@pytest.fixture
def tiny():
    """Small machine: interesting cache events happen within a few
    hundred accesses."""
    return tiny_config(n_cores=2)


@pytest.fixture
def tiny4():
    return tiny_config(n_cores=4)


@pytest.fixture
def scaled():
    return scaled_config(n_cores=4)
