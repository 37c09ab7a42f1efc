"""Shared fixtures for the benchmark suite.

Each ``test_bench_*`` module regenerates one of the paper's tables or
figures at ``smoke`` scale (DESIGN.md §6): the *same code path* as the
quick/full experiment, scaled to seconds so the whole suite runs in
minutes.  Results are printed so a bench run doubles as a smoke-mode
reproduction, and saved under ``results/bench/``.

The ``BENCH_*.json`` legs write into ``results/bench/`` (git-ignored):
the ``BENCH_*.json`` files at the repo root are the committed baselines
``python -m repro.obs.bench check --baseline`` compares a fresh run
against, and no bench run overwrites them.

Run with::

    pytest benchmarks/ --benchmark-only
"""

import os

import numpy as np
import pytest

from repro.graphs import load_dataset, louvain_partition


@pytest.fixture(scope="session")
def cora_smoke():
    """Small Cora twin shared across benches."""
    return load_dataset("cora", seed=0, scale=0.12)


@pytest.fixture(scope="session")
def cora_parts(cora_smoke):
    return louvain_partition(cora_smoke, 3, np.random.default_rng(0)).parts


@pytest.fixture(scope="session")
def bench_dir():
    """Where the legs write ``BENCH_*.json`` (relative to the repo root)."""
    path = os.path.join("results", "bench")
    os.makedirs(path, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def bench_out(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench_results"))
