"""Tests of the benchmark harness itself.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import harness
import run
import workloads
from harness import Probe, Span, Tracer, install, round_profile, self_times, tail_percentile
from repro.federated import FederatedTrainer, TrainerConfig
from repro.graphs import load_dataset

ROOT = Path(__file__).resolve().parents[2]


def _tiny_cora(seed):
    return load_dataset("cora", seed=seed, scale=0.06)


TINY_FEDOMD = workloads.Workload(
    "tiny-fedomd", 3, 1.0, _tiny_cora, workloads._louvain(2, "cora"), workloads._fedomd
)


def _tiny_async(latency_base):
    def make(parts, seed, rounds):
        cfg = TrainerConfig(
            max_rounds=rounds,
            patience=rounds + 1,
            hidden=4,
            engine="async",
            quorum=0.6,
            latency_base=latency_base,
        )
        return FederatedTrainer(parts, cfg, seed=seed)

    return workloads.Workload(
        "tiny-async", 12, 1.0, lambda seed: workloads.loadtest.make_parties(12, seed), None, make
    )


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: [1, 5] is covered once
        Span("a.child", 1.5, 2.5, 1, 0),  # grandchild: only a loses it
        Span("late", 9.0, 12.0, 0, 0),  # clipped to the root's end
    ]
    got = self_times(spans)
    assert got == pytest.approx([10.0 - 4.0 - 1.0, 2.0 - 1.0, 3.0, 1.0, 3.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([Span("x", 2.0, 2.5, -1, None)]) == [0.5]


def test_tracer_nests_and_tags_rounds():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.round = 7
    outer = tr.open("outer")
    inner = tr.open("inner")
    tr.close(inner)
    tr.close(outer)
    assert [(s.name, s.parent, s.round) for s in tr.spans] == [("outer", -1, 7), ("inner", 0, 7)]
    assert self_times(tr.spans) == [2.0, 1.0]
    with pytest.raises(RuntimeError):
        a = tr.open("a")
        tr.open("b")
        tr.close(a)


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [11, 12, 19, 20, 30, 47, 50, 99, 100, 1000])
def test_tail_keeps_at_least_ten_beyond_and_is_the_highest_such(n):
    values = [float(i) for i in range(n)]
    p, value, beyond = tail_percentile(values)
    assert beyond >= 10
    rank = math.ceil(p * n / 100)
    assert value == values[rank - 1] and beyond == n - rank
    # One percentile higher leaves fewer than ten samples beyond.
    assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_of_fifty_rounds_is_p80():
    values = list(np.random.default_rng(0).random(50))
    assert tail_percentile(values) == (80, sorted(values)[39], 10)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_round_profile_takes_each_rounds_median_over_episodes():
    episodes = [[1.0, 5.0, 2.0], [9.0, 4.0, 2.0], [2.0, 6.0, 2.0]]
    assert round_profile(episodes) == [2.0, 5.0, 2.0] * 3


def test_round_profile_drops_a_slowdown_that_hits_one_episode():
    steady = [float(r % 7) for r in range(30)]
    spiked = [t + 100.0 if 10 <= r < 20 else t for r, t in enumerate(steady)]
    profile = round_profile([steady, spiked, steady])
    assert profile == steady * 3
    assert tail_percentile(profile) == tail_percentile(steady * 3)


def test_round_profile_keeps_a_round_slow_in_every_episode():
    episodes = [[1.0] * 29 + [50.0 + e] for e in range(4)]
    profile = round_profile(episodes)
    assert profile.count(51.5) == 4 and len(profile) == 120


def test_round_profile_needs_equal_episodes():
    with pytest.raises(ValueError):
        round_profile([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        round_profile([])


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def _repro_namespace():
    """(holder, attribute) -> object for every function in repro modules and classes."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            if callable(value):
                seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    seen[(f"{name}.{attr}", cattr)] = cvalue
    return seen


def test_install_replaces_every_alias_and_restore_puts_originals_back():
    from repro.autograd import ops_matmul
    from repro.gnn import gcn_conv

    original = ops_matmul.matmul
    assert gcn_conv.matmul is original
    installed = install([Probe(ops_matmul, "matmul", "autograd.matmul")], Tracer())
    try:
        assert ops_matmul.matmul is not original
        assert gcn_conv.matmul is ops_matmul.matmul
    finally:
        installed.restore()
    assert ops_matmul.matmul is original and gcn_conv.matmul is original


def test_missing_probe_target_raises_and_leaves_nothing_installed():
    from repro.autograd import ops_matmul

    before = ops_matmul.matmul
    with pytest.raises(AttributeError):
        install(
            [Probe(ops_matmul, "matmul", "x"), Probe(ops_matmul, "no_such_op", "y")], Tracer()
        )
    assert ops_matmul.matmul is before


def test_every_wrapped_function_is_restored_after_a_traced_episode():
    parts = workloads.setup(TINY_FEDOMD, 0).parts
    workloads.run_episode(TINY_FEDOMD, parts, 0, traced=False)  # load lazy imports
    before = _repro_namespace()
    ep = workloads.run_episode(TINY_FEDOMD, parts, 0, traced=True)
    assert ep.layers and ep.last_round, "the traced episode recorded no spans"
    after = _repro_namespace()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []


# ----------------------------------------------------------------------
# correctness checks
# ----------------------------------------------------------------------
def test_traced_and_untraced_episodes_agree_and_pass_every_check():
    parts = workloads.setup(TINY_FEDOMD, 0).parts
    plain = workloads.run_episode(TINY_FEDOMD, parts, 0, traced=False)
    traced = workloads.run_episode(TINY_FEDOMD, parts, 0, traced=True)
    assert plain.digest == traced.digest
    checks = run.checks_of([workloads.setup(TINY_FEDOMD, 0)], [plain], [traced])
    assert checks and all(checks.values()), checks
    assert plain.steps == 2 * TINY_FEDOMD.rounds


def test_a_wrong_exchange_fails_the_moment_check(monkeypatch):
    from repro.core.exchange import MomentExchange

    monkeypatch.setattr(
        MomentExchange, "_perturb_statistic", lambda self, stat, n_i: stat * (1 + 1e-9)
    )
    parts = workloads.setup(TINY_FEDOMD, 0).parts
    ep = workloads.run_episode(TINY_FEDOMD, parts, 0, traced=False)
    assert ep.checks["first_round_moments_pooled"] is False


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------
def test_async_round_time_is_wall_clock_not_virtual():
    # A 60-virtual-second latency makes RoundRecord.wall_time huge while
    # the rounds themselves take milliseconds of real time.
    wl = _tiny_async(latency_base=60.0)
    parts = workloads.setup(wl, 0).parts
    t0 = time.perf_counter()
    ep = workloads.run_episode(wl, parts, 0, traced=False)
    elapsed = time.perf_counter() - t0
    assert ep.rounds == wl.rounds
    assert ep.virtual_s / ep.rounds >= 10.0
    assert sum(ep.round_times) <= elapsed
    metrics, _ = run.end_to_end([workloads.setup(wl, 0)], [ep])
    assert metrics["round_s"]["value"] < 1.0
    assert metrics["round_s"]["value"] == harness.median(ep.round_times)


# ----------------------------------------------------------------------
# declared metrics
# ----------------------------------------------------------------------
def test_printed_metric_names_and_units_equal_the_declared_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    setups = [workloads.setup(TINY_FEDOMD, 0)]
    parts = setups[0].parts
    plain = [workloads.run_episode(TINY_FEDOMD, parts, 0, traced=False) for _ in range(4)]
    traced = [workloads.run_episode(TINY_FEDOMD, parts, 0, traced=True)]
    e2e, _ = run.end_to_end(setups, plain)
    layers = run.per_layer(setups, plain, traced)
    assert set(e2e) == {m["name"] for m in declared["end_to_end"]}
    assert set(layers) == {m["name"] for m in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    assert {k: v["unit"] for k, v in {**e2e, **layers}.items()} == units


def test_every_declared_metric_states_unit_and_direction():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert m["unit"] and m["better"] in ("lower", "higher"), m
    for m in declared["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert set(declared["workloads"][i]["name"] for i in range(len(declared["workloads"]))) == set(
        workloads.WORKLOADS
    )
