"""The three benchmark workloads and how one training episode is measured.

Each workload builds its parties (the fixed Cora or Citeseer twin cut
into Louvain parties, or a fleet of tiny SBM parties drawn from
``--seed``) and a trainer, seeded with ``--seed``, that sees only those
parties.  An *episode* is one ``trainer.run()`` of a fixed
number of rounds on a freshly built trainer; every episode of a run
repeats the same trajectory, which the digest check relies on.  See
``perfbench/README.md`` for why these three were chosen.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import ops_basic, ops_matmul
from repro.autograd.tensor import Tensor
from repro.baselines import FedGCNTrainer
import repro.core.cmd as core_cmd
from repro.core import FedOMDConfig, FedOMDTrainer
from repro.core.exchange import MomentExchange, pooled_central_moments
from repro.experiments import loadtest
from repro.experiments.configs import LOADTEST_HIDDEN, LOADTEST_QUORUM, paper_resolution
from repro.federated import Client, Communicator, FederatedTrainer, TrainerConfig, VirtualClock
from repro.federated import async_engine, server
from repro.federated.comm import KIND_MEANS, KIND_MOMENTS
from repro.gnn import GCN, OrthoGCN
from repro.graphs import load_dataset, louvain_partition
from repro.nn import Adam

from harness import Probe, Span, Tracer, digest, install, nearest_ancestor, self_times

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """Inputs from a seed, and the trainer that runs on them."""

    name: str
    #: rounds per episode; early stopping never fires within them
    rounds: int
    #: one untraced episode's wall seconds on the reference 2-CPU machine;
    #: sets how many episodes fill ``--seconds``
    episode_seconds: float
    generate: Callable[[int], Any]
    #: ``None`` when ``generate`` already yields the parties
    partition: Optional[Callable[[Any, int], list]]
    make_trainer: Callable[[list, int, int], FederatedTrainer]


#: Generator seed of the Cora and Citeseer twins and of their Louvain cut.
#: The twin stands in for the fixed published dataset, so it does not
#: follow ``--seed``, which seeds the trainer instead (initialisation,
#: dropout).  On Louvain cuts drawn from other seeds FedOMD leaves the
#: majority-class plateau anywhere between round 10 and round 80: over
#: eight cut seeds final test accuracy after 40 rounds ranged 0.30-0.63
#: (0.43-0.77 after 80), while over eight trainer seeds on this cut it
#: stays within 0.54-0.60.  See perfbench/README.md.
TWIN_SEED = 0


def _twin(dataset: str) -> Callable[[int], Any]:
    def generate(seed: int):
        return load_dataset(dataset, seed=TWIN_SEED)

    return generate


def _louvain(num_parties: int, dataset: str) -> Callable[[Any, int], list]:
    def cut(graph, seed: int) -> list:
        rng = np.random.default_rng(TWIN_SEED)
        return louvain_partition(
            graph, num_parties, rng, resolution=paper_resolution(dataset)
        ).parts

    return cut


def _fedomd(parts: list, seed: int, rounds: int) -> FederatedTrainer:
    cfg = FedOMDConfig(
        max_rounds=rounds,
        patience=rounds + 1,
        hidden=64,
        alpha=0.0005,
        beta=0.01,
        num_hidden=2,
        orders=(2, 3, 4, 5),
        engine="barrier",
        num_workers=1,
    )
    return FedOMDTrainer(parts, cfg, seed=seed)


def _fedgcn(parts: list, seed: int, rounds: int) -> FederatedTrainer:
    cfg = TrainerConfig(
        max_rounds=rounds, patience=rounds + 1, hidden=64, engine="barrier", num_workers=1
    )
    return FedGCNTrainer(parts, cfg, seed=seed)


def _sbm_fleet(seed: int) -> list:
    return loadtest.make_parties(1000, seed)


def _async_fedavg(parts: list, seed: int, rounds: int) -> FederatedTrainer:
    cfg = TrainerConfig(
        max_rounds=rounds,
        patience=rounds + 1,
        hidden=LOADTEST_HIDDEN,
        engine="async",
        quorum=LOADTEST_QUORUM,
        sample_weighted=True,
        num_workers=1,
    )
    return FederatedTrainer(parts, cfg, seed=seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fedomd-cora-p5", 40, 15.0, _twin("cora"), _louvain(5, "cora"), _fedomd),
        Workload(
            "fedgcn-citeseer-p9", 30, 10.0, _twin("citeseer"), _louvain(9, "citeseer"), _fedgcn
        ),
        Workload("async-sbm-c1000", 30, 6.0, _sbm_fleet, None, _async_fedavg),
    )
}


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
@dataclass
class Setup:
    parts: list
    #: seconds: generate, partition, trainer_init and their total
    times: Dict[str, float]
    inputs_digest: str


def inputs_digest(parts: Sequence) -> str:
    """Hash of every party's features, adjacency, labels and masks."""
    h = hashlib.blake2b(digest_size=16)
    for g in parts:
        for arr in (g.x, g.adj.indptr, g.adj.indices, g.adj.data, g.y,
                    g.train_mask, g.val_mask, g.test_mask):
            a = np.ascontiguousarray(arr)
            h.update(str((a.dtype, a.shape)).encode())
            h.update(a.tobytes())
    return h.hexdigest()


def setup(workload: Workload, seed: int) -> Setup:
    """Generate, partition and build one trainer, timing each step."""
    t0 = clock()
    raw = workload.generate(seed)
    t1 = clock()
    parts = workload.partition(raw, seed) if workload.partition is not None else raw
    t2 = clock()
    workload.make_trainer(parts, seed, workload.rounds)
    t3 = clock()
    times = {"generate": t1 - t0, "partition": t2 - t1, "trainer_init": t3 - t2, "total": t3 - t0}
    return Setup(parts, times, inputs_digest(parts))


# ----------------------------------------------------------------------
# one episode
# ----------------------------------------------------------------------
ROUND = "federated.round"

#: span name -> round phase; the topmost of these spans is the phase time
PHASES = {
    "federated.begin_round": "exchange",
    "federated.train_step": "train",
    "federated.aggregate": "aggregate",
    "federated.fedavg": "aggregate",
    "federated.fold_arrivals": "aggregate",
    "federated.evaluate": "eval",
}
COMM = "federated.comm"


@dataclass
class Episode:
    """What one ``trainer.run()`` produced, measured on the benchmark's clock."""

    #: wall seconds per round, from the round-boundary probes
    round_times: List[float]
    digest: str
    final_test_acc: float
    steps: int
    bad_steps: int
    #: metered traffic of the rounds (initial W0 broadcast excluded)
    bytes_by_kind: Dict[str, int]
    messages: int
    virtual_s: float
    late_updates: int
    matmul_flops: float
    matmul_useful_flops: float
    #: traced only: per-layer sums over the rounds (see :func:`summarise`)
    layers: Dict[str, float] = field(default_factory=dict)
    #: traced only: calls, total and self seconds per span name
    span_table: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: traced only: every span of the last round, parents re-indexed
    last_round: List[dict] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return len(self.round_times)


def _array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _is_constant(x) -> bool:
    return not (isinstance(x, Tensor) and x.requires_grad)


def _moments_match(captured: Dict[str, Any], rtol: float = 1e-12) -> bool:
    """The exchange's first GlobalMoments against the pooled oracle.

    Relative per statistic: the largest absolute difference over the
    largest magnitude of the pooled value.
    """
    got = captured["result"]
    want = pooled_central_moments(captured["hidden"], got.orders)

    def close(a, b) -> bool:
        a, b = np.asarray(a), np.asarray(b)
        scale = float(np.max(np.abs(b))) if b.size else 0.0
        return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= rtol * scale

    if len(got.means) != len(want.means):
        return False
    for l in range(len(want.means)):
        if not close(got.means[l], want.means[l]):
            return False
        for a, b in zip(got.moments[l], want.moments[l]):
            if not close(a, b):
                return False
    return True


def _stat_bytes_match(trainer: FederatedTrainer, bytes_by_kind: Dict[str, int]) -> bool:
    """FedOMD: measured statistics bytes equal the closed form; others move none."""
    if isinstance(trainer, FedOMDTrainer):
        report = trainer.statistics_bytes_last_round()
        return (
            report["statistics_bytes_per_round_measured"]
            == report["statistics_bytes_per_round_approx"]
        )
    return bytes_by_kind.get(KIND_MEANS, 0) + bytes_by_kind.get(KIND_MOMENTS, 0) == 0


def run_episode(workload: Workload, parts: list, seed: int, traced: bool) -> Episode:
    """One trainer run under the probes; the originals are restored after."""
    # The previous episode's trainer is garbage by now; collecting it here
    # keeps its cleanup out of this episode's rounds.
    gc.collect()
    trainer = workload.make_trainer(parts, seed, workload.rounds)
    tracer = Tracer(clock)
    state = {"round": 0, "open": -1, "steps": 0, "bad": 0, "late": 0,
             "flops": 0.0, "useful": 0.0, "exchange": None}

    def round_start(args, kwargs, result) -> None:
        tracer.round = state["round"]
        state["open"] = tracer.open(ROUND)

    def round_end(args, kwargs, result) -> None:
        tracer.close(state["open"])
        tracer.round = None
        state["round"] += 1

    def train_step(args, kwargs, loss) -> None:
        client = args[0]
        state["steps"] += 1
        if not math.isfinite(loss) and client.has_train_nodes():
            state["bad"] += 1

    def exchange(args, kwargs, result) -> None:
        if state["exchange"] is None:
            state["exchange"] = {"hidden": args[1], "result": result}

    def fold(args, kwargs, result) -> None:
        state["late"] += sum(1 for _, stale in result.kept if stale > 0)

    # The parties' feature matrices are the big constant operands; count
    # their nonzeros once instead of on every traced matmul.
    feature_nnz = {id(g.x): (g.x, np.count_nonzero(g.x)) for g in parts} if traced else {}

    def density(arr: np.ndarray) -> float:
        known = feature_nnz.get(id(arr))
        nnz = known[1] if known is not None and known[0] is arr else np.count_nonzero(arr)
        return nnz / max(arr.size, 1)

    def matmul(args, kwargs, result) -> None:
        a, b = args[0], args[1]
        da, db = _array(a), _array(b)
        total = 2.0 * da.shape[0] * da.shape[1] * db.shape[1]
        if _is_constant(a):
            useful = total * density(da)
        elif _is_constant(b):
            useful = total * density(db)
        else:
            useful = total
        state["flops"] += total
        state["useful"] += useful

    begin_owner = next(c for c in type(trainer).__mro__ if "begin_round" in vars(c))
    # Each round starts with _sample_participants and ends with
    # _maybe_checkpoint on both engines, so these two bracket it exactly.
    probes = [
        Probe(FederatedTrainer, "_sample_participants", observe=round_start),
        Probe(FederatedTrainer, "_maybe_checkpoint", observe=round_end),
        Probe(Client, "train_step", "federated.train_step" if traced else None, train_step),
        Probe(MomentExchange, "run", "core.moment_exchange" if traced else None, exchange),
    ]
    if traced:
        probes += [
            Probe(begin_owner, "begin_round", "federated.begin_round"),
            Probe(FederatedTrainer, "aggregate", "federated.aggregate"),
            Probe(server, "fedavg", "federated.fedavg"),
            Probe(async_engine, "fold_arrivals", "federated.fold_arrivals", fold),
            Probe(FederatedTrainer, "evaluate", "federated.evaluate"),
            Probe(GCN, "forward_with_hidden", "gnn.forward"),
            Probe(OrthoGCN, "forward_with_hidden", "gnn.forward"),
            Probe(ops_matmul, "matmul", "autograd.matmul", matmul),
            Probe(ops_matmul, "spmm", "autograd.spmm"),
            Probe(ops_basic, "power", "autograd.power"),
            Probe(Tensor, "backward", "autograd.backward"),
            Probe(Adam, "step", "nn.adam_step"),
            Probe(core_cmd, "layerwise_cmd", "core.cmd"),
        ]
        probes += [
            Probe(Communicator, attr, COMM)
            for attr in ("send_to_server", "send_to_client", "broadcast", "gather", "allgather")
        ]

    before = trainer.comm.snapshot()
    installed = install(probes, tracer)
    try:
        history = trainer.run()
    finally:
        installed.restore()
    traffic = trainer.comm.snapshot() - before
    final_acc = trainer.final_test_accuracy()
    bytes_by_kind = {k: traffic.kind_total_bytes(k) for k in traffic.by_kind}
    spans = tracer.spans
    rounds = [sp.duration for sp in spans if sp.name == ROUND]
    virtual = trainer.clock.elapsed if isinstance(trainer.clock, VirtualClock) else 0.0
    episode = Episode(
        round_times=rounds,
        digest=digest(history, final_acc),
        final_test_acc=final_acc,
        steps=state["steps"],
        bad_steps=state["bad"],
        bytes_by_kind=bytes_by_kind,
        messages=traffic.uplink_messages + traffic.downlink_messages,
        virtual_s=virtual,
        late_updates=state["late"],
        matmul_flops=state["flops"],
        matmul_useful_flops=state["useful"],
    )
    if traced:
        episode.layers, episode.span_table, episode.last_round = summarise(spans)
    episode.checks = {
        "losses_finite": state["bad"] == 0,
        "rounds_completed": len(rounds) == workload.rounds == len(history),
        "statistics_bytes_closed_form": _stat_bytes_match(trainer, bytes_by_kind),
    }
    if isinstance(trainer, FedOMDTrainer):
        episode.checks["first_round_moments_pooled"] = (
            state["exchange"] is not None and _moments_match(state["exchange"])
        )
    return episode


# ----------------------------------------------------------------------
# per-layer numbers from the spans of a traced episode
# ----------------------------------------------------------------------
def summarise(spans: Sequence[Span]) -> tuple:
    """Per-layer sums over the rounds, a per-name table, the last round.

    Phase times come from the topmost phase span (``fedavg`` inside
    ``aggregate`` counts once); forward passes are split by the phase
    that called them; communication counts the outermost transfer.
    """
    layers: Dict[str, float] = {}
    table: Dict[str, Dict[str, float]] = {}

    def add(key: str, value: float) -> None:
        layers[key] = layers.get(key, 0.0) + value

    for i, (sp, own) in enumerate(zip(spans, self_times(spans))):
        row = table.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += sp.duration
        row["self_s"] += own
        if sp.round is None:
            continue
        if sp.name == ROUND:
            add("round", sp.duration)
            continue
        outer_phase = nearest_ancestor(spans, i, PHASES)
        if sp.name in PHASES and outer_phase is None:
            add(f"phase.{PHASES[sp.name]}", sp.duration)
        if sp.name == "gnn.forward":
            add("gnn.forward.calls", 1)
            add(f"gnn.forward.{outer_phase}", sp.duration)
        elif sp.name == COMM:
            if nearest_ancestor(spans, i, {COMM: COMM}) is None:
                add(COMM, sp.duration)
        else:
            add(sp.name, sp.duration)
            add(f"{sp.name}.calls", 1)

    last = max((sp.round for sp in spans if sp.round is not None), default=None)
    keep = [i for i, sp in enumerate(spans) if sp.round is not None and sp.round == last]
    index = {old: new for new, old in enumerate(keep)}
    last_round = [
        {
            "name": spans[i].name,
            "start": spans[i].start,
            "end": spans[i].end,
            "parent": index.get(spans[i].parent, -1),
            "round": last,
        }
        for i in keep
    ]
    return layers, table, last_round
