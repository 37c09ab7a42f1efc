"""The synchronous federated training loop.

:class:`FederatedTrainer` implements the three-phase protocol of §3
(Figure 2): distribute global model → local training → aggregate.
Algorithm subclasses (FedOMD in :mod:`repro.core.fedomd`, baselines in
:mod:`repro.baselines`) override five hooks:

* :meth:`build_model` — the local architecture.
* :meth:`local_loss` — the per-step objective (default: cross-entropy).
* :meth:`begin_round` — pre-round communication (FedOMD's 2-round
  moment exchange, SCAFFOLD's control-variate download, …).
* :meth:`aggregate` — server combination (default: sample-weighted
  FedAvg; LocGCN returns ``None`` to skip aggregation entirely).
* :meth:`eval_logits` — the stacked evaluation logits of one group of
  identically-weighted clients over the union of their graphs (FedLIT
  feeds its per-type adjacencies instead).

The loop runs ``max_rounds`` communication rounds with
``local_epochs`` optimizer steps per client per round (the paper's
communication interval of 1 means one local epoch per round), evaluates
the node-weighted cross-party accuracy every round — one forward per
group of clients with bitwise-identical weights, over the union of their
graphs — and early-stops on validation accuracy with the paper's
patience of 200.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.federated.client import Client
from repro.federated.clock import Clock, SystemClock, VirtualClock
from repro.federated.comm import Communicator, KIND_WEIGHTS
from repro.federated.executor import ClientExecutor
from repro.federated.faults import (
    ClientDropped,
    FaultInjector,
    FaultPlan,
    FaultingExecutor,
    FaultyCommunicator,
    ResiliencePolicy,
    payload_is_finite,
)
from repro.federated.history import RoundRecord, TrainingHistory
from repro.federated.server import fedavg
from repro.graphs.data import Graph
from repro.graphs.union import GraphUnion
from repro.nn.module import Module
from repro.obs import get_registry, get_tracer


def _node_weighted(accs: np.ndarray, counts: np.ndarray) -> float:
    """Node-weighted mean of per-party accuracies over the parties with ``counts > 0``."""
    scored = counts > 0
    if not scored.any():
        return float("nan")
    return float(np.average(accs[scored], weights=counts[scored]))


#: How many trailing bytes of a client's parameters key its bucket.
_KEY_TAIL = 64
#: Buffers up to this many bytes are compared as ``bytes`` copies (a few
#: hundred ns); larger ones word by word in place, which costs no copy.
_COPY_COMPARE_BYTES = 1 << 15


def _same_words(a: np.ndarray, b: np.ndarray) -> bool:
    """Equality of two uint64 buffers of one layout."""
    if a.nbytes <= _COPY_COMPARE_BYTES:
        return a.tobytes() == b.tobytes()
    return bool(np.array_equal(a, b))


def _param_layout(client: Client) -> tuple:
    """A client's parameter shapes, its key (last real bytes) and its flat buffer as words."""
    opt = client.optimizer
    flat, end = opt.flat, opt.flat_end
    return (
        tuple(p.shape for p in opt.params),
        flat[max(end - _KEY_TAIL // 8, 0) : end],
        flat.view(np.uint64),
    )


def _weight_groups(clients: Sequence[Client], layouts: Dict[Client, tuple]) -> List[List[int]]:
    """Positions of ``clients`` grouped by bitwise-identical parameters.

    Groups come in order of first appearance, members in client order.
    Every client's parameters live in its optimizer's flat float64
    buffer (:mod:`repro.nn.optim`), whose padding is always ``+0.0``.
    A client is bucketed by its parameter shapes and the last
    ``_KEY_TAIL`` bytes of its parameters, so grouping is one cheap dict
    lookup per client, and joins the bucket's group whose first member's
    buffer is equal as uint64 words (so ``-0.0`` differs from ``0.0``
    and NaN matches its bits).  ``layouts`` caches each client's
    :func:`_param_layout` across calls: the optimizer raises on its next
    step if a ``Parameter.data`` is rebound, so the cached buffer stays
    the live one.
    """
    buckets: Dict[tuple, List[tuple]] = {}
    groups: List[List[int]] = []
    for pos, client in enumerate(clients):
        layout = layouts.get(client)
        if layout is None:
            layout = layouts[client] = _param_layout(client)
        shapes, tail, words = layout
        bucket = buckets.setdefault((shapes, tail.tobytes()), [])
        for rep_words, members in bucket:
            if _same_words(rep_words, words):
                members.append(pos)
                break
        else:
            bucket.append((words, [pos]))
            groups.append(bucket[-1][1])
    return groups


class _EvalIndex:
    """What evaluation reads of the fleet, built once: its graphs and split sizes.

    ``fleet`` is the :class:`GraphUnion` of every party graph, in client
    order; each weight group's union is selected out of it.  ``layouts``
    is :func:`_weight_groups`' per-client cache.
    """

    def __init__(self, clients: Sequence[Client]) -> None:
        self.fleet = GraphUnion([c.graph for c in clients])
        self.layouts: Dict[Client, tuple] = {}
        self._counts: Dict[str, np.ndarray] = {}

    def counts(self, split: str) -> np.ndarray:
        """Each party's node count in ``split``; ``ValueError`` if a party lacks the mask."""
        if split not in self._counts:
            mask = getattr(self.fleet, f"{split}_mask")
            if mask is None:
                raise ValueError(f"graph has no {split}_mask")
            self._counts[split] = np.bincount(
                self.fleet.owner[mask], minlength=len(self.fleet.parts)
            )
        return self._counts[split]


@dataclass
class TrainerConfig:
    """Hyper-parameters of a federated run (paper defaults, §5.1)."""

    max_rounds: int = 1000
    local_epochs: int = 1  # communication interval 1
    patience: int = 200
    lr: float = 0.02
    weight_decay: float = 1e-4
    hidden: int = 64
    eval_every: int = 1
    sample_weighted: bool = True  # λ_i ∝ n_i in FedAvg
    # Fraction of clients sampled per round (1.0 = full participation,
    # the paper's setting).  Lower values simulate stragglers/dropouts —
    # unsampled clients neither train nor contribute to aggregation
    # that round, the standard McMahan et al. client-sampling model.
    participation_rate: float = 1.0
    # Abort-and-skip guard: when a client's local loss goes non-finite
    # (divergence), its step is rolled back instead of poisoning FedAvg.
    nan_guard: bool = True
    # Worker threads for per-client work (local training, evaluation,
    # moment-exchange forwards).  1 = serial (default), 0 = one per CPU.
    # Parallel and serial runs produce identical training metrics; see
    # repro.federated.executor for the determinism contract.
    num_workers: int = 1
    # ---- resilience policy (see repro.federated.faults) ----------------
    # Per-client round deadline in seconds; a client that cannot answer
    # within it is retried (below) and then excluded from the round.
    # None = wait forever (stragglers slow the round but never fail).
    client_timeout: Optional[float] = None
    # Retries (with exponential-free fixed backoff) after a timeout.
    client_retries: int = 0
    retry_backoff: float = 0.0
    # Server-side quarantine: uploads containing NaN/inf are excluded
    # from FedAvg (and their n_i removed from the denominator) instead
    # of poisoning the global model.
    quarantine_nonfinite: bool = True
    # ---- checkpoint/resume ---------------------------------------------
    # Save a full trainer checkpoint every N rounds (0 = off) into
    # checkpoint_dir; FederatedTrainer.resume() restores it so the
    # continued run is bitwise-identical to an uninterrupted one.
    checkpoint_every: int = 0
    checkpoint_dir: Optional[str] = None
    # ---- runtime sanitizers (see repro.analysis.sanitize) ---------------
    # Arm the autograd sanitizer (in-place-mutation, NaN/Inf and dtype
    # tripwires with op provenance) and, when num_workers > 1, the
    # lock-ownership probes on Communicator/MetricsRegistry.  Sanitized
    # runs are bitwise identical to unsanitized ones — the probes only
    # read values — they just fail loudly instead of training through
    # corrupted state.
    sanitize: bool = False
    # ---- round engine (see repro.federated.async_engine) -----------------
    # "barrier": the synchronous loop below — every round waits for all
    # its participants.  "async": the event-driven engine on a seeded
    # virtual clock — the server aggregates once `quorum` of the round's
    # dispatched clients have reported; late reports fold into later
    # rounds staleness-weighted.  At quorum=1.0 with no churn the async
    # engine reproduces the barrier trajectory bitwise.
    engine: str = "barrier"
    # Fraction of dispatched clients whose uploads a round waits for.
    quorum: float = 1.0
    # λ_i ∝ n_i · staleness_decay^s for an update s model versions old.
    staleness_decay: float = 0.5
    # Updates older than this many versions are discarded outright.
    max_staleness: int = 8
    # FedProx-style proximal pull of stale updates toward the current
    # global model, strength μ·s/(1+μ·s); exact no-op at s=0.
    prox_mu: float = 0.1
    # Simulated report latency (virtual seconds): duration drawn per
    # (round, client) as base·(1 + jitter·U[0,1)) from a seeded stream.
    latency_base: float = 0.05
    latency_jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_rounds < 1 or self.local_epochs < 1:
            raise ValueError("max_rounds and local_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 < self.participation_rate <= 1.0:
            raise ValueError("participation_rate must be in (0, 1]")
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0 (0 = auto)")
        if self.client_timeout is not None and self.client_timeout <= 0:
            raise ValueError("client_timeout must be positive (or None)")
        if self.client_retries < 0 or self.retry_backoff < 0:
            raise ValueError("client_retries and retry_backoff must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 = off)")
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ValueError("checkpoint_every needs a checkpoint_dir")
        if self.engine not in ("barrier", "async"):
            raise ValueError(f"engine must be 'barrier' or 'async', got {self.engine!r}")
        if not 0.0 < self.quorum <= 1.0:
            raise ValueError("quorum must be in (0, 1]")
        if not 0.0 < self.staleness_decay <= 1.0:
            raise ValueError("staleness_decay must be in (0, 1]")
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        if self.prox_mu < 0:
            raise ValueError("prox_mu must be >= 0")
        if self.latency_base < 0 or self.latency_jitter < 0:
            raise ValueError("latency_base and latency_jitter must be >= 0")


class FederatedTrainer:
    """Base trainer = FedAvg over whatever :meth:`build_model` returns."""

    name = "fedavg"

    def __init__(
        self,
        parts: Sequence[Graph],
        config: Optional[TrainerConfig] = None,
        seed: int = 0,
        faults: Optional[FaultPlan] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        if not parts:
            raise ValueError("need at least one party")
        self.config = config or TrainerConfig()
        self.seed = seed
        # The async engine *requires* virtual time (arrival order is part
        # of the trajectory); the barrier engine defaults to real time but
        # accepts a VirtualClock so fault drills stop paying wall-clock.
        if clock is not None:
            self.clock = clock
        elif self.config.engine == "async":
            self.clock = VirtualClock()
        else:
            self.clock = SystemClock()
        self.executor = ClientExecutor(self.config.num_workers)
        if faults is not None:
            policy = ResiliencePolicy(
                client_timeout=self.config.client_timeout,
                client_retries=self.config.client_retries,
                retry_backoff=self.config.retry_backoff,
            )
            self.injector: Optional[FaultInjector] = FaultInjector(
                faults, policy, clock=self.clock
            )
            self.comm: Communicator = FaultyCommunicator(len(parts), self.injector)
            self.fault_executor: Optional[FaultingExecutor] = FaultingExecutor(
                self.executor, self.injector
            )
        else:
            self.injector = None
            self.comm = Communicator(num_clients=len(parts))
            self.fault_executor = None
        if self.config.sanitize:
            from repro.analysis.sanitize import SanitizerSession

            self.sanitizer: Optional[SanitizerSession] = SanitizerSession(
                concurrency=self.executor.parallel,
                per_client_protocol=self.config.engine == "async",
            )
            self.sanitizer.attach_communicator(self.comm)
            # Yield-point shims (no-ops unless the session carries a
            # schedule controller — only the model checker does).
            self.sanitizer.attach_clock(self.clock)
            self.sanitizer.attach_executor(self.executor)
        else:
            self.sanitizer = None
        self.history = TrainingHistory()
        self._round_rng = np.random.default_rng(seed + 99991)
        self._participants: Optional[List[int]] = None
        # Early-stopping state lives on the instance (not run() locals) so
        # checkpoint/resume can capture and replay it exactly.
        self._start_round = 0
        self._best_val = -np.inf
        self._best_states: Optional[List[Dict[str, np.ndarray]]] = None
        self._rounds_since_best = 0
        self._eval_index: Optional[_EvalIndex] = None
        self.clients: List[Client] = []
        for cid, g in enumerate(parts):
            # Same seed for every client: all parties start from one
            # global model, as phase 1 of §3 requires.
            model = self.build_model(g, np.random.default_rng(seed))
            self.clients.append(
                Client(cid, g, model, lr=self.config.lr, weight_decay=self.config.weight_decay)
            )
        if self.sanitizer is not None:
            # Declare every party's raw tensors to the privacy tripwire:
            # an upload aliasing any of these buffers is a §4.4 escape.
            for c in self.clients:
                self.sanitizer.register_private_arrays(
                    [
                        (f"client{c.cid}.graph.x", c.graph.x),
                        (f"client{c.cid}.graph.y", c.graph.y),
                        (f"client{c.cid}.graph.adj", c.graph.adj.data),
                    ]
                )
        self._sync_initial_state()
        # Built after clients exist (the engine snapshots W₀ lazily) and
        # before any resume(), which restores the engine's event queue.
        if self.config.engine == "async":
            from repro.federated.async_engine import AsyncRoundEngine

            self.async_engine: Optional[AsyncRoundEngine] = AsyncRoundEngine(self)
        else:
            self.async_engine = None

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def build_model(self, graph: Graph, rng: np.random.Generator) -> Module:
        """Local model factory (default: 2-layer GCN)."""
        from repro.gnn import GCN

        return GCN(graph.num_features, graph.num_classes, hidden=self.config.hidden, rng=rng)

    def local_loss(self, client: Client) -> Tensor:
        """Per-step objective (default: masked cross-entropy)."""
        return client.ce_loss()

    def begin_round(self, round_idx: int) -> None:
        """Pre-round communication hook (default: none)."""

    def participating_clients(self) -> List[Client]:
        """Clients sampled for the current round (all, by default)."""
        if self._participants is None:
            return self.clients
        return [self.clients[i] for i in self._participants]

    def active_clients(self) -> List[Client]:
        """This round's sampled clients minus any that have failed.

        Without fault injection this is exactly
        :meth:`participating_clients`; under a fault plan, dropped /
        crashed / timed-out clients disappear from here — and therefore
        from local training, the moment exchange, and FedAvg — for the
        rest of the round.
        """
        participants = self.participating_clients()
        if self.injector is None:
            return participants
        return self.injector.active(participants)

    def _sample_participants(self) -> None:
        rate = self.config.participation_rate
        if rate >= 1.0:
            self._participants = None
            return
        m = len(self.clients)
        k = max(1, int(round(rate * m)))
        self._participants = sorted(self._round_rng.choice(m, size=k, replace=False).tolist())

    def aggregate(self) -> Optional[Dict[str, np.ndarray]]:
        """Collect surviving clients' states, return the new global state.

        Aggregates what the *server received* (the metered — and, under
        fault injection, possibly corrupted — payload), not the client's
        in-memory state: the two only differ when the channel misbehaves,
        which is exactly when the difference matters.  Uploads that
        arrive non-finite are quarantined: excluded from FedAvg with
        their ``n_i`` removed from the denominator, so survivors are
        reweighted over whoever actually contributed.  Returns ``None``
        (keep the previous global model) when nobody survives.
        """
        states: List[Dict[str, np.ndarray]] = []
        kept: List[Client] = []
        for c in self.active_clients():
            try:
                payload = self.comm.send_to_server(c.cid, c.live_state(), kind=KIND_WEIGHTS)
            except ClientDropped:
                continue
            if self.config.quarantine_nonfinite and not payload_is_finite(payload):
                self._quarantine(c)
                continue
            states.append(payload)
            kept.append(c)
        if not states:
            return None
        weights = (
            [max(c.num_train, 1) for c in kept] if self.config.sample_weighted else None
        )
        return fedavg(states, weights)

    def _quarantine(self, client: Client) -> None:
        """Record a non-finite upload and exclude the client this round."""
        reg = get_registry()
        if reg.enabled:
            reg.counter("faults.quarantined").inc()
        if self.injector is not None:
            self.injector.mark_failed(client.cid, "quarantine")

    def after_local_training(self, round_idx: int) -> None:
        """Hook after local epochs, before aggregation (default: none)."""

    # ------------------------------------------------------------------
    # loop
    # ------------------------------------------------------------------
    def _sync_initial_state(self) -> None:
        """Phase 1: broadcast W₀ so every party starts identically."""
        w0 = self.clients[0].live_state()
        for client, state in zip(self.clients, self.comm.broadcast(w0, kind=KIND_WEIGHTS)):
            client.set_state(state)

    def eval_logits(self, clients: Sequence[Client], graph: GraphUnion) -> Tensor:
        """Stacked logits of one group of identically-weighted clients.

        The single model-facing hook of :meth:`evaluate`, called under
        ``no_grad``.  ``graph`` is the union of the members' graphs, and
        rows follow its order (client by client).  The default runs the
        first member's model once over it, in eval mode; trainers whose
        model takes other inputs than the party graph override it.
        """
        model = clients[0].model
        model.eval()
        return model(graph)

    def evaluate(self, split: Union[str, Sequence[str]] = "test") -> Union[float, tuple]:
        """Node-weighted average accuracy across parties.

        ``split`` is one mask name (returns a float) or a sequence of
        them (returns a tuple of floats in the same order).  Clients
        whose parameters are bitwise identical form one group, and each
        group is scored from one :meth:`eval_logits` forward over the
        union of its members' graphs.  A party whose requested masks
        are all empty adds no rows, and a group of such parties runs no
        forward.

        The first call indexes the fleet: the union of every party
        graph, from which each group's union is sliced
        (:meth:`GraphUnion.select`), and each split's per-party node
        counts.  Party graphs may be edited before the first evaluation
        but not after.  Each group's predictions land in one
        fleet-length vector, and every party's hits are one
        ``bincount`` of correct rows over the fleet's owner index per
        split.  Every accuracy is bitwise the one :meth:`Client.evaluate`
        computes for the party alone, unless a node's top class scores
        tie to within the last-bit rounding of a dense product over more
        rows (see :mod:`repro.graphs.union`).
        """
        splits = (split,) if isinstance(split, str) else tuple(split)
        if self._eval_index is None:
            self._eval_index = _EvalIndex(self.clients)
        index = self._eval_index
        fleet = index.fleet
        counts = np.array([index.counts(name) for name in splits])
        active = np.flatnonzero(counts.any(axis=0))
        groups = [
            active[members]
            for members in _weight_groups([self.clients[i] for i in active], index.layouts)
        ]

        def group_predictions(group: np.ndarray) -> tuple:
            union = fleet.select(group)
            with no_grad():
                logits = self.eval_logits([self.clients[i] for i in group], union)
            return union.rows, logits.data.argmax(axis=1)

        predicted = np.full(fleet.num_nodes, -1)  # never a label: unscored rows miss
        for rows, labels in self.executor.map(
            group_predictions,
            groups,
            span="group.eval",
            attrs=lambda g: {"clients": len(g), "split": ",".join(splits)},
        ):
            predicted[rows] = labels
        correct = predicted == fleet.y
        hits = np.array([
            np.bincount(
                fleet.owner[correct & getattr(fleet, f"{name}_mask")],
                minlength=len(self.clients),
            )
            for name in splits
        ])
        accs = np.divide(hits, counts, out=np.full(counts.shape, np.nan), where=counts > 0)
        scores = tuple(_node_weighted(acc, n) for acc, n in zip(accs, counts))
        return scores[0] if isinstance(split, str) else scores

    def _train_participants(self) -> List[float]:
        """Local epochs for every participant; losses in client order.

        One executor task per client runs all its local epochs — the
        client's own op sequence (and RNG draws) is identical to the
        serial loop's, so results are bitwise reproducible regardless of
        how clients interleave across workers.
        """
        cfg = self.config

        def local_epochs(client: Client) -> List[float]:
            return [
                client.train_step(self.local_loss, nan_guard=cfg.nan_guard)
                for _ in range(cfg.local_epochs)
            ]

        clients = self.active_clients()
        if self.fault_executor is not None:
            survivors = self.fault_executor.map_surviving(
                local_epochs,
                clients,
                span="client.local_train",
                attrs=lambda c: {"client": c.cid},
            )
            per_client = [losses for _, losses in survivors]
        else:
            per_client = self.executor.map(
                local_epochs,
                clients,
                span="client.local_train",
                attrs=lambda c: {"client": c.cid},
            )
        return [loss for client_losses in per_client for loss in client_losses]

    def resume(self, path: str) -> "FederatedTrainer":
        """Restore a :func:`save_trainer_checkpoint` snapshot in place.

        The trainer must be constructed exactly as the checkpointed one
        (same parts, config, seed); :meth:`run` then continues from the
        saved round and reproduces the uninterrupted run bit for bit.
        """
        from repro.federated.checkpoint import load_trainer_checkpoint

        load_trainer_checkpoint(self, path)
        if self.sanitizer is not None:
            # The checkpoint restore replaced comm.stats with a plain
            # CommStats; re-arm the lock-ownership probe on it.
            self.sanitizer.attach_communicator(self.comm)
        return self

    def _maybe_checkpoint(self, round_idx: int) -> None:
        cfg = self.config
        if cfg.checkpoint_every <= 0:
            return
        if (round_idx + 1) % cfg.checkpoint_every != 0:
            return
        from repro.federated.checkpoint import checkpoint_path, save_trainer_checkpoint

        save_trainer_checkpoint(
            self, checkpoint_path(cfg.checkpoint_dir), next_round=round_idx + 1
        )

    def run(self, verbose: bool = False) -> TrainingHistory:
        """Train until ``max_rounds`` or patience exhaustion; return history."""
        cfg = self.config

        if self.sanitizer is not None:
            self.sanitizer.install()
            # The live registry may have been swapped in (TelemetrySession)
            # after construction; probe whatever is current.
            self.sanitizer.attach_registry(get_registry())
        try:
            if self.async_engine is not None:
                self.async_engine.run(verbose)
            else:
                self._run_rounds(cfg, verbose)
        finally:
            if self.sanitizer is not None:
                self.sanitizer.uninstall()

        # Restore the best-validation snapshot (standard early stopping).
        if self._best_states is not None:
            for client, state in zip(self.clients, self._best_states):
                client.set_state(state)
        # Release idle pool threads; the executor respawns lazily if the
        # trainer is evaluated or resumed afterwards.
        self.executor.shutdown()
        return self.history

    def _run_rounds(self, cfg: TrainerConfig, verbose: bool) -> None:
        # Phase timings come from spans: the tracer is the null tracer by
        # default, whose spans still carry perf_counter timestamps, so the
        # RoundRecord fields are byte-for-byte the same measurement the old
        # ad-hoc perf_counter blocks took — telemetry on merely *records*
        # the same spans to the trace.
        tracer = get_tracer()
        for round_idx in range(self._start_round, cfg.max_rounds):
            with tracer.span("round", round=round_idx) as sp_round:
                with tracer.span("exchange", round=round_idx, phase="exchange") as sp_exchange:
                    self._sample_participants()
                    if self.injector is not None:
                        self.injector.begin_round(round_idx, len(self.clients))
                    self.begin_round(round_idx)

                with tracer.span("train", round=round_idx, phase="train") as sp_train:
                    losses = self._train_participants()
                    self.after_local_training(round_idx)

                with tracer.span("aggregate", round=round_idx, phase="aggregate") as sp_agg:
                    global_state = self.aggregate()
                    if global_state is not None:
                        broadcast = self.comm.broadcast(global_state, kind=KIND_WEIGHTS)
                        for client, state in zip(self.clients, broadcast):
                            client.set_state(state)
                    self.comm.end_round()

                if round_idx % cfg.eval_every == 0:
                    with tracer.span("eval", round=round_idx, phase="eval") as sp_eval:
                        val_acc, test_acc = self.evaluate(("val", "test"))
                    finite = [l for l in losses if np.isfinite(l)]
                    self.history.append(
                        RoundRecord(
                            round=round_idx,
                            train_loss=float(np.mean(finite)) if finite else float("nan"),
                            val_acc=val_acc,
                            test_acc=test_acc,
                            uplink_bytes=self.comm.stats.uplink_bytes,
                            downlink_bytes=self.comm.stats.downlink_bytes,
                            wall_time=sp_eval.t_end - sp_round.t_start,
                            exchange_time=sp_exchange.duration,
                            train_time=sp_train.duration,
                            agg_time=sp_agg.duration,
                            eval_time=sp_eval.duration,
                        )
                    )
                    if verbose:
                        print(
                            f"[{self.name}] round {round_idx:4d} "
                            f"loss {self.history.records[-1].train_loss:.4f} "
                            f"val {val_acc:.4f} test {test_acc:.4f}"
                        )
                    if val_acc > self._best_val:
                        self._best_val = val_acc
                        self._best_states = [c.get_state() for c in self.clients]
                        self._rounds_since_best = 0
                    else:
                        self._rounds_since_best += cfg.eval_every
                    if self._rounds_since_best >= cfg.patience:
                        self._maybe_checkpoint(round_idx)
                        return
                self._maybe_checkpoint(round_idx)

    # ------------------------------------------------------------------
    def final_test_accuracy(self) -> float:
        """Test accuracy of the restored best model."""
        return self.evaluate("test")
