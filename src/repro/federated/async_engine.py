"""Event-driven asynchronous round engine on a seeded virtual clock.

The barrier loop in :mod:`repro.federated.trainer` blocks every round on
its slowest client, so an injected straggler (PR 3's ``FaultPlan``)
stalls *global* progress — the opposite of production federated traffic,
where the server aggregates whoever has reported and late updates fold
into later rounds.  :class:`AsyncRoundEngine` is that server:

* **Event model.**  Dispatching a client schedules one
  :class:`PendingReport` on a min-heap keyed by *virtual* arrival time
  (seeded :class:`ClientLatencyModel` latency plus any straggler delay
  from the fault plan).  The engine pops reports in timestamp order,
  advancing a :class:`~repro.federated.clock.VirtualClock` — never the
  wall clock, so arrival schedules (and therefore quorum decisions and
  staleness accounting) are bit-reproducible and lint rule RL003 stays
  clean.  A client's local epochs run when its report *pops*: between
  dispatch and pop the client is "computing" and its in-memory state is
  exactly its dispatch-time state, which is what makes mid-quorum
  checkpoints consistent without serializing any extra arrays.
* **Quorum.**  A round waits for ``ceil(quorum · dispatched)``
  successful uploads (stragglers of earlier rounds count — an upload is
  an upload), then aggregates.  Clients still in flight are simply not
  re-dispatched; their reports land in later rounds carrying staleness.
* **Staleness-weighted FedAvg.**  An update that is ``s`` model
  versions old is first pulled toward the current global model with a
  FedProx-flavored proximal step (:func:`proximal_correction`, strength
  ``μ·s/(1+μ·s)``) and then weighted ``λ_i ∝ n_i · decay^s``
  (:func:`staleness_weights`).  Both are exact no-ops at ``s = 0``: a
  full-quorum run takes the *identical* ``fedavg`` call the barrier
  trainer takes, which is what the golden-digest equivalence test pins
  bitwise.
* **Churn.**  Drop/corrupt faults apply at upload time through the
  existing :class:`~repro.federated.faults.FaultyCommunicator`; a
  ``crash`` client trains (state and RNG advance) but its report is
  lost; a client that reports after the server has moved on pulls the
  current global model before it can be dispatched again.

The engine is selected with ``TrainerConfig.engine = "async"`` and
drives the same trainer hooks (``begin_round`` / ``local_loss`` /
``after_local_training``), the same communicator, history, telemetry
and checkpoint machinery as the barrier loop.  It requires the default
FedAvg aggregation: algorithms that override ``aggregate`` (FedProx's
server step, LocGCN's no-op) have barrier-only semantics and are
rejected at construction rather than silently misaggregated.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.federated.clock import VirtualClock
from repro.federated.comm import KIND_WEIGHTS
from repro.federated.faults import CRASH, STRAGGLER, ClientDropped, payload_is_finite
from repro.federated.history import RoundRecord
from repro.federated.server import StateDict, fedavg
from repro.obs import get_registry, get_tracer

#: SeedSequence domain tag keeping latency draws independent from every
#: other consumer of the run seed (FaultPlan cells, the participation
#: sampler, model init).
_LATENCY_STREAM = 0x1A7E

__all__ = [
    "AsyncRoundEngine",
    "ClientLatencyModel",
    "FoldResult",
    "PendingReport",
    "fold_arrivals",
    "proximal_correction",
    "quorum_target",
    "staleness_weights",
]


# ----------------------------------------------------------------------
# pure aggregation math (property-tested in tests/federated/test_staleness.py)
# ----------------------------------------------------------------------
def staleness_weights(
    counts: Sequence[float], staleness: Sequence[int], decay: float
) -> np.ndarray:
    """Normalized aggregation weights ``λ_i ∝ n_i · decay^{s_i}``.

    ``decay ** 0 == 1.0`` exactly, so at zero staleness this returns the
    same ``w / w.sum()`` FedAvg computes from raw sample counts — the
    bitwise-reduction property the async engine's deterministic mode
    rests on.  All-zero effective mass (every ``n_i = 0``) falls back to
    uniform weights over the contributors, mirroring ``fedavg``'s
    ``weights=None`` branch.
    """
    counts_arr = np.asarray(counts, dtype=np.float64)
    stale_arr = np.asarray(staleness, dtype=np.float64)
    if counts_arr.ndim != 1 or counts_arr.shape != stale_arr.shape:
        raise ValueError("counts and staleness must be equal-length 1-D sequences")
    if counts_arr.size == 0:
        raise ValueError("no contributions to weight")
    if np.any(counts_arr < 0):
        raise ValueError("sample counts must be non-negative")
    if np.any(stale_arr < 0):
        raise ValueError("staleness must be non-negative")
    if not 0.0 < decay <= 1.0:
        raise ValueError("staleness decay must be in (0, 1]")
    lam = counts_arr * np.power(decay, stale_arr)
    total = lam.sum()
    if total <= 0:
        return np.full(counts_arr.size, 1.0 / counts_arr.size)
    return lam / total


def proximal_correction(
    state: StateDict, global_state: StateDict, staleness: int, mu: float
) -> StateDict:
    """FedProx-style pull of a stale update toward the current global model.

    Returns ``W_i + γ (W̄ − W_i)`` with ``γ = μ·s / (1 + μ·s)``: the
    closed-form minimizer of ``‖W − W_i‖² + μ·s·‖W − W̄‖²`` — the
    proximal term grows with staleness, so an update that missed many
    versions is trusted less.  At ``s = 0`` (or ``μ = 0``) the input is
    returned *unchanged* (same object, no float ops), preserving bitwise
    parity on the deterministic path.
    """
    if staleness < 0:
        raise ValueError("staleness must be non-negative")
    if mu < 0:
        raise ValueError("prox_mu must be non-negative")
    if staleness == 0 or mu == 0.0:
        return state
    gamma = (mu * staleness) / (1.0 + mu * staleness)
    return {k: v + gamma * (global_state[k] - v) for k, v in state.items()}


def quorum_target(num_dispatched: int, quorum: float) -> int:
    """Uploads required before the round aggregates.

    ``ceil(quorum · n)`` clamped to ``[1, n]`` (an epsilon absorbs float
    representation of e.g. ``0.8 * 5``); a round that dispatched nobody
    (everyone still in flight) waits for a single arrival from the
    backlog so the run always makes progress.
    """
    if not 0.0 < quorum <= 1.0:
        raise ValueError("quorum must be in (0, 1]")
    if num_dispatched <= 0:
        return 1
    return min(num_dispatched, max(1, math.ceil(quorum * num_dispatched - 1e-9)))


# ----------------------------------------------------------------------
# the simulated network
# ----------------------------------------------------------------------
class ClientLatencyModel:
    """Seeded per-(round, client) report latency.

    Like :meth:`FaultPlan.event`, :meth:`duration` is a pure function of
    ``(seed, round, client)`` — the RNG is rebuilt from a
    :class:`numpy.random.SeedSequence` keyed on exactly those integers —
    so arrival schedules are independent of query order, thread
    interleaving, and resume point.
    """

    def __init__(self, seed: int, base: float, jitter: float) -> None:
        if base < 0 or jitter < 0:
            raise ValueError("latency base and jitter must be non-negative")
        self.seed = int(seed)
        self.base = float(base)
        self.jitter = float(jitter)

    def duration(self, round_idx: int, client_id: int) -> float:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                (self.seed, _LATENCY_STREAM, int(round_idx), int(client_id))
            )
        )
        return self.base * (1.0 + self.jitter * float(rng.random()))


@dataclass(frozen=True)
class PendingReport:
    """One in-flight client computation, scheduled on the event heap.

    ``base_version`` is the global model version the client trained
    from; staleness at arrival is ``engine.version - base_version``.
    ``crash`` is resolved at dispatch (the fault plan is consulted for
    the *dispatch* round) so a checkpointed queue replays identically.
    """

    time: float
    seq: int
    cid: int
    round: int
    base_version: int
    crash: bool = False


@dataclass
class _ClientUpdate:
    """A successful upload, as the server received it."""

    cid: int
    state: StateDict
    num_train: int
    base_version: int


@dataclass(frozen=True)
class FoldResult:
    """Outcome of :func:`fold_arrivals` — the model plus the bookkeeping."""

    new_global: Optional[StateDict]
    #: cids whose payload was quarantined (non-finite), in cid order.
    quarantined: Tuple[int, ...]
    #: cids discarded as over-stale, in cid order.
    discarded: Tuple[int, ...]
    #: ``(cid, staleness)`` of every update that entered the average.
    kept: Tuple[Tuple[int, int], ...]


def fold_arrivals(
    arrivals: Sequence[_ClientUpdate],
    version: int,
    global_state: Optional[StateDict],
    *,
    max_staleness: int,
    decay: float,
    mu: float,
    sample_weighted: bool,
    quarantine_nonfinite: bool = True,
) -> FoldResult:
    """Order-insensitive staleness-weighted FedAvg over one round's arrivals.

    This is the pure reduction the engine's ``_aggregate`` wraps: a pure
    function of the arrival *set* — the first thing it does is sort by
    client id, so any permutation of ``arrivals`` (network reordering,
    heap-pop order, executor interleaving) produces a bitwise-identical
    result.  That invariant is what lint rule RL012 demands of every
    aggregation path, what the hypothesis property in
    ``tests/federated/test_staleness.py`` pins, and what the model
    checker re-verifies dynamically over explored schedules.

    NaN payloads are quarantined (their ``n_i`` leaves the denominator),
    updates staler than ``max_staleness`` are discarded, and when every
    survivor has zero staleness the fold takes the *identical*
    ``fedavg`` call the barrier trainer takes.
    """
    kept: List[Tuple[_ClientUpdate, int]] = []
    quarantined: List[int] = []
    discarded: List[int] = []
    for update in sorted(arrivals, key=lambda u: u.cid):
        stale = version - update.base_version
        if quarantine_nonfinite and not payload_is_finite(update.state):
            quarantined.append(update.cid)
            continue
        if stale > max_staleness:
            discarded.append(update.cid)
            continue
        kept.append((update, stale))
    kept_meta = tuple((u.cid, stale) for u, stale in kept)
    if not kept:
        return FoldResult(None, tuple(quarantined), tuple(discarded), kept_meta)
    if all(stale == 0 for _, stale in kept):
        states = [u.state for u, _ in kept]
        weights = [u.num_train for u, _ in kept] if sample_weighted else None
        new_global = fedavg(states, weights)
    else:
        states = [
            proximal_correction(u.state, global_state, stale, mu)
            for u, stale in kept
        ]
        counts = [float(u.num_train) if sample_weighted else 1.0 for u, _ in kept]
        lam = staleness_weights(counts, [stale for _, stale in kept], decay)
        new_global = fedavg(states, lam.tolist())
    return FoldResult(new_global, tuple(quarantined), tuple(discarded), kept_meta)


class AsyncRoundEngine:
    """Quorum-aggregating event loop replacing ``_run_rounds``.

    Owns the event heap, the in-flight set, the global model version
    counter and (for proximal correction) the current global state; the
    trainer owns everything else — clients, communicator, history,
    early stopping, checkpoints.  :meth:`state_dict` /
    :meth:`load_state_dict` round-trip the engine through the trainer
    checkpoint so a resumed run replays the arrival schedule bitwise.
    """

    def __init__(self, trainer) -> None:
        from repro.federated.trainer import FederatedTrainer

        cfg = trainer.config
        if cfg.engine != "async":
            raise ValueError("AsyncRoundEngine requires TrainerConfig.engine='async'")
        if not isinstance(trainer.clock, VirtualClock):
            raise ValueError(
                "the async engine runs on a VirtualClock: arrival order is part "
                "of the training trajectory and must be reproducible"
            )
        if type(trainer).aggregate is not FederatedTrainer.aggregate:
            raise ValueError(
                f"{type(trainer).__name__} overrides aggregate(); the async "
                "engine implements staleness-weighted FedAvg itself and cannot "
                "replay a custom server step — use engine='barrier'"
            )
        self.trainer = trainer
        self.clock: VirtualClock = trainer.clock
        self.latency = ClientLatencyModel(
            trainer.seed, cfg.latency_base, cfg.latency_jitter
        )
        self.version = 0
        self.global_state: Optional[StateDict] = None
        self._seq = 0
        self._heap: List[Tuple[float, int, PendingReport]] = []
        self._in_flight: Dict[int, PendingReport] = {}
        self._round_losses: List[Tuple[int, List[float]]] = []

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe engine state (the heap, version, virtual time)."""
        return {
            "version": int(self.version),
            "seq": int(self._seq),
            "clock": float(self.clock.now()),
            "queue": [
                {
                    "time": float(r.time),
                    "seq": int(r.seq),
                    "cid": int(r.cid),
                    "round": int(r.round),
                    "base_version": int(r.base_version),
                    "crash": bool(r.crash),
                }
                for _, _, r in sorted(self._heap)
            ],
            "has_global": self.global_state is not None,
        }

    def global_arrays(self) -> Dict[str, np.ndarray]:
        """The prox-target global model, for the checkpoint array store."""
        if self.global_state is None:
            return {}
        return {f"async_global/{k}": v for k, v in self.global_state.items()}

    def load_state_dict(
        self, meta: dict, global_state: Optional[StateDict]
    ) -> None:
        self.version = int(meta["version"])
        self._seq = int(meta["seq"])
        self.clock.advance_to(float(meta["clock"]))
        self._heap = []
        self._in_flight = {}
        for e in meta["queue"]:
            report = PendingReport(
                time=float(e["time"]),
                seq=int(e["seq"]),
                cid=int(e["cid"]),
                round=int(e["round"]),
                base_version=int(e["base_version"]),
                crash=bool(e["crash"]),
            )
            heapq.heappush(self._heap, (report.time, report.seq, report))
            self._in_flight[report.cid] = report
        if meta.get("has_global") and global_state is None:
            raise ValueError("checkpoint advertises a global model but has none")
        self.global_state = global_state

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self, verbose: bool = False) -> None:
        """Drive rounds ``trainer._start_round .. max_rounds``.

        Mirrors ``FederatedTrainer._run_rounds`` exactly on the
        evaluation / early-stopping / checkpoint side so the two engines
        produce comparable (and, at full quorum, identical) histories.
        """
        trainer = self.trainer
        cfg = trainer.config
        if self.version == 0 and self.global_state is None:
            # Post-broadcast consensus state W₀ (every client holds it).
            self.global_state = trainer.clients[0].get_state()
        ctrl = self.clock.controller
        for round_idx in range(trainer._start_round, cfg.max_rounds):
            if ctrl is not None:
                ctrl.on_yield("async.round", round=round_idx, engine=self)
            stop = self._run_round(round_idx, verbose)
            trainer._maybe_checkpoint(round_idx)
            if ctrl is not None:
                # Checkpoint boundary: the heap, version and clock are
                # exactly what state_dict() serializes — the checker
                # snapshots here to assert resume equivalence.
                ctrl.on_yield("async.checkpoint", round=round_idx, engine=self)
            if stop:
                return

    def _run_round(self, round_idx: int, verbose: bool) -> bool:
        trainer = self.trainer
        cfg = trainer.config
        tracer = get_tracer()
        reg = get_registry()
        self._round_losses = []
        with tracer.span("round", round=round_idx, engine="async") as sp_round:
            round_t0 = self.clock.now()
            with tracer.span(
                "exchange", round=round_idx, phase="exchange"
            ) as sp_exchange:
                self._select_participants()
                if trainer.injector is not None:
                    trainer.injector.begin_round(round_idx, len(trainer.clients))
                trainer.begin_round(round_idx)

            with tracer.span("train", round=round_idx, phase="train") as sp_train:
                dispatched = self._dispatch(round_idx)
                needed = quorum_target(len(dispatched), cfg.quorum)
                arrivals = self._await_quorum(round_idx, needed)
                trainer.after_local_training(round_idx)
            virtual_train = self.clock.now() - round_t0

            with tracer.span("aggregate", round=round_idx, phase="aggregate") as sp_agg:
                new_global = self._aggregate(arrivals)
                if new_global is not None:
                    self.global_state = new_global
                    self.version += 1
                    self._push_model(new_global)
                trainer.comm.end_round()

            if reg.enabled:
                elapsed = self.clock.elapsed
                if elapsed > 0:
                    reg.gauge("async.rounds_per_vs").set((round_idx + 1) / elapsed)

            if round_idx % cfg.eval_every == 0:
                with tracer.span("eval", round=round_idx, phase="eval") as sp_eval:
                    val_acc, test_acc = trainer.evaluate(("val", "test"))
                losses = [
                    loss
                    for _, client_losses in sorted(self._round_losses)
                    for loss in client_losses
                ]
                finite = [l for l in losses if np.isfinite(l)]
                trainer.history.append(
                    RoundRecord(
                        round=round_idx,
                        train_loss=float(np.mean(finite)) if finite else float("nan"),
                        val_acc=val_acc,
                        test_acc=test_acc,
                        uplink_bytes=trainer.comm.stats.uplink_bytes,
                        downlink_bytes=trainer.comm.stats.downlink_bytes,
                        # Round duration in *virtual* seconds — what the
                        # simulated deployment would observe (digest-exempt,
                        # like every timing field).  Phase timings stay real
                        # span durations for profiler attribution.
                        wall_time=self.clock.now() - round_t0,
                        exchange_time=sp_exchange.duration,
                        train_time=virtual_train,
                        agg_time=sp_agg.duration,
                        eval_time=sp_eval.duration,
                    )
                )
                if verbose:
                    print(
                        f"[{trainer.name}] round {round_idx:4d} "
                        f"loss {trainer.history.records[-1].train_loss:.4f} "
                        f"val {val_acc:.4f} test {test_acc:.4f}"
                    )
                if val_acc > trainer._best_val:
                    trainer._best_val = val_acc
                    trainer._best_states = [c.get_state() for c in trainer.clients]
                    trainer._rounds_since_best = 0
                else:
                    trainer._rounds_since_best += cfg.eval_every
                if trainer._rounds_since_best >= cfg.patience:
                    return True
        return False

    # ------------------------------------------------------------------
    # round phases
    # ------------------------------------------------------------------
    def _select_participants(self) -> None:
        """Sample participants, then drop clients still computing.

        The sampler RNG draw happens unconditionally (identical stream to
        the barrier engine); in-flight clients are then masked out — a
        busy client cannot start a second computation.  When nobody is in
        flight the trainer's participant state is byte-identical to the
        barrier engine's.
        """
        trainer = self.trainer
        trainer._sample_participants()
        sampled = trainer.participating_clients()
        idle = [c for c in sampled if c.cid not in self._in_flight]
        if len(idle) == len(trainer.clients):
            trainer._participants = None
        else:
            trainer._participants = sorted(c.cid for c in idle)

    def _dispatch(self, round_idx: int) -> List[object]:
        """Schedule one :class:`PendingReport` per active idle client."""
        trainer = self.trainer
        injector = trainer.injector
        clock = self.clock
        dispatched = []
        for client in trainer.active_clients():
            delay = self.latency.duration(round_idx, client.cid)
            crash = False
            if injector is not None:
                straggle = injector.event(client.cid, STRAGGLER)
                if straggle is not None:
                    # The straggler's extra seconds become virtual arrival
                    # time — nobody blocks on them.
                    delay += straggle.delay
                    injector.record_injected(straggle)
                crash = injector.event(client.cid, CRASH) is not None
            report = PendingReport(
                time=clock.now() + delay,
                seq=self._seq,
                cid=client.cid,
                round=round_idx,
                base_version=self.version,
                crash=crash,
            )
            self._seq += 1
            heapq.heappush(self._heap, (report.time, report.seq, report))
            self._in_flight[client.cid] = report
            dispatched.append(client)
        return dispatched

    def _await_quorum(self, round_idx: int, needed: int) -> List[_ClientUpdate]:
        """Pop reports in virtual-time order until quorum is met.

        Counts *successful uploads* (crashed or dropped reports consume
        events but not quorum); if the heap drains first the round
        aggregates whatever arrived.
        """
        reg = get_registry()
        tracer = get_tracer()
        arrivals: List[_ClientUpdate] = []
        wait_t0 = self.clock.now()
        with tracer.span(
            "async.quorum_wait", round=round_idx, phase="train", needed=needed
        ) as sp:
            while len(arrivals) < needed and self._heap:
                report = self._next_report()
                del self._in_flight[report.cid]
                update = self._complete(report)
                if update is not None:
                    arrivals.append(update)
            sp.attrs["arrived"] = len(arrivals)
            sp.attrs["virtual_wait_s"] = self.clock.now() - wait_t0
        if reg.enabled:
            reg.histogram("async.quorum_wait_vs").observe(self.clock.now() - wait_t0)
        return arrivals

    def _next_report(self) -> PendingReport:
        """Pop the next arrival — the engine's schedule-controller yield point.

        Uncontrolled (the production path), this is a plain heap pop in
        virtual-arrival order.  With a controller attached to the clock
        (only the model checker does), the controller picks *which*
        pending report arrives next from the whole in-flight set — an
        out-of-order choice models network reordering, so the clock
        advances to ``max(report.time, now)``: a message can arrive late,
        never before it was sent.  Virtual time stays monotone either
        way (rule RL011's runtime counterpart).
        """
        ctrl = self.clock.controller
        if ctrl is None:
            _, _, report = heapq.heappop(self._heap)
            self.clock.advance_to(report.time)
            return report
        ready = [r for _, _, r in sorted(self._heap)]
        report = ready[ctrl.choose("async.pop", ready)]
        self._heap.remove((report.time, report.seq, report))
        heapq.heapify(self._heap)
        self.clock.advance_to(max(report.time, self.clock.now()))
        ctrl.on_yield("async.pop", report=report, engine=self)
        return report

    def _complete(self, report: PendingReport) -> Optional[_ClientUpdate]:
        """Run the popped client's local epochs and take its upload."""
        trainer = self.trainer
        cfg = trainer.config
        injector = trainer.injector
        client = trainer.clients[report.cid]
        tracer = get_tracer()
        with tracer.span(
            "client.local_train",
            client=client.cid,
            round=report.round,
            phase="train",
        ):
            losses = [
                client.train_step(trainer.local_loss, nan_guard=cfg.nan_guard)
                for _ in range(cfg.local_epochs)
            ]
        update: Optional[_ClientUpdate] = None
        if report.crash:
            # Work happened (state and RNG advanced) but the report is
            # lost — same semantics and telemetry as the barrier path.
            if injector is not None:
                injector.record_injected(
                    injector.plan.event(report.round, report.cid)
                )
                injector.mark_failed(report.cid, CRASH)
        else:
            self._round_losses.append((report.cid, losses))
            try:
                payload = trainer.comm.send_to_server(
                    client.cid, client.live_state(), kind=KIND_WEIGHTS
                )
            except ClientDropped:
                payload = None  # the round moved on; the upload is lost
            if payload is not None:
                update = _ClientUpdate(
                    cid=client.cid,
                    state=payload,
                    num_train=max(client.num_train, 1),
                    base_version=report.base_version,
                )
        if self.version > report.base_version and self.global_state is not None:
            # The server moved on while this client computed: it pulls the
            # current global model before it can be dispatched again.
            synced = trainer.comm.send_to_client(
                client.cid, self.global_state, kind=KIND_WEIGHTS
            )
            client.set_state(synced)
        return update

    def _aggregate(self, arrivals: List[_ClientUpdate]) -> Optional[StateDict]:
        """Staleness-weighted FedAvg over this round's arrivals.

        The math lives in :func:`fold_arrivals` — a pure, permutation-
        invariant reduction (client-id order, the barrier engine's
        aggregation order); this wrapper applies its quarantine verdicts
        to the trainer and meters the staleness telemetry.  When every
        survivor has zero staleness the fold takes the *same* ``fedavg``
        call — same weights list, same float ops — the barrier trainer
        makes.
        """
        trainer = self.trainer
        cfg = trainer.config
        reg = get_registry()
        result = fold_arrivals(
            arrivals,
            self.version,
            self.global_state,
            max_staleness=cfg.max_staleness,
            decay=cfg.staleness_decay,
            mu=cfg.prox_mu,
            sample_weighted=cfg.sample_weighted,
            quarantine_nonfinite=cfg.quarantine_nonfinite,
        )
        for cid in result.quarantined:
            trainer._quarantine(trainer.clients[cid])
        if reg.enabled:
            for _ in result.discarded:
                reg.counter("async.discarded_stale").inc()
            for cid, stale in result.kept:
                reg.histogram("async.staleness", client=cid).observe(stale)
                if stale > 0:
                    reg.counter("async.late_updates").inc()
        return result.new_global

    def _push_model(self, new_global: StateDict) -> None:
        """Distribute the new global model to every idle client.

        With nobody in flight this is the barrier engine's broadcast
        (same collective, same metered bytes); otherwise the in-flight
        clients are skipped — they pull the model when they report.
        """
        trainer = self.trainer
        if not self._in_flight:
            delivered = trainer.comm.broadcast(new_global, kind=KIND_WEIGHTS)
            for client, state in zip(trainer.clients, delivered):
                client.set_state(state)
            return
        for client in trainer.clients:
            if client.cid in self._in_flight:
                continue
            state = trainer.comm.send_to_client(
                client.cid, new_global, kind=KIND_WEIGHTS
            )
            client.set_state(state)
