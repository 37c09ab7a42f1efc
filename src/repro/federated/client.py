"""The federated client: a party subgraph + local model + optimizer."""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.graphs.data import Graph
from repro.nn import Adam, accuracy, cross_entropy
from repro.nn.module import Module


class Client:
    """One party in the federation.

    Holds the private subgraph (never leaves this object — only model
    states and statistics go through the communicator), the local model,
    and the local optimizer.

    Parameters
    ----------
    cid:
        Party index.
    graph:
        The party's private subgraph (with masks).
    model:
        Local model instance; all clients must be built with identical
        architecture and (for proper FL) identical initial weights.
    lr / weight_decay:
        Adam hyper-parameters (paper: weight decay 1e-4).
    """

    def __init__(
        self,
        cid: int,
        graph: Graph,
        model: Module,
        lr: float = 0.01,
        weight_decay: float = 1e-4,
    ) -> None:
        self.cid = cid
        self.graph = graph
        self.model = model
        self.optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)

    # -- data facts the server is allowed to know -------------------------
    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_train(self) -> int:
        m = self.graph.train_mask
        return int(m.sum()) if m is not None else 0

    def has_train_nodes(self) -> bool:
        return self.num_train > 0

    # -- local optimization -----------------------------------------------
    def train_step(
        self, loss_fn: Callable[["Client"], Tensor], nan_guard: bool = False
    ) -> float:
        """One local optimization step of ``loss_fn(self)``; returns the loss.

        Clients with no labeled nodes skip the step (they still
        participate in aggregation with their current weights, matching
        how FedAvg handles unlabeled parties).  With ``nan_guard``, a
        non-finite loss skips the update instead of poisoning the next
        FedAvg round with NaN weights.
        """
        if not self.has_train_nodes():
            return float("nan")
        self.model.train()
        self.optimizer.zero_grad()
        loss = loss_fn(self)
        value = float(loss.item())
        if nan_guard and not np.isfinite(value):
            return value
        loss.backward()
        self.optimizer.step()
        return value

    def ce_loss(self) -> Tensor:
        """Default supervised loss: CE on the local train mask."""
        logits = self.model(self.graph)
        return cross_entropy(logits, self.graph.y, self.graph.train_mask)

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, split: str = "test") -> tuple[float, int]:
        """(accuracy, #nodes) on the local ``split`` mask.

        Returns count 0 (accuracy NaN) without a forward when the mask
        is empty, so the caller can take a well-defined weighted average
        across parties.  The per-party reference of
        :meth:`FederatedTrainer.evaluate`.
        """
        mask = getattr(self.graph, f"{split}_mask")
        if mask is None:
            raise ValueError(f"graph has no {split}_mask")
        count = int(mask.sum())
        if count == 0:
            return float("nan"), 0
        self.model.eval()
        with no_grad():
            logits = self.model(self.graph)
        return accuracy(logits, self.graph.y, mask), count

    # -- model state movement ---------------------------------------------
    def get_state(self) -> Dict[str, np.ndarray]:
        return self.model.state_dict()

    def live_state(self) -> Dict[str, np.ndarray]:
        """The model's parameter arrays by name, not copied.

        For handing straight to a :class:`Communicator` transfer: as an
        upload, whose deep copy is then the only copy, or as the
        receive buffer (``into=``) of a weights download, which the
        channel writes in place.  Other callers must not keep or write
        the arrays.
        """
        return {name: p.data for name, p in self.model.named_parameters()}

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        self.model.load_state_dict(state)
