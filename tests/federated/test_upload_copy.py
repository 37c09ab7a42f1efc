"""Weight uploads copy once, in the channel.

Both round engines hand a client's live parameter arrays to
``Communicator.send_to_server``, whose deep copy is the only copy: what
the server receives never shares memory with any client's parameters,
and a ``corrupt`` fault garbles the server's copy, never the client's
weights.
"""

import numpy as np
import pytest

from repro.federated import FaultPlan, FaultSpec, FederatedTrainer, TrainerConfig
from repro.federated.comm import KIND_WEIGHTS
from repro.federated.faults import CORRUPT
from repro.graphs import load_dataset, louvain_partition

ENGINES = ["barrier", "async"]


@pytest.fixture(scope="module")
def parts():
    g = load_dataset("cora", seed=0, scale=0.08)
    return louvain_partition(g, 3, np.random.default_rng(0)).parts


def _trainer(parts, engine, faults=None):
    cfg = TrainerConfig(max_rounds=2, patience=50, hidden=8, engine=engine)
    return FederatedTrainer(parts, cfg, seed=0, faults=faults)


def _spy_uploads(tr, monkeypatch):
    """Record ``(client, sent, received, weights before, weights after)`` per weight upload."""
    real = tr.comm.send_to_server
    uploads = []

    def spy(cid, payload, kind="other"):
        flat = tr.clients[cid].optimizer.flat
        before = flat.copy()
        received = real(cid, payload, kind=kind)
        if kind == KIND_WEIGHTS:
            uploads.append((cid, payload, received, before, flat.copy()))
        return received

    monkeypatch.setattr(tr.comm, "send_to_server", spy)
    return uploads


@pytest.mark.parametrize("engine", ENGINES)
def test_upload_sends_live_arrays_and_the_server_gets_its_own(parts, engine, monkeypatch):
    tr = _trainer(parts, engine)
    uploads = _spy_uploads(tr, monkeypatch)
    tr.run()
    assert uploads
    for cid, sent, received, _, _ in uploads:
        # No copy before the channel: the client hands over its own arrays.
        assert all(np.shares_memory(a, tr.clients[cid].optimizer.flat) for a in sent.values())
        for arr in received.values():
            for client in tr.clients:
                assert not np.may_share_memory(arr, client.optimizer.flat)


@pytest.mark.parametrize("engine", ENGINES)
def test_corrupt_upload_leaves_client_weights_intact(parts, engine, monkeypatch):
    tr = _trainer(parts, engine, faults=FaultPlan([FaultSpec(CORRUPT, 1.0, mode="nan")], seed=0))
    uploads = _spy_uploads(tr, monkeypatch)
    tr.run()
    assert uploads
    for cid, _, received, before, after in uploads:
        assert all(np.isnan(arr).all() for arr in received.values())
        assert after.view(np.uint64).tobytes() == before.view(np.uint64).tobytes()
        assert np.isfinite(tr.clients[cid].optimizer.flat).all()
