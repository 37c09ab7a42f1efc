"""Sparse input features (``graph.x_op``) against the dense reference.

GCN and OrthoGCN read their input through the cached CSR of the
features; the same layers called on the dense ``Tensor(graph.x)`` are
the simple reference.  Outputs and every weight gradient must agree to
1e-12 relative, including graphs with all-zero feature rows/columns and
a party whose masks are all empty.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, relu
from repro.gnn import GCN, OrthoGCN
from repro.graphs.data import Graph
from repro.graphs.sbm import dc_sbm

RTOL = 1e-12


def _graph(seed=0, zero_rows=(), zero_cols=(), empty_masks=False, all_zero=False):
    rng = np.random.default_rng(seed)
    adj, y = dc_sbm(np.array([9, 7]), 0.6, 0.15, rng)
    n = adj.shape[0]
    x = rng.standard_normal((n, 11)) * (rng.random((n, 11)) < 0.3)
    x[list(zero_rows), :] = 0.0
    x[:, list(zero_cols)] = 0.0
    if all_zero:
        x[:] = 0.0
    masks = np.zeros((3, n), dtype=bool)
    if not empty_masks:
        masks[0, :6], masks[1, 6:11], masks[2, 11:] = True, True, True
    return Graph(x=x, adj=adj, y=y, num_classes=2,
                 train_mask=masks[0], val_mask=masks[1], test_mask=masks[2])


GRAPHS = {
    "sparse": dict(seed=0),
    "zero-rows-cols": dict(seed=1, zero_rows=(0, 3, 15), zero_cols=(0, 5, 10)),
    "empty-masks": dict(seed=2, empty_masks=True),
    "all-zero": dict(seed=3, all_zero=True),
}


def _dense_forward(model, graph):
    """The model's layers on the dense feature tensor (eval mode)."""
    s = graph.s_op
    if isinstance(model, GCN):
        return model.conv2(s, relu(model.conv1(s, Tensor(graph.x))))
    h = relu(model.conv_in(s, Tensor(graph.x)))
    for layer in model.ortho_layers:
        h = relu(layer(s, h))
    return model.conv_out(s, h)


def _close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= RTOL * scale


def _forward_and_grads(model, forward, graph, probe):
    model.zero_grad()
    out = forward(graph)
    (out * Tensor(probe)).sum().backward()
    return out.data.copy(), [p.grad.copy() for p in model.parameters()]


@pytest.mark.parametrize("cls", [GCN, OrthoGCN], ids=["gcn", "orthogcn"])
@pytest.mark.parametrize("case", sorted(GRAPHS))
def test_sparse_input_matches_dense_reference(cls, case):
    graph = _graph(**GRAPHS[case])
    model = cls(graph.num_features, graph.num_classes, hidden=8, rng=np.random.default_rng(4))
    model.eval()  # dropout off: both paths see the same activations
    probe = np.random.default_rng(5).standard_normal((graph.num_nodes, graph.num_classes))
    out, grads = _forward_and_grads(model, model, graph, probe)
    ref_out, ref_grads = _forward_and_grads(
        model, lambda g: _dense_forward(model, g), graph, probe
    )
    _close(out, ref_out)
    for g, ref in zip(grads, ref_grads):
        _close(g, ref)
    # The first-layer weight gradient is Xᵀ·G: zero on all-zero feature columns.
    first = model.conv1 if cls is GCN else model.conv_in
    zero_cols = ~np.any(graph.x != 0.0, axis=0)
    assert np.all(first.weight.grad[zero_cols] == 0.0)


def test_x_op_holds_the_features():
    graph = _graph(seed=6, zero_rows=(2,), zero_cols=(1,))
    op = graph.x_op
    assert op is graph.x_op  # cached
    assert op.shape == graph.x.shape and op.nnz == np.count_nonzero(graph.x)
    np.testing.assert_array_equal(op.toarray(), graph.x)
    assert graph.copy()._x_op is None  # copy drops the cache

