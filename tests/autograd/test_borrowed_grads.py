"""Borrowed gradients against copy-on-first-arrival.

``Tensor._accumulate`` keeps the first gradient that reaches a tensor by
reference, allocates ``grad + g`` on the second arrival, and updates
with ``+=`` only the array it allocated.  The reference below is the
simple rule it replaces: copy the first arrival, then ``+=``.  On graphs
where one array reaches several parents (``x + x``, ``add`` passing its
gradient through to both operands, ``_unbroadcast`` returning its input,
a tensor with three consumers, views from ``reshape`` and ``transpose``)
every gradient must be bitwise the reference's, and no array delivered
along an edge may change before ``backward`` returns.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, matmul, relu, tsum
from repro.autograd.ops_basic import exp
from repro.autograd.ops_matmul import transpose
from repro.autograd.ops_shape import reshape
from repro.nn import SGD, Adam, clip_grad_norm
from repro.nn.module import Parameter


def _copy_on_first_arrival(self, grad):
    if self.grad is None:
        self.grad = grad.astype(np.float64, copy=True)
    else:
        self.grad += grad


def _x_plus_x(t, w):
    return tsum((t["x"] + t["x"]) * w["m"])


def _add_pass_through(t, w):
    # a and b receive the very same array; a then gets a second arrival.
    return tsum((t["a"] + t["b"]) * w["m"]) + tsum(t["a"] * t["a"])


def _unbroadcast_identity(t, w):
    # a's gradient is the sum's output gradient as is; r's is reduced.
    return tsum((t["a"] + t["r"]) * w["m"]) + tsum(relu(t["a"]) * w["m"])


def _three_consumers(t, w):
    x = t["x"]
    return tsum(x * w["m"]) + tsum(exp(x)) + tsum(matmul(x, w["sq"]) * w["m"])


def _views(t, w):
    # transpose and reshape hand their parents views of one gradient.
    x = t["x"]
    return tsum(transpose(x) * w["mt"]) + tsum(reshape(x, 12) * w["flat"]) + tsum(x * x)


GRAPHS = {
    "x_plus_x": (_x_plus_x, ["x"]),
    "add_pass_through": (_add_pass_through, ["a", "b"]),
    "unbroadcast_identity": (_unbroadcast_identity, ["a", "r"]),
    "three_consumers": (_three_consumers, ["x"]),
    "views": (_views, ["x"]),
}


def _leaves(names, seed):
    rng = np.random.default_rng(seed)
    shapes = {"r": (1, 4)}
    return {n: Tensor(rng.standard_normal(shapes.get(n, (3, 4))), requires_grad=True)
            for n in names}


def _weights(seed):
    rng = np.random.default_rng(seed + 1)
    return {"m": rng.standard_normal((3, 4)), "sq": rng.standard_normal((4, 4)),
            "mt": rng.standard_normal((4, 3)), "flat": rng.standard_normal(12)}


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradients_equal_copy_on_first_arrival_and_edges_stay_intact(graph, seed, monkeypatch):
    build, names = GRAPHS[graph]
    weights = _weights(seed)

    ref = _leaves(names, seed)
    with monkeypatch.context() as m:
        m.setattr(Tensor, "_accumulate", _copy_on_first_arrival)
        build(ref, weights).backward()

    arrivals = []
    borrow = Tensor._accumulate

    def recording(self, grad):
        arrivals.append((grad, np.array(grad).tobytes()))
        borrow(self, grad)

    got = _leaves(names, seed)
    with monkeypatch.context() as m:
        m.setattr(Tensor, "_accumulate", recording)
        build(got, weights).backward()

    for name in names:
        assert got[name].grad.shape == ref[name].grad.shape
        assert got[name].grad.tobytes() == ref[name].grad.tobytes(), name
    assert arrivals
    for arr, before in arrivals:
        assert np.array(arr).tobytes() == before


def test_second_arrival_allocates_and_third_accumulates_in_place():
    x = Tensor(np.ones(3), requires_grad=True)
    first, second, third = np.full(3, 1.0), np.full(3, 2.0), np.full(3, 4.0)
    x._accumulate(first)
    assert x.grad is first
    x._accumulate(second)
    owned = x.grad
    assert owned is not first and owned is not second
    x._accumulate(third)
    assert x.grad is owned
    np.testing.assert_array_equal(owned, [7.0, 7.0, 7.0])
    np.testing.assert_array_equal(first, [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(second, [2.0, 2.0, 2.0])


def test_zero_grad_forgets_ownership():
    x = Tensor(np.ones(2), requires_grad=True)
    x._accumulate(np.ones(2))
    x._accumulate(np.ones(2))
    x.zero_grad()
    borrowed = np.full(2, 3.0)
    x._accumulate(borrowed)
    x._accumulate(np.ones(2))
    np.testing.assert_array_equal(borrowed, [3.0, 3.0])


@pytest.mark.parametrize("cls", [SGD, Adam])
def test_parameters_sharing_one_gradient_array_step_like_the_reference(cls, monkeypatch):
    # p and q hold the same gradient array after `p + q`; each optimizer
    # step must read it, never write it.
    def run(accumulate):
        rng = np.random.default_rng(3)
        p, q = (Parameter(rng.standard_normal((2, 3))) for _ in range(2))
        opt = cls([p, q], lr=0.1, weight_decay=1e-4)
        with monkeypatch.context() as m:
            if accumulate is not None:
                m.setattr(Tensor, "_accumulate", accumulate)
            for _ in range(3):
                opt.zero_grad()
                tsum((p + q) * Tensor(rng.standard_normal((2, 3)))).backward()
                opt.step()
        return p, q

    p, q = run(None)
    assert p.grad is q.grad  # borrowed: one array serves both
    ref_p, ref_q = run(_copy_on_first_arrival)
    assert p.data.tobytes() == ref_p.data.tobytes()
    assert q.data.tobytes() == ref_q.data.tobytes()


def test_clip_grad_norm_scales_shared_gradients_once():
    p = Parameter(np.full((2, 2), 1.0))
    q = Parameter(np.full((2, 2), 2.0))
    tsum((p + q) * Tensor(np.full((2, 2), 3.0))).backward()
    assert p.grad is q.grad
    shared = p.grad
    clip_grad_norm([p, q], max_norm=1.0)
    np.testing.assert_array_equal(shared, np.full((2, 2), 3.0))
    np.testing.assert_allclose(p.grad, np.full((2, 2), 3.0 / np.sqrt(72.0)))
    np.testing.assert_allclose(q.grad, p.grad)
