"""Tests for Module/Parameter registration and state_dict round-trips."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Linear, Module, Parameter


class TwoLayer(Module):
    def __init__(self, rng=None):
        super().__init__()
        gen = rng or np.random.default_rng(0)
        self.fc1 = Linear(4, 8, rng=gen)
        self.fc2 = Linear(8, 3, rng=gen)
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu()) * self.scale


class TestRegistration:
    def test_parameters_found(self):
        m = TwoLayer()
        names = [n for n, _ in m.named_parameters()]
        assert "scale" in names
        assert "fc1.weight" in names and "fc1.bias" in names
        assert "fc2.weight" in names and "fc2.bias" in names

    def test_parameter_count(self):
        m = TwoLayer()
        assert m.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3 + 1

    def test_deterministic_order(self):
        a = [n for n, _ in TwoLayer().named_parameters()]
        b = [n for n, _ in TwoLayer().named_parameters()]
        assert a == b

    def test_add_module(self):
        m = Module()
        lin = m.add_module("lin0", Linear(2, 2, rng=np.random.default_rng(0)))
        assert lin is m.lin0
        assert any(n.startswith("lin0.") for n, _ in m.named_parameters())

    def test_modules_iterates_tree(self):
        m = TwoLayer()
        assert len(list(m.modules())) == 3  # self + fc1 + fc2

    def test_nested_modules(self):
        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.inner = TwoLayer()

        names = [n for n, _ in Outer().named_parameters()]
        assert "inner.fc1.weight" in names


class TestStateDict:
    def test_round_trip(self):
        m1 = TwoLayer(np.random.default_rng(1))
        m2 = TwoLayer(np.random.default_rng(2))
        m2.load_state_dict(m1.state_dict())
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_state_dict_is_copy(self):
        m = TwoLayer()
        sd = m.state_dict()
        sd["scale"][0] = 99.0
        assert m.scale.data[0] == 1.0

    def test_load_copies_not_aliases(self):
        m = TwoLayer()
        sd = m.state_dict()
        m.load_state_dict(sd)
        sd["scale"][0] = 42.0
        assert m.scale.data[0] == 1.0

    def test_strict_missing_key(self):
        m = TwoLayer()
        sd = m.state_dict()
        del sd["scale"]
        with pytest.raises(KeyError):
            m.load_state_dict(sd)

    def test_strict_unexpected_key(self):
        m = TwoLayer()
        sd = m.state_dict()
        sd["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            m.load_state_dict(sd)

    def test_non_strict_partial_load(self):
        m = TwoLayer()
        before = m.fc1.weight.data.copy()
        m.load_state_dict({"scale": np.array([5.0])}, strict=False)
        assert m.scale.data[0] == 5.0
        np.testing.assert_array_equal(m.fc1.weight.data, before)

    def test_shape_mismatch_rejected(self):
        m = TwoLayer()
        sd = m.state_dict()
        sd["scale"] = np.zeros(2)
        with pytest.raises(ValueError):
            m.load_state_dict(sd)

    @pytest.mark.parametrize("strict", [True, False])
    def test_failed_load_changes_nothing(self, strict):
        # A shape error on a later parameter used to raise after the
        # earlier ones were already overwritten.
        m = TwoLayer()
        before = {n: p.data.copy() for n, p in m.named_parameters()}
        sd = {n: np.full_like(v, 7.0) for n, v in before.items()}
        assert list(sd)[-1] == "fc2.bias"
        sd["fc2.bias"] = np.zeros(4)  # the last parameter in load order
        with pytest.raises(ValueError, match="fc2.bias"):
            m.load_state_dict(sd, strict=strict)
        for n, p in m.named_parameters():
            assert p.data.tobytes() == before[n].tobytes(), n


class TestTrainEval:
    def test_train_eval_recursive(self):
        m = TwoLayer()
        m.eval()
        assert not m.training and not m.fc1.training
        m.train()
        assert m.training and m.fc2.training


class TestGradients:
    def test_zero_grad(self):
        m = TwoLayer()
        x = Tensor(np.random.default_rng(0).standard_normal((5, 4)))
        m(x).sum().backward()
        assert m.fc1.weight.grad is not None
        m.zero_grad()
        assert m.fc1.weight.grad is None

    def test_grad_dict_zeros_for_unused(self):
        m = TwoLayer()
        gd = m.grad_dict()
        assert set(gd) == set(m.state_dict())
        assert all(np.all(v == 0) for v in gd.values())

    def test_forward_backward_updates_all(self):
        m = TwoLayer()
        x = Tensor(np.random.default_rng(3).standard_normal((6, 4)))
        (m(x) ** 2).sum().backward()
        gd = m.grad_dict()
        # relu may zero some fc1 grads but not all of them
        assert any(np.abs(v).sum() > 0 for v in gd.values())
        assert np.abs(gd["fc2.weight"]).sum() > 0


class TestLinear:
    def test_forward_shape(self):
        lin = Linear(4, 7, rng=np.random.default_rng(0))
        out = lin(Tensor(np.zeros((3, 4))))
        assert out.shape == (3, 7)

    def test_no_bias(self):
        lin = Linear(4, 7, bias=False, rng=np.random.default_rng(0))
        assert lin.bias is None
        assert lin.num_parameters() == 28

    def test_bias_starts_zero(self):
        lin = Linear(4, 7, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(lin.bias.data, np.zeros(7))

    def test_seeded_reproducible(self):
        a = Linear(5, 5, rng=np.random.default_rng(42))
        b = Linear(5, 5, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_init_selection(self):
        lin = Linear(4, 4, init="orthogonal", rng=np.random.default_rng(0))
        w = lin.weight.data
        np.testing.assert_allclose(w @ w.T, np.eye(4), atol=1e-10)
