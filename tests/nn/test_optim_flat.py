"""The flat, blocked, in-place optimizers against the textbook per-parameter ones.

``repro.nn.optim`` packs every parameter into one flat buffer and steps
it in ``_BLOCK``-element blocks through two scratch arrays.  The
reference below is the straightforward per-parameter formulation (one
whole-array expression per update, allocating its temporaries), kept
verbatim as the specification.  Over several steps, the flat
optimizers must match it bitwise (NaN payloads aside, see ``_words``)
in the parameters and in every moment buffer: sizes around the block edges and the 3703×64 Citeseer
first layer, with and without weight decay and momentum, parameters
without a gradient, ``±0.0``/NaN/``±inf`` gradients, a learning rate
changed mid-run, ``reset_state``, and a checkpoint resume mid-run.  The
padding between parameters must stay ``+0.0``.

Rebinding a ``Parameter.data`` the optimizer packed, or handing the
parameter to a second optimizer, must fail loudly at the next step.
"""

from typing import Iterable, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import SGD, Adam, StaleParameterError
from repro.nn import optim as optim_mod
from repro.nn.module import Parameter

B = optim_mod._BLOCK
SIZES = [(1,), (7,), (8,), (9,), (B - 1,), (B,), (B + 1,), (3703, 64)]
SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])


# ---------------------------------------------------------------------------
# reference: the per-parameter optimizers, verbatim
# ---------------------------------------------------------------------------
class RefOptimizer:
    def __init__(self, params: Iterable[Parameter], lr: float, weight_decay: float = 0.0) -> None:
        self.params: List[Parameter] = list(params)
        self.lr = lr
        self.weight_decay = weight_decay

    def _grad(self, p: Parameter) -> np.ndarray:
        """Gradient with L2 weight decay folded in (0 when p has no grad)."""
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        return g


class RefSGD(RefOptimizer):
    def __init__(self, params, lr=0.01, momentum=0.0, weight_decay=0.0) -> None:
        super().__init__(params, lr, weight_decay)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params] if momentum else None

    def step(self) -> None:
        for i, p in enumerate(self.params):
            g = self._grad(p)
            if self._velocity is not None:
                v = self._velocity[i]
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g

    def state_dict(self) -> dict:
        if self._velocity is None:
            return {}
        return {"velocity": [v.copy() for v in self._velocity]}


class RefAdam(RefOptimizer):
    def __init__(self, params, lr=0.01, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0) -> None:
        super().__init__(params, lr, weight_decay)
        b1, b2 = betas
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2, t = self.b1, self.b2, self.t
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        for i, p in enumerate(self.params):
            g = self._grad(p)
            m, v = self._m[i], self._v[i]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def reset_state(self) -> None:
        self.t = 0
        for m in self._m:
            m[...] = 0.0
        for v in self._v:
            v[...] = 0.0

    def state_dict(self) -> dict:
        return {
            "t": self.t,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _words(a) -> bytes:
    """The bits of ``a``, with every NaN written as the one canonical NaN.

    Which operand's NaN ``x ⊕ y`` returns when both are NaN (and so the
    sign of the result) depends on NumPy's loop for the operands'
    memory alignment; the reference itself flips it when its
    temporaries move.  Zeros, infinities and finite values keep every bit.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    return np.where(np.isnan(a), np.nan, a).view(np.uint64).tobytes()


def _assert_state_equal(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key in want:
        if isinstance(want[key], list):
            assert [v.shape for v in got[key]] == [v.shape for v in want[key]]
            assert list(map(_words, got[key])) == list(map(_words, want[key]))
        else:
            assert got[key] == want[key]


def _assert_padding_zero(opt) -> None:
    buffers = [opt.flat] + [
        b for b in (getattr(opt, "_m", None), getattr(opt, "_v", None),
                    getattr(opt, "_velocity", None)) if b is not None
    ]
    real = np.zeros(opt.flat.size, dtype=bool)
    for p, off in zip(opt.params, opt._offsets):
        real[off : off + p.size] = True
    for buf in buffers:
        assert buf.size == opt.flat.size
        assert not buf.view(np.uint64)[~real].any()


def _gradient(rng, shape, mode):
    if mode == "none":
        return None
    g = rng.standard_normal(shape)
    if mode == "special":
        hits = rng.random(shape) < 0.3
        g[hits] = rng.choice(SPECIALS, size=int(hits.sum()))
    if mode == "fortran":  # e.g. a transpose's gradient, borrowed as is
        g = np.asfortranarray(g)
    return g


def _make(kind, params, lr, weight_decay, momentum):
    if kind == "adam":
        return (Adam(params[0], lr=lr, weight_decay=weight_decay),
                RefAdam(params[1], lr=lr, weight_decay=weight_decay))
    return (SGD(params[0], lr=lr, momentum=momentum, weight_decay=weight_decay),
            RefSGD(params[1], lr=lr, momentum=momentum, weight_decay=weight_decay))


@st.composite
def runs(draw):
    shapes = draw(st.lists(st.sampled_from(SIZES), min_size=1, max_size=4))
    if sum(int(np.prod(s)) for s in shapes) > 300_000:
        shapes = [s for s in shapes if s != (3703, 64)] + [(3703, 64)]
    steps = draw(st.integers(1, 4))
    return dict(
        shapes=shapes,
        kind=draw(st.sampled_from(["adam", "sgd"])),
        lr=draw(st.sampled_from([0.01, 0.5])),
        weight_decay=draw(st.sampled_from([0.0, 1e-4, 0.3])),
        momentum=draw(st.sampled_from([0.0, 0.9])),
        modes=[[draw(st.sampled_from(["normal", "none", "special", "fortran"])) for _ in shapes]
               for _ in range(steps)],
        new_lr_at=draw(st.one_of(st.none(), st.integers(0, steps - 1))),
        minus_zero_data=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _params(run):
    rng = np.random.default_rng(run["seed"])
    values = [rng.standard_normal(s) for s in run["shapes"]]
    if run["minus_zero_data"]:
        for v in values:
            v.flat[:: 3] = -0.0
    return [[Parameter(v.copy()) for v in values] for _ in range(2)]


def _set_grads(rng, params, modes):
    grads = [_gradient(rng, p.shape, mode) for p, mode in zip(params[0], modes)]
    for side in params:
        for p, g in zip(side, grads):
            p.grad = None if g is None else g.copy(order="K")


# ---------------------------------------------------------------------------
# differential suite
# ---------------------------------------------------------------------------
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(run=runs())
def test_flat_step_is_bitwise_the_reference(run):
    params = _params(run)
    flat, ref = _make(run["kind"], params, run["lr"], run["weight_decay"], run["momentum"])
    rng = np.random.default_rng(run["seed"] + 1)
    for i, modes in enumerate(run["modes"]):
        if i == run["new_lr_at"]:
            flat.lr = ref.lr = run["lr"] * 0.37
        _set_grads(rng, params, modes)
        flat.step()
        ref.step()
        assert list(map(_words, (p.data for p in params[0]))) == \
            list(map(_words, (p.data for p in params[1])))
        _assert_state_equal(flat.state_dict(), ref.state_dict())
    _assert_padding_zero(flat)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=15, deadline=None)
@given(run=runs(), cut=st.integers(0, 3), reset=st.booleans())
def test_reset_and_resume_mid_run_match_the_reference(run, cut, reset):
    run = dict(run, kind="adam")
    params = _params(run)
    flat, ref = _make("adam", params, run["lr"], run["weight_decay"], 0.0)
    rng = np.random.default_rng(run["seed"] + 1)
    for i, modes in enumerate(run["modes"]):
        if i == min(cut, len(run["modes"]) - 1):
            if reset:
                flat.reset_state()
                ref.reset_state()
            else:
                # Resume: fresh parameters and optimizer from the checkpoint.
                state = flat.state_dict()
                params[0] = [Parameter(p.data.copy()) for p in params[0]]
                flat = Adam(params[0], lr=run["lr"], weight_decay=run["weight_decay"])
                flat.load_state_dict(state)
        _set_grads(rng, params, modes)
        flat.step()
        ref.step()
        assert list(map(_words, (p.data for p in params[0]))) == \
            list(map(_words, (p.data for p in params[1])))
    _assert_state_equal(flat.state_dict(), ref.state_dict())
    _assert_padding_zero(flat)


def test_sgd_momentum_resume_is_bitwise():
    rng = np.random.default_rng(0)
    values = [rng.standard_normal(s) for s in [(B + 1,), (3, 5)]]
    a = [Parameter(v.copy()) for v in values]
    b = [Parameter(v.copy()) for v in values]
    opt_a = SGD(a, lr=0.1, momentum=0.9, weight_decay=1e-4)
    opt_b = SGD(b, lr=0.1, momentum=0.9, weight_decay=1e-4)
    grads = [[rng.standard_normal(v.shape) for v in values] for _ in range(4)]
    for step, gs in enumerate(grads):
        if step == 2:
            state = opt_b.state_dict()
            b = [Parameter(p.data.copy()) for p in b]
            opt_b = SGD(b, lr=0.1, momentum=0.9, weight_decay=1e-4)
            opt_b.load_state_dict(state)
        for side in (a, b):
            for p, g in zip(side, gs):
                p.grad = g
        opt_a.step()
        opt_b.step()
    assert list(map(_words, (p.data for p in a))) == list(map(_words, (p.data for p in b)))


# ---------------------------------------------------------------------------
# the flat layout
# ---------------------------------------------------------------------------
def test_layout_is_aligned_contiguous_and_keeps_values():
    rng = np.random.default_rng(1)
    values = [rng.standard_normal(s) for s in [(3, 5), (7,), (1,), (4, 4)]]
    params = [Parameter(v.copy()) for v in values]
    opt = Adam(params)
    for p, v, off in zip(params, values, opt._offsets):
        assert np.shares_memory(p.data, opt.flat)
        assert p.data.ctypes.data % 64 == 0
        assert p.data.flags.c_contiguous
        assert off % optim_mod._ALIGN == 0
        assert _words(p.data) == _words(v)
    for buf in (opt.flat, opt._m, opt._v):
        assert buf.ctypes.data % 64 == 0
    assert opt.flat_end == opt._offsets[-1] + 16
    _assert_padding_zero(opt)


def test_load_state_dict_rejects_wrong_shapes():
    opt = Adam([Parameter(np.ones((2, 3)))])
    with pytest.raises(ValueError, match="shape mismatch"):
        opt.load_state_dict({"t": 1, "m": [np.ones(6)], "v": [np.ones((2, 3))]})
    with pytest.raises(ValueError, match="wrong number"):
        opt.load_state_dict({"t": 1, "m": [], "v": []})


def test_same_parameter_twice_is_rejected():
    p = Parameter(np.ones(3))
    with pytest.raises(ValueError, match="twice"):
        Adam([p, p])


def test_bad_hyperparameters_leave_parameters_unpacked():
    p = Parameter(np.ones(3))
    opt = Adam([p])
    with pytest.raises(ValueError):
        SGD([p], momentum=1.0)
    with pytest.raises(ValueError):
        Adam([p], betas=(1.0, 0.9))
    opt.step()  # still bound to the first optimizer's buffer


# ---------------------------------------------------------------------------
# guard at the boundary
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cls", [SGD, Adam])
def test_rebinding_parameter_data_raises_at_next_step(cls):
    p = Parameter(np.ones(3))
    q = Parameter(np.ones(2))
    opt = cls([p, q], lr=0.1)
    opt.step()
    q.data = np.zeros(2)
    before = p.data.copy()
    with pytest.raises(StaleParameterError, match="rebound"):
        opt.step()
    # Nothing was updated: the check runs before the first block.
    assert _words(p.data) == _words(before)


@pytest.mark.parametrize("cls", [SGD, Adam])
def test_parameter_handed_to_second_optimizer_raises_in_the_first(cls):
    p = Parameter(np.ones(3))
    first = cls([p], lr=0.1)
    second = cls([p], lr=0.1)
    p.grad = np.ones(3)
    second.step()
    with pytest.raises(StaleParameterError):
        first.step()


def test_in_place_writes_are_seen_by_the_optimizer():
    p = Parameter(np.ones(3))
    opt = SGD([p], lr=1.0)
    p.data[...] = 5.0
    p.grad = np.ones(3)
    opt.step()
    assert np.array_equal(opt.flat[:3], [4.0, 4.0, 4.0])


def test_adam_rejects_non_positive_eps():
    with pytest.raises(ValueError, match="eps"):
        Adam([Parameter(np.ones(3))], eps=0.0)
