"""First-order optimizers: SGD (with momentum) and Adam, plus weight decay.

Weight decay is L2, folded into the gradient (``g + wd * p``) before the
moment estimates see it, matching the convention of GCN reference
implementations with ``weight_decay=1e-4`` as the paper fixes.

Each optimizer packs its parameters into one contiguous float64 buffer
and rebinds every ``Parameter.data`` once, at construction, to a view of
it.  Offsets are 64-byte aligned and the padding between parameters is
zero; moment buffers share the layout.  A step walks the flat buffer in
blocks of ``_BLOCK`` elements (small parameters share a block) and
applies the textbook update in place, one ufunc at a time into two
per-thread scratch blocks, so the working set stays in a core's L2 and
nothing is allocated.  The padding sees a zero gradient and stays zero.
Every element sees the same ufunc sequence as the whole-array formula,
so the result is bitwise the same (NaN payloads aside: which NaN
``x ⊕ y`` keeps when both are NaN depends on NumPy's loop for the
operands' alignment).  Rebinding a ``Parameter.data`` afterwards
(or handing the parameter to a second optimizer, which rebinds it into
its own buffer) raises :class:`StaleParameterError` at the next step.
"""

from __future__ import annotations

import functools
import threading
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.nn.module import Parameter

#: Elements per block of an in-place step: 128 kB of float64, so the six
#: arrays a block touches (768 kB) stay in a 2 MB per-core L2.
_BLOCK = 16384
#: Parameter offsets in the flat buffer are multiples of this many elements (64 bytes).
_ALIGN = 8


class StaleParameterError(RuntimeError):
    """A parameter's ``data`` is no longer the view its optimizer packed."""


class _Scratch(threading.local):
    """Two ``_BLOCK``-element work arrays per thread (clients step in parallel)."""

    def __init__(self) -> None:
        self.a = np.empty(_BLOCK)
        self.b = np.empty(_BLOCK)


_scratch = _Scratch()


def _aligned_zeros(n: int, count: int) -> List[np.ndarray]:
    """``count`` arrays of ``n`` float64 zeros, each starting on a 64-byte boundary.

    One allocation backs them all (``n`` is a multiple of ``_ALIGN``).
    """
    raw = np.zeros(count * n + _ALIGN)
    start = (-raw.ctypes.data % (8 * _ALIGN)) // 8
    return [raw[start + i * n : start + (i + 1) * n] for i in range(count)]


@functools.lru_cache(maxsize=64)
def _layout(sizes: Tuple[int, ...]) -> tuple:
    """Offsets, padded length and block plan of the flat buffer for parameters of ``sizes``.

    The plan lists, per block, its bounds and the pieces of parameters in
    it as ``(parameter index, start in the parameter, start in the block,
    length)``.  Shared by every optimizer over the same architecture.
    """
    offsets = []
    end = 0
    for size in sizes:
        offsets.append(end)
        end += -(-size // _ALIGN) * _ALIGN
    plan = []
    for lo in range(0, end, _BLOCK):
        hi = min(lo + _BLOCK, end)
        pieces = []
        for i, (off, size) in enumerate(zip(offsets, sizes)):
            start, stop = max(lo, off), min(hi, off + size)
            if start < stop:
                pieces.append((i, start - off, start - lo, stop - start))
        plan.append((lo, hi, tuple(pieces)))
    return tuple(offsets), end, tuple(plan)


class Optimizer:
    """Base: packs the parameters into one flat buffer; ``zero_grad``/``step`` contract."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        weight_decay: float = 0.0,
        state_buffers: int = 0,
    ) -> None:
        """``state_buffers`` is how many buffers of the flat layout a subclass keeps (``_state``)."""
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("optimizer received the same parameter twice")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.lr = lr
        self.weight_decay = weight_decay
        self._offsets, end, self._plan = _layout(tuple(p.data.size for p in self.params))
        self._flat, *self._state = _aligned_zeros(end, 1 + state_buffers)
        self._views = [
            self._flat[off : off + p.data.size].reshape(p.data.shape)
            for p, off in zip(self.params, self._offsets)
        ]
        for p, view in zip(self.params, self._views):
            view[...] = p.data
            p.data = view

    @property
    def flat(self) -> np.ndarray:
        """The flat parameter buffer (live; the padding between parameters is ``+0.0``)."""
        return self._flat

    @property
    def flat_end(self) -> int:
        """One past the last parameter element in :attr:`flat` (trailing padding excluded)."""
        return self._offsets[-1] + self._views[-1].size

    def _unpack(self, flat: np.ndarray) -> List[np.ndarray]:
        """Per-parameter views of a buffer with the flat layout."""
        return [
            flat[off : off + view.size].reshape(view.shape)
            for view, off in zip(self._views, self._offsets)
        ]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _blocks(self) -> Iterator[Tuple[slice, np.ndarray]]:
        """``(seg, g)`` for every block of the flat buffer: its slice and its gradient.

        ``g`` has weight decay folded in (``grad + wd * p``, with a zero
        gradient for a parameter whose ``grad`` is ``None`` and for the
        padding, which therefore stays ``+0.0``).  It is a slice of
        ``p.grad``, which is only read, when the block lies inside one
        parameter and there is no weight decay, and a slice of
        ``_scratch.a`` otherwise; callers work in ``_scratch.b`` while
        ``g`` is live.
        """
        for p, view in zip(self.params, self._views):
            if p.data is not view:
                raise StaleParameterError(
                    f"a parameter of shape {view.shape} was rebound after its optimizer "
                    "packed it (assigned a new .data, or handed to another optimizer); "
                    "update values in place or build a new optimizer"
                )
        grads = [
            None if p.grad is None else np.ascontiguousarray(p.grad).reshape(-1)
            for p in self.params
        ]
        wd = self.weight_decay
        a, b = _scratch.a, _scratch.b
        flat = self._flat
        for lo, hi, pieces in self._plan:
            n = hi - lo
            seg = slice(lo, hi)
            i, start, _, length = pieces[0]
            if length == n and grads[i] is not None:
                # The block lies inside one parameter: read its gradient in place.
                g = grads[i][start : start + n]
            else:
                g = a[:n]
                g.fill(0.0)
                for i, start, at, length in pieces:
                    if grads[i] is not None:
                        g[at : at + length] = grads[i][start : start + length]
            if wd:
                t = b[:n]
                np.multiply(wd, flat[seg], out=t)
                g = np.add(g, t, out=a[:n])
            yield seg, g

    # -- checkpointing ----------------------------------------------------
    def state_dict(self) -> dict:
        """Internal state (copied) for checkpoint/resume.

        Base optimizers are stateless; subclasses with moment estimates
        override both methods.  Hyper-parameters are not included — they
        come from the config that rebuilt the optimizer.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        if state:
            raise ValueError(f"{type(self).__name__} carries no state, got {set(state)}")

    def _load_buffers(self, flat: np.ndarray, arrays, what: str) -> None:
        """Copy per-parameter ``arrays`` into the views of ``flat``."""
        views = self._unpack(flat)
        if len(arrays) != len(views):
            raise ValueError(f"{what} state has wrong number of buffers")
        for dst, src in zip(views, arrays):
            if dst.shape != np.shape(src):
                raise ValueError(f"{what} shape mismatch")
            dst[...] = src


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        super().__init__(params, lr, weight_decay, state_buffers=1 if momentum else 0)
        self.momentum = momentum
        self._velocity = self._state[0] if momentum else None

    def step(self) -> None:
        """``v = momentum * v + g; p -= lr * v`` (``p -= lr * g`` without momentum)."""
        lr, momentum, velocity = self.lr, self.momentum, self._velocity
        flat, b = self._flat, _scratch.b
        for seg, g in self._blocks():
            if velocity is not None:
                v = velocity[seg]
                v *= momentum
                v += g
                g = v
            t = b[: len(g)]
            np.multiply(lr, g, out=t)
            p = flat[seg]
            p -= t

    def state_dict(self) -> dict:
        if self._velocity is None:
            return {}
        return {"velocity": [v.copy() for v in self._unpack(self._velocity)]}

    def load_state_dict(self, state: dict) -> None:
        if self._velocity is None:
            super().load_state_dict(state)
            return
        if set(state) != {"velocity"}:
            raise ValueError("SGD momentum state mismatch")
        self._load_buffers(self._velocity, state["velocity"], "SGD momentum")


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction.

    The de-facto optimizer for GCN training; used by all experiments
    since the paper does not specify one and Ortho-GCN [11] uses Adam.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        if not eps > 0:
            # eps = 0 would divide 0/0 wherever v is zero, the padding included.
            raise ValueError(f"eps must be positive, got {eps}")
        super().__init__(params, lr, weight_decay, state_buffers=2)
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.t = 0
        self._m, self._v = self._state

    def step(self) -> None:
        """``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g²; p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``."""
        self.t += 1
        b1, b2, t = self.b1, self.b2, self.t
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        lr, eps = self.lr, self.eps
        flat, m_all, v_all = self._flat, self._m, self._v
        a, b = _scratch.a, _scratch.b
        for seg, g in self._blocks():
            n = len(g)
            m, v, ta, tb = m_all[seg], v_all[seg], a[:n], b[:n]
            m *= b1
            np.multiply(1 - b1, g, out=tb)
            m += tb
            v *= b2
            np.multiply(g, g, out=tb)
            np.multiply(1 - b2, tb, out=tb)
            v += tb
            # g is dead from here: `a` is free.
            np.divide(m, bc1, out=ta)
            np.multiply(lr, ta, out=ta)
            np.divide(v, bc2, out=tb)
            np.sqrt(tb, out=tb)
            np.add(tb, eps, out=tb)
            np.divide(ta, tb, out=ta)
            p = flat[seg]
            p -= ta

    def reset_state(self) -> None:
        """Clear moment estimates (used when a new global model arrives)."""
        self.t = 0
        self._m.fill(0.0)
        self._v.fill(0.0)

    def state_dict(self) -> dict:
        """Step count + moment estimates — everything resume needs for
        bitwise-identical continuation of the update sequence."""
        return {
            "t": self.t,
            "m": [m.copy() for m in self._unpack(self._m)],
            "v": [v.copy() for v in self._unpack(self._v)],
        }

    def load_state_dict(self, state: dict) -> None:
        if set(state) != {"t", "m", "v"}:
            raise ValueError(f"Adam state needs keys t/m/v, got {set(state)}")
        if len(state["m"]) != len(self.params) or len(state["v"]) != len(self.params):
            raise ValueError("Adam state has wrong number of moment buffers")
        self._load_buffers(self._m, state["m"], "Adam first-moment")
        self._load_buffers(self._v, state["v"], "Adam second-moment")
        self.t = int(state["t"])
