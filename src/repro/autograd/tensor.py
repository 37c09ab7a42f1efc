"""Core :class:`Tensor` type and the reverse-mode backward pass.

The engine is deliberately small: a ``Tensor`` stores its value, an
optional gradient, and — when it was produced by a differentiable op — the
list of parent tensors plus a ``_backward`` closure that, given the
gradient w.r.t. this tensor, pushes gradients into the parents'
``grad`` buffers.  ``backward()`` runs the closures in reverse
topological order.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from repro.obs import cost as _cost
from repro.obs.metrics import get_registry as _get_metrics

_DEFAULT_DTYPE = np.float64


class _GradMode(threading.local):
    """Thread-local switch mirroring ``torch.no_grad`` semantics."""

    def __init__(self) -> None:
        self.enabled = True


_grad_mode = _GradMode()

# Optional runtime sanitizer (repro.analysis.sanitize.AutogradSanitizer).
# None by default so the hot path pays exactly one `is None` test per op;
# SanitizerSession installs/uninstalls it around a run.
_sanitizer = None


def set_tensor_sanitizer(sanitizer):
    """Install ``sanitizer`` as the process-wide op hook; returns the old one."""
    global _sanitizer
    prev = _sanitizer
    _sanitizer = sanitizer
    return prev


def get_tensor_sanitizer():
    """The currently installed sanitizer (``None`` when disabled)."""
    return _sanitizer


def is_grad_enabled() -> bool:
    """Return ``True`` when new ops will be recorded for backprop."""
    return _grad_mode.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (inference / FL statistics)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` — the adjoint of NumPy broadcasting.

    Broadcasting replicates data; its transpose therefore sums over the
    replicated axes.  Needed by every elementwise binary op.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed value participating in reverse-mode AD.

    Parameters
    ----------
    data:
        Array-like value.  Always stored as a contiguous ``float64``
        ndarray (float64 keeps finite-difference gradient checks tight;
        the graphs used here are small enough that the 2x memory over
        float32 is irrelevant).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = (
        "data", "grad", "requires_grad", "_parents", "_backward", "_op", "_guard", "_owns_grad"
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        _op: str = "",
    ) -> None:
        arr = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        # Whether ``grad`` was allocated here (and may take ``+=``) rather
        # than borrowed from the edge that delivered it.
        self._owns_grad = False
        self.requires_grad: bool = bool(requires_grad)
        self._parents: tuple = tuple(_parents)
        self._backward = _backward
        self._op = _op
        # Sanitizer version-counter snapshot of the parents (see
        # repro.analysis.sanitize); None whenever sanitizers are off.
        self._guard = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        """Create a result tensor, recording the graph only when needed."""
        track = is_grad_enabled() and any(p.requires_grad for p in parents)
        if track:
            out = Tensor(data, requires_grad=True, _parents=parents, _backward=backward, _op=op)
        else:
            out = Tensor(data, requires_grad=False)
        if _sanitizer is not None:
            _sanitizer.after_op(out, parents, op, track)
        # Cost model hook: same zero-cost-when-off contract as the
        # sanitizer (one attribute load + `is None` test per op).
        cc = _cost._collector
        if cc is not None:
            cc.forward_op(op, data, parents)
        return out

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        from repro.autograd.ops_matmul import transpose

        return transpose(self)

    def item(self) -> float:
        """Return the scalar value (errors if not one element)."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_err()

    @staticmethod
    def _item_err():
        raise ValueError("item() requires a single-element tensor")

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, do not mutate mid-graph)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Deep copy of the value, detached from the graph."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into ``self.grad``.

        The first arrival is kept by reference: the incoming array may be
        shared with other edges (``x + x``, pass-through ops), so it is
        never written.  The second arrival allocates ``grad + g``, which
        this tensor owns and later arrivals update with ``+=``.
        """
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=_DEFAULT_DTYPE)
            self._owns_grad = False
        elif self._owns_grad:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._owns_grad = True

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to 1 for scalars (the usual loss case).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar output; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=_DEFAULT_DTYPE)
            if grad.shape != self.data.shape:
                raise ValueError(f"gradient shape {grad.shape} != tensor shape {self.shape}")

        reg = _get_metrics()
        if reg.enabled:
            reg.counter("autograd.backward_calls").inc()

        # Topological order by iterative DFS (recursion depth would blow up
        # on deep unrolled graphs, e.g. many-layer OrthoGCN + CMD sums).
        # The visited set is id()-keyed but transient: every tensor it
        # refers to is kept alive by the graph for the whole walk, so ids
        # cannot be recycled — unlike the cross-call caches RL002 targets.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            # repro-lint: disable=RL002
            if id(node) in visited:
                continue
            visited.add(id(node))  # repro-lint: disable=RL002
            stack.append((node, True))
            for p in node._parents:
                # repro-lint: disable=RL002
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))

        self._accumulate(grad)
        san = _sanitizer
        cc = _cost._collector
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                if san is not None:
                    san.before_backward(node)
                if cc is not None:
                    cc.backward_op(node)
                node._backward(node.grad)
                if san is not None:
                    san.after_backward(node)

    # ------------------------------------------------------------------
    # niceties
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag}, op={self._op!r})"

    def __len__(self) -> int:
        return len(self.data)

    # Arithmetic dunders are attached by ops_basic at import time; a few
    # trivial ones live here so the class is usable standalone.
    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other) -> bool:  # identity semantics (hash-consistent)
        return self is other


def as_tensor(x, requires_grad: bool = False) -> Tensor:
    """Coerce ``x`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x, requires_grad=requires_grad)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    """Zero-filled tensor."""
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    """One-filled tensor."""
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def randn(*shape: int, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> Tensor:
    """Standard-normal tensor (seedable via ``rng``)."""
    gen = rng if rng is not None else np.random.default_rng()
    return Tensor(gen.standard_normal(shape), requires_grad=requires_grad)
