"""Learning-rate schedulers and gradient clipping.

Standard training conveniences for users building their own loops on
this substrate.  Schedulers mutate ``optimizer.lr`` in place on
``step()``, mirroring the ``torch.optim.lr_scheduler`` contract.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.nn.module import Parameter
from repro.nn.optim import Optimizer


class LRScheduler:
    """Base: records the initial lr, counts steps."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.step_count = 0

    def step(self) -> float:
        """Advance one step; returns the new learning rate."""
        self.step_count += 1
        new_lr = self._lr_at(self.step_count)
        self.optimizer.lr = new_lr
        return new_lr

    def _lr_at(self, step: int) -> float:
        raise NotImplementedError


class StepLR(LRScheduler):
    """Multiply lr by ``gamma`` every ``step_size`` steps."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5) -> None:
        super().__init__(optimizer)
        if step_size < 1:
            raise ValueError("step_size must be >= 1")
        if not 0 < gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        self.step_size = step_size
        self.gamma = gamma

    def _lr_at(self, step: int) -> float:
        return self.base_lr * self.gamma ** (step // self.step_size)


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from base lr to ``eta_min`` over ``t_max`` steps."""

    def __init__(self, optimizer: Optimizer, t_max: int, eta_min: float = 0.0) -> None:
        super().__init__(optimizer)
        if t_max < 1:
            raise ValueError("t_max must be >= 1")
        self.t_max = t_max
        self.eta_min = eta_min

    def _lr_at(self, step: int) -> float:
        t = min(step, self.t_max)
        return self.eta_min + 0.5 * (self.base_lr - self.eta_min) * (
            1 + math.cos(math.pi * t / self.t_max)
        )


class WarmupLR(LRScheduler):
    """Linear ramp from 0 to base lr over ``warmup_steps``, then flat."""

    def __init__(self, optimizer: Optimizer, warmup_steps: int) -> None:
        super().__init__(optimizer)
        if warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        self.warmup_steps = warmup_steps

    def _lr_at(self, step: int) -> float:
        return self.base_lr * min(1.0, step / self.warmup_steps)


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (the usual diagnostic).  Parameters
    without gradients are skipped.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    params = [p for p in params if p.grad is not None]
    total = math.sqrt(sum(float((p.grad * p.grad).sum()) for p in params))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            # Rebind, never scale in place: a gradient may be borrowed from
            # another edge of the graph (see Tensor._accumulate).
            p.grad = p.grad * scale
    return total
