"""Neural-network building blocks on top of :mod:`repro.autograd`.

Provides the ``Module``/``Parameter`` abstraction (with the flat
``state_dict`` the federated server aggregates), layer initializers
matching the paper's assumptions (§4.3 appeals to Xavier/He Gaussian
initialization), the loss functions of Eq. 12, and first-order optimizers.
"""

from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear
from repro.nn import init
from repro.nn.losses import (
    cross_entropy,
    nll_loss,
    mse_loss,
    orthogonality_loss,
    accuracy,
)
from repro.nn.optim import SGD, Adam, Optimizer, StaleParameterError
from repro.nn.schedulers import (
    CosineAnnealingLR,
    LRScheduler,
    StepLR,
    WarmupLR,
    clip_grad_norm,
)
from repro.nn.serialize import load_checkpoint, load_state, save_checkpoint, save_state

__all__ = [
    "CosineAnnealingLR",
    "LRScheduler",
    "StepLR",
    "WarmupLR",
    "clip_grad_norm",
    "load_checkpoint",
    "load_state",
    "save_checkpoint",
    "save_state",
    "Module",
    "Parameter",
    "StaleParameterError",
    "Linear",
    "init",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "orthogonality_loss",
    "accuracy",
    "SGD",
    "Adam",
    "Optimizer",
]
