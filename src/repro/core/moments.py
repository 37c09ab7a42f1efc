"""Layer-wise hidden-feature statistics (Algorithm 1 lines 3–7, 12–13).

Two forms of every computation:

* ``*_np`` on plain ndarrays — used when preparing *uploads* (statistics
  leave the autograd graph; uploading tensors with history would leak
  the graph across the simulated network, and a real system would
  serialize plain buffers anyway).
* Tensor versions (differentiable) — used inside the CMD *loss*, where
  gradients must flow back into the model through the client's own
  moments.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.autograd import Tensor, as_tensor


def layer_means_np(hidden: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Per-layer feature means E(Z^l) over nodes — line 4's CalculateMean."""
    out = []
    for z in hidden:
        z = np.asarray(z)
        if z.ndim != 2:
            raise ValueError(f"hidden activations must be 2-D, got {z.shape}")
        out.append(z.mean(axis=0))
    return out


def central_moments_np(
    z: np.ndarray, mean: np.ndarray, orders: Sequence[int]
) -> List[np.ndarray]:
    """j-th central moments of ``z`` about ``mean`` for each j in orders.

    ``mean`` may be the *local* mean (line 6, giving C_j) or the *global*
    mean received from the server (line 13, giving the S_j summands).
    Powers are built incrementally (c^j = c^(j-1)·c), one multiply per
    order up to the largest requested.
    """
    z = np.asarray(z, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if z.ndim != 2 or mean.shape != (z.shape[1],):
        raise ValueError("z must be (n, d) and mean (d,)")
    if any(j < 1 for j in orders):
        raise ValueError("moment orders must be >= 1")
    centered = z - mean
    wanted = set(orders)
    by_order = {}
    power = centered
    for j in range(1, max(orders, default=0) + 1):
        if j > 1:
            power = power * centered
        if j in wanted:
            by_order[j] = power.mean(axis=0)
    return [by_order[j] for j in orders]


def layer_means(hidden: Sequence[Tensor]) -> List[Tensor]:
    """Differentiable per-layer means (the client side of the CMD loss)."""
    out = []
    for z in hidden:
        z = as_tensor(z)
        if z.ndim != 2:
            raise ValueError(f"hidden activations must be 2-D, got {z.shape}")
        out.append(z.mean(axis=0))
    return out


def moments_tensor(z: Tensor, mean: Tensor, orders: Sequence[int]) -> List[Tensor]:
    """Differentiable central moments of ``z`` about ``mean``.

    ``mean`` is typically ``z.mean(axis=0)`` (local) — kept in the graph
    so CMD gradients include the mean's dependence on the activations.
    """
    z = as_tensor(z)
    mean = as_tensor(mean)
    if z.ndim != 2:
        raise ValueError("z must be 2-D")
    # Broadcasting (n, d) - (d,) is handled by ops_basic.sub.
    centered = z - mean
    out = []
    for j in orders:
        if j < 1:
            raise ValueError("moment orders must be >= 1")
        out.append((centered**j).mean(axis=0))
    return out


def empirical_activation_range(hidden: Sequence[np.ndarray]) -> tuple[float, float]:
    """(a, b) bounds of the hidden activations across layers.

    Eq. 11 normalizes each moment order by |b − a|^j; ReLU nets are not
    intrinsically bounded, so the implementation (like the reference CMD
    code for unbounded activations) uses the empirical range.  Returns
    (0, 1) for degenerate all-equal inputs to avoid division by zero.
    """
    lo = min(float(np.min(z)) for z in hidden) if hidden else 0.0
    hi = max(float(np.max(z)) for z in hidden) if hidden else 1.0
    if hi - lo < 1e-12:
        return lo, lo + 1.0
    return lo, hi
