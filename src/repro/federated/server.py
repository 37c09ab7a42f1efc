"""Server-side aggregation: FedAvg and variants.

Implements algorithm 1's ServerUpdate (lines 26–29): the weighted average
``W̄ = Σ λ_i W_i`` with λ_i proportional to party sample counts (the
McMahan et al. 2017 weighting) or uniform (Eq. 2's plain mean).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

StateDict = Dict[str, np.ndarray]

#: Elements per FedAvg block: 256 KiB of float64, so the block of the
#: accumulator and its scratch stay in L2 across all the states.
_BLOCK = 32768


def fedavg(states: Sequence[StateDict], weights: Optional[Sequence[float]] = None) -> StateDict:
    """Weighted average of parameter dictionaries.

    Parameters
    ----------
    states:
        One ``state_dict`` per client (identical key sets and shapes).
    weights:
        Aggregation weights λ_i (normalized internally).  ``None`` means
        uniform.  Sample-count weighting is ``weights=[n_1, …, n_M]``.

    Each element takes the sequence ``acc = 0; acc += λ_i·s_i`` in state
    order, so the result is bitwise that of the plain loop; large
    parameters are summed block by block through one scratch buffer
    instead of a full-size ``λ_i·s_i`` temporary per state.
    """
    if not states:
        raise ValueError("no states to aggregate")
    keys = set(states[0])
    for s in states[1:]:
        if set(s) != keys:
            raise KeyError("state dicts disagree on parameter names")
    if weights is None:
        n_contributing = len(states)  # uniform λ over who actually uploaded
        lam = np.full(n_contributing, 1.0 / n_contributing)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if len(w) != len(states):
            raise ValueError("one weight per state required")
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative and sum positive")
        lam = w / w.sum()
    out: StateDict = {}
    scratch = np.empty(0)
    mul, add = np.multiply, np.add  # bound once: called per state and block
    for k, first in states[0].items():
        acc = np.zeros_like(first, order="C")
        n = acc.size
        dtype = np.result_type(lam[0], first)
        if scratch.dtype != dtype or scratch.size < min(n, _BLOCK):
            scratch = np.empty(min(n, _BLOCK), dtype=dtype)
        if n <= _BLOCK:
            tmp = scratch[:n].reshape(acc.shape)
            for lam_i, s in zip(lam, states):
                m = s[k]
                if m.shape != acc.shape:
                    raise ValueError(f"shape mismatch for {k}")
                mul(lam_i, m, tmp)
                add(acc, tmp, acc)
        else:
            sources = []
            for s in states:
                if s[k].shape != acc.shape:
                    raise ValueError(f"shape mismatch for {k}")
                sources.append(s[k].reshape(-1))
            # Take one block through every state before moving on, so
            # that block of ``acc`` stays in cache.
            flat = acc.reshape(-1)
            for a in range(0, n, _BLOCK):
                blk = flat[a : a + _BLOCK]
                tmp = scratch[: blk.size]
                for lam_i, src in zip(lam, sources):
                    mul(lam_i, src[a : a + _BLOCK], tmp)
                    add(blk, tmp, blk)
        out[k] = acc
    return out


def uniform_fedavg(states: Sequence[StateDict]) -> StateDict:
    """Eq. 2's unweighted mean."""
    return fedavg(states, weights=None)


def weighted_mean_statistics(
    values: Sequence[np.ndarray], counts: Sequence[float]
) -> np.ndarray:
    """Server-side mean of client statistics, weighted by sample counts.

    This is line 25 of Algorithm 1:  M = Σ n_i·M_i / Σ n_i — used for
    both the global hidden-feature means and the global central moments.
    """
    if len(values) != len(counts):
        raise ValueError("values and counts must align")
    if not values:
        raise ValueError("no statistics to aggregate")
    counts_arr = np.asarray(counts, dtype=np.float64)
    if np.any(counts_arr < 0) or counts_arr.sum() <= 0:
        raise ValueError("counts must be non-negative and sum positive")
    acc = np.zeros_like(np.asarray(values[0], dtype=np.float64))
    for v, n in zip(values, counts_arr):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != acc.shape:
            raise ValueError("statistic shapes disagree")
        acc += n * v
    return acc / counts_arr.sum()
