"""The disjoint union of party graphs, stacked for one evaluation forward.

Parties that hold bitwise-identical weights compute the same function,
and every model here is row-local across components: GCN/Ortho/SGC/APPNP
propagate through ``s_op``, SAGE through ``mean_op``, GAT along
``edge_index``, and none of them mixes rows of disconnected nodes.  So
one forward over the disjoint union of the parties' graphs gives each
party the rows its own forward would: bit for bit through the sparse
products (row by row, in stored order) and the elementwise ops, while a
dense BLAS product may round a row differently in the last bit, because
its blocking depends on the row count.  :class:`GraphUnion` is that
union as a read-only, duck-typed :class:`~repro.graphs.data.Graph`.

It is assembled from the parts' own cached arrays: the block-diagonal
``s_op`` / ``mean_op`` and the row-stacked ``x_op`` copy the parts'
CSR arrays with shifted indices, so the union's operators are exact by
construction — nothing is renormalized.  Every field is built on first
access only: GCN and OrthoGCN never read the dense ``x``, so the union
never materializes it for them.  A one-part union hands out the part's
own objects.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.graphs.csr import CSRMatrix
from repro.graphs.data import Graph


def _stack_csr(
    ops: Sequence[CSRMatrix], rows: np.ndarray, col_offsets: Optional[np.ndarray], shape: tuple
) -> CSRMatrix:
    """Row-stack CSR operators, shifting part ``k``'s columns by ``col_offsets[k]``.

    ``rows[k]`` is part ``k``'s row count.  With column offsets this is
    the block diagonal; without, the plain vertical stack.  Stored entry
    order is kept row by row, so a row-wise SpMM over the result
    reproduces each part's products.  Only three arrays are read per
    part; the offsets are computed on the concatenations.
    """
    ptr = np.concatenate([op.indptr for op in ops])  # part k: rows[k] + 1 entries
    last = np.cumsum(rows + 1) - 1  # each part's final entry, its nnz
    nnz = ptr[last]
    heads = np.ones(ptr.size, dtype=bool)
    heads[last - rows] = False  # each part's leading 0
    row_ends = ptr[heads] + np.repeat(np.cumsum(nnz) - nnz, rows)
    indices = np.concatenate([op.indices for op in ops])
    if col_offsets is not None:
        indices = indices + np.repeat(col_offsets, nnz)
    return CSRMatrix(
        np.concatenate([op.data for op in ops]),
        indices,
        np.concatenate(([0], row_ends)),
        shape,
    )


class GraphUnion:
    """Party graphs stacked row-wise: part ``k`` owns rows ``offsets[k]:offsets[k+1]``.

    Exposes what the models and the evaluation read — ``s_op``,
    ``mean_op``, ``x_op``, ``x``, ``edge_index``, ``y`` and the split
    masks — plus :attr:`owner`, the part index of every row.  A mask is
    ``None`` when any part lacks it.

    Raises ``ValueError`` when the parts disagree on ``num_features`` or
    ``num_classes``: their rows could not go through one model.
    """

    def __init__(self, parts: Sequence[Graph]) -> None:
        parts = tuple(parts)
        if not parts:
            raise ValueError("GraphUnion needs at least one graph")
        dims = np.array([(*g.x.shape, g.num_classes) for g in parts])
        for col, field in ((1, "num_features"), (2, "num_classes")):
            bad = np.flatnonzero(dims[:, col] != dims[0, col])
            if bad.size:
                raise ValueError(
                    f"cannot stack graphs: {field} differs "
                    f"(part 0 has {dims[0, col]}, part {bad[0]} has {dims[bad[0], col]})"
                )
        self.parts = parts
        self.offsets = np.concatenate(([0], np.cumsum(dims[:, 0])))
        self.num_nodes = int(self.offsets[-1])
        self.num_features = int(dims[0, 1])
        self.num_classes = int(dims[0, 2])
        self._cache: Dict[str, object] = {}

    def _field(self, name: str, build: Callable[[], object]):
        """The only part's own attribute, else the stacked one (built once)."""
        if len(self.parts) == 1:
            return getattr(self.parts[0], name)
        if name not in self._cache:
            self._cache[name] = build()
        return self._cache[name]

    def _block_diag(self, name: str) -> CSRMatrix:
        ops = [getattr(g, name) for g in self.parts]
        return _stack_csr(
            ops, np.diff(self.offsets), self.offsets[:-1], (self.num_nodes, self.num_nodes)
        )

    # -- operators -----------------------------------------------------------
    @property
    def s_op(self) -> CSRMatrix:
        """Block-diagonal S̃ from the parts' cached ``s_op``."""
        return self._field("s_op", lambda: self._block_diag("s_op"))

    @property
    def mean_op(self) -> CSRMatrix:
        """Block-diagonal mean aggregator from the parts' cached ``mean_op``."""
        return self._field("mean_op", lambda: self._block_diag("mean_op"))

    @property
    def x_op(self) -> CSRMatrix:
        """Row-stacked sparse features from the parts' cached ``x_op``."""
        return self._field(
            "x_op",
            lambda: _stack_csr(
                [g.x_op for g in self.parts],
                np.diff(self.offsets),
                None,
                (self.num_nodes, self.num_features),
            ),
        )

    @property
    def x(self) -> np.ndarray:
        """Row-stacked dense features."""
        return self._field("x", lambda: np.vstack([g.x for g in self.parts]))

    @property
    def edge_index(self) -> tuple:
        """The parts' ``(src, dst)`` edges (self loops included), shifted."""

        def build() -> tuple:
            edges = [g.edge_index for g in self.parts]
            shift = np.repeat(self.offsets[:-1], [src.size for src, _ in edges])
            return tuple(np.concatenate(ends) + shift for ends in zip(*edges))

        return self._field("edge_index", build)

    # -- labels and masks ------------------------------------------------------
    @property
    def y(self) -> np.ndarray:
        return self._field("y", lambda: np.concatenate([g.y for g in self.parts]))

    @property
    def owner(self) -> np.ndarray:
        """Part index of every row."""
        if "owner" not in self._cache:
            self._cache["owner"] = np.repeat(
                np.arange(len(self.parts)), np.diff(self.offsets)
            )
        return self._cache["owner"]

    def _mask(self, name: str) -> Optional[np.ndarray]:
        def build() -> Optional[np.ndarray]:
            masks = [getattr(g, name) for g in self.parts]
            return None if any(m is None for m in masks) else np.concatenate(masks)

        return self._field(name, build)

    @property
    def train_mask(self) -> Optional[np.ndarray]:
        return self._mask("train_mask")

    @property
    def val_mask(self) -> Optional[np.ndarray]:
        return self._mask("val_mask")

    @property
    def test_mask(self) -> Optional[np.ndarray]:
        return self._mask("test_mask")
