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

:meth:`GraphUnion.select` cuts the union of a subset of parts out of an
already-stacked union by index arithmetic, with no loop over the parts:
the trainer stacks its whole fleet once and slices every evaluation's
weight groups out of it.  A selected union holds exactly the arrays
``GraphUnion`` of the same parts would build.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.graphs.csr import CSRMatrix
from repro.graphs.data import Graph


_INT32_MAX = np.iinfo(np.int32).max


def _index_dtype(shape: tuple, nnz: int) -> type:
    """int32 when every index fits, as scipy picks (it would cast int64 down on each use)."""
    return np.int32 if max(*shape, nnz) <= _INT32_MAX else np.int64


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
    idx = _index_dtype(shape, int(nnz.sum()))
    return CSRMatrix(
        np.concatenate([op.data for op in ops]),
        indices.astype(idx, copy=False),
        np.concatenate(([0], row_ends)).astype(idx, copy=False),
        shape,
    )


class GraphUnion:
    """Party graphs stacked row-wise: part ``k`` owns rows ``offsets[k]:offsets[k+1]``.

    Exposes what the models and the evaluation read — ``s_op``,
    ``mean_op``, ``x_op``, ``x``, ``edge_index``, ``y`` and the split
    masks — plus :attr:`owner`, the part index of every row, and
    :attr:`rows`, the row of every row in the unsliced union it was
    selected from.  A mask is ``None`` when any part lacks it.  Fields
    are built under a lock, so threads may share one union.

    Raises ``ValueError`` when the parts disagree on ``num_features`` or
    ``num_classes``: their rows could not go through one model.
    """

    def __init__(self, parts: Sequence[Graph], _source: Optional[tuple] = None) -> None:
        parts = tuple(parts)
        if _source is not None:  # parts ``pos`` of ``source``, already checked there
            source, pos = _source
            offsets = np.concatenate(([0], np.cumsum(np.diff(source.offsets)[pos])))
            num_features, num_classes = source.num_features, source.num_classes
        else:
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
            offsets = np.concatenate(([0], np.cumsum(dims[:, 0])))
            num_features, num_classes = int(dims[0, 1]), int(dims[0, 2])
        self.parts = parts
        self.offsets = offsets
        self.num_nodes = int(offsets[-1])
        self.num_features = num_features
        self.num_classes = num_classes
        #: ``(union, positions)`` this union was selected from, else ``None``
        self._source = _source
        self._cache: Dict[str, object] = {}
        self._lock = threading.RLock()

    def select(self, positions: Sequence[int]) -> "GraphUnion":
        """The union of parts ``positions``, sliced from this union's stacked arrays.

        ``positions`` must be ascending, unique and in range, else
        ``ValueError``.  Every field equals the one ``GraphUnion`` of
        those parts builds, and is cut on first access from this
        union's (built once) with no loop over the parts: a per-part
        keep mask repeated over rows, stored entries (through
        ``indptr``) or edges, then per-part index shifts.  One part
        yields its own objects, as a one-part union does; all parts
        yield this union itself.
        """
        pos = np.asarray(positions)
        count = len(self.parts)
        if pos.ndim != 1 or not pos.size or pos.dtype.kind not in "iu":
            raise ValueError("select needs a non-empty 1-D sequence of integer positions")
        if pos[0] < 0 or pos[-1] >= count or np.any(pos[1:] <= pos[:-1]):
            raise ValueError(f"positions must be ascending, unique and in [0, {count})")
        if pos.size == count:
            return self
        if self._source is not None:  # cut from the unsliced union, so rows stay its rows
            source, above = self._source
            return source.select(above[pos])
        return GraphUnion([self.parts[i] for i in pos.tolist()], _source=(self, pos))

    def _field(self, name: str, build: Callable[[], object]):
        """``name``, built once."""
        if name not in self._cache:
            with self._lock:
                if name not in self._cache:
                    self._cache[name] = build()
        return self._cache[name]

    def _stacked(
        self, name: str, stack: Callable[[], object], take: Callable[["GraphUnion"], object]
    ):
        """The only part's own ``name``; else stacked from the parts, or
        ``take(source)`` for a selected union."""
        if len(self.parts) == 1:
            return getattr(self.parts[0], name)
        if self._source is None:
            return self._field(name, stack)
        return self._field(name, lambda: take(self._source[0]))

    def _block_diag(self, name: str) -> CSRMatrix:
        ops = [getattr(g, name) for g in self.parts]
        return _stack_csr(
            ops, np.diff(self.offsets), self.offsets[:-1], (self.num_nodes, self.num_nodes)
        )

    # -- slicing (selected unions only) ---------------------------------------
    def _pick(self, bounds: np.ndarray) -> tuple:
        """Keep mask over the source's per-part runs and the kept runs' lengths.

        ``bounds[k]`` is where the source's part ``k`` starts in some
        stacked array (rows, stored entries, edges); ``bounds[-1]`` is
        its length.
        """
        source, pos = self._source
        chosen = np.zeros(len(source.parts), dtype=bool)
        chosen[pos] = True
        return np.repeat(chosen, np.diff(bounds)), bounds[pos + 1] - bounds[pos]

    def _row_mask(self) -> np.ndarray:
        """Which of the source's rows are this union's."""
        return self._field("row_mask", lambda: self._pick(self._source[0].offsets)[0])

    def _row_shift(self, dtype: type) -> np.ndarray:
        """How far each part's rows move up from the source to this union."""
        source, pos = self._source
        return (source.offsets[pos] - self.offsets[:-1]).astype(dtype)

    def _take_csr(self, op: CSRMatrix, block_diag: bool) -> CSRMatrix:
        """This union's rows of the source's stacked ``op``.

        Part ``k``'s stored entries are one contiguous run of the
        source's; block-diagonal columns move by the part's row shift.
        """
        shape = (self.num_nodes, self.num_nodes if block_diag else self.num_features)
        bounds = op.indptr[self._source[0].offsets]
        entries, nnz = self._pick(bounds)
        idx = _index_dtype(shape, int(nnz.sum()))
        indices = op.indices[entries].astype(idx, copy=False)
        if block_diag:
            indices -= np.repeat(self._row_shift(idx), nnz)
        # Each kept row's end, less the entries of the parts dropped before it.
        dropped = (bounds[self._source[1]] - (np.cumsum(nnz) - nnz)).astype(idx)
        indptr = np.zeros(self.num_nodes + 1, dtype=idx)
        np.subtract(
            op.indptr[1:][self._row_mask()],
            np.repeat(dropped, np.diff(self.offsets)),
            out=indptr[1:],
        )
        return CSRMatrix(op.data[entries], indices, indptr, shape)

    # -- operators -----------------------------------------------------------
    @property
    def s_op(self) -> CSRMatrix:
        """Block-diagonal S̃ from the parts' cached ``s_op``."""
        return self._stacked(
            "s_op", lambda: self._block_diag("s_op"), lambda src: self._take_csr(src.s_op, True)
        )

    @property
    def mean_op(self) -> CSRMatrix:
        """Block-diagonal mean aggregator from the parts' cached ``mean_op``."""
        return self._stacked(
            "mean_op",
            lambda: self._block_diag("mean_op"),
            lambda src: self._take_csr(src.mean_op, True),
        )

    @property
    def x_op(self) -> CSRMatrix:
        """Row-stacked sparse features from the parts' cached ``x_op``."""
        return self._stacked(
            "x_op",
            lambda: _stack_csr(
                [g.x_op for g in self.parts],
                np.diff(self.offsets),
                None,
                (self.num_nodes, self.num_features),
            ),
            lambda src: self._take_csr(src.x_op, False),
        )

    @property
    def x(self) -> np.ndarray:
        """Row-stacked dense features."""
        return self._stacked(
            "x",
            lambda: np.vstack([g.x for g in self.parts]),
            lambda src: src.x[self._row_mask()],
        )

    @property
    def edge_index(self) -> tuple:
        """The parts' ``(src, dst)`` edges (self loops included), shifted."""

        def stack() -> tuple:
            edges = [g.edge_index for g in self.parts]
            shift = np.repeat(self.offsets[:-1], [src.size for src, _ in edges])
            return tuple(np.concatenate(ends) + shift for ends in zip(*edges))

        def take(source: "GraphUnion") -> tuple:
            entries, count = self._pick(source._edge_offsets())
            shift = np.repeat(self._row_shift(np.int64), count)
            return tuple(ends[entries] - shift for ends in source.edge_index)

        return self._stacked("edge_index", stack, take)

    def _edge_offsets(self) -> np.ndarray:
        """Where each part's edges start in :attr:`edge_index`, plus the total."""
        return self._field(
            "edge_offsets",
            lambda: np.concatenate(([0], np.cumsum([g.edge_index[0].size for g in self.parts]))),
        )

    # -- labels and masks ------------------------------------------------------
    @property
    def y(self) -> np.ndarray:
        return self._stacked(
            "y",
            lambda: np.concatenate([g.y for g in self.parts]),
            lambda src: src.y[self._row_mask()],
        )

    @property
    def owner(self) -> np.ndarray:
        """Part index of every row."""
        return self._field(
            "owner", lambda: np.repeat(np.arange(len(self.parts)), np.diff(self.offsets))
        )

    @property
    def rows(self) -> np.ndarray:
        """Row of every row in the unsliced union this one was selected from (its own, if none)."""

        def build() -> np.ndarray:
            if self._source is None:
                return np.arange(self.num_nodes)
            return np.flatnonzero(self._row_mask())

        return self._field("rows", build)

    def _mask(self, name: str) -> Optional[np.ndarray]:
        def stack() -> Optional[np.ndarray]:
            masks = [getattr(g, name) for g in self.parts]
            return None if any(m is None for m in masks) else np.concatenate(masks)

        def take(source: "GraphUnion") -> Optional[np.ndarray]:
            # A part outside this selection may lack the mask.
            mask = getattr(source, name)
            return stack() if mask is None else mask[self._row_mask()]

        return self._stacked(name, stack, take)

    @property
    def train_mask(self) -> Optional[np.ndarray]:
        return self._mask("train_mask")

    @property
    def val_mask(self) -> Optional[np.ndarray]:
        return self._mask("val_mask")

    @property
    def test_mask(self) -> Optional[np.ndarray]:
        return self._mask("test_mask")
