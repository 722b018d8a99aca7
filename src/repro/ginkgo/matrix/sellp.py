"""Sliced ELLPACK format, SELL-P (``gko::matrix::Sellp``).

Rows are grouped into slices of ``slice_size``; each slice is padded to its
own maximum row length, avoiding ELL's global padding blow-up on imbalanced
matrices.  We store the real sliced layout (per-slice column-major blocks,
exactly like Ginkgo): entry ``k`` of local row ``l`` of slice ``s`` lives in
slot ``slice_sets[s] + k * slice_size + l``.

The row of a slot is thus a pure function of its position, so the stored
``values`` / ``col_idxs`` *are* a COO once that per-slot row array exists.
The SpMV runs SciPy's compiled ``coo_matvec`` over exactly that view
(``slot_view``, built once per data generation, on the slice-padded row
count and trimmed to ``rows`` after the product).  Slots of one row are
visited in entry order, padding slots add ``0 * x[0]``, so the result equals
:class:`~repro.ginkgo.matrix.csr.Csr`'s bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ginkgo.dim import Dim
from repro.ginkgo.exceptions import BadDimension
from repro.ginkgo.executor import Executor
from repro.ginkgo.matrix.base import (
    SparseBase,
    check_index_dtype,
    check_value_dtype,
    scipy_safe,
)

DEFAULT_SLICE_SIZE = 32


class Sellp(SparseBase):
    """SELL-P matrix with per-slice padded blocks."""

    _format_name = "sellp"

    def __init__(
        self,
        exec_: Executor,
        size,
        slice_size: int,
        slice_lengths,
        slice_sets,
        col_idxs,
        values,
    ) -> None:
        size = Dim.of(size)
        if slice_size < 1:
            raise BadDimension(f"slice_size must be >= 1, got {slice_size}")
        slice_lengths = np.asarray(slice_lengths)
        slice_sets = np.asarray(slice_sets)
        col_idxs = np.asarray(col_idxs)
        values = np.asarray(values)
        num_slices = -(-size.rows // slice_size) if size.rows else 0
        if slice_lengths.size != num_slices:
            raise BadDimension(
                f"expected {num_slices} slice lengths, got {slice_lengths.size}"
            )
        if slice_sets.size != num_slices + 1:
            raise BadDimension(
                f"expected {num_slices + 1} slice offsets, got {slice_sets.size}"
            )
        if col_idxs.size != values.size:
            raise BadDimension("col_idxs and values differ in length")
        super().__init__(
            exec_,
            size,
            value_dtype=values.dtype,
            index_dtype=check_index_dtype(col_idxs.dtype),
        )
        self._slice_size = int(slice_size)
        self._slice_lengths = exec_.alloc_like(slice_lengths)
        np.copyto(self._slice_lengths, slice_lengths)
        self._slice_sets = exec_.alloc_like(slice_sets)
        np.copyto(self._slice_sets, slice_sets)
        self._col_idxs = exec_.alloc_like(col_idxs)
        np.copyto(self._col_idxs, col_idxs)
        self._values = exec_.alloc_like(values)
        np.copyto(self._values, values)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_scipy(
        cls,
        exec_: Executor,
        mat: sp.spmatrix,
        slice_size: int = DEFAULT_SLICE_SIZE,
        value_dtype=None,
        index_dtype=np.int32,
    ) -> "Sellp":
        """Build the sliced layout from a SciPy sparse matrix."""
        csr = sp.csr_matrix(mat)
        csr.sort_indices()
        value_dtype = check_value_dtype(value_dtype or csr.dtype)
        index_dtype = check_index_dtype(index_dtype)
        rows = csr.shape[0]
        num_slices = -(-rows // slice_size) if rows else 0
        row_nnz = np.diff(csr.indptr)

        # Per-slice maximum row length via a padded reshape.
        padded_nnz = np.zeros(num_slices * slice_size, dtype=np.int64)
        padded_nnz[:rows] = row_nnz
        slice_lengths = (
            padded_nnz.reshape(num_slices, slice_size)
            .max(axis=1, initial=0)
            .astype(index_dtype)
        )
        slice_sets = np.zeros(num_slices + 1, dtype=index_dtype)
        np.cumsum(slice_lengths * slice_size, out=slice_sets[1:])

        total = int(slice_sets[-1]) if num_slices else 0
        col_idxs = np.zeros(total, dtype=index_dtype)
        values = np.zeros(total, dtype=value_dtype)
        # Scatter every stored entry at once.  Column-major within the
        # slice: entry k of row `local` lives at base + k*slice_size +
        # local, computed per nonzero from its row and in-row position.
        entry_row = np.repeat(np.arange(rows), row_nnz)
        entry_slot = np.arange(csr.nnz) - np.repeat(csr.indptr[:-1], row_nnz)
        dest = (
            slice_sets[entry_row // slice_size].astype(np.int64)
            + entry_slot * slice_size
            + entry_row % slice_size
        )
        col_idxs[dest] = csr.indices
        values[dest] = csr.data
        return cls(
            exec_,
            Dim(*csr.shape),
            slice_size,
            slice_lengths,
            slice_sets,
            col_idxs,
            values,
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self._count_nonzero_values()

    @property
    def stored_elements(self) -> int:
        return int(self._values.size)

    @property
    def slice_size(self) -> int:
        return self._slice_size

    @property
    def slice_lengths(self) -> np.ndarray:
        """Read-only view: the layout is fixed at construction."""
        return self._readonly(self._slice_lengths)

    @property
    def slice_sets(self) -> np.ndarray:
        """Read-only view: the layout is fixed at construction."""
        return self._readonly(self._slice_sets)

    @property
    def values(self) -> np.ndarray:
        """Read-only view; mutate via :meth:`writable_values` + mark_modified."""
        return self._readonly(self._values)

    @property
    def col_idxs(self) -> np.ndarray:
        """Read-only view; mutate via :meth:`writable_values` + mark_modified."""
        return self._readonly(self._col_idxs)

    # ------------------------------------------------------------------
    # SpMV: compiled COO kernel over the stored slots
    # ------------------------------------------------------------------
    def _slot_rows(self) -> np.ndarray:
        """Row of every stored slot (``>= rows`` in the last slice's padding)."""
        ss = self._slice_size
        slot_slice = np.repeat(
            np.arange(self._slice_lengths.size), np.diff(self._slice_sets)
        )
        offset = np.arange(self._values.size) - self._slice_sets[slot_slice]
        return slot_slice * ss + offset % ss

    def _build_slot_view(self) -> sp.coo_matrix:
        """The stored slots as a COO on the slice-padded row count."""
        padded_rows = self._slice_lengths.size * self._slice_size
        return sp.coo_matrix(
            (scipy_safe(self._values), (self._slot_rows(), self._col_idxs)),
            shape=(padded_rows, self._size.cols),
        )

    def _spmv_arrays(self, b: np.ndarray) -> np.ndarray:
        view = self._cached_derived("slot_view", self._build_slot_view)
        y = (view @ b.astype(view.dtype, copy=False))[: self._size.rows]
        return y.astype(self._value_dtype, copy=False)

    def _to_scipy(self) -> sp.csr_matrix:
        row = self._slot_rows()
        mask = (self._values != 0) & (row < self._size.rows)
        return sp.csr_matrix(
            (
                scipy_safe(self._values[mask]),
                (row[mask], self._col_idxs[mask]),
            ),
            shape=self.shape,
        )
