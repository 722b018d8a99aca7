"""ELLPACK format (``gko::matrix::Ell``).

Stores a dense, row-major ``rows x max_row_nnz`` block of values and column
indices, padded with value 0 / column 0.  Regular row lengths make this
format SIMD-friendly; the padding makes it wasteful for imbalanced matrices.

Row-major ELL storage *is* a CSR whose row pointer has the constant stride
``width``, so the SpMV runs SciPy's compiled ``csr_matvec(s)`` over a
zero-copy view of the stored block (``padded_view``, built once per data
generation).  The kernel walks each row's slots in storage order — the
entries in CSR order, then the padding, which adds ``0 * x[0]`` — so the
result equals :class:`~repro.ginkgo.matrix.csr.Csr`'s bit for bit.
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


class Ell(SparseBase):
    """ELL matrix with padded ``values``/``col_idxs`` blocks."""

    _format_name = "ell"

    def __init__(self, exec_: Executor, size, col_idxs, values) -> None:
        size = Dim.of(size)
        col_idxs = np.asarray(col_idxs)
        values = np.asarray(values)
        if col_idxs.shape != values.shape or col_idxs.ndim != 2:
            raise BadDimension(
                f"ELL blocks must be matching 2-D arrays, got "
                f"{col_idxs.shape} and {values.shape}"
            )
        if col_idxs.shape[0] != size.rows:
            raise BadDimension(
                f"ELL block has {col_idxs.shape[0]} rows for a "
                f"{size.rows}-row matrix"
            )
        if col_idxs.size and not (
            0 <= col_idxs.min() and col_idxs.max() < size.cols
        ):
            # The compiled kernel gathers x[col] unchecked.
            raise BadDimension("ELL column indices exceed the matrix dimensions")
        super().__init__(
            exec_,
            size,
            value_dtype=values.dtype,
            index_dtype=check_index_dtype(col_idxs.dtype),
        )
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
        value_dtype=None,
        index_dtype=np.int32,
    ) -> "Ell":
        """Build from a SciPy sparse matrix, padding rows to equal length."""
        csr = sp.csr_matrix(mat)
        csr.sort_indices()
        value_dtype = check_value_dtype(value_dtype or csr.dtype)
        index_dtype = check_index_dtype(index_dtype)
        rows = csr.shape[0]
        row_nnz = np.diff(csr.indptr)
        width = int(row_nnz.max()) if rows else 0
        col_idxs = np.zeros((rows, width), dtype=index_dtype)
        values = np.zeros((rows, width), dtype=value_dtype)
        # Scatter each row's entries into its leading slots in one shot:
        # the row-major flattening of the mask enumerates (row, slot)
        # pairs in exactly CSR's row-sorted entry order.
        in_row = np.arange(width)[None, :] < row_nnz[:, None]
        col_idxs[in_row] = csr.indices
        values[in_row] = csr.data
        return cls(exec_, Dim(*csr.shape), col_idxs, values)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self._count_nonzero_values()

    @property
    def stored_elements(self) -> int:
        """Total stored slots including padding."""
        return int(self._values.size)

    @property
    def num_stored_elements_per_row(self) -> int:
        return int(self._values.shape[1])

    @property
    def col_idxs(self) -> np.ndarray:
        """Read-only view; mutate via :meth:`writable_values` + mark_modified."""
        return self._readonly(self._col_idxs)

    @property
    def values(self) -> np.ndarray:
        """Read-only view; mutate via :meth:`writable_values` + mark_modified."""
        return self._readonly(self._values)

    # ------------------------------------------------------------------
    # SpMV: compiled CSR kernel over the padded block
    # ------------------------------------------------------------------
    def _build_padded_view(self) -> sp.csr_matrix:
        """The stored block as a constant-stride CSR (float16 as float32)."""
        rows, width = self._values.shape
        return sp.csr_matrix(
            (
                scipy_safe(self._values).reshape(-1),
                self._col_idxs.reshape(-1),
                np.arange(rows + 1) * width,
            ),
            shape=self.shape,
        )

    def _spmv_arrays(self, b: np.ndarray) -> np.ndarray:
        view = self._cached_derived("padded_view", self._build_padded_view)
        y = view @ b.astype(view.dtype, copy=False)
        return y.astype(self._value_dtype, copy=False)

    def _to_scipy(self) -> sp.csr_matrix:
        rows = np.repeat(
            np.arange(self._size.rows), self._values.shape[1]
        ).reshape(self._values.shape)
        mask = self._values != 0
        return sp.csr_matrix(
            (
                scipy_safe(self._values[mask]),
                (rows[mask], self._col_idxs[mask]),
            ),
            shape=self.shape,
        )

    # ------------------------------------------------------------------
    # copies
    # ------------------------------------------------------------------
    def copy_to(self, exec_: Executor) -> "Ell":
        """Return a copy resident on ``exec_``."""
        obj = Ell.__new__(Ell)
        SparseBase.__init__(
            obj, exec_, self._size, self._value_dtype, self._index_dtype
        )
        obj._col_idxs = exec_.copy_from(self._exec, self._col_idxs)
        obj._values = exec_.copy_from(self._exec, self._values)
        return obj

    def clone(self) -> "Ell":
        return self.copy_to(self._exec)
