"""Coordinate format (``gko::matrix::Coo``).

COO stores explicit (row, col, value) triplets.  Its GPU SpMV uses atomic
accumulation, which the cost model charges as extra output traffic.  COO is
the second format the paper benchmarks throughout (Figs. 5a-5c) and the only
format TensorFlow supports.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ginkgo.dim import Dim
from repro.ginkgo.exceptions import BadDimension
from repro.ginkgo.executor import Executor
from repro.ginkgo.matrix.base import SparseBase, check_index_dtype, check_value_dtype
from repro.perfmodel import conversion_cost


class Coo(SparseBase):
    """COO matrix with executor-resident ``row_idxs``/``col_idxs``/``values``."""

    _format_name = "coo"

    def __init__(self, exec_: Executor, size, row_idxs, col_idxs, values) -> None:
        size = Dim.of(size)
        row_idxs = np.asarray(row_idxs)
        col_idxs = np.asarray(col_idxs)
        values = np.asarray(values)
        if not (row_idxs.size == col_idxs.size == values.size):
            raise BadDimension(
                f"triplet arrays differ in length: {row_idxs.size}, "
                f"{col_idxs.size}, {values.size}"
            )
        if row_idxs.size and (
            row_idxs.max(initial=0) >= size.rows
            or col_idxs.max(initial=0) >= size.cols
        ):
            raise BadDimension("COO indices exceed the matrix dimensions")
        super().__init__(
            exec_,
            size,
            value_dtype=values.dtype,
            index_dtype=check_index_dtype(row_idxs.dtype),
        )
        self._row_idxs = exec_.alloc_like(row_idxs)
        np.copyto(self._row_idxs, row_idxs)
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
    ) -> "Coo":
        """Build from any SciPy sparse matrix (converted to COO)."""
        coo = sp.coo_matrix(mat)
        value_dtype = check_value_dtype(value_dtype or coo.dtype)
        index_dtype = check_index_dtype(index_dtype)
        return cls(
            exec_,
            Dim(*coo.shape),
            coo.row.astype(index_dtype),
            coo.col.astype(index_dtype),
            coo.data.astype(value_dtype),
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self._values.size)

    @property
    def row_idxs(self) -> np.ndarray:
        """Read-only view; mutate via :meth:`writable_values` + mark_modified."""
        return self._readonly(self._row_idxs)

    @property
    def col_idxs(self) -> np.ndarray:
        """Read-only view; mutate via :meth:`writable_values` + mark_modified."""
        return self._readonly(self._col_idxs)

    @property
    def values(self) -> np.ndarray:
        """Read-only view; mutate via :meth:`writable_values` + mark_modified."""
        return self._readonly(self._values)

    def _to_scipy(self) -> sp.coo_matrix:
        from repro.ginkgo.matrix.base import scipy_safe

        return sp.coo_matrix(
            (scipy_safe(self._values), (self._row_idxs, self._col_idxs)),
            shape=self.shape,
        )

    def _spmv_arrays(self, b: np.ndarray) -> np.ndarray:
        # SciPy COO matvec converts internally; a cached CSR view is
        # numerically equivalent and faster for repeated applies.  The
        # view is keyed on the data generation, so in-place value
        # mutations (scale, writes + mark_modified) can never leave a
        # stale CSR serving future SpMVs.
        mat = self._cached_derived(
            "csr_view", lambda: self._scipy_view().tocsr()
        )
        if self._value_dtype == np.float16:
            out = mat.astype(np.float32) @ b.astype(np.float32)
            return out.astype(np.float16)
        return mat @ b

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def transpose(self) -> "Coo":
        """Return ``A^T`` as a new COO matrix (swap row/col indices).

        Memoized per data generation; the conversion charge is recorded
        on every call.
        """
        self._exec.run(
            conversion_cost(
                "coo", "coo_t", self._size.rows, self.nnz,
                self.value_bytes, self.index_bytes,
            )
        )
        return self._cached_derived(
            "transpose",
            lambda: Coo(
                self._exec,
                self._size.transposed,
                self._col_idxs,
                self._row_idxs,
                self._values,
            ),
        )

    def scale(self, alpha) -> "Coo":
        """Scale all stored values in place."""
        from repro.ginkgo.matrix.dense import _scalar_value

        self._values *= self._value_dtype.type(_scalar_value(alpha))
        self._invalidate_cache()
        return self

    def copy_to(self, exec_: Executor) -> "Coo":
        """Return a copy resident on ``exec_``."""
        obj = Coo.__new__(Coo)
        SparseBase.__init__(
            obj, exec_, self._size, self._value_dtype, self._index_dtype
        )
        obj._row_idxs = exec_.copy_from(self._exec, self._row_idxs)
        obj._col_idxs = exec_.copy_from(self._exec, self._col_idxs)
        obj._values = exec_.copy_from(self._exec, self._values)
        return obj

    def clone(self) -> "Coo":
        return self.copy_to(self._exec)
