"""Batched matrix formats (``gko::batch::matrix``).

A batched matrix holds ``K`` independent systems of identical size in one
stacked buffer.  :class:`BatchCsr` additionally shares a single sparsity
pattern (``row_ptrs``/``col_idxs``) across all systems — only the values
differ — matching Ginkgo's ``batch::matrix::Csr`` storage.  One batched
operation advances every system with a single kernel, which is what
amortizes the per-call Python dispatch overhead the paper measures for
small systems.

The batched SpMV is evaluated through a block-diagonal SciPy view of the
stacked systems.  SciPy's CSR kernel processes rows independently, so every
system's slice of the result is bit-identical to applying that system's
matrix alone — the property the batched solvers rely on for exact
residual-history parity with sequential solves.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
import scipy.sparse as sp

from repro.ginkgo.dim import Dim
from repro.ginkgo.exceptions import BadDimension, GinkgoError
from repro.ginkgo.executor import Executor
from repro.ginkgo.krylov_vector import KrylovVector
from repro.ginkgo.matrix.base import check_index_dtype, check_value_dtype, scipy_safe
from repro.ginkgo.matrix.csr import Csr
from repro.ginkgo.matrix.dense import Dense
from repro.perfmodel import spmv_cost


#: A CSR operator's arrays, as SciPy's compiled kernels take them.
_Block = namedtuple("_Block", "shape indptr indices data")


def _batched_cost(cost, name: str):
    """Rename a kernel cost for batched-kernel attribution in traces."""
    from dataclasses import replace

    return replace(cost, name=name)


class BatchDense(KrylovVector):
    """``K`` stacked dense blocks: one ``(K, rows, cols)`` buffer.

    Used as the batched (multi-)vector type (``gko::batch::MultiVector``,
    the all-systems instance of the recurrence vector protocol):
    right-hand sides and solutions of a batched solve are ``(K, n, 1)``.
    """

    def __init__(self, exec_: Executor, data) -> None:
        data = np.asarray(data)
        if data.ndim == 2:
            data = data[:, :, None]
        if data.ndim != 3:
            raise BadDimension(
                f"BatchDense data must be (K, rows[, cols]), got {data.shape}"
            )
        self._exec = exec_
        self._size = Dim(data.shape[1], data.shape[2])
        self._coef_shape = (-1, 1, data.shape[2])
        self._data = exec_.alloc_like(np.ascontiguousarray(data))
        np.copyto(self._data, data)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense_list(cls, exec_: Executor, items) -> "BatchDense":
        """Stack a list of equally-sized ``Dense`` (or array) operands."""
        arrays = [
            np.asarray(item._data if isinstance(item, Dense) else item)
            for item in items
        ]
        if not arrays:
            raise GinkgoError("BatchDense needs at least one system")
        first = arrays[0].shape
        for a in arrays[1:]:
            if a.shape != first:
                raise BadDimension(
                    f"batch entries differ in shape: {first} vs {a.shape}"
                )
        return cls(exec_, np.stack(arrays))

    @classmethod
    def zeros(cls, exec_: Executor, num_systems: int, size, dtype) -> "BatchDense":
        size = Dim.of(size)
        obj = cls.__new__(cls)
        obj._exec = exec_
        obj._size = size
        obj._coef_shape = (-1, 1, size.cols)
        obj._data = exec_.alloc((int(num_systems), size.rows, size.cols), dtype)
        return obj

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def num_systems(self) -> int:
        return int(self._data.shape[0])

    @property
    def size(self) -> Dim:
        """Per-system dimensions."""
        return self._size

    @property
    def shape(self) -> tuple:
        return self._data.shape

    @property
    def data(self) -> np.ndarray:
        """The stacked ``(K, rows, cols)`` buffer (executor-resident)."""
        return self._data

    @property
    def extent(self) -> np.ndarray:
        return self._data

    _operand = extent

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def item(self, k: int) -> Dense:
        """Writable ``Dense`` view of system ``k`` (aliases the buffer)."""
        return Dense._wrap(self._exec, self._data[k])

    def mark_modified(self) -> None:
        """Nothing is derived from a BatchDense, so nothing to invalidate."""

    def __repr__(self) -> str:
        return (
            f"BatchDense({self.num_systems}x{self._size.rows}x"
            f"{self._size.cols}, dtype={self.dtype}, executor={self._exec.name})"
        )


class BatchCsr:
    """``K`` CSR systems sharing one sparsity pattern.

    Storage matches Ginkgo's ``batch::matrix::Csr``: one ``row_ptrs`` /
    ``col_idxs`` pair plus a ``(K, nnz)`` values block.
    """

    _format_name = "batch_csr"

    def __init__(
        self,
        exec_: Executor,
        size,
        row_ptrs,
        col_idxs,
        values,
        strategy: str = "load_balance",
    ) -> None:
        row_ptrs = np.asarray(row_ptrs)
        col_idxs = np.asarray(col_idxs)
        values = np.asarray(values)
        if values.ndim != 2:
            raise BadDimension(
                f"batch values must be (num_systems, nnz), got {values.shape}"
            )
        # Accept the stacked batch size (num_systems, rows, cols) as well
        # as the per-system (rows, cols); the batch dimension must agree
        # with the values block.
        if isinstance(size, (tuple, list)) and len(size) == 3:
            num_systems, *per_system = (int(v) for v in size)
            if num_systems != values.shape[0]:
                raise BadDimension(
                    f"batch size names {num_systems} systems but values "
                    f"stack {values.shape[0]}"
                )
            size = per_system
        try:
            size = Dim.of(size)
        except BadDimension as exc:
            raise BadDimension(
                f"{exc}; BatchCsr takes the per-system size (rows, cols) "
                f"or the stacked (num_systems, rows, cols), with values "
                f"shaped (num_systems, nnz)"
            ) from None
        if row_ptrs.size != size.rows + 1:
            raise BadDimension(
                f"row_ptrs has {row_ptrs.size} entries for {size.rows} rows"
            )
        if col_idxs.size != values.shape[1]:
            raise BadDimension(
                f"col_idxs ({col_idxs.size}) and values ({values.shape[1]}) differ"
            )
        if row_ptrs.size and int(row_ptrs[-1]) != values.shape[1]:
            raise BadDimension(
                f"row_ptrs[-1]={int(row_ptrs[-1])} != nnz={values.shape[1]}"
            )
        self._exec = exec_
        self._size = size
        self._value_dtype = check_value_dtype(values.dtype)
        self._index_dtype = check_index_dtype(col_idxs.dtype)
        self._strategy = strategy
        self._row_ptrs = exec_.alloc_like(row_ptrs)
        np.copyto(self._row_ptrs, row_ptrs)
        self._col_idxs = exec_.alloc_like(col_idxs)
        np.copyto(self._col_idxs, col_idxs)
        self._values = exec_.alloc_like(values)
        np.copyto(self._values, values)
        #: (indices_full, indptr_full) block-diagonal pattern, built lazily.
        self._block_pattern = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_scipy_list(
        cls,
        exec_: Executor,
        mats,
        value_dtype=None,
        index_dtype=np.int32,
        strategy: str = "load_balance",
    ) -> "BatchCsr":
        """Stack SciPy matrices; all must share one sparsity pattern."""
        csrs = []
        for mat in mats:
            csr = sp.csr_matrix(mat)
            csr.sort_indices()
            csrs.append(csr)
        if not csrs:
            raise GinkgoError("BatchCsr needs at least one system")
        first = csrs[0]
        for csr in csrs[1:]:
            if csr.shape != first.shape:
                raise BadDimension(
                    f"batch systems differ in shape: {first.shape} vs {csr.shape}"
                )
            if not (
                np.array_equal(csr.indptr, first.indptr)
                and np.array_equal(csr.indices, first.indices)
            ):
                raise GinkgoError(
                    "batch systems must share one sparsity pattern "
                    "(identical row_ptrs and col_idxs)"
                )
        value_dtype = check_value_dtype(value_dtype or first.dtype)
        index_dtype = check_index_dtype(index_dtype)
        values = np.stack([csr.data for csr in csrs]).astype(value_dtype)
        return cls(
            exec_,
            Dim(*first.shape),
            first.indptr.astype(index_dtype),
            first.indices.astype(index_dtype),
            values,
            strategy=strategy,
        )

    @classmethod
    def from_csr(
        cls, template: Csr, values=None, num_systems: int | None = None
    ) -> "BatchCsr":
        """Replicate one ``Csr``'s pattern across a batch.

        Either pass explicit per-system ``values`` with shape
        ``(K, nnz)``, or ``num_systems`` to replicate the template's
        values ``K`` times.
        """
        if values is None:
            if num_systems is None:
                raise GinkgoError("from_csr needs values or num_systems")
            values = np.broadcast_to(
                template.values, (int(num_systems), template.nnz)
            ).copy()
        return cls(
            template.executor,
            template.size,
            template.row_ptrs,
            template.col_idxs,
            np.asarray(values),
            strategy=template.strategy,
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def executor(self) -> Executor:
        return self._exec

    @property
    def num_systems(self) -> int:
        return int(self._values.shape[0])

    @property
    def size(self) -> Dim:
        """Per-system dimensions."""
        return self._size

    @property
    def shape(self) -> tuple:
        return (self._size.rows, self._size.cols)

    @property
    def nnz(self) -> int:
        """Stored entries per system."""
        return int(self._values.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self._value_dtype)

    @property
    def value_bytes(self) -> int:
        return np.dtype(self._value_dtype).itemsize

    @property
    def index_bytes(self) -> int:
        return np.dtype(self._index_dtype).itemsize

    @property
    def strategy(self) -> str:
        return self._strategy

    @property
    def row_ptrs(self) -> np.ndarray:
        return self._row_ptrs

    @property
    def col_idxs(self) -> np.ndarray:
        return self._col_idxs

    @property
    def values(self) -> np.ndarray:
        """Per-system values, shape ``(K, nnz)``."""
        return self._values

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def item(self, k: int) -> Csr:
        """System ``k`` as a standalone :class:`Csr` (copies values)."""
        return Csr(
            self._exec,
            self._size,
            self._row_ptrs,
            self._col_idxs,
            self._values[k],
            strategy=self._strategy,
        )

    def copy_to(self, exec_: Executor) -> "BatchCsr":
        """Return a copy resident on ``exec_`` (one transfer per array)."""
        arrays = (self._row_ptrs, self._col_idxs, self._values)
        return BatchCsr(
            exec_, self._size,
            *(exec_.copy_from(self._exec, array) for array in arrays),
            strategy=self._strategy,
        )

    def diagonal(self) -> np.ndarray:
        """Per-system main diagonals, shape ``(K, rows)`` — vectorized.

        Missing diagonal entries read as zero, matching SciPy's
        ``.diagonal()`` on each system.
        """
        n = min(self._size.rows, self._size.cols)
        row_of = np.repeat(
            np.arange(self._size.rows), np.diff(self._row_ptrs)
        )
        on_diag = (self._col_idxs == row_of) & (row_of < n)
        diag = np.zeros((self.num_systems, n), dtype=self._value_dtype)
        diag[:, row_of[on_diag]] = self._values[:, on_diag]
        return diag

    # ------------------------------------------------------------------
    # block-diagonal machinery (shared with the batched solvers)
    # ------------------------------------------------------------------
    def block_pattern(self) -> tuple:
        """Block-diagonal indices for all ``K`` systems, built once.

        Returns ``(indices_full, indptr_full)`` describing the
        ``(K*rows, K*cols)`` block-diagonal matrix of the whole batch.
        Because ``row_ptrs[0] == 0``, the *head slices*
        ``indices_full[:c*nnz]`` / ``indptr_full[:c*rows + 1]`` describe
        the block diagonal of the first ``c`` systems — the compacted
        active set of a batched solve reuses the same arrays at every
        size with no rebuilding.
        """
        if self._block_pattern is None:
            K = self.num_systems
            nnz = self.nnz
            indices_full = np.tile(
                self._col_idxs.astype(np.int64), K
            ) + np.repeat(np.arange(K, dtype=np.int64) * self._size.cols, nnz)
            indptr_full = np.empty(K * self._size.rows + 1, dtype=np.int64)
            indptr_full[:-1] = (
                self._row_ptrs[:-1].astype(np.int64)[None, :]
                + np.arange(K, dtype=np.int64)[:, None] * nnz
            ).ravel()
            indptr_full[-1] = K * nnz
            self._block_pattern = (indices_full, indptr_full)
        return self._block_pattern

    def block_arrays(self, count: int, values: np.ndarray) -> _Block:
        """The block-diagonal CSR arrays over the leading ``count`` systems.

        ``values`` must be a ``(>= count, nnz)`` C-contiguous block; the
        arrays are views (``values[:count]`` is the data), so in-place
        compaction of the block needs no index recomputation.
        """
        indices_full, indptr_full = self.block_pattern()
        n, c = self._size.rows, self._size.cols
        return _Block(
            (count * n, count * c), indptr_full[: count * n + 1],
            indices_full[: count * self.nnz], values[:count].reshape(-1),
        )

    def block_operator(self, count: int, values: np.ndarray) -> sp.csr_matrix:
        """:meth:`block_arrays` as a SciPy matrix (float16 data cast)."""
        block = self.block_arrays(count, values)
        return sp.csr_matrix(
            (scipy_safe(block.data), block.indices, block.indptr),
            shape=block.shape,
        )

    def _spmv_cost(self, count: int, num_rhs: int):
        """One SpMV over the first ``count`` systems (a batched solve
        prices it once per active count)."""
        cost = spmv_cost(
            "csr",
            count * self._size.rows,
            count * self._size.cols,
            count * self.nnz,
            self.value_bytes,
            self.index_bytes,
            num_rhs=num_rhs,
            strategy=self._strategy,
        )
        return _batched_cost(cost, "spmv_batch_csr")

    def apply(self, b: BatchDense, x: BatchDense) -> BatchDense:
        """Batched SpMV ``x[k] = A[k] @ b[k]`` — one modeled kernel."""
        K = self.num_systems
        if b.num_systems != K or x.num_systems != K:
            raise BadDimension(
                f"batch size mismatch: matrix has {K} systems, operands "
                f"{b.num_systems}/{x.num_systems}"
            )
        n, c = self._size.rows, self._size.cols
        cols = b.size.cols
        xs = b.data.reshape(K * c, cols)
        out = x.data.reshape(K * n, cols)
        out[:] = self.block_operator(K, self._values) @ xs
        self._exec.run(self._spmv_cost(K, cols))
        return x

    def __repr__(self) -> str:
        return (
            f"BatchCsr({self.num_systems} systems of "
            f"{self._size.rows}x{self._size.cols}, nnz={self.nnz}, "
            f"dtype={self.dtype}, executor={self._exec.name})"
        )
