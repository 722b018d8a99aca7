"""Compressed sparse row format (``gko::matrix::Csr``).

CSR is the workhorse format of the paper's benchmarks.  As in Ginkgo, the
SpMV kernel strategy is selectable: ``classical`` assigns one thread block
per row group, ``load_balance`` adds a partitioning pass that distributes
nonzeros evenly (Ginkgo's default on GPUs for irregular matrices),
``merge_path`` follows the merge-based decomposition, and ``sparselib``
defers to the vendor library.  The strategies are numerically identical;
they differ in modeled launch count and data movement.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp

from repro.ginkgo.dim import Dim
from repro.ginkgo.exceptions import BadDimension, GinkgoError
from repro.ginkgo.executor import Executor
from repro.ginkgo.lin_op import LinOp
from repro.ginkgo.matrix.base import SparseBase, check_index_dtype, check_value_dtype
from repro.perfmodel import conversion_cost

try:  # SciPy's compiled CSR SpMV: what ``@`` runs for one column
    from scipy.sparse._sparsetools import csr_matvec
except ImportError:  # not exposed by this SciPy: every apply uses ``@``
    csr_matvec = None


def column_kernel(src: np.ndarray, dst: np.ndarray, dtype) -> bool:
    """Whether ``dst = A @ src`` may run :func:`matvec_into`: one
    contiguous column, ``src`` and ``dst`` of value type ``dtype``
    (float32/float64, as SciPy's kernel computes it)."""
    return (
        csr_matvec is not None and src.shape[1] == 1 and dtype != np.float16
        and src.dtype == dst.dtype == dtype
        and src.flags.c_contiguous and dst.flags.c_contiguous
    )


def matvec_into(view, src: np.ndarray, dst: np.ndarray) -> None:
    """``dst = view @ src`` by the compiled kernel ``@`` runs for one
    column, on the CSR ``view``'s arrays, without ``@``'s dispatch and
    result allocation (byte for byte ``@``; see :func:`column_kernel`)."""
    dst.fill(0)
    csr_matvec(*view.shape, view.indptr, view.indices, view.data, src, dst)


CSR_STRATEGIES = ("classical", "load_balance", "sparselib", "merge_path")


class Csr(SparseBase):
    """CSR matrix with executor-resident ``row_ptrs``/``col_idxs``/``values``."""

    _format_name = "csr"

    def __init__(
        self,
        exec_: Executor,
        size,
        row_ptrs,
        col_idxs,
        values,
        strategy: str = "load_balance",
    ) -> None:
        size = Dim.of(size)
        row_ptrs = np.asarray(row_ptrs)
        col_idxs = np.asarray(col_idxs)
        values = np.asarray(values)
        if row_ptrs.size != size.rows + 1:
            raise BadDimension(
                f"row_ptrs has {row_ptrs.size} entries for {size.rows} rows"
            )
        if col_idxs.size != values.size:
            raise BadDimension(
                f"col_idxs ({col_idxs.size}) and values ({values.size}) differ"
            )
        if row_ptrs.size and int(row_ptrs[-1]) != values.size:
            raise BadDimension(
                f"row_ptrs[-1]={int(row_ptrs[-1])} != nnz={values.size}"
            )
        if strategy not in CSR_STRATEGIES:
            raise GinkgoError(
                f"unknown CSR strategy {strategy!r}; available: {CSR_STRATEGIES}"
            )
        super().__init__(
            exec_,
            size,
            value_dtype=values.dtype,
            index_dtype=check_index_dtype(col_idxs.dtype),
        )
        self._row_ptrs = exec_.alloc_like(row_ptrs)
        np.copyto(self._row_ptrs, row_ptrs)
        self._col_idxs = exec_.alloc_like(col_idxs)
        np.copyto(self._col_idxs, col_idxs)
        self._values = exec_.alloc_like(values)
        np.copyto(self._values, values)
        self._strategy = strategy

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
        strategy: str = "load_balance",
    ) -> "Csr":
        """Build from any SciPy sparse matrix (converted to CSR)."""
        csr = sp.csr_matrix(mat)
        csr.sort_indices()
        value_dtype = check_value_dtype(value_dtype or csr.dtype)
        index_dtype = check_index_dtype(index_dtype)
        return cls(
            exec_,
            Dim(*csr.shape),
            csr.indptr.astype(index_dtype),
            csr.indices.astype(index_dtype),
            csr.data.astype(value_dtype),
            strategy=strategy,
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self._values.size)

    @property
    def strategy(self) -> str:
        return self._strategy

    @strategy.setter
    def strategy(self, value: str) -> None:
        if value not in CSR_STRATEGIES:
            raise GinkgoError(
                f"unknown CSR strategy {value!r}; available: {CSR_STRATEGIES}"
            )
        self._strategy = value
        self._spmv_costs.clear()

    @property
    def row_ptrs(self) -> np.ndarray:
        """Read-only view; mutate via :meth:`writable_values` + mark_modified."""
        return self._readonly(self._row_ptrs)

    @property
    def col_idxs(self) -> np.ndarray:
        """Read-only view; mutate via :meth:`writable_values` + mark_modified."""
        return self._readonly(self._col_idxs)

    @property
    def values(self) -> np.ndarray:
        """Read-only view; mutate via :meth:`writable_values` + mark_modified."""
        return self._readonly(self._values)

    def _spmv_cost_kwargs(self) -> dict:
        return {"strategy": self._strategy}

    def _apply_impl(self, b, x) -> None:
        """``x = A b``.  One contiguous column of the value type runs
        SciPy's compiled kernel on the cached view's arrays into ``x`` —
        the kernel ``@`` calls for it, without its dispatch and result
        allocation; any other operand takes ``@``."""
        bd, xd = b._data, x._data
        if not column_kernel(bd, xd, self._value_dtype):
            return super()._apply_impl(b, x)
        matvec_into(self._scipy_view(), bd, xd)
        self._exec.run(self._spmv_cost(1))

    def _to_scipy(self) -> sp.csr_matrix:
        from repro.ginkgo.matrix.base import scipy_safe

        return sp.csr_matrix(
            (scipy_safe(self._values), self._col_idxs, self._row_ptrs),
            shape=self.shape,
        )

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def transpose(self) -> "Csr":
        """Return ``A^T`` as a new CSR matrix.

        Memoized per data generation (repeat calls return the same
        object); the conversion charge is recorded on every call.
        """
        self._exec.run(
            conversion_cost(
                "csr", "csr_t", self._size.rows, self.nnz,
                self.value_bytes, self.index_bytes,
            )
        )
        return self._cached_derived("transpose", self._build_transpose)

    def _build_transpose(self) -> "Csr":
        t = self._scipy_view().transpose().tocsr()
        return Csr.from_scipy(
            self._exec, t, index_dtype=self._index_dtype,
            strategy=self._strategy,
        )

    def scale(self, alpha) -> "Csr":
        """Scale all stored values in place."""
        from repro.ginkgo.matrix.dense import _scalar_value

        self._values *= self._value_dtype.type(_scalar_value(alpha))
        self._invalidate_cache()
        return self

    def sort_by_column_index(self) -> "Csr":
        """Sort each row's entries by column index, in place."""
        mat = self._to_scipy()
        mat.sort_indices()
        np.copyto(self._col_idxs, mat.indices.astype(self._index_dtype))
        np.copyto(self._values, mat.data.astype(self._value_dtype))
        self._invalidate_cache()
        return self

    def is_sorted_by_column_index(self) -> bool:
        """Whether every row's column indices are ascending."""
        ptrs, idxs = self._row_ptrs, self._col_idxs
        for r in range(self._size.rows):
            row = idxs[ptrs[r] : ptrs[r + 1]]
            if row.size > 1 and np.any(np.diff(row) < 0):
                return False
        return True

    def copy_to(self, exec_: Executor) -> "Csr":
        """Return a copy resident on ``exec_``."""
        obj = Csr.__new__(Csr)
        SparseBase.__init__(
            obj, exec_, self._size, self._value_dtype, self._index_dtype
        )
        obj._row_ptrs = exec_.copy_from(self._exec, self._row_ptrs)
        obj._col_idxs = exec_.copy_from(self._exec, self._col_idxs)
        obj._values = exec_.copy_from(self._exec, self._values)
        obj._strategy = self._strategy
        return obj

    def clone(self) -> "Csr":
        return self.copy_to(self._exec)

    def astype(self, value_dtype) -> "Csr":
        """Copy with a different value type."""
        value_dtype = check_value_dtype(value_dtype)
        return Csr(
            self._exec,
            self._size,
            self._row_ptrs,
            self._col_idxs,
            self._values.astype(value_dtype),
            strategy=self._strategy,
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def convert_to_coo(self):
        """Convert to :class:`~repro.ginkgo.matrix.coo.Coo`."""
        from repro.ginkgo.matrix.coo import Coo

        self._record_conversion("coo")

        def build():
            coo = self._scipy_view().tocoo()
            return Coo(
                self._exec,
                self._size,
                coo.row.astype(self._index_dtype),
                coo.col.astype(self._index_dtype),
                coo.data.astype(self._value_dtype),
            )

        return self._cached_derived("convert_to_coo", build)

    def convert_to_ell(self):
        """Convert to :class:`~repro.ginkgo.matrix.ell.Ell`."""
        from repro.ginkgo.matrix.ell import Ell

        self._record_conversion("ell")
        return self._cached_derived(
            "convert_to_ell",
            lambda: Ell.from_scipy(
                self._exec, self._scipy_view(), index_dtype=self._index_dtype
            ),
        )

    def convert_to_sellp(self, slice_size: int = 32):
        """Convert to :class:`~repro.ginkgo.matrix.sellp.Sellp`."""
        from repro.ginkgo.matrix.sellp import Sellp

        self._record_conversion("sellp")
        return self._cached_derived(
            f"convert_to_sellp[{slice_size}]",
            lambda: Sellp.from_scipy(
                self._exec,
                self._scipy_view(),
                slice_size=slice_size,
                index_dtype=self._index_dtype,
            ),
        )

    def convert_to_hybrid(self, percent: float = 0.8):
        """Convert to :class:`~repro.ginkgo.matrix.hybrid.Hybrid`."""
        from repro.ginkgo.matrix.hybrid import Hybrid

        self._record_conversion("hybrid")
        return self._cached_derived(
            f"convert_to_hybrid[{percent}]",
            lambda: Hybrid.from_scipy(
                self._exec,
                self._scipy_view(),
                percent=percent,
                index_dtype=self._index_dtype,
            ),
        )

    def convert_to_sparsity_csr(self):
        """Convert to :class:`~repro.ginkgo.matrix.sparsity_csr.SparsityCsr`."""
        from repro.ginkgo.matrix.sparsity_csr import SparsityCsr

        self._record_conversion("sparsity_csr")
        return self._cached_derived(
            "convert_to_sparsity_csr",
            lambda: SparsityCsr(
                self._exec, self._size, self._row_ptrs, self._col_idxs,
                value_dtype=self._value_dtype,
            ),
        )

    def _record_conversion(self, dst: str) -> None:
        self._exec.run(
            conversion_cost(
                "csr", dst, self._size.rows, self.nnz,
                self.value_bytes, self.index_bytes,
            )
        )

    # ------------------------------------------------------------------
    # structural identity
    # ------------------------------------------------------------------
    def pattern_fingerprint(self) -> str:
        """Hash of the sparsity *pattern*: ``(shape, row_ptrs, col_idxs)``.

        Two CSR matrices with equal fingerprints can be stacked into one
        :class:`~repro.ginkgo.batch.matrix.BatchCsr` — the service-layer
        coalescer keys its batch lanes on this.  Values do not contribute,
        so rescaling keeps the fingerprint while any structural edit
        changes it.

        Memoized per data generation through the same ``data_version``
        counter as the format conversions: in-place mutation (via
        ``writable_values()`` + ``mark_modified()``) invalidates the
        cached digest, and the recomputation is counted under the
        ``format`` cache kind.
        """
        return self._cached_derived(
            "pattern_fingerprint", self._build_pattern_fingerprint
        )

    def _build_pattern_fingerprint(self) -> str:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(
            np.asarray([self._size.rows, self._size.cols], dtype=np.int64)
            .tobytes()
        )
        digest.update(np.ascontiguousarray(self._row_ptrs).tobytes())
        digest.update(np.ascontiguousarray(self._col_idxs).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # analysis helpers used by the benchmark harness
    # ------------------------------------------------------------------
    def row_nnz(self) -> np.ndarray:
        """Number of stored entries per row."""
        return np.diff(self._row_ptrs)

    def imbalance(self) -> float:
        """Max-row-nnz / mean-row-nnz; 1.0 for perfectly regular matrices."""
        counts = self.row_nnz()
        mean = counts.mean() if counts.size else 0.0
        return float(counts.max() / mean) if mean > 0 else 1.0
