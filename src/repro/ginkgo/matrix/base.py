"""Shared machinery of the sparse matrix formats.

Each concrete format stores its own arrays (executor-tagged).  Everything
structural is resolved once per data generation into a cached SciPy view of
that storage, so ``apply`` is one compiled kernel call: CSR walks
``csr_matvec(s)`` over its own arrays, COO over a cached CSR conversion, ELL
over its padded block read as a constant-stride CSR; SELL-P walks
``coo_matvec`` over its slots with a per-slot row array; Hybrid is its ELL
part plus its COO part.  The *timing* comes from the format-specific
roofline cost.  SciPy cannot multiply ``float16`` matrices, so
half-precision kernels compute in ``float32`` and round back — the same
behaviour as Ginkgo's half-precision kernels, which accumulate in a wider
type.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ginkgo import cachestats
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.executor import Executor
from repro.ginkgo.lin_op import LinOp
from repro.perfmodel import conversion_cost, spmv_cost

#: Value types supported by the engine (paper Table 1).
SUPPORTED_VALUE_DTYPES = (np.float16, np.float32, np.float64)
#: Index types supported by the engine (paper Table 1).
SUPPORTED_INDEX_DTYPES = (np.int32, np.int64)


def check_value_dtype(dtype) -> np.dtype:
    """Validate and normalise a value dtype against Table 1."""
    dtype = np.dtype(dtype)
    if dtype.type not in SUPPORTED_VALUE_DTYPES:
        raise GinkgoError(
            f"unsupported value type {dtype}; supported: "
            f"{[np.dtype(t).name for t in SUPPORTED_VALUE_DTYPES]}"
        )
    return dtype


def scipy_safe(values: np.ndarray) -> np.ndarray:
    """Cast values to a dtype SciPy sparse accepts (float16 -> float32)."""
    if values.dtype == np.float16:
        return values.astype(np.float32)
    return values


def check_index_dtype(dtype) -> np.dtype:
    """Validate and normalise an index dtype against Table 1."""
    dtype = np.dtype(dtype)
    if dtype.type not in SUPPORTED_INDEX_DTYPES:
        raise GinkgoError(
            f"unsupported index type {dtype}; supported: "
            f"{[np.dtype(t).name for t in SUPPORTED_INDEX_DTYPES]}"
        )
    return dtype


class SparseBase(LinOp):
    """Base class of the sparse storage formats.

    Subclasses set ``_format_name`` and implement ``_to_scipy`` returning a
    SciPy sparse matrix sharing (not copying) the stored arrays where
    possible.
    """

    _format_name = "sparse"

    def __init__(self, exec_: Executor, size, value_dtype, index_dtype) -> None:
        super().__init__(exec_, size)
        self._value_dtype = check_value_dtype(value_dtype)
        self._index_dtype = check_index_dtype(index_dtype)
        self._scipy_cache: sp.spmatrix | None = None
        #: num_rhs -> the ``KernelCost`` of one apply (see :meth:`_spmv_cost`).
        self._spmv_costs: dict = {}
        #: (data_version, count) of :meth:`_count_nonzero_values`.
        self._nonzero_values: tuple | None = None

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        return self._value_dtype

    @property
    def index_dtype(self) -> np.dtype:
        return self._index_dtype

    @property
    def value_bytes(self) -> int:
        return self._value_dtype.itemsize

    @property
    def index_bytes(self) -> int:
        return self._index_dtype.itemsize

    @property
    def nnz(self) -> int:
        raise NotImplementedError

    def _count_nonzero_values(self) -> int:
        """``nnz`` of a padded format: nonzeros among the stored slots.

        Memoised on the data generation — every ``apply`` prices its
        kernel with ``nnz``, and a scan of the padded block per apply
        costs as much as the product itself.
        """
        memo = self._nonzero_values
        if memo is None or memo[0] != self._data_version:
            memo = (self._data_version, int(np.count_nonzero(self._values)))
            self._nonzero_values = memo
        return memo[1]

    @property
    def density(self) -> float:
        """Fraction of stored entries, nnz / (rows * cols)."""
        elements = self._size.num_elements
        return self.nnz / elements if elements else 0.0

    @staticmethod
    def _readonly(arr: np.ndarray) -> np.ndarray:
        """Zero-copy read-only view of a stored array.

        The public array properties return these so that in-place writes
        cannot bypass :meth:`mark_modified` and poison the
        generation-counter caches (SciPy views, cached transposes,
        recorded lazy nodes).
        """
        view = arr.view()
        view.flags.writeable = False
        return view

    def writable_values(self) -> np.ndarray:
        """Raw writable values array — the caller owns invalidation.

        Every in-place write through the returned array must be followed
        by :meth:`mark_modified`, otherwise version-checked caches serve
        stale results.
        """
        values = getattr(self, "_values", None)
        if values is None:
            raise GinkgoError(
                f"{type(self).__name__} does not expose a single raw "
                f"values array"
            )
        return values

    # ------------------------------------------------------------------
    # SpMV
    # ------------------------------------------------------------------
    def _to_scipy(self) -> sp.spmatrix:
        raise NotImplementedError

    def mark_modified(self) -> None:
        """Record an in-place value mutation.

        Drops the cached SciPy view on top of the derived-object caches
        :class:`~repro.ginkgo.lin_op.LinOp` invalidates.  Public mutators
        call this automatically; code writing through raw ``values``
        arrays must call it by hand.
        """
        super().mark_modified()
        self._scipy_cache = None
        self._spmv_costs.clear()

    def _invalidate_cache(self) -> None:
        self.mark_modified()

    def _scipy_view(self) -> sp.spmatrix:
        hit = self._scipy_cache is not None
        if not hit:
            self._scipy_cache = self._to_scipy()
        cachestats.record(
            "format", hit, clock=self._exec.clock,
            op="scipy_view", format=self._format_name,
        )
        return self._scipy_cache

    def _spmv_arrays(self, b: np.ndarray) -> np.ndarray:
        """Numerical y = A b; upcasts float16 like Ginkgo's half kernels."""
        mat = self._scipy_view()
        if self._value_dtype == np.float16:
            out = (mat.astype(np.float32) @ b.astype(np.float32))
            return out.astype(np.float16)
        return mat @ b

    def _spmv_cost_kwargs(self) -> dict:
        return {}

    def _spmv_cost(self, num_rhs: int):
        """The ``KernelCost`` of one apply to ``num_rhs`` columns, priced
        once until the matrix (or its kernel strategy) changes."""
        cost = self._spmv_costs.get(num_rhs)
        if cost is None:
            cost = self._spmv_costs[num_rhs] = spmv_cost(
                self._format_name,
                self._size.rows,
                self._size.cols,
                self.nnz,
                self.value_bytes,
                self.index_bytes,
                num_rhs=num_rhs,
                **self._spmv_cost_kwargs(),
            )
        return cost

    def _record_spmv(self, num_rhs: int) -> None:
        self._exec.run(self._spmv_cost(num_rhs))

    def _apply_impl(self, b, x) -> None:
        result = self._spmv_arrays(b._data)
        np.copyto(x._data, result.reshape(x._data.shape))
        self._record_spmv(b.size.cols)

    def _apply_advanced_impl(self, alpha, b, beta, x) -> None:
        from repro.ginkgo.matrix.dense import _scalar_value

        a = _scalar_value(alpha)
        bt = _scalar_value(beta)
        result = self._spmv_arrays(b._data)
        x._data *= x.dtype.type(bt)
        x._data += x.dtype.type(a) * result.reshape(x._data.shape).astype(
            x.dtype, copy=False
        )
        self._record_spmv(b.size.cols)

    # ------------------------------------------------------------------
    # shared conversions
    # ------------------------------------------------------------------
    def convert_to_csr(self, strategy: str = "load_balance"):
        """Convert to :class:`~repro.ginkgo.matrix.csr.Csr` (memoized)."""
        from repro.ginkgo.matrix.csr import Csr

        self._exec.run(
            conversion_cost(
                self._format_name, "csr", self._size.rows, self.nnz,
                self.value_bytes, self.index_bytes,
            )
        )
        return self._cached_derived(
            f"convert_to_csr[{strategy}]",
            lambda: Csr.from_scipy(
                self._exec,
                self._scipy_view(),
                value_dtype=self._value_dtype,
                index_dtype=self._index_dtype,
                strategy=strategy,
            ),
        )

    def to_scipy(self) -> sp.spmatrix:
        """Copy out as a SciPy sparse matrix (host-side)."""
        return self._scipy_view().copy()

    def to_dense(self):
        """Convert to :class:`~repro.ginkgo.matrix.dense.Dense`."""
        from repro.ginkgo.matrix.dense import Dense

        return Dense(self._exec, np.asarray(self._scipy_view().todense()))

    def extract_diagonal(self):
        """Extract the main diagonal as a :class:`Diagonal` operator."""
        from repro.ginkgo.matrix.diagonal import Diagonal

        return Diagonal(self._exec, self._scipy_view().diagonal())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self._size.rows}x{self._size.cols}, "
            f"nnz={self.nnz}, dtype={self.dtype}, executor={self._exec.name})"
        )
