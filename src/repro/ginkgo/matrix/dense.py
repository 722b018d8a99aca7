"""Row-major dense matrices and vectors (``gko::matrix::Dense``).

Dense doubles as the engine's (multi-)vector type: right-hand sides,
solutions, and Krylov basis vectors are all ``n x k`` Dense operators,
the one-system instance of the recurrence vector protocol
(:class:`~repro.ginkgo.krylov_vector.KrylovVector`).
Every numerical member records its roofline cost on the owning executor's
simulated clock, so solver timings emerge from the same model as SpMV.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.dim import Dim
from repro.ginkgo.exceptions import (
    DimensionMismatch,
    ExecutorMismatch,
    GinkgoError,
)
from repro.ginkgo.executor import Executor
from repro.ginkgo.krylov_vector import KrylovVector, _coef
from repro.ginkgo.lin_op import LinOp
from repro.perfmodel import blas1_cost, dot_cost, spmv_cost


def _scalar_value(alpha) -> float:
    """Extract a Python scalar from a float or a 1x1 Dense."""
    if isinstance(alpha, Dense):
        if alpha.size.num_elements != 1:
            raise DimensionMismatch(
                "scalar", expected=Dim(1, 1), got=alpha.size
            )
        return float(alpha._data[0, 0])
    return float(alpha)


def _clone_as(dense: "Dense", dtype) -> "Dense":
    """``dense.clone()`` in the promoted type of its values and ``dtype``.

    Out-of-place operators build their result in the promoted value type
    of their operands, as a recorded lazy node does.  A same-type clone
    charges what ``clone()`` charges; a widening one charges a ``copy``
    kernel at the result's width.
    """
    if dense.dtype != dtype:
        dtype = np.promote_types(dense.dtype, dtype)
    if dense.dtype == dtype:
        return dense.clone()
    return Dense.empty(dense.executor, dense.size, dtype).copy_values_from(dense)


class Dense(LinOp, KrylovVector):
    """A dense row-major matrix bound to an executor.

    Construct with :meth:`create` (from existing data), :meth:`empty`,
    :meth:`full`, or :meth:`zeros`.
    """

    def __init__(self, exec_: Executor, data) -> None:
        data = np.asarray(data)
        if data.ndim == 1:
            data = data.reshape(-1, 1)
        if data.ndim != 2:
            raise GinkgoError(f"Dense data must be 1-D or 2-D, got {data.ndim}-D")
        super().__init__(exec_, Dim(data.shape[0], data.shape[1]))
        self._data = exec_.alloc_like(np.ascontiguousarray(data))
        np.copyto(self._data, data)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, exec_: Executor, data) -> "Dense":
        """Create from any array-like (copies into the executor's space)."""
        return cls(exec_, data)

    @classmethod
    def empty(cls, exec_: Executor, size, dtype) -> "Dense":
        """Allocate an uninitialised matrix."""
        size = Dim.of(size)
        obj = cls.__new__(cls)
        LinOp.__init__(obj, exec_, size)
        obj._data = exec_.alloc((size.rows, size.cols), dtype)
        return obj

    @classmethod
    def _wrap(cls, exec_: Executor, data: np.ndarray) -> "Dense":
        """Wrap an existing buffer without copying (internal use only).

        The buffer must already live in ``exec_``'s memory space; used by
        solvers to view columns of a multi-RHS block in place.
        """
        if data.ndim != 2:
            raise GinkgoError("_wrap expects a 2-D buffer")
        obj = cls.__new__(cls)
        LinOp.__init__(obj, exec_, Dim(data.shape[0], data.shape[1]))
        obj._data = data
        return obj

    @classmethod
    def zeros(cls, exec_: Executor, size, dtype) -> "Dense":
        """Allocate a zero matrix."""
        return cls.empty(exec_, size, dtype)

    @classmethod
    def full(cls, exec_: Executor, size, value, dtype) -> "Dense":
        """Allocate a matrix filled with ``value``."""
        out = cls.empty(exec_, size, dtype)
        out._data.fill(value)
        return out

    # ------------------------------------------------------------------
    # properties and access
    # ------------------------------------------------------------------
    @property
    def stride(self) -> int:
        return self._data.shape[1]

    def at(self, row: int, col: int = 0):
        """Read one entry (host-side; models a device read on GPUs)."""
        if not self._exec.is_host:
            self._exec.synchronize()
        return self._data[row, col]

    def view(self) -> np.ndarray:
        """Zero-copy **read-only** NumPy view; only legal on host executors.

        Read-only because writes through an exported view would bypass
        :meth:`mark_modified`, silently poisoning the generation-counter
        memo (cached transposes, recorded lazy nodes).  Use
        :meth:`writable_view` when in-place mutation is intended.
        """
        if not self._exec.is_host:
            raise ExecutorMismatch(
                "Dense.view", expected="a host executor", got=self._exec.name
            )
        view = self._data.view()
        view.flags.writeable = False
        return view

    def writable_view(self) -> np.ndarray:
        """Zero-copy *writable* view — the caller owns invalidation.

        Every write through the returned array must be followed by a
        :meth:`mark_modified` call (or wrapped in code that does so);
        otherwise version-checked caches serve stale results.
        """
        if not self._exec.is_host:
            raise ExecutorMismatch(
                "Dense.writable_view",
                expected="a host executor",
                got=self._exec.name,
            )
        return self._data

    # ------------------------------------------------------------------
    # expression operators (lazy-recordable)
    # ------------------------------------------------------------------
    def __mul__(self, alpha):
        if not isinstance(alpha, (int, float, np.integer, np.floating)):
            return NotImplemented
        from repro.ginkgo import lazy

        return lazy.scale_expr(alpha, self)

    __rmul__ = __mul__

    def __neg__(self):
        from repro.ginkgo import lazy

        return lazy.scale_expr(-1.0, self)

    def __add__(self, other):
        from repro.ginkgo import lazy

        try:
            return lazy.add_expr(self, other)
        except TypeError:
            return NotImplemented

    def __sub__(self, other):
        from repro.ginkgo import lazy

        try:
            return lazy.add_expr(self, other, sign=-1.0)
        except TypeError:
            return NotImplemented

    # ------------------------------------------------------------------
    # migration and copies
    # ------------------------------------------------------------------
    def copy_to(self, exec_: Executor) -> "Dense":
        """Return a copy resident on ``exec_``."""
        obj = Dense.__new__(Dense)
        LinOp.__init__(obj, exec_, self._size)
        obj._data = exec_.copy_from(self._exec, self._data)
        return obj

    def clone(self) -> "Dense":
        """Deep copy on the same executor."""
        return self.copy_to(self._exec)

    # ------------------------------------------------------------------
    # BLAS-1 style operations
    # ------------------------------------------------------------------
    def inv_scale(self, alpha) -> "Dense":
        """``self /= alpha`` in place (scalar or per-column coefficients)."""
        if np.any(np.asarray(_coef(alpha, self.dtype)) == 0.0):
            raise ZeroDivisionError("inv_scale by zero")
        data = self._data
        self.elementwise(
            "inv_scale",
            lambda lo, hi, a: np.divide(data[lo:hi], a, out=data[lo:hi]), 2, alpha,
        )
        return self

    def compute_conj_dot(self, other: "Dense") -> np.ndarray:
        """Column-wise conjugated dot products."""
        self._check_compatible(other, "compute_conj_dot")
        cost = dot_cost(self._size.rows, self.value_bytes, self._size.cols)
        return self._contract(np.conj(self._data), other._data, cost)

    def compute_norm1(self) -> np.ndarray:
        """Column-wise 1-norms."""
        result = np.abs(self._data).sum(axis=0)
        self._exec.run(
            dot_cost(self._size.rows, self.value_bytes, self._size.cols)
        )
        return result

    # ------------------------------------------------------------------
    # Krylov-core hooks (see repro.ginkgo.solver.recurrence)
    # ------------------------------------------------------------------
    def scratch(self, ws, name: str, copy: bool = False) -> "Dense":
        """Pooled work vector shaped like this one, from workspace ``ws``.

        With ``copy`` it starts as a copy of this vector and charges what
        ``clone()`` charges; otherwise its contents are unspecified.
        """
        if copy:
            return ws.dense_like(name, self)
        return ws.dense(name, self._size, self.dtype)

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def transpose(self) -> "Dense":
        """Return the transposed matrix.

        Memoized per data generation (repeat calls return the same
        object); the transpose kernel is charged on every call.
        """
        self._exec.run(
            blas1_cost("transpose", self._size.num_elements, self.value_bytes, 2)
        )
        return self._cached_derived("transpose", self._build_transpose)

    def _build_transpose(self) -> "Dense":
        out = Dense.__new__(Dense)
        LinOp.__init__(out, self._exec, self._size.transposed)
        out._data = self._exec.alloc_like(
            np.ascontiguousarray(self._data.T)
        )
        np.copyto(out._data, self._data.T)
        return out

    def column(self, index: int) -> "Dense":
        """Copy of one column as an ``n x 1`` Dense."""
        if not 0 <= index < self._size.cols:
            raise IndexError(f"column {index} out of range")
        return Dense(self._exec, self._data[:, index : index + 1])

    def row_slice(self, start: int, stop: int) -> "Dense":
        """Copy of rows ``[start, stop)``."""
        if not (0 <= start <= stop <= self._size.rows):
            raise IndexError(f"row slice [{start}, {stop}) out of range")
        return Dense(self._exec, self._data[start:stop, :])

    def astype(self, dtype) -> "Dense":
        """Copy with a different value type."""
        return Dense(self._exec, self._data.astype(dtype))

    # ------------------------------------------------------------------
    # LinOp interface: dense mat-vec
    # ------------------------------------------------------------------
    def _spmv_arrays(self, b: np.ndarray) -> np.ndarray:
        """Numerical ``A b`` on raw arrays (what a lazy region evaluates)."""
        return self._data @ b

    def _spmv_cost(self, num_rhs: int):
        """The ``KernelCost`` of one apply to ``num_rhs`` columns."""
        return spmv_cost(
            "dense",
            self._size.rows,
            self._size.cols,
            self._size.num_elements,
            self.value_bytes,
            8,
            num_rhs=num_rhs,
        )

    def _apply_impl(self, b: "Dense", x: "Dense") -> None:
        np.matmul(self._data, b._data, out=x._data)
        self._exec.run(self._spmv_cost(b.size.cols))

    def _apply_advanced_impl(self, alpha, b: "Dense", beta, x: "Dense") -> None:
        a = _scalar_value(alpha)
        bt = _scalar_value(beta)
        x._data *= x.dtype.type(bt)
        x._data += x.dtype.type(a) * (self._data @ b._data)
        self._exec.run(self._spmv_cost(b.size.cols))

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def convert_to_csr(self, index_dtype=np.int32):
        """Convert to :class:`~repro.ginkgo.matrix.csr.Csr` (memoized)."""
        from repro.ginkgo.matrix.csr import Csr
        import scipy.sparse as sp

        return self._cached_derived(
            f"convert_to_csr[{np.dtype(index_dtype).name}]",
            lambda: Csr.from_scipy(
                self._exec, sp.csr_matrix(self._data), index_dtype=index_dtype
            ),
        )

    def __repr__(self) -> str:
        return (
            f"Dense({self._size.rows}x{self._size.cols}, dtype={self.dtype}, "
            f"executor={self._exec.name})"
        )
