"""Row-major dense matrices and vectors (``gko::matrix::Dense``).

Dense doubles as the engine's (multi-)vector type: right-hand sides,
solutions, and Krylov basis vectors are all ``n x k`` Dense operators.
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
from repro.ginkgo.lin_op import LinOp
from repro.perfmodel import blas1_cost, dot_cost, spmv_cost

try:  # what np.einsum calls without `optimize`, minus its dispatch layer
    from numpy._core.multiarray import c_einsum
except ImportError:  # not at this NumPy's private path: the public call
    c_einsum = np.einsum


def _scalar_value(alpha) -> float:
    """Extract a Python scalar from a float or a 1x1 Dense."""
    if isinstance(alpha, Dense):
        if alpha.size.num_elements != 1:
            raise DimensionMismatch(
                "scalar", expected=Dim(1, 1), got=alpha.size
            )
        return float(alpha._data[0, 0])
    return float(alpha)


def _coef(alpha, dtype):
    """Coerce a scalar, per-column vector, or 1xk Dense into a coefficient.

    Returns either a scalar of ``dtype`` or a ``(1, k)`` array broadcastable
    over an ``n x k`` Dense — this is how the engine supports multi-RHS
    Krylov iterations with one coefficient per column (Ginkgo passes a
    ``1 x k`` Dense for alpha/beta).
    """
    if isinstance(alpha, Dense):
        return alpha._data.reshape(1, -1).astype(dtype, copy=False)
    arr = np.asarray(alpha)
    if arr.ndim == 0:
        return dtype.type(arr)
    return arr.reshape(1, -1).astype(dtype, copy=False)


def _scale_into(src: np.ndarray, coef, out: np.ndarray) -> None:
    """``out = coef * src`` for a coefficient from :func:`_coef`.

    A scalar ``0.0`` zero-fills (even over non-finite values) and ``1.0``
    copies.  Eager ``Dense.scale`` and lazy regions share this, so their
    bits match.
    """
    if np.ndim(coef) == 0 and coef == 0.0:
        out.fill(0.0)
    elif np.ndim(coef) != 0 or coef != 1.0:
        np.multiply(src, coef, out=out)
    elif out is not src:
        np.copyto(out, src)


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


class Dense(LinOp):
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
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def value_bytes(self) -> int:
        return self._data.dtype.itemsize

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

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        view = self.view()
        if dtype is not None and dtype != view.dtype:
            return view.astype(dtype)
        return view

    def to_numpy(self) -> np.ndarray:
        """Copy out to host memory regardless of residence."""
        if self._exec.is_host:
            return self._data.copy()
        return self._exec.get_master().copy_from(self._exec, self._data)

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

    def copy_values_from(self, other: "Dense") -> "Dense":
        """Overwrite this matrix's values with ``other``'s (same shape)."""
        self._check_same_shape(other, "copy_values_from")
        np.copyto(self._data, other._data)
        self._exec.run(
            blas1_cost("copy", self._size.num_elements, self.value_bytes, 2)
        )
        self.mark_modified()
        return self

    # ------------------------------------------------------------------
    # BLAS-1 style operations
    # ------------------------------------------------------------------
    def fill(self, value) -> "Dense":
        """Set every entry to ``value``."""
        self._data.fill(value)
        self._exec.run(
            blas1_cost("fill", self._size.num_elements, self.value_bytes, 1)
        )
        self.mark_modified()
        return self

    def scale(self, alpha) -> "Dense":
        """``self *= alpha`` in place (scalar or per-column coefficients)."""
        _scale_into(self._data, _coef(alpha, self.dtype), self._data)
        self._exec.run(
            blas1_cost("scale", self._size.num_elements, self.value_bytes, 2)
        )
        self.mark_modified()
        return self

    def inv_scale(self, alpha) -> "Dense":
        """``self /= alpha`` in place (scalar or per-column coefficients)."""
        a = _coef(alpha, self.dtype)
        if np.any(np.asarray(a) == 0.0):
            raise ZeroDivisionError("inv_scale by zero")
        self._data /= a
        self._exec.run(
            blas1_cost("inv_scale", self._size.num_elements, self.value_bytes, 2)
        )
        self.mark_modified()
        return self

    def add_scaled(self, alpha, other: "Dense") -> "Dense":
        """``self += alpha * other`` (axpy; scalar or per-column alpha)."""
        self._check_same_shape(other, "add_scaled")
        a = _coef(alpha, self.dtype)
        if np.ndim(a) == 0 and a == 1.0:
            self._data += other._data
        elif np.ndim(a) != 0 or a != 0.0:
            self._data += a * other._data
        self._exec.run(
            blas1_cost("add_scaled", self._size.num_elements, self.value_bytes, 3)
        )
        self.mark_modified()
        return self

    def sub_scaled(self, alpha, other: "Dense") -> "Dense":
        """``self -= alpha * other`` in place."""
        a = _coef(alpha, self.dtype)
        return self.add_scaled(-a if np.ndim(a) else -float(a), other)

    def compute_dot(self, other: "Dense") -> np.ndarray:
        """Column-wise dot products ``self^T other`` (length-k vector)."""
        return self.bind_dot(other)()

    def compute_conj_dot(self, other: "Dense") -> np.ndarray:
        """Column-wise conjugated dot products."""
        self._check_same_shape(other, "compute_conj_dot")
        result = np.einsum("ij,ij->j", np.conj(self._data), other._data)
        self._exec.run(
            dot_cost(self._size.rows, self.value_bytes, self._size.cols)
        )
        return result

    def compute_norm2(self) -> np.ndarray:
        """Column-wise Euclidean norms (length-k vector)."""
        return self.bind_norm2()()

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

    def all_reduce(self, payload, label: str):
        """Globally reduce a locally reduced ``payload``: already global."""
        return payload

    # ------------------------------------------------------------------
    # bound kernels: zero-argument callables over one solve's operands,
    # checked and priced once (repro.ginkgo.solver.kernels binds them)
    # ------------------------------------------------------------------
    def bind_dot(self, other: "Dense"):
        """``compute_dot(other)``, bound."""
        self._check_same_shape(other, "compute_dot")
        a, b, run = self._data, other._data, self._exec.run
        cost = dot_cost(self._size.rows, self.value_bytes, self._size.cols)

        def dot():
            result = c_einsum("ij,ij->j", a, b)
            run(cost)
            return result

        return dot

    def bind_norm2(self):
        """``compute_norm2()``, bound."""
        dot = self.bind_dot(self)
        return lambda: np.sqrt(dot().astype(np.float64, copy=False))

    def bind_elementwise(self, name: str, op, num_vectors: int):
        """The ``elementwise`` hook, bound: a one-coefficient callable
        running ``op(lo, hi, coefficient)`` over all rows as one fused
        streaming kernel touching ``num_vectors`` vector operands."""
        rows, dtype, run = self._size.rows, self.dtype, self._exec.run
        cost = blas1_cost(name, self._size.num_elements, self.value_bytes, num_vectors)

        def kernel(coefficient):
            op(0, rows, _coef(coefficient, dtype))
            run(cost)
            self.mark_modified()

        return kernel

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

    def _check_same_shape(self, other: "Dense", op_name: str) -> None:
        if other.size != self._size:
            raise DimensionMismatch(op_name, expected=self._size, got=other.size)
        if other.executor is not self._exec:
            raise ExecutorMismatch(
                op_name, expected=self._exec.name, got=other.executor.name
            )

    def __repr__(self) -> str:
        return (
            f"Dense({self._size.rows}x{self._size.cols}, dtype={self.dtype}, "
            f"executor={self._exec.name})"
        )
