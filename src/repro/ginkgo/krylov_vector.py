"""The recurrence vector protocol, implemented once.

The Krylov recurrences (:mod:`repro.ginkgo.solver.recurrence`) are
written against one vector API, the way Ginkgo writes a solver once as a
template over ``matrix::Dense``, ``batch::MultiVector`` and
``distributed::Vector``.  :class:`KrylovVector` implements it once over
each vector's ``(systems, rows, cols)`` :attr:`~KrylovVector.extent`:
``Dense`` is the one-system instance, the batched head
(``batch.solver._Head``/``_Rows``) the active-systems instance, and
``distributed.Vector`` the one-system instance whose kernels run
rank-wise and whose reductions charge the communicator.  An instance
supplies only what differs, as the hooks below; prices come from the
extent's shape alone, so every instance charges the same kernels.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.ginkgo.exceptions import DimensionMismatch, ExecutorMismatch
from repro.perfmodel import blas1_cost, dot_cost

try:  # what np.einsum calls without `optimize`, minus its dispatch layer
    from numpy._core.multiarray import c_einsum
except ImportError:  # not at this NumPy's private path: the public call
    c_einsum = np.einsum

#: Column-wise contraction over any leading systems axis: bitwise
#: ``"ij,ij->j"`` on a 2-D operand and ``"kij,kij->kj"`` on a stacked one.
CONTRACTION = "...ij,...ij->...j"


def _coef(alpha, dtype, shape=(1, -1)):
    """Coerce a scalar, per-column vector, or 1xk Dense into a coefficient.

    Returns either a scalar of ``dtype`` or an array reshaped to
    ``shape`` — by default ``(1, k)``, broadcastable over an ``n x k``
    Dense: this is how the engine supports multi-RHS Krylov iterations
    with one coefficient per column (Ginkgo passes a ``1 x k`` Dense for
    alpha/beta).
    """
    if type(alpha) is float:  # the common case, as np.asarray would cast it
        return dtype.type(alpha)
    arr = alpha._data if isinstance(alpha, KrylovVector) else np.asarray(alpha)
    if arr.ndim == 0:
        return dtype.type(arr)
    return arr.reshape(shape).astype(dtype, copy=False)


def _scale_into(src: np.ndarray, coef, out: np.ndarray) -> None:
    """``out = coef * src`` for a coefficient from :func:`_coef`.

    A scalar ``0.0`` zero-fills (even over non-finite values) and ``1.0``
    copies.  Eager ``scale`` and lazy regions share this, so their bits
    match.
    """
    if (scalar := coef.ndim == 0) and coef == 0.0:
        out.fill(0.0)
    elif not scalar or coef != 1.0:
        np.multiply(src, coef, out=out)
    elif out is not src:
        np.copyto(out, src)


def _fill(lo, hi, data, value) -> None:
    data[lo:hi].fill(value)


def _copy(lo, hi, dst, src) -> None:
    np.copyto(dst[lo:hi], src[lo:hi])


def _scale(lo, hi, data, a) -> None:
    block = data[lo:hi]
    _scale_into(block, a, block)


def _add_scaled(lo, hi, dst, src, a) -> None:
    """``dst += a * src``: a scalar ``1.0`` adds ``src``, and ``0.0``
    leaves ``dst`` as it is, whatever ``src`` holds."""
    block = dst[lo:hi]
    if (scalar := a.ndim == 0) and a == 1.0:
        block += src[lo:hi]
    elif not scalar or a != 0.0:
        block += a * src[lo:hi]


class KrylovVector:
    """The recurrence vector protocol over a ``(systems, rows, cols)`` extent.

    An instance holds its values in ``_data`` and its executor in
    ``_exec``.  Elementwise work is an ``op(lo, hi, *coefficients)``
    over ``_data[lo:hi]`` (rows of a one-system vector, systems of the
    batched head) run as one streaming kernel; a reduction contracts
    :attr:`_operand` column-wise in global element order.
    """

    #: Shape a per-column coefficient array takes (:func:`_coef`).
    _coef_shape = (1, -1)

    @property
    def executor(self):
        return self._exec

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def value_bytes(self) -> int:
        return self._data.dtype.itemsize

    def to_numpy(self) -> np.ndarray:
        """Copy out to host memory regardless of residence."""
        if self._exec.is_host:
            return self._data.copy()
        return self._exec.get_master().copy_from(self._exec, self._data)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        view = self.view()
        if dtype is not None and dtype != view.dtype:
            return view.astype(dtype)
        return view

    # ------------------------------------------------------------------
    # hooks (the one-system defaults)
    # ------------------------------------------------------------------
    @property
    def extent(self) -> np.ndarray:
        """The values as ``(systems, rows, cols)``, a writable view."""
        return self._data[None]

    @property
    def _operand(self) -> np.ndarray:
        """What an op's ``[lo:hi]`` and a reduction read of this vector."""
        return self._data

    def _launch(self, cost, op, *args) -> None:
        """Run ``op(lo, hi, *args)`` over the whole operand in one call;
        charge ``cost``."""
        op(0, len(self._operand), *args)
        self._exec.run(cost)

    def _contract(self, a, b, cost) -> np.ndarray:
        """Contract ``a`` and ``b`` in one call; charge ``cost``."""
        result = c_einsum(CONTRACTION, a, b)
        self._exec.run(cost)
        return result

    def _exchange(self, payload, label: str):
        """Globally reduce a locally reduced ``payload``: already global."""
        return payload

    def _bind(self, build):
        """``build()``: the kernel over the operands as they are now."""
        return build()

    def _check_compatible(self, other, op_name: str) -> None:
        """Raise unless ``other`` has this vector's size and executor."""
        if other.size != self._size:
            raise DimensionMismatch(op_name, expected=self._size, got=other.size)
        if other.executor is not self._exec:
            raise ExecutorMismatch(
                op_name, expected=self._exec.name, got=other.executor.name
            )

    # ------------------------------------------------------------------
    # the protocol
    # ------------------------------------------------------------------
    def fill(self, value):
        """Set every entry to ``value``."""
        self._apply("fill", 1, _fill, self._data, value)
        return self

    def copy_values_from(self, other):
        """Overwrite this vector's values with ``other``'s (same shape)."""
        self._check_compatible(other, "copy_values_from")
        self._apply("copy", 2, _copy, self._data, other._operand)
        return self

    def scale(self, alpha):
        """``self *= alpha`` in place (scalar or per-column coefficients)."""
        a = _coef(alpha, self.dtype, self._coef_shape)
        self._apply("scale", 2, _scale, self._data, a)
        return self

    def add_scaled(self, alpha, other):
        """``self += alpha * other`` (axpy; scalar or per-column alpha)."""
        self._check_compatible(other, "add_scaled")
        a = _coef(alpha, self.dtype, self._coef_shape)
        self._apply("add_scaled", 3, _add_scaled, self._data, other._operand, a)
        return self

    def sub_scaled(self, alpha, other):
        """``self -= alpha * other`` in place."""
        a = _coef(alpha, self.dtype, self._coef_shape)
        return self.add_scaled(-a if a.ndim else -float(a), other)

    def elementwise(self, name: str, op, num_vectors: int, *coefficients):
        """Run ``op(lo, hi, *coefficients)`` over the extent as one fused
        streaming kernel touching ``num_vectors`` vector operands."""
        dtype, shape = self.dtype, self._coef_shape
        self._apply(
            name, num_vectors, op, *[_coef(c, dtype, shape) for c in coefficients]
        )

    def compute_dot(self, other) -> np.ndarray:
        """Column-wise dot products ``self^T other``, globally reduced
        (per system too for the batched head)."""
        self._check_compatible(other, "compute_dot")
        return self._reduction(other, False)()

    def compute_norm2(self) -> np.ndarray:
        """Column-wise Euclidean norms, globally reduced."""
        return self._reduction(self, True)()

    def all_reduce(self, payload, label: str):
        """Globally reduce a locally reduced ``payload``."""
        return self._exchange(payload, label)

    # Bound kernels: callables over one solve's operands, checked once
    # and priced when :meth:`_bind` resolves them.
    def bind_dot(self, other):
        """``compute_dot(other)``, bound."""
        self._check_compatible(other, "compute_dot")
        return self._bind(partial(self._reduction, other, False))

    def bind_norm2(self):
        """``compute_norm2()``, bound."""
        return self._bind(partial(self._reduction, self, True))

    def bind_elementwise(self, name: str, op, num_vectors: int):
        """``elementwise(name, op, num_vectors, coefficient)``, bound:
        called with its one coefficient."""
        return self._bind(partial(self._kernel, name, op, num_vectors))

    def _apply(self, name: str, num_vectors: int, op, *args) -> None:
        """``op(lo, hi, *args)`` as one streaming kernel, priced now."""
        operand = self._operand
        cost = blas1_cost(name, operand.size, operand.itemsize, num_vectors)
        self._launch(cost, op, *args)
        self.mark_modified()

    def _kernel(self, name: str, op, num_vectors: int):
        """``elementwise`` over the current extent, priced now."""
        operand = self._operand
        cost = blas1_cost(name, operand.size, operand.itemsize, num_vectors)
        launch, mark = self._launch, self.mark_modified
        dtype, shape = operand.dtype, self._coef_shape

        def kernel(coefficient) -> None:
            launch(cost, op, _coef(coefficient, dtype, shape))
            mark()

        return kernel

    def _reduction(self, other, norm: bool):
        """The dot (with ``norm``, the 2-norm) over the current extents,
        priced."""
        a, b = self._operand, other._operand
        rows = a.shape[-2]
        cost = dot_cost(rows, a.itemsize, a.size // rows)
        contract, exchange = self._contract, self._exchange
        if norm:
            return lambda: exchange(
                np.sqrt(contract(a, b, cost).astype(np.float64, copy=False)),
                "all_reduce_norm",
            )
        return lambda: exchange(contract(a, b, cost), "all_reduce_dot")
