"""The ``Tensor`` type and the ``as_tensor``/``array`` entry points.

``as_tensor`` is one of the paper's complex-dispatching entry points
(section 3.4): it accepts NumPy arrays (zero-copy on host executors via
the buffer protocol), nested lists, scalars-with-shape (Listing 1's
``fill=`` form), other tensors, and engine Dense operands, and dispatches
to the type-suffixed binding matching the requested dtype.
"""

from __future__ import annotations

import numpy as np

from repro import bindings
from repro.core.device import device as _device_factory
from repro.core.types import value_dtype
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.executor import Executor
from repro.ginkgo.matrix.dense import Dense, _clone_as


class Tensor:
    """A dense tensor bound to a device, wrapping the engine's Dense.

    Tensors are what pyGinkgo's vector-level API traffics in: NumPy-like
    construction and arithmetic on top of executor-resident storage.
    """

    def __init__(self, dense: Dense) -> None:
        if not isinstance(dense, Dense):
            raise GinkgoError(
                f"Tensor wraps an engine Dense, got {type(dense).__name__}"
            )
        self._dense = dense

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def dense(self) -> Dense:
        """The underlying engine operand."""
        return self._dense

    @property
    def shape(self) -> tuple:
        return self._dense.shape

    @property
    def size(self):
        """Ginkgo-style dimension object (supports ``size[0]``)."""
        return self._dense.size

    @property
    def dtype(self) -> np.dtype:
        return self._dense.dtype

    @property
    def device(self) -> Executor:
        return self._dense.executor

    @property
    def T(self) -> "Tensor":
        return Tensor(self._dense.transpose())

    def __len__(self) -> int:
        return self.shape[0]

    # ------------------------------------------------------------------
    # data access / interop
    # ------------------------------------------------------------------
    def numpy(self) -> np.ndarray:
        """Copy out to a host NumPy array (works from any device)."""
        return self._dense.to_numpy()

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """Zero-copy buffer-protocol view (host executors only)."""
        return self._dense.__array__(dtype)

    def item(self) -> float:
        """The single element of a 1x1 tensor."""
        if self.size.num_elements != 1:
            raise GinkgoError(f"item() needs a 1-element tensor, got {self.shape}")
        return float(self._dense.at(0, 0))

    def __getitem__(self, key):
        data = self.numpy()
        return data[key]

    # ------------------------------------------------------------------
    # movement
    # ------------------------------------------------------------------
    def to(self, target) -> "Tensor":
        """Copy to another device (accepts an executor or a device name)."""
        exec_ = target if isinstance(target, Executor) else _device_factory(target)
        if exec_ is self.device:
            return self
        return Tensor(self._dense.copy_to(exec_))

    def clone(self) -> "Tensor":
        return Tensor(self._dense.clone())

    def astype(self, dtype) -> "Tensor":
        return Tensor(self._dense.astype(value_dtype(dtype)))

    # ------------------------------------------------------------------
    # arithmetic (NumPy-idiomatic, returning new tensors)
    # ------------------------------------------------------------------
    def _coerce(self, other) -> Dense:
        if isinstance(other, Tensor):
            return other._dense
        if isinstance(other, Dense):
            return other
        raise TypeError(
            f"cannot combine Tensor with {type(other).__name__}"
        )

    def __add__(self, other):
        from repro.ginkgo import lazy

        if lazy.is_recording() or isinstance(other, lazy.LazyExpr):
            return lazy.add_expr(self, other)
        other = self._coerce(other)
        out = _clone_as(self._dense, other.dtype)
        out.add_scaled(1.0, other)
        return Tensor(out)

    def __sub__(self, other):
        from repro.ginkgo import lazy

        if lazy.is_recording() or isinstance(other, lazy.LazyExpr):
            return lazy.add_expr(self, other, sign=-1.0)
        other = self._coerce(other)
        out = _clone_as(self._dense, other.dtype)
        out.sub_scaled(1.0, other)
        return Tensor(out)

    def __mul__(self, scalar):
        from repro.ginkgo import lazy

        if lazy.is_recording():
            return lazy.scale_expr(float(scalar), self)
        out = self._dense.clone()
        out.scale(float(scalar))
        return Tensor(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Tensor":
        out = self._dense.clone()
        out.inv_scale(float(scalar))
        return Tensor(out)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    # in-place ops
    def fill_(self, value) -> "Tensor":
        self._dense.fill(value)
        return self

    def add_(self, other, alpha: float = 1.0) -> "Tensor":
        self._dense.add_scaled(alpha, self._coerce(other))
        return self

    def scale_(self, alpha) -> "Tensor":
        self._dense.scale(alpha)
        return self

    # reductions
    def dot(self, other) -> float:
        """Dot product (single-column tensors) or per-column dots."""
        result = self._dense.compute_dot(self._coerce(other))
        return float(result[0]) if result.size == 1 else result

    def norm(self) -> float:
        """Euclidean norm (single column) or per-column norms."""
        result = self._dense.compute_norm2()
        return float(result[0]) if result.size == 1 else result

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.shape}, dtype={self.dtype}, "
            f"device={self.device.name})"
        )


def as_tensor(
    data=None,
    device=None,
    dim=None,
    dtype="double",
    fill=None,
) -> Tensor:
    """Create a tensor, dispatching on the argument types (Listing 1).

    Three forms are supported::

        as_tensor(device=dev, dim=(n, 1), dtype="double", fill=1.0)
        as_tensor(numpy_array, device=dev)           # zero-copy on host
        as_tensor(existing_tensor, device=other_dev) # device migration

    Args:
        data: Array-like, Tensor, or engine Dense; None with ``dim``+
            ``fill`` allocates.
        device: Target executor or device name (default: reference).
        dim: Shape for the allocate-and-fill form.
        dtype: Value type name or numpy dtype.
        fill: Fill value for the allocate form (default 0.0).

    Returns:
        The tensor on the requested device.
    """
    exec_ = (
        device
        if isinstance(device, Executor)
        else _device_factory(device or "reference")
    )
    dt = value_dtype(dtype)

    if data is None:
        if dim is None:
            raise GinkgoError("as_tensor needs either data or dim=")
        rows, cols = (dim, 1) if np.isscalar(dim) else (dim[0], dim[1])
        dense = bindings.resolve("dense_empty", dt, exec_=exec_)(
            exec_, rows, cols
        )
        if fill is not None and fill != 0.0:
            dense.fill(fill)
        return Tensor(dense)

    if isinstance(data, Tensor):
        moved = data.to(exec_)
        return moved.astype(dt) if moved.dtype != dt else moved
    if isinstance(data, Dense):
        return as_tensor(Tensor(data), device=exec_, dtype=dt)

    arr = np.asarray(data)
    if arr.dtype != dt:
        arr = arr.astype(dt)
    dense = bindings.resolve("dense", dt, exec_=exec_)(exec_, arr)
    return Tensor(dense)


def array(data, device=None, dtype="double") -> Tensor:
    """NumPy-style alias: ``pg.array([...])`` builds a tensor."""
    return as_tensor(data, device=device, dtype=dtype)
