"""The ``gko::array`` equivalent: an executor-tagged flat buffer."""

from __future__ import annotations

import numpy as np

from repro.ginkgo.exceptions import ExecutorMismatch, GinkgoError
from repro.ginkgo.executor import Executor


class Array:
    """A one-dimensional typed buffer bound to an executor.

    Like ``gko::array``, this is the building block of all matrix formats:
    it knows where its memory lives and how to migrate between executors.
    Host-resident arrays expose their data zero-copy via :meth:`view` and
    the buffer protocol (``numpy.asarray(arr)``); device-resident arrays
    must be copied to a host executor first, mirroring real GPU semantics.
    """

    def __init__(self, exec_: Executor, data) -> None:
        if not isinstance(exec_, Executor):
            raise GinkgoError(f"expected an Executor, got {type(exec_).__name__}")
        data = np.asarray(data)
        if data.ndim != 1:
            data = data.reshape(-1)
        self._exec = exec_
        self._data = exec_.alloc_like(data)
        np.copyto(self._data, data)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, exec_: Executor, size: int, dtype) -> "Array":
        """Allocate an uninitialised array of ``size`` elements."""
        obj = cls.__new__(cls)
        obj._exec = exec_
        obj._data = exec_.alloc((int(size),), dtype)
        return obj

    @classmethod
    def full(cls, exec_: Executor, size: int, value, dtype) -> "Array":
        """Allocate an array filled with ``value``."""
        arr = cls.empty(exec_, size, dtype)
        arr._data.fill(value)
        return arr

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def executor(self) -> Executor:
        return self._exec

    @property
    def size(self) -> int:
        return int(self._data.size)

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def nbytes(self) -> int:
        return int(self._data.nbytes)

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    def view(self) -> np.ndarray:
        """Zero-copy NumPy view; only legal on host executors."""
        if not self._exec.is_host:
            raise ExecutorMismatch(
                "Array.view", expected="a host executor", got=self._exec.name
            )
        return self._data

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        view = self.view()
        if dtype is not None and dtype != view.dtype:
            return view.astype(dtype)
        return view

    def to_numpy(self) -> np.ndarray:
        """Copy out to host memory regardless of where the array lives."""
        if self._exec.is_host:
            return self._data.copy()
        host = self._exec.get_master()
        return host.copy_from(self._exec, self._data)

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def copy_to(self, exec_: Executor) -> "Array":
        """Return a copy of this array resident on ``exec_``."""
        obj = Array.__new__(Array)
        obj._exec = exec_
        obj._data = exec_.copy_from(self._exec, self._data)
        return obj

    def clone(self) -> "Array":
        """Deep copy on the same executor."""
        return self.copy_to(self._exec)

    def fill(self, value) -> "Array":
        """Fill in place with ``value``."""
        self._data.fill(value)
        return self

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"Array(size={self.size}, dtype={self.dtype}, "
            f"executor={self._exec.name})"
        )
