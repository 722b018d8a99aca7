"""Row-partitioned (multi-)vectors (``gko::experimental::distributed::Vector``).

A distributed vector owns one executor-resident arena of shape
``(global_rows, cols)`` whose disjoint row blocks are the per-rank local
storage (the simulated ranks share an address space, like MPI windows on
one node); :meth:`local` hands out a writable zero-copy ``Dense`` view of
one rank's block.  Rank-local work runs as one fused region per
operation (:func:`run_rankwise`); kernel costs are priced once per
vector shape, and per-rank dispatch is built only under
:func:`sequential_ranks`.

Reductions (dots, norms) are the crux of the bit-identity guarantee: the
partial results of a real distributed dot would be combined in rank order
by ``MPI_Allreduce``, producing different rounding than a single-rank
dot.  Here the reduction is instead evaluated once over the full arena in
global element order — *exactly* the ``np.einsum`` contraction
``Dense.compute_dot`` performs — while the communicator charges the
all-reduce the real implementation would pay.  Residual histories of
distributed solves therefore match single-rank solves byte for byte.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from functools import partial

import numpy as np

from repro.ginkgo.dim import Dim
from repro.ginkgo.distributed.comm import Communicator
from repro.ginkgo.distributed.partition import Partition
from repro.ginkgo.exceptions import (
    BadDimension,
    DimensionMismatch,
    ExecutorMismatch,
    GinkgoError,
)
from repro.ginkgo.lin_op import LinOp
from repro.ginkgo.matrix.dense import Dense, _coef, c_einsum
from repro.perfmodel import blas1_cost, dot_cost

#: Payload bytes of one scalar reduction result (always float64).
_REDUCE_BYTES = np.dtype(np.float64).itemsize

#: When True, every rank dispatches its kernels independently (the
#: ``sequential_ranks`` baseline) instead of through fused regions.
_SEQUENTIAL_RANKS = False


@contextmanager
def sequential_ranks():
    """Execute each rank's kernels as independent dispatches.

    This is the benchmark baseline: ranks behave like separate processes
    time-sharing the machine, so every operation pays one kernel dispatch
    (and one clock record) per rank, and reductions combine per-rank
    partial results in rank order — the rounding a real ``MPI_Allreduce``
    produces.  The default (fused) mode instead runs one whole-arena
    kernel per operation and evaluates reductions in global element
    order, which is what pins residual histories to the single-rank
    solve bit for bit.
    """
    global _SEQUENTIAL_RANKS
    previous = _SEQUENTIAL_RANKS
    _SEQUENTIAL_RANKS = True
    try:
        yield
    finally:
        _SEQUENTIAL_RANKS = previous


def _split_cost(cost, weights):
    """Split an aggregate kernel cost into per-rank shares by weight."""
    weights = [float(w) or 1.0 for w in weights]
    total = sum(weights) or 1.0
    return [
        replace(
            cost,
            flops=cost.flops * w / total,
            bytes=cost.bytes * w / total,
            launches=1,
        )
        for w in weights
    ]


def run_rankwise(exec_, cost, kernel, weights, *args, whole=False):
    """Run the rank-local work ``kernel(rank, *args)`` as one modeled kernel.

    Every rank's share runs on the calling thread whatever the
    executor's (modelled) ``num_threads``, then ``cost`` is charged once.
    With ``whole`` the single whole-arena call ``kernel(None, *args)``
    replaces the rank loop (bitwise the same, by the global-arena
    construction, and free of per-rank dispatch overhead).

    Under :func:`sequential_ranks` every rank instead pays its own
    dispatch, with ``cost`` split across ranks by ``weights``.
    """
    if _SEQUENTIAL_RANKS and len(weights) > 1:
        for rank, share in enumerate(_split_cost(cost, weights)):
            kernel(rank, *args)
            exec_.run(share)
        return
    if whole:
        kernel(None, *args)
    else:
        for rank in range(len(weights)):
            kernel(rank, *args)
    exec_.run(cost)


class Vector(LinOp):
    """A dense (multi-)vector row-partitioned over simulated ranks.

    Args:
        exec_: Executor holding the arena.
        partition: Row :class:`Partition`; ``partition.global_size`` rows.
        data: Optional initial contents (1-D or ``(rows, cols)``); zeros
            when omitted.
        cols: Number of columns when ``data`` is omitted.
        dtype: Value type when ``data`` is omitted.
        comm: Communicator charged for reductions; a fresh one is created
            when omitted (distributed objects built together should share
            one — the factories arrange that).
    """

    def __init__(
        self,
        exec_,
        partition: Partition,
        data=None,
        cols: int = 1,
        dtype=np.float64,
        comm: Communicator | None = None,
    ) -> None:
        if not isinstance(partition, Partition):
            raise GinkgoError(
                f"expected a Partition, got {type(partition).__name__}"
            )
        rows = partition.global_size
        if data is None:
            super().__init__(exec_, Dim(rows, int(cols)))
            self._data = exec_.alloc((rows, int(cols)), dtype)
        else:
            data = np.asarray(data)
            if data.ndim == 1:
                data = data.reshape(-1, 1)
            if data.ndim != 2:
                raise BadDimension(
                    f"Vector data must be 1-D or 2-D, got {data.ndim}-D"
                )
            if data.shape[0] != rows:
                raise BadDimension(
                    f"Vector data has {data.shape[0]} rows but the "
                    f"partition covers {rows}"
                )
            super().__init__(exec_, Dim(data.shape[0], data.shape[1]))
            self._data = exec_.alloc_like(np.ascontiguousarray(data))
            np.copyto(self._data, data)
        self._partition = partition
        self._comm = comm or Communicator(exec_, partition.num_ranks)
        self._locals: dict[int, Dense] = {}
        #: ``{(price, *args): KernelCost}`` — shape-only, priced once.
        self._costs: dict = {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(
        cls,
        exec_,
        partition: Partition,
        cols: int = 1,
        dtype=np.float64,
        comm: Communicator | None = None,
    ) -> "Vector":
        return cls(exec_, partition, cols=cols, dtype=dtype, comm=comm)

    @classmethod
    def zeros_like(cls, other: "Vector") -> "Vector":
        return cls.zeros(
            other._exec,
            other._partition,
            cols=other._size.cols,
            dtype=other.dtype,
            comm=other._comm,
        )

    # ------------------------------------------------------------------
    # properties and access
    # ------------------------------------------------------------------
    @property
    def partition(self) -> Partition:
        return self._partition

    @property
    def num_ranks(self) -> int:
        return self._partition.num_ranks

    @property
    def comm(self) -> Communicator:
        return self._comm

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def value_bytes(self) -> int:
        return self._data.dtype.itemsize

    def local(self, rank: int) -> Dense:
        """Writable zero-copy ``Dense`` view of ``rank``'s row block."""
        wrapper = self._locals.get(rank)
        if wrapper is None:
            lo, hi = self._partition.range_of(rank)
            wrapper = Dense._wrap(self._exec, self._data[lo:hi])
            self._locals[rank] = wrapper
        return wrapper

    def view(self) -> np.ndarray:
        """Zero-copy NumPy view of the global arena (host executors)."""
        if not self._exec.is_host:
            raise ExecutorMismatch(
                "Vector.view", expected="a host executor", got=self._exec.name
            )
        return self._data

    def to_numpy(self) -> np.ndarray:
        """Host copy of the full global vector."""
        if self._exec.is_host:
            return self._data.copy()
        return self._exec.get_master().copy_from(self._exec, self._data)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        view = self.view()
        if dtype is not None and dtype != view.dtype:
            return view.astype(dtype)
        return view

    # ------------------------------------------------------------------
    # elementwise operations (rank-local, one fused region)
    # ------------------------------------------------------------------
    def _cost(self, price, *args):
        """``price(*args)`` for this vector, priced once (shape-only)."""
        key = (price, *args)
        cost = self._costs.get(key)
        if cost is None:
            cost = self._costs[key] = price(*args)
        return cost

    def _apply_op(self, rank, op, coefs) -> None:
        """``op`` over rank ``rank``'s rows; over the arena for ``None``."""
        if rank is None:
            op(0, self._size.rows, *coefs)
        else:
            op(*self._partition.range_of(rank), *coefs)

    def elementwise(self, name: str, op, num_vectors: int, *coefficients) -> None:
        """Run ``op(lo, hi, *coefficients)`` per rank as one fused kernel.

        The rank-aware form of ``Dense.elementwise``: same ``op``, same
        coefficient broadcasting; elementwise ops are position-independent,
        so the whole-arena call is bitwise the per-rank loop.
        """
        cost = self._cost(
            blas1_cost, name, self._size.num_elements, self.value_bytes,
            num_vectors,
        )
        coefs = tuple(_coef(c, self.dtype) for c in coefficients)
        run_rankwise(
            self._exec, cost, self._apply_op, self._partition.sizes, op,
            coefs, whole=True,
        )
        self.mark_modified()

    def fill(self, value) -> "Vector":
        """Set every entry to ``value``."""
        data = self._data
        self.elementwise(
            "fill", lambda lo, hi: data[lo:hi].fill(value), 1
        )
        return self

    def copy_values_from(self, other: "Vector") -> "Vector":
        """Overwrite this vector's values with ``other``'s (same shape)."""
        self._check_compatible(other, "copy_values_from")
        src, dst = other._data, self._data
        self.elementwise(
            "copy", lambda lo, hi: np.copyto(dst[lo:hi], src[lo:hi]), 2
        )
        return self

    def scale(self, alpha) -> "Vector":
        """``self *= alpha`` in place (rank-local elementwise)."""
        data = self._data
        a = self.dtype.type(alpha)

        def op(lo, hi):
            data[lo:hi] *= a

        self.elementwise("scale", op, 2)
        return self

    def add_scaled(self, alpha, other: "Vector") -> "Vector":
        """``self += alpha * other`` (rank-local axpy)."""
        self._check_compatible(other, "add_scaled")
        dst, src = self._data, other._data
        a = self.dtype.type(alpha)

        def op(lo, hi):
            dst[lo:hi] += a * src[lo:hi]

        self.elementwise("add_scaled", op, 3)
        return self

    def sub_scaled(self, alpha, other: "Vector") -> "Vector":
        """``self -= alpha * other`` in place."""
        a = _coef(alpha, self.dtype)
        return self.add_scaled(-a if np.ndim(a) else -float(a), other)

    # ------------------------------------------------------------------
    # reductions (global-order evaluation + simulated all_reduce)
    # ------------------------------------------------------------------
    def compute_dot(self, other: "Vector") -> np.ndarray:
        """Column-wise dot products, globally reduced.

        The contraction runs over the full arena in global element order
        (bit-identical to ``Dense.compute_dot`` on the undistributed
        vector); the communicator charges the all-reduce of the ``cols``
        partial results.
        """
        return self.bind_dot(other)()

    def compute_norm2(self) -> np.ndarray:
        """Column-wise Euclidean norms, globally reduced."""
        return self.bind_norm2()()

    # Bound kernels (see ``Dense.bind_dot``): checked once, priced once
    # per shape; a call reads the partition it runs on, so a repartition
    # between calls (rank-failure recovery) is followed.
    def bind_dot(self, other: "Vector"):
        self._check_compatible(other, "compute_dot")
        reduce, all_reduce = self._reduce, self.all_reduce
        return lambda: all_reduce(reduce(other), "all_reduce_dot")

    def bind_norm2(self):
        reduce, all_reduce = self._reduce, self.all_reduce
        return lambda: all_reduce(
            np.sqrt(reduce(self).astype(np.float64)), "all_reduce_norm"
        )

    def bind_elementwise(self, name: str, op, num_vectors: int):
        return partial(self.elementwise, name, op, num_vectors)

    def all_reduce(self, payload: np.ndarray, label: str) -> np.ndarray:
        """Charge the all-reduce of a locally reduced ``payload``.

        The payload is already the global result (see the module
        docstring); this is where the communicator charges the exchange,
        injects faults, and — when a recovery driver armed detection —
        raises on a NaN-corrupted result.  Each entry travels as one
        float64.
        """
        self._comm.all_reduce(
            payload.size * _REDUCE_BYTES, label=label, payload=payload
        )
        return payload

    def iall_reduce(self, payload: np.ndarray, label: str):
        """Post the non-blocking all-reduce of ``payload``; returns its handle."""
        return self._comm.iallreduce(
            payload.size * _REDUCE_BYTES, label=label, payload=payload
        )

    def _reduce(self, other: "Vector") -> np.ndarray:
        """Contract the arenas column-wise, charging the reduction's cost.

        Fused mode contracts once over the full arena in global element
        order (the bit-identity mechanism); under ``sequential_ranks``
        each rank contracts its own block with its own dispatch and the
        partials are combined in rank order, like a real allreduce.
        """
        cost = self._cost(
            dot_cost, self._size.rows, self.value_bytes, self._size.cols
        )
        a, b = self._data, other._data
        if _SEQUENTIAL_RANKS and self.num_ranks > 1:
            partition = self._partition
            partials = []
            for (lo, hi), share in zip(
                partition.ranges, _split_cost(cost, partition.sizes)
            ):
                partials.append(c_einsum("ij,ij->j", a[lo:hi], b[lo:hi]))
                self._exec.run(share)
            return np.add.reduce(np.stack(partials), axis=0)
        result = c_einsum("ij,ij->j", a, b)
        self._exec.run(cost)
        return result

    # ------------------------------------------------------------------
    # scratch
    # ------------------------------------------------------------------
    def scratch(self, ws, name: str, copy: bool = False, comm=None) -> "Vector":
        """Pooled work vector shaped and partitioned like this one.

        Pooled in the solver's workspace ``ws`` like any ``Dense``
        scratch.  It charges its reductions on ``comm`` (default: this
        vector's communicator); with ``copy`` it starts as a copy of
        this vector.
        """
        vec, _ = ws.pooled(
            name,
            lambda held: (
                held.size == self._size
                and held.dtype == self.dtype
                and held.partition == self._partition
            ),
            lambda: Vector.zeros(
                self._exec,
                self._partition,
                cols=self._size.cols,
                dtype=self.dtype,
                comm=comm or self._comm,
            ),
        )
        if copy:
            vec.copy_values_from(self)
        return vec

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def repartition(self, new_partition: Partition) -> "Vector":
        """Re-own this vector's rows under ``new_partition`` in place.

        The global arena is the shared address space of the simulated
        ranks, so no values move: surviving ranks simply take ownership
        of the failed rank's row block.  Only the partition handle and
        the cached per-rank local views change.  Values previously owned
        by a failed rank are whatever the arena last held — recovery is
        expected to restore them from a checkpoint before use.
        """
        if not isinstance(new_partition, Partition):
            raise GinkgoError(
                f"expected a Partition, got {type(new_partition).__name__}"
            )
        if new_partition.global_size != self._partition.global_size:
            raise DimensionMismatch(
                "Vector.repartition",
                expected=self._partition.global_size,
                got=new_partition.global_size,
            )
        self._partition = new_partition
        self._locals = {}
        return self

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "Vector", op_name: str) -> None:
        if not isinstance(other, Vector):
            raise GinkgoError(
                f"{op_name} expects a distributed Vector, got "
                f"{type(other).__name__}"
            )
        if other.size != self._size:
            raise DimensionMismatch(
                op_name, expected=self._size, got=other.size
            )
        if other._partition != self._partition:
            raise GinkgoError(
                f"{op_name}: operands use different partitions "
                f"({self._partition!r} vs {other._partition!r})"
            )
        if other.executor is not self._exec:
            raise ExecutorMismatch(
                op_name, expected=self._exec.name, got=other.executor.name
            )

    def __repr__(self) -> str:
        return (
            f"Vector({self._size.rows}x{self._size.cols}, "
            f"ranks={self.num_ranks}, dtype={self.dtype}, "
            f"executor={self._exec.name})"
        )
