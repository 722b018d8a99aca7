"""Row-partitioned (multi-)vectors (``gko::experimental::distributed::Vector``).

A distributed vector owns one executor-resident arena of shape
``(global_rows, cols)`` whose disjoint row blocks are the per-rank local
storage (the simulated ranks share an address space, like MPI windows on
one node); :meth:`local` hands out a writable zero-copy ``Dense`` view of
one rank's block.  Rank-local work runs as one fused region per
operation (:func:`run_rankwise`).

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
from repro.ginkgo.matrix.dense import Dense, _coef
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


def _split_cost(cost, parts):
    """Split an aggregate kernel cost into per-rank shares by weight."""
    weights = [float(p.get("weight", 1.0)) or 1.0 for p in parts]
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


def run_rankwise(exec_, cost, tasks, parts=None, fused=None):
    """Run one-task-per-rank work as a single modeled kernel.

    The rank loop runs on the calling thread whatever the executor's
    (modelled) ``num_threads``.  When the caller supplies ``fused`` — one
    whole-arena callable equivalent to running every task — that single
    kernel replaces the per-rank loop (bitwise-identical by the
    global-arena construction, and free of per-rank dispatch overhead).

    Under :func:`sequential_ranks` every task instead pays its own
    dispatch, with ``cost`` split across ranks by partition weight.
    """
    if _SEQUENTIAL_RANKS and len(tasks) > 1:
        if parts is None:
            parts = [{} for _ in tasks]
        results = []
        for task, sub_cost in zip(tasks, _split_cost(cost, parts)):
            results.append(task())
            exec_.run(sub_cost)
        return results
    if fused is not None:
        result = fused()
        exec_.run(cost)
        return result
    results = [task() for task in tasks]
    exec_.run(cost)
    return results


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
    def _rank_parts(self) -> list:
        return [
            {"weight": float(hi - lo) or 1.0, "rank": rank, "rows": hi - lo}
            for rank, (lo, hi) in enumerate(self._partition.ranges)
        ]

    def elementwise(self, name: str, op, num_vectors: int, *coefficients) -> None:
        """Run ``op(lo, hi, *coefficients)`` per rank as one fused kernel.

        The rank-aware form of ``Dense.elementwise``: same ``op``, same
        coefficient broadcasting, one task per rank's row block.
        """
        coefs = tuple(_coef(c, self.dtype) for c in coefficients)

        def make_task(lo, hi):
            return lambda: op(lo, hi, *coefs)

        tasks = [make_task(lo, hi) for lo, hi in self._partition.ranges]
        cost = blas1_cost(
            name, self._size.num_elements, self.value_bytes, num_vectors
        )
        # Elementwise ops are position-independent, so the whole-arena
        # call is bitwise identical to the per-rank loop.
        run_rankwise(
            self._exec,
            cost,
            tasks,
            self._rank_parts(),
            fused=lambda: op(0, self._size.rows, *coefs),
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
        self._check_compatible(other, "compute_dot")
        return self.all_reduce(
            self._reduce("ij,ij->j", other), "all_reduce_dot"
        )

    def compute_norm2(self) -> np.ndarray:
        """Column-wise Euclidean norms, globally reduced."""
        return self.all_reduce(
            np.sqrt(self._reduce("ij,ij->j", self).astype(np.float64)),
            "all_reduce_norm",
        )

    # Bound kernels (see ``Dense.bind_dot``): the late-bound hooks.
    def bind_dot(self, other: "Vector"):
        return partial(self.compute_dot, other)

    def bind_norm2(self):
        return self.compute_norm2

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

    def _reduce(self, contraction: str, other: "Vector") -> np.ndarray:
        """Contract the arenas, charging the reduction's kernel cost.

        Fused mode contracts once over the full arena in global element
        order (the bit-identity mechanism); under ``sequential_ranks``
        each rank contracts its own block with its own dispatch and the
        partials are combined in rank order, like a real allreduce.
        """
        cost = dot_cost(self._size.rows, self.value_bytes, self._size.cols)
        if _SEQUENTIAL_RANKS and self.num_ranks > 1:
            parts = self._rank_parts()
            partials = []
            for (lo, hi), sub_cost in zip(
                self._partition.ranges, _split_cost(cost, parts)
            ):
                partials.append(
                    np.einsum(
                        contraction, self._data[lo:hi], other._data[lo:hi]
                    )
                )
                self._exec.run(sub_cost)
            return np.add.reduce(np.stack(partials), axis=0)
        result = np.einsum(contraction, self._data, other._data)
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
