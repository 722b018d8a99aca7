"""Row-partitioned (multi-)vectors (``gko::experimental::distributed::Vector``).

A distributed vector owns one executor-resident arena of shape
``(global_rows, cols)`` whose disjoint row blocks are the per-rank local
storage (the simulated ranks share an address space, like MPI windows on
one node); :meth:`local` hands out a writable zero-copy ``Dense`` view of
one rank's block.  It is the one-system instance of the recurrence
vector protocol (:class:`~repro.ginkgo.krylov_vector.KrylovVector`):
each operation is one whole-arena kernel, and only under
:func:`sequential_ranks` one dispatch per rank.

Reductions (dots, norms) are the crux of the bit-identity guarantee: the
partial results of a real distributed dot would be combined in rank order
by ``MPI_Allreduce``, producing different rounding than a single-rank
dot.  Here the reduction is instead evaluated once over the full arena in
global element order — *exactly* the contraction ``Dense.compute_dot``
performs — while the communicator charges the all-reduce the real
implementation would pay (:meth:`Vector._exchange`).  Residual histories
of distributed solves therefore match single-rank solves byte for byte.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

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
from repro.ginkgo.krylov_vector import CONTRACTION, KrylovVector, c_einsum
from repro.ginkgo.lin_op import LinOp
from repro.ginkgo.matrix.dense import Dense

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


class Vector(LinOp, KrylovVector):
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

    # ------------------------------------------------------------------
    # protocol hooks: rank-wise kernels, communicator-charged reductions
    # ------------------------------------------------------------------
    def _ranks(self, cost):
        """``((lo, hi), cost share)`` per rank under ``sequential_ranks``
        (read at call time, so a repartition is followed); else None."""
        if _SEQUENTIAL_RANKS and self.num_ranks > 1:
            partition = self._partition
            return zip(partition.ranges, _split_cost(cost, partition.sizes))
        return None

    def _launch(self, cost, op, *args) -> None:
        """One whole-arena call and kernel; under ``sequential_ranks`` one
        per rank (elementwise ops are position-independent: bitwise the
        same)."""
        ranks = self._ranks(cost)
        if ranks is None:
            return super()._launch(cost, op, *args)
        for (lo, hi), share in ranks:
            op(lo, hi, *args)
            self._exec.run(share)

    def _contract(self, a, b, cost) -> np.ndarray:
        """One contraction in global element order (the bit-identity
        mechanism); under ``sequential_ranks`` one per rank block, each
        with its own dispatch, summed in rank order like a real allreduce."""
        ranks = self._ranks(cost)
        if ranks is None:
            return super()._contract(a, b, cost)
        partials = []
        for (lo, hi), share in ranks:
            partials.append(c_einsum(CONTRACTION, a[lo:hi], b[lo:hi]))
            self._exec.run(share)
        return np.add.reduce(np.stack(partials), axis=0)

    def _exchange(self, payload: np.ndarray, label: str) -> np.ndarray:
        """Charge the all-reduce of ``payload``, already the global result:
        the communicator charges it (one float64 per entry), injects
        faults and, when recovery armed detection, raises on a NaN."""
        self._comm.all_reduce(
            payload.size * _REDUCE_BYTES, label=label, payload=payload
        )
        return payload

    def iall_reduce(self, payload: np.ndarray, label: str):
        """Post the non-blocking all-reduce of ``payload``; returns its handle."""
        return self._comm.iallreduce(
            payload.size * _REDUCE_BYTES, label=label, payload=payload
        )

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
        super()._check_compatible(other, op_name)
        if other._partition != self._partition:
            raise GinkgoError(
                f"{op_name}: operands use different partitions "
                f"({self._partition!r} vs {other._partition!r})"
            )

    def __repr__(self) -> str:
        return (
            f"Vector({self._size.rows}x{self._size.cols}, "
            f"ranks={self.num_ranks}, dtype={self.dtype}, "
            f"executor={self._exec.name})"
        )
