"""Per-solver workspace pools for the zero-allocation hot path.

Every iterative solver owns a :class:`Workspace` holding its Krylov basis,
Hessenberg / Givens arrays, and residual/temporary vectors, keyed by name
and validated against ``(shape, dtype)`` on every acquisition.  The first
``apply()`` populates the pool; subsequent applies (and restart cycles)
reuse the same buffers, so the steady-state solve path performs no real
allocations — mirroring real Ginkgo's persistent solver workspace arrays.

Reuse is numerically and temporally invisible:

* a pooled buffer served with ``zero=True`` is re-zeroed with a raw
  ``ndarray.fill`` carrying no simulated cost, exactly like the free
  zero-initialisation a fresh ``Executor.alloc`` provides;
* :meth:`dense_like` charges the same transfer cost as ``Dense.clone()``
  via :meth:`Executor.copy_into` — only the allocation (a free trace
  annotation) disappears;
* host-side bookkeeping arrays (:meth:`array`) were plain ``np.zeros``
  before and remain charge-free.

Buffers are re-allocated automatically when a request's shape or dtype
changes (the old buffer is returned to the executor), and :meth:`clear`
releases everything — repeated solves therefore no longer grow the
executor's ``bytes_allocated`` without bound.

Pools are safe to acquire from concurrent threads: the service layer's
shared worker pool may drive solvers on worker threads, and without
coordination two acquisitions of one slot could both miss, leak a buffer,
and hand out aliased storage.  A per-workspace re-entrant lock serialises
slot bookkeeping; the lock is uncontended (and therefore nearly free) in
single-threaded use, so the warm-path wall-clock gate is unaffected.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.ginkgo import cachestats
from repro.ginkgo.dim import Dim
from repro.ginkgo.matrix.dense import Dense


def _shape(shape) -> tuple:
    """``shape`` as a tuple of ints; a bare int is a 1-D shape."""
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    return tuple(map(int, shape))


class Workspace:
    """A named pool of solver scratch buffers bound to one executor.

    Acquisitions report hits/misses to :mod:`repro.ginkgo.cachestats`
    under the ``workspace`` kind, so ``pg.profile(metrics=...)`` shows
    what reuse saves.
    """

    def __init__(self, exec_) -> None:
        self._exec = exec_
        #: Serialises slot bookkeeping under concurrent worker threads.
        self._lock = threading.RLock()
        #: name -> pooled Dense or distributed Vector (allocated on ``exec_``).
        self._dense: dict = {}
        #: name -> host-side NumPy bookkeeping array.
        self._arrays: dict[str, np.ndarray] = {}
        #: name -> ((owner buffer id, column index), column wrapper Dense).
        self._columns: dict[str, tuple[tuple, Dense]] = {}
        #: name -> pooled executor-resident N-D buffer (batched state).
        self._tensors: dict[str, np.ndarray] = {}

    @property
    def executor(self):
        return self._exec

    # ------------------------------------------------------------------
    # executor-resident buffers
    # ------------------------------------------------------------------
    def dense(self, name: str, size, dtype, zero: bool = False) -> Dense:
        """A pooled ``Dense`` of the given shape/dtype.

        Args:
            name: Pool slot; each slot holds one buffer.
            size: Requested ``(rows, cols)`` (anything ``Dim.of`` accepts).
            dtype: Requested value type.
            zero: When True the buffer's contents are guaranteed zero on
                return (misses are zero-allocated; hits are re-zeroed
                without any simulated charge).  When False the contents
                are unspecified, as with ``Dense.empty`` — callers must
                fully overwrite before reading.
        """
        size = Dim.of(size)
        dtype = np.dtype(dtype)
        buf, hit = self.pooled(
            name,
            lambda held: held.size == size and held.dtype == dtype,
            lambda: Dense.empty(self._exec, size, dtype),
        )
        if hit and zero:
            # A fresh alloc is zero-initialised at no simulated cost;
            # re-zeroing a reused buffer must be equally free, so this
            # bypasses Dense.fill (which charges a blas1 kernel).
            buf._data.fill(0)
        return buf

    def pooled(self, name: str, fits, make) -> tuple:
        """``(vector, hit)`` for slot ``name``, rebuilt by ``make()`` on a miss.

        The slot-type-agnostic form of :meth:`dense`: ``fits(held)`` says
        whether the held vector can serve the request, ``make()`` builds
        a replacement on this executor (the old allocation is freed).
        Distributed vectors pool through here, so :meth:`clear` and
        :attr:`bytes_held` see them like any ``Dense``.
        """
        return self._acquire(
            self._dense, name, fits, make,
            lambda held: self._exec.free(held._data),
        )

    def _acquire(self, table: dict, name: str, fits, make, free) -> tuple:
        """``(buffer, hit)`` for slot ``name`` of ``table``.

        Serves the held buffer when ``fits(held)``; otherwise passes the
        held one (if any) to ``free`` (unless ``free`` is None) and stores
        ``make()``.  Every acquisition counts one ``workspace`` hit or miss.
        """
        with self._lock:
            buf = table.get(name)
            hit = buf is not None and fits(buf)
            if not hit:
                if buf is not None and free is not None:
                    free(buf)
                buf = table[name] = make()
        nbytes = buf._data.nbytes if table is self._dense else buf.nbytes
        cachestats.record(
            "workspace", hit, clock=self._exec.clock,
            buffer=name, nbytes=nbytes,
        )
        return buf, hit

    def vectors(self) -> tuple:
        """Every pooled vector (recovery repartitions them after a shrink)."""
        with self._lock:
            return tuple(self._dense.values())

    def dense_like(self, name: str, src: Dense) -> Dense:
        """A pooled copy of ``src`` — the reusable form of ``src.clone()``.

        Charges exactly the transfer ``clone()`` charges (the allocation
        itself is free in the performance model), so swapping ``clone()``
        for ``dense_like`` never changes simulated timings.
        """
        buf = self.dense(name, (src.size.rows, src.size.cols), src.dtype)
        self._exec.copy_into(src.executor, src._data, buf._data)
        return buf

    def column_view(self, name: str, block: Dense, index: int) -> Dense:
        """A cached writable view of ``block``'s column ``index``.

        The wrapper aliases the block's storage, so writes through the
        view land in the block; the cached wrapper is rebuilt if the slot
        is reused for a different block or column.
        """
        with self._lock:
            cached = self._columns.get(name)
            if cached is not None:
                owner, wrapper = cached
                if owner == (id(block._data), index):
                    cachestats.record(
                        "workspace", True, clock=self._exec.clock,
                        buffer=name, column=index,
                    )
                    return wrapper
            wrapper = Dense._wrap(
                self._exec, block._data[:, index : index + 1]
            )
            self._columns[name] = ((id(block._data), index), wrapper)
        cachestats.record(
            "workspace", False, clock=self._exec.clock,
            buffer=name, column=index,
        )
        return wrapper

    def tensor(self, name: str, shape, dtype, zero: bool = False) -> np.ndarray:
        """A pooled executor-resident N-D buffer (batched solver state).

        The batched solvers keep their per-system state stacked in
        ``(num_systems, rows, cols)`` buffers, which ``Dense`` cannot
        represent; this slot type pools raw executor allocations with the
        same hit/miss and zeroing semantics as :meth:`dense`.
        """
        shape, dtype = _shape(shape), np.dtype(dtype)
        buf, hit = self._acquire(
            self._tensors, name,
            lambda held: held.shape == shape and held.dtype == dtype,
            lambda: self._exec.alloc(shape, dtype), self._exec.free,
        )
        if hit and zero:
            buf.fill(0)
        return buf

    def tensor_like(self, name: str, src: np.ndarray) -> np.ndarray:
        """A pooled copy of the executor-resident array ``src``.

        Charges the same transfer a fresh clone would (the allocation is
        free in the performance model), mirroring :meth:`dense_like`.
        """
        buf = self.tensor(name, src.shape, src.dtype)
        self._exec.copy_into(self._exec, src, buf)
        return buf

    # ------------------------------------------------------------------
    # host-side bookkeeping arrays
    # ------------------------------------------------------------------
    def array(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """A pooled host array, always returned zeroed (``np.zeros`` drop-in).

        These hold iteration bookkeeping the solvers keep host-side
        (Hessenberg entries, Givens rotations, small projections); they
        never lived in executor memory and carry no simulated cost.
        """
        shape, dtype = _shape(shape), np.dtype(dtype)
        arr, hit = self._acquire(
            self._arrays, name,
            lambda held: held.shape == shape and held.dtype == dtype,
            lambda: np.zeros(shape, dtype=dtype), None,
        )
        if hit:
            arr.fill(0)
        return arr

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Release every pooled buffer back to the executor."""
        with self._lock:
            for buf in self._dense.values():
                self._exec.free(buf._data)
            for buf in self._tensors.values():
                self._exec.free(buf)
            self._dense.clear()
            self._arrays.clear()
            self._columns.clear()
            self._tensors.clear()

    @property
    def num_buffers(self) -> int:
        return len(self._dense) + len(self._arrays) + len(self._tensors)

    @property
    def bytes_held(self) -> int:
        """Executor bytes currently pinned by the pool."""
        return sum(
            buf._data.nbytes for buf in self._dense.values()
        ) + sum(buf.nbytes for buf in self._tensors.values())

    def __repr__(self) -> str:
        return (
            f"Workspace(executor={self._exec.name}, "
            f"dense={len(self._dense)}, arrays={len(self._arrays)}, "
            f"bytes={self.bytes_held})"
        )
