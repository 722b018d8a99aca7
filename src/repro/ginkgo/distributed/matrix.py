"""Row-distributed sparse matrices (``gko::experimental::distributed::Matrix``).

A :class:`Matrix` splits a global CSR operator over the ranks of a
:class:`~repro.ginkgo.distributed.partition.Partition`.  Following
Ginkgo's storage scheme, every rank ``k`` owning rows ``[lo, hi)`` keeps

* a **local block** — the columns inside ``[lo, hi)``, shifted to local
  indices (the part of the SpMV fed by the rank's own vector entries),
* a **non-local block** — the remaining columns compressed to a dense
  ghost numbering, fed by halo values gathered from the owning ranks by
  a :class:`RowGatherer` before each apply.

The *numerical* SpMV does not sum the two blocks separately: it applies
the rank's full-width CSR row slice against the global source arena.
SciPy row slicing preserves each row's entries in storage order and CSR
matvec reduces each row independently, so the per-rank results are
bitwise identical to the single-rank (or scalar ``Csr``) SpMV built from
the same matrix — the foundation of the distributed solvers' bit-exact
residual histories.  The structural blocks still drive what the real
implementation would pay: the halo gather is actually performed (into
pooled buffers) and the communicator charges the message costs derived
from the non-local sparsity pattern.

Overlap mode (``overlap=True``) instead executes Ginkgo's two-phase
distributed SpMV for real: the halo exchange is *posted* non-blocking,
the rank-local diagonal block multiplies while the exchange is in
flight (hiding up to the whole transfer — the covered share lands in the
``comm_hidden`` trace annotation), and the non-local block is applied to
the gathered ghost values only after the wait.  Summing the two block
products relaxes the bitwise contract to a rounding-level tolerance
(local + non-local partial sums associate differently than one
full-width row reduction); the blocking default keeps byte identity.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

from repro.ginkgo.dim import Dim
from repro.ginkgo.distributed.comm import Communicator
from repro.ginkgo.distributed.partition import Partition
from repro.ginkgo.distributed.vector import Vector, run_rankwise
from repro.ginkgo.exceptions import BadDimension, GinkgoError
from repro.ginkgo.lin_op import LinOp
from repro.ginkgo.matrix.base import (
    check_index_dtype,
    check_value_dtype,
    scipy_safe,
)
from repro.ginkgo.matrix.csr import column_kernel, matvec_into
from repro.perfmodel import KernelCost, spmv_cost
from repro.perfmodel.comm import DEFAULT_NETWORK, halo_exchange_time


def _matvec(block: sp.csr_matrix, src: np.ndarray, dst: np.ndarray) -> None:
    """``dst = block @ src`` (cast as ``np.copyto`` casts), by the column
    kernel where it applies."""
    if column_kernel(src, dst, block.dtype):
        matvec_into(block, src, dst)
    else:
        np.copyto(dst, block @ src)


class RowGatherer:
    """Gathers each rank's ghost (non-owned) vector entries into buffers.

    The simulated counterpart of Ginkgo's sparse communicator: before an
    SpMV, every rank needs the source-vector entries behind its non-local
    columns.  ``recv_indices(k)`` lists rank ``k``'s required global rows
    (sorted); the gather copies them out of the source arena into pooled
    per-rank halo buffers as one fused region, and the message count per
    rank is the number of distinct owning ranks.
    """

    def __init__(self, exec_, partition: Partition, ghost_cols) -> None:
        self._exec = exec_
        self._partition = partition
        self._recv = [
            np.asarray(cols, dtype=np.int64) for cols in ghost_cols
        ]
        if len(self._recv) != partition.num_ranks:
            raise GinkgoError(
                f"expected {partition.num_ranks} ghost column lists, got "
                f"{len(self._recv)}"
            )
        self._messages = []
        for rank, cols in enumerate(self._recv):
            if cols.size == 0:
                self._messages.append(0)
                continue
            owners = partition.owner_of(cols)
            if np.any(owners == rank):
                raise GinkgoError(
                    f"rank {rank} lists its own rows as ghosts"
                )
            self._messages.append(int(np.unique(owners).size))
        self._buffers: list[np.ndarray | None] = [None] * len(self._recv)
        self._total = int(sum(cols.size for cols in self._recv))
        self._num_messages = int(sum(self._messages))
        #: The source arena the gather plan was built for (:meth:`_plan`).
        self._arena = None
        self._takes: list = []
        self._weights: list = []
        self._cost = None

    @property
    def total_recv_size(self) -> int:
        """Total ghost entries gathered per apply, summed over ranks."""
        return self._total

    @property
    def num_messages(self) -> int:
        """Point-to-point messages per exchange, summed over ranks."""
        return self._num_messages

    def recv_indices(self, rank: int) -> np.ndarray:
        """Sorted global row indices rank ``rank`` receives."""
        return self._recv[rank]

    def _plan(self, arena: np.ndarray) -> None:
        """The gather from ``arena``: per ghost-receiving rank its
        indices and a halo buffer of the arena's columns and type (a
        buffer of another shape is freed and replaced), and the cost."""
        cols = arena.shape[1]
        takes = []
        for rank, recv in enumerate(self._recv):
            if recv.size == 0:
                continue
            buf = self._buffers[rank]
            if buf is None or buf.shape != (recv.size, cols) or (
                buf.dtype != arena.dtype
            ):
                if buf is not None:
                    self._exec.free(buf)
                    self._buffers[rank] = None
                buf = self._exec.alloc((recv.size, cols), arena.dtype)
                self._buffers[rank] = buf
            takes.append((recv, buf))
        self._takes = takes
        self._weights = [recv.size for recv, _ in takes]
        self._cost = KernelCost(
            "halo_gather",
            flops=0.0,
            bytes=float(self._total * (2 * arena.dtype.itemsize * cols + 8)),
            launches=len(takes),
            dtype_name=arena.dtype.name,
        )
        self._arena = arena

    def free(self) -> None:
        """Return the halo buffers to the executor."""
        for buf in self._buffers:
            if buf is not None:
                self._exec.free(buf)
        self._buffers, self._arena = [None] * len(self._recv), None

    def _take(self, i: int, arena: np.ndarray) -> None:
        recv, buf = self._takes[i]
        np.take(arena, recv, axis=0, out=buf)

    def gather(self, source: Vector) -> list:
        """Fill the per-rank halo buffers from ``source``'s arena.

        Returns the buffer list (entry ``k`` is ``None`` when rank ``k``
        has no ghosts).  Buffers are pooled across applies; the gather
        is planned once per source arena.
        """
        if self._total == 0:
            return self._buffers
        arena = source._data
        if arena is not self._arena:
            self._plan(arena)
        run_rankwise(self._exec, self._cost, self._take, self._weights, arena)
        return self._buffers

    def __repr__(self) -> str:
        return (
            f"RowGatherer(ranks={self._partition.num_ranks}, "
            f"recv={self.total_recv_size}, messages={self.num_messages})"
        )


class Matrix(LinOp):
    """A square sparse operator row-distributed over simulated ranks.

    Args:
        exec_: Executor running the rank-local kernels.
        partition: Row :class:`Partition`; must cover the matrix size.
        data: Global operator — any SciPy sparse matrix or dense array.
        value_dtype: Value type (``float16``/``float32``/``float64``).
        index_dtype: Index type (``int32``/``int64``) used in cost
            modeling and the structural blocks.
        comm: Communicator charged for halo exchanges; shared with
            vectors built alongside this matrix by the factories.
        overlap: When True, ``apply`` posts the halo exchange
            non-blocking and runs the local-block SpMV while it is in
            flight (see the module docstring; relaxes bit identity).
        network: Interconnect model for the communicator created when
            ``comm`` is omitted (ignored when ``comm`` is passed).
    """

    _format_name = "distributed_csr"

    def __init__(
        self,
        exec_,
        partition: Partition,
        data,
        value_dtype=np.float64,
        index_dtype=np.int32,
        comm: Communicator | None = None,
        overlap: bool = False,
        network=None,
    ) -> None:
        if not isinstance(partition, Partition):
            raise GinkgoError(
                f"expected a Partition, got {type(partition).__name__}"
            )
        self._value_dtype = check_value_dtype(value_dtype)
        self._index_dtype = check_index_dtype(index_dtype)
        mat = sp.csr_matrix(data).astype(self._value_dtype)
        rows, cols = mat.shape
        if rows != cols:
            raise BadDimension(
                f"distributed matrices must be square, got {rows}x{cols}"
            )
        if partition.global_size != rows:
            raise BadDimension(
                f"partition covers {partition.global_size} rows but the "
                f"matrix has {rows}"
            )
        super().__init__(exec_, Dim(rows, cols))
        self._partition = partition
        if comm is None:
            comm = Communicator(
                exec_,
                partition.num_ranks,
                network=network or DEFAULT_NETWORK,
            )
        self._comm = comm
        self._overlap = bool(overlap)
        self._nnz = int(mat.nnz)

        # Full-width row slices: the bitwise-exact compute path.  SciPy
        # kernels reject float16, so halves compute in float32 and round
        # back, exactly like the scalar formats.
        compute = scipy_safe(np.zeros(0, dtype=self._value_dtype)).dtype
        self._row_blocks = []
        self._rank_nnz = []
        #: Per-rank structural blocks, built lazily on first access.
        self._local_blocks: list | None = None
        self._non_local_blocks: list | None = None
        self._local_nnz: list = []
        self._non_local_nnz: list = []
        self._ghost_cols: list = []
        for lo, hi in partition.ranges:
            block = mat[lo:hi, :].astype(compute)
            self._row_blocks.append(block)
            self._rank_nnz.append(int(block.nnz))
            coo = block.tocoo()
            outside = (coo.col < lo) | (coo.col >= hi)
            self._ghost_cols.append(
                np.unique(coo.col[outside]).astype(np.int64)
            )
        self._gatherer = RowGatherer(exec_, partition, self._ghost_cols)
        #: Row blocks re-stacked into one CSR, built lazily for the
        #: collapsed (single-worker) SpMV.  Row slicing keeps each row's
        #: entries in storage order, so this matvec is bitwise identical
        #: to the per-rank block matvecs.
        self._stacked: sp.csr_matrix | None = None
        #: ``{(kernel, num_rhs): KernelCost}`` for this partition and mode.
        self._costs: dict = {}

    def _stacked_matrix(self) -> sp.csr_matrix:
        if self._stacked is None:
            self._stacked = sp.vstack(self._row_blocks, format="csr")
        return self._stacked

    # ------------------------------------------------------------------
    # properties and structure
    # ------------------------------------------------------------------
    @property
    def partition(self) -> Partition:
        return self._partition

    @property
    def comm(self) -> Communicator:
        return self._comm

    @property
    def num_ranks(self) -> int:
        return self._partition.num_ranks

    @property
    def dtype(self) -> np.dtype:
        return self._value_dtype

    @property
    def index_dtype(self) -> np.dtype:
        return self._index_dtype

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def value_bytes(self) -> int:
        return np.dtype(self._value_dtype).itemsize

    @property
    def index_bytes(self) -> int:
        return np.dtype(self._index_dtype).itemsize

    @property
    def row_gatherer(self) -> RowGatherer:
        return self._gatherer

    @property
    def overlap(self) -> bool:
        """Whether ``apply`` overlaps the local SpMV with the halo."""
        return self._overlap

    @overlap.setter
    def overlap(self, enabled: bool) -> None:
        self._overlap = bool(enabled)
        self._costs.clear()

    def mark_modified(self) -> None:
        super().mark_modified()
        self._costs.clear()

    def _build_structural_blocks(self) -> None:
        locals_, non_locals = [], []
        for rank, (lo, hi) in enumerate(self._partition.ranges):
            block = self._row_blocks[rank].tocoo()
            ghosts = self._ghost_cols[rank]
            inside = (block.col >= lo) & (block.col < hi)
            local = sp.csr_matrix(
                (
                    block.data[inside],
                    (block.row[inside], block.col[inside] - lo),
                ),
                shape=(hi - lo, hi - lo),
            )
            outside = ~inside
            ghost_ids = np.searchsorted(ghosts, block.col[outside])
            non_local = sp.csr_matrix(
                (block.data[outside], (block.row[outside], ghost_ids)),
                shape=(hi - lo, ghosts.size),
            )
            locals_.append(local)
            non_locals.append(non_local)
        self._local_blocks = locals_
        self._non_local_blocks = non_locals
        self._local_nnz = [int(b.nnz) for b in locals_]
        self._non_local_nnz = [int(b.nnz) for b in non_locals]

    def local_block(self, rank: int) -> sp.csr_matrix:
        """Rank ``rank``'s diagonal block in local column indices."""
        if self._local_blocks is None:
            self._build_structural_blocks()
        return self._local_blocks[rank]

    def non_local_block(self, rank: int) -> sp.csr_matrix:
        """Rank ``rank``'s off-diagonal block in ghost column indices.

        Column ``j`` corresponds to global row
        ``ghost_columns(rank)[j]`` of the source vector.
        """
        if self._non_local_blocks is None:
            self._build_structural_blocks()
        return self._non_local_blocks[rank]

    def ghost_columns(self, rank: int) -> np.ndarray:
        """Sorted global column indices rank ``rank`` must receive."""
        return self._ghost_cols[rank]

    def to_scipy(self) -> sp.csr_matrix:
        """Reassemble the global operator (for tests and IO)."""
        return sp.vstack(self._row_blocks, format="csr").astype(
            self._value_dtype
        )

    def copy_to(self, exec_) -> "Matrix":
        """The same operator distributed on ``exec_``, with its own
        communicator over the same network."""
        return Matrix(
            exec_, self._partition, self.to_scipy(), self._value_dtype,
            self._index_dtype, overlap=self._overlap,
            network=self._comm.network,
        )

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def repartition(
        self, new_partition: Partition, lost_rows: tuple | None = None
    ) -> "Matrix":
        """Redistribute the operator rows under ``new_partition`` in place.

        The shrink-and-repartition step of rank-failure recovery: row
        blocks, ghost-column lists and the row gatherer are rebuilt for
        the survivors.  Matrix values never change (the operator is
        immutable), so the result stays bitwise identical to the
        original — only ownership and the communication structure move.

        Args:
            new_partition: Partition over the surviving ranks; must
                cover the same global size.
            lost_rows: Optional ``(lo, hi)`` row range that lived on the
                failed rank.  When given, the re-replication of those
                rows to their heir is charged as simulated time under
                the ``fault`` trace category.
        """
        if not isinstance(new_partition, Partition):
            raise GinkgoError(
                f"expected a Partition, got {type(new_partition).__name__}"
            )
        if new_partition.global_size != self._partition.global_size:
            raise BadDimension(
                f"new partition covers {new_partition.global_size} rows "
                f"but the matrix has {self._partition.global_size}"
            )
        # Row slicing preserves storage order, so re-stacking and
        # re-slicing keeps every row's entries bitwise intact.
        mat = sp.vstack(self._row_blocks, format="csr")
        self._partition = new_partition
        self._row_blocks = []
        self._rank_nnz = []
        self._ghost_cols = []
        self._local_blocks = None
        self._non_local_blocks = None
        self._local_nnz = []
        self._non_local_nnz = []
        self._stacked = None
        self._costs.clear()
        for lo, hi in new_partition.ranges:
            block = mat[lo:hi, :]
            self._row_blocks.append(block)
            self._rank_nnz.append(int(block.nnz))
            coo = block.tocoo()
            outside = (coo.col < lo) | (coo.col >= hi)
            self._ghost_cols.append(
                np.unique(coo.col[outside]).astype(np.int64)
            )
        self._gatherer.free()
        self._gatherer = RowGatherer(
            self._exec, new_partition, self._ghost_cols
        )
        if lost_rows is not None:
            lo, hi = lost_rows
            nnz_lost = int(mat[lo:hi, :].nnz)
            nbytes = nnz_lost * (self.value_bytes + self.index_bytes) + (
                hi - lo
            ) * self.index_bytes
            seconds = halo_exchange_time(
                nbytes, max(1, new_partition.num_ranks), self._comm.network
            )
            self._exec.clock.advance(
                seconds,
                category="fault",
                label="repartition_regather",
                bytes=int(nbytes),
                ranks=new_partition.num_ranks,
            )
        return self

    # ------------------------------------------------------------------
    # SpMV
    # ------------------------------------------------------------------
    def _check_operands(self, b, x, op_name: str) -> None:
        for name, vec in (("b", b), ("x", x)):
            if not isinstance(vec, Vector):
                raise GinkgoError(
                    f"{op_name}: operand {name} must be a distributed "
                    f"Vector, got {type(vec).__name__}"
                )
            if vec.partition != self._partition:
                raise GinkgoError(
                    f"{op_name}: operand {name} uses a different "
                    f"partition than the matrix"
                )

    def _exchange_halo(self, b: Vector) -> None:
        """Gather ghost entries and charge the simulated exchange."""
        gatherer = self._gatherer
        if gatherer.total_recv_size == 0:
            return
        gatherer.gather(b)
        nbytes = gatherer.total_recv_size * b.value_bytes * b.size.cols
        self._comm.halo_exchange(nbytes, gatherer.num_messages)

    def _cost(self, name: str, num_rhs: int) -> KernelCost:
        """Kernel ``name``'s cost for ``num_rhs`` columns, priced once per
        partition: the full SpMV, or an overlapped SpMV's local or
        non-local block product."""
        cost = self._costs.get((name, num_rhs))
        if cost is None:
            if name == "spmv_distributed_csr":
                cols, nnz = self._size.cols, self._nnz
            elif name == "spmv_distributed_local":
                cols, nnz = max(self._size.cols, 1), sum(self._local_nnz)
            else:
                cols = max(self._gatherer.total_recv_size, 1)
                nnz = sum(self._non_local_nnz)
            cost = self._costs[name, num_rhs] = dataclasses.replace(
                spmv_cost(
                    "csr", self._size.rows, cols, nnz,
                    self.value_bytes, self.index_bytes, num_rhs=num_rhs,
                    strategy="load_balance",
                ),
                name=name,
            )
        return cost

    def _spmv_cost(self, num_rhs: int) -> KernelCost:
        return self._cost("spmv_distributed_csr", num_rhs)

    @staticmethod
    def _rows(block, lo, hi, src, dst, coefs) -> None:
        """``dst[lo:hi] = block @ src``; with ``coefs = (a, bt)``,
        ``dst[lo:hi] = a (block @ src) + bt dst[lo:hi]``."""
        if coefs is None:
            _matvec(block, src, dst[lo:hi])
            return
        a, bt = coefs
        result = block @ src
        dst[lo:hi] *= bt
        dst[lo:hi] += a * result.astype(dst.dtype, copy=False)

    def _spmv_rows(self, rank, src, dst, coefs) -> None:
        """Rank ``rank``'s full-width row block; the stacked operator over
        every row for ``None``."""
        if rank is None:
            self._rows(self._stacked_matrix(), 0, self._size.rows, src, dst, coefs)
            return
        lo, hi = self._partition.range_of(rank)
        self._rows(self._row_blocks[rank], lo, hi, src, dst, coefs)

    def _local_rows(self, rank, src, dst, coefs) -> None:
        """Rank ``rank``'s diagonal block against its own rows of ``src``."""
        lo, hi = self._partition.range_of(rank)
        self._rows(self._local_blocks[rank], lo, hi, src[lo:hi], dst, coefs)

    def _ghost_rows(self, rank, buffers, dst, coefs) -> None:
        """Rank ``rank``'s non-local block against its gathered ghosts."""
        block, buf = self._non_local_blocks[rank], buffers[rank]
        if block.nnz == 0 or buf is None:
            return
        if self._value_dtype == np.float16:
            buf = buf.astype(np.float32)
        lo, hi = self._partition.range_of(rank)
        result = np.empty_like(dst[lo:hi])
        _matvec(block, buf, result)
        dst[lo:hi] += result if coefs is None else coefs[0] * result

    def _apply_overlapped(self, b: Vector, src, dst, coefs) -> None:
        """Two-phase SpMV: local block under an in-flight halo exchange.

        Phase 1 packs the ghost values (the gather), posts the exchange,
        and multiplies each rank's diagonal block against its own slice
        of ``b`` — compute that hides the transfer.  Phase 2 waits (the
        uncovered remainder is charged; the covered share is annotated
        as ``comm_hidden``) and applies the non-local block to the
        gathered ghosts.  The two-block sum associates differently than
        the full-width row reduction, so this path trades bit identity
        for overlap — see DESIGN.md's relaxed-contract section.
        """
        if self._local_blocks is None:
            self._build_structural_blocks()
        gatherer = self._gatherer
        buffers = gatherer.gather(b)
        num_rhs = b.size.cols
        nbytes = gatherer.total_recv_size * b.value_bytes * num_rhs
        request = self._comm.ihalo_exchange(nbytes, gatherer.num_messages)
        run_rankwise(
            self._exec, self._cost("spmv_distributed_local", num_rhs),
            self._local_rows, self._local_nnz, src, dst, coefs,
        )
        request.wait()
        run_rankwise(
            self._exec, self._cost("spmv_distributed_non_local", num_rhs),
            self._ghost_rows, self._non_local_nnz, buffers, dst, coefs,
        )

    def _spmv(self, b: Vector, x: Vector, coefs, op_name: str) -> None:
        """``x = A b``, or ``x = a A b + bt x`` with ``coefs = (a, bt)``:
        the halo exchange, then one whole-arena SpMV (or the two-phase
        overlapped one)."""
        self._check_operands(b, x, op_name)
        src = b._data
        if self._value_dtype == np.float16:
            src = src.astype(np.float32)
        if self._overlap and self._gatherer.total_recv_size > 0:
            self._apply_overlapped(b, src, x._data, coefs)
            return
        self._exchange_halo(b)
        run_rankwise(
            self._exec, self._spmv_cost(b.size.cols), self._spmv_rows,
            self._rank_nnz, src, x._data, coefs, whole=True,
        )

    def _apply_impl(self, b: Vector, x: Vector) -> None:
        self._spmv(b, x, None, "apply")

    def _apply_advanced_impl(self, alpha, b: Vector, beta, x: Vector) -> None:
        dtype = x._data.dtype
        coefs = (dtype.type(float(alpha)), dtype.type(float(beta)))
        self._spmv(b, x, coefs, "apply_advanced")

    def __repr__(self) -> str:
        return (
            f"Matrix({self._size.rows}x{self._size.cols}, "
            f"nnz={self._nnz}, ranks={self.num_ranks}, "
            f"dtype={np.dtype(self._value_dtype).name}, "
            f"executor={self._exec.name})"
        )
