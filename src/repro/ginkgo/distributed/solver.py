"""Distributed Krylov solvers over simulated ranks.

One solver per method whose recurrence lists ``"distributed"`` in its
``instances``: the recurrence instantiated over
:class:`~repro.ginkgo.distributed.vector.Vector` — the way Ginkgo's
distributed solvers are its solver templates applied to
``distributed::Vector``.  Everything rank-specific lives behind the
vector and matrix (rank-partitioned ``elementwise`` kernels, halo
exchanges, reductions evaluated in global element order while the
communicator charges the all-reduce), so a blocking distributed residual
history is bitwise the scalar solver's on the undistributed system, for
any rank count, by construction (see DESIGN.md, "Krylov core").
Pipelined CG (:mod:`repro.ginkgo.solver.pipelined_cg`) is its own,
distributed-only recurrence and matches blocking CG to a tolerance.

Fault tolerance
---------------
Under a fault injector the solve runs under the checkpoint/replay driver
every iterative solver shares (:mod:`repro.ginkgo.solver.recovery`),
checkpointing every iteration by default.  A dropped halo or a corrupted
all-reduce (detected where the payload is produced:
:meth:`Communicator._poison`; on the non-blocking path at ``wait()``)
restores the last checkpoint and replays; a :class:`RankFailure` first
shrinks the solve over the survivors (:meth:`DistributedIterativeSolver.
shrink`).  Fused-mode reductions evaluate in global element order for
any rank count, so the history stays bit-identical to a fault-free run
even across a shrink; only the ``sequential_ranks`` baseline relaxes that.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.distributed.matrix import Matrix
from repro.ginkgo.distributed.vector import Vector
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.solver import derive_instances
from repro.ginkgo.solver.base import IterativeSolver, SolverFactory


class DistributedIterativeSolver(IterativeSolver):
    """A Krylov recurrence instantiated over distributed Vectors."""

    #: ``max_recoveries``: communication failures replayed per solve (8).
    extra_parameters = IterativeSolver.extra_parameters + ("max_recoveries",)

    def __init__(self, factory: SolverFactory, matrix) -> None:
        if not isinstance(matrix, Matrix):
            raise GinkgoError(
                f"{type(self).__name__} requires a distributed Matrix, "
                f"got {type(matrix).__name__}"
            )
        if factory.preconditioner is not None:
            raise GinkgoError(
                "distributed solvers currently support only "
                "preconditioner=None (the implicit Identity); distributed "
                "preconditioners are not implemented"
            )
        super().__init__(factory, matrix)

    @property
    def partition(self):
        return self._matrix.partition

    @property
    def comm(self):
        return self._matrix.comm

    def _apply_impl(self, b: Vector, x: Vector) -> None:
        for name, vec in (("b", b), ("x", x)):
            if not isinstance(vec, Vector):
                raise GinkgoError(
                    f"{type(self).__name__} operates on distributed "
                    f"Vectors; operand {name} is {type(vec).__name__}"
                )
            if vec.partition != self._matrix.partition:
                raise GinkgoError(
                    f"operand {name} uses a different partition than the "
                    f"system matrix"
                )
        if self.recurrence.single_rhs and b.size.cols != 1:
            raise GinkgoError(
                f"{type(self).__name__} solves a single right-hand side, "
                f"got {b.size.cols} columns"
            )
        super()._apply_impl(b, x)

    def _initial_residual_buffer(self, b: Vector) -> Vector:
        # Every scratch vector derives from this one, so all of a
        # solve's reductions charge the matrix's communicator and its
        # comm counters aggregate in one place.
        return b.scratch(
            self._workspace, "base.r0", copy=True, comm=self._matrix.comm
        )

    def shrink(self, failed_rank: int, b, x) -> None:
        """Repartition the solve of ``A x = b`` over the survivors.

        The failed rank's rows of the matrix and of the immutable ``b``
        are re-gathered; ``x``'s and every pooled vector's are poisoned,
        so a read before a checkpoint restore surfaces as a breakdown.
        """
        lost = self.partition.range_of(failed_rank)
        survivors = self.partition.shrink(failed_rank)
        self.comm.shrink(failed_rank)
        self._matrix.repartition(survivors, lost_rows=lost)
        lo, hi = lost
        b.repartition(survivors)
        # Every carried and scratch vector is pooled in the workspace.
        for vec in (x, *self.workspace.vectors()):
            vec.repartition(survivors)
            if hi > lo and np.issubdtype(vec._data.dtype, np.floating):
                vec._data[lo:hi] = np.nan


#: ``{method: distributed factory}`` (``DistributedCg``, ...), one per
#: method whose recurrence runs on distributed Vectors.
SOLVERS = derive_instances(
    "distributed", DistributedIterativeSolver, SolverFactory, globals()
)
