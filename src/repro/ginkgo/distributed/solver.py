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
When the executor injects faults (:class:`~repro.ginkgo.fault.FaultyExecutor`),
the solve is driven by a checkpoint/replay driver (:class:`_Recovery`)
*around* the recurrence's ``step`` — no recurrence knows about it:

* Every ``checkpoint_every`` restart points it snapshots the
  recurrence's carried state (CG, every iteration: ``x, r, p`` and
  ``rz``; pipelined CG: its eight vectors plus ``(prev_gamma, alpha)``;
  GMRES, between cycles: ``x`` — a cycle replays deterministically from
  ``x``, so the cycle start *is* an exact checkpoint, and a restore
  rewinds ``j`` to it).  On the non-blocking path faults surface at ``wait()``
  time, so a replay reposts and re-waits the exchange deterministically.
* A dropped halo / corrupted all-reduce (detected where the payload is
  produced: :meth:`Communicator._poison`) restores the checkpoint and
  replays; a :class:`RankFailure` first shrinks the partition over the
  survivors (``Partition.shrink`` + ``Communicator.shrink`` +
  ``Matrix.repartition``), poisons the lost rows, restores them from the
  checkpoint, then replays.
* Replayed steps reproduce the original arithmetic exactly, and a
  replay-aware monitor wrapper suppresses duplicate logging, so the
  residual history stays bit-identical to a fault-free run — even across
  a shrink, because fused-mode reductions evaluate in global element
  order regardless of the rank count.  Only the ``sequential_ranks``
  baseline (rank-order partial sums) relaxes reduction order after a
  repartition.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.distributed.comm import StateCorrupted
from repro.ginkgo.distributed.matrix import Matrix
from repro.ginkgo.distributed.vector import Vector
from repro.ginkgo.exceptions import (
    CommunicationError,
    GinkgoError,
    RankFailure,
)
from repro.ginkgo.fault import injector_of
from repro.ginkgo.solver import derive_instances
from repro.ginkgo.solver.base import IterativeSolver, SolverFactory
from repro.ginkgo.solver.pipelined_cg import (  # noqa: F401  (importable here)
    PipelinedCgRecurrence,
    pcg_step,
)
from repro.ginkgo.solver.recurrence import Recurrence
from repro.perfmodel import KernelCost

#: Failures the checkpoint/replay driver can absorb.  RankFailure is a
#: CommunicationError subclass; device-side CudaErrors are *not* here —
#: they stay the retry/fallback layer's job.
RECOVERABLE = (CommunicationError, StateCorrupted)


class _Recovery:
    """Checkpoint/replay driver for one distributed solve.

    Armed only when the solver's executor carries a
    :class:`~repro.ginkgo.fault.FaultInjector` and ``checkpoint_every``
    is positive; fault-free solves pay nothing.  Checkpoints are host
    copies of the recurrence's carried arenas (the ranks share one
    address space, so one copy models every rank checkpointing its
    block); save/restore time is charged as streaming kernels with
    injection paused — the checkpoint path itself is assumed reliable.
    """

    @staticmethod
    def arm(solver: "DistributedIterativeSolver", b: Vector, x: Vector):
        injector = injector_of(solver._exec)
        if injector is None:
            return None
        every = int(solver._factory.params.get("checkpoint_every", 1) or 0)
        if every < 1:
            return None
        budget = int(solver._factory.params.get("max_recoveries", 8))
        return _Recovery(solver, injector, b, x, every, budget)

    def __init__(self, solver, injector, b, x, every, budget) -> None:
        self._solver = solver
        self._exec = solver._exec
        self._injector = injector
        self._b = b
        self._x = x
        self._every = every
        self.budget = budget
        # The right-hand side is never checkpointed per iteration: it is
        # immutable, so one snapshot restores a failed rank's rows.
        self._b_snapshot = b._data.copy()
        self._decisions: dict[int, bool] = {}
        self.events: list[dict] = []
        solver.num_checkpoints = 0
        solver.num_recoveries = 0
        solver.recovery_events = self.events

    def wrap_monitor(self, monitor):
        """Memoize monitor decisions so replays never double-log."""

        def replay_aware(iteration, residual_norm, breakdown=False, exact=False):
            if exact or iteration not in self._decisions:
                self._decisions[iteration] = monitor(
                    iteration, residual_norm, breakdown, exact
                )
            return self._decisions[iteration]

        return replay_aware

    def drive(self, recurrence: Recurrence) -> None:
        """Step ``recurrence`` to its stop, absorbing recoverable failures.

        Checkpoints at restart points (``recurrence.at_restart``: every
        CG iteration, between GMRES cycles), every ``checkpoint_every``
        of them; a failed step restores the last checkpoint and replays
        from bit-exact state.  Corruption detection is armed on the
        communicator for exactly this loop.
        """
        comm = self._solver.comm
        comm.detect_corruption = True
        try:
            iteration, stopped = 0, False
            since_checkpoint = self._every
            while not stopped:
                if since_checkpoint >= self._every and recurrence.at_restart:
                    self._checkpoint(iteration, recurrence)
                    since_checkpoint = 0
                try:
                    iteration, stopped = recurrence.step(iteration)
                    if recurrence.at_restart:
                        since_checkpoint += 1
                except RECOVERABLE as exc:
                    iteration = self._recover(exc, recurrence)
                    since_checkpoint = 0
        finally:
            comm.detect_corruption = False

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _checkpoint(self, iteration: int, recurrence: Recurrence) -> None:
        """Snapshot the carried arenas + scalars at ``iteration``."""
        self._snap_vectors = {
            name: getattr(recurrence, name)._data.copy()
            for name in recurrence.vectors
        }
        # Scalars are rebound each step, never mutated: references do.
        self._snap_scalars = {
            name: getattr(recurrence, name) for name in recurrence.scalars
        }
        self._snap_iteration = iteration
        nbytes = sum(s.nbytes for s in self._snap_vectors.values())
        with self._injector.paused():
            self._exec.run(
                KernelCost(
                    "checkpoint_save", 0.0, 2.0 * nbytes, launches=1
                )
            )
        self._solver.num_checkpoints += 1

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _recover(self, exc: Exception, recurrence: Recurrence) -> int:
        """Absorb ``exc``: shrink if a rank died, restore the checkpoint.

        Returns the checkpointed iteration to resume from.  Raises
        ``exc`` again once the recovery budget is exhausted (the
        retry/fallback layer then owns the failure).
        """
        if self.budget < 1:
            raise exc
        self.budget -= 1
        solver = self._solver
        solver.num_recoveries += 1
        event = (
            "rank_recovered"
            if isinstance(exc, RankFailure)
            else "replay_recovered"
        )
        with self._injector.paused():
            if isinstance(exc, RankFailure):
                self._shrink(exc.rank)
            self._restore(recurrence)
        detail = {
            "event": event,
            "error": type(exc).__name__,
            "iteration": self._snap_iteration,
            "ranks": solver.comm.num_ranks,
        }
        self.events.append(detail)
        self._exec._log(
            event,
            error=detail["error"],
            iteration=detail["iteration"],
            ranks=detail["ranks"],
            recoveries=solver.num_recoveries,
        )
        return self._snap_iteration

    def _shrink(self, failed_rank: int) -> None:
        solver = self._solver
        partition = solver.partition
        lost = partition.range_of(failed_rank)
        survivors = partition.shrink(failed_rank)
        solver.comm.shrink(failed_rank)
        solver._matrix.repartition(survivors, lost_rows=lost)
        lo, hi = lost
        # Every carried and scratch vector is pooled in the workspace.
        for vec in (self._b, self._x, *solver.workspace.vectors()):
            vec.repartition(survivors)
            # The failed rank's block is gone: poison it so any read
            # before restore/overwrite surfaces as a breakdown instead
            # of silently using stale values.
            if hi > lo and np.issubdtype(vec._data.dtype, np.floating):
                vec._data[lo:hi] = np.nan
        np.copyto(self._b._data[lo:hi], self._b_snapshot[lo:hi])

    def _restore(self, recurrence: Recurrence) -> None:
        nbytes = 0
        for name, snap in self._snap_vectors.items():
            vec = getattr(recurrence, name)
            np.copyto(vec._data, snap)
            vec.mark_modified()
            nbytes += snap.nbytes
        for name, value in self._snap_scalars.items():
            setattr(recurrence, name, value)
        self._exec.run(
            KernelCost("checkpoint_restore", 0.0, 2.0 * nbytes, launches=1)
        )


class DistributedIterativeSolver(IterativeSolver):
    """A Krylov recurrence instantiated over distributed Vectors.

    Under fault injection the recurrence is stepped by the
    checkpoint/replay driver (:class:`_Recovery`) instead of the plain
    loop.

    Parameters:
        checkpoint_every: Checkpoint period under fault injection, in
            restart points (every iteration, or every GMRES cycle;
            default 1; 0 disables recovery).
        max_recoveries: Recoverable failures absorbed per solve before
            the error propagates (default 8).
    """

    extra_parameters = ("checkpoint_every", "max_recoveries")

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

    def _driver(self, b, x, monitor) -> tuple:
        recovery = _Recovery.arm(self, b, x)
        if recovery is None:
            return super()._driver(b, x, monitor)
        return recovery.drive, recovery.wrap_monitor(monitor)


#: ``{method: distributed factory}`` (``DistributedCg``, ...), one per
#: method whose recurrence runs on distributed Vectors.
SOLVERS = derive_instances(
    "distributed", DistributedIterativeSolver, SolverFactory, globals()
)
