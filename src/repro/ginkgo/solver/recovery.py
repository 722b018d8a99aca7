"""Checkpoint/replay: the one recovery driver of every iterative solve.

:class:`Recovery` steps a recurrence to its stop, taking a
:class:`Checkpoint` every ``checkpoint_every`` iterations (default 1 for
a distributed solve under a fault injector, else 0: no driver).  A
communication failure restores the last one and replays in-solve, after
a :class:`RankFailure` shrinks the solve over the survivors; a device
fault propagates, and the retry layer (:mod:`repro.core.resilient`)
hands the checkpoint to ``IterativeSolver.resume`` on the same or a
fallback executor.  Replayed steps redo the original arithmetic and a
replay-aware monitor logs no iteration twice, so a recovered solve is
the fault-free one, bitwise.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.ginkgo.exceptions import (
    CommunicationError,
    RankFailure,
    StateCorrupted,
)
from repro.ginkgo.fault import injector_of
from repro.perfmodel import KernelCost

#: Failures replayed in-solve; device errors are the retry layer's job.
RECOVERABLE = (CommunicationError, StateCorrupted)


@dataclass(frozen=True)
class Checkpoint:
    """Host snapshot of a recurrence after ``iteration`` iterations; a
    mid-cycle ``cycle`` array is ``(shape, index, values)``: ``values`` at
    the written ``index``, zero elsewhere."""

    iteration: int
    vectors: dict
    scalars: dict
    cycle: dict
    rhs_norm: np.ndarray
    initial_resnorm: np.ndarray
    nbytes: int


class Recovery:
    """Checkpoint/replay driver for one apply of ``solver``.

    Records on the solver its ``checkpoint`` (the last one taken or
    resumed from), ``num_recoveries`` and ``recovery_events``.
    """

    @staticmethod
    def arm(solver, context, resume=None):
        """The driver of this apply: None unless it checkpoints or resumes."""
        injector = injector_of(solver._exec)
        comm = getattr(solver, "comm", None)
        default = int(injector is not None and comm is not None)
        every = solver._factory.params.get("checkpoint_every", default) or 0
        if every < 1 and resume is None:
            return None
        return Recovery(solver, injector, comm, context, every, resume)

    def __init__(self, solver, injector, comm, context, every, resume):
        self._solver, self._exec, self._comm = solver, solver._exec, comm
        self._paused = nullcontext if injector is None else injector.paused
        self._context, self._every = context, int(every)
        # Only a communicator raises what replay absorbs.
        budget = solver._factory.params.get("max_recoveries", 8)
        self._budget = 0 if comm is None else int(budget)
        solver.checkpoint, solver.num_recoveries = resume, 0
        solver.recovery_events = []

    def drive(self, recurrence) -> None:
        """Step ``recurrence`` to its stop, from the resumed checkpoint if any."""
        solver, monitor, decisions = self._solver, recurrence.monitor, {}

        def replay_aware(iteration, residual_norm, breakdown=False, exact=False):
            # Memoized, so a replayed iteration is never logged twice.
            if exact or iteration not in decisions:
                decisions[iteration] = monitor(
                    iteration, residual_norm, breakdown, exact
                )
            return decisions[iteration]

        recurrence.monitor = replay_aware
        iteration = 0 if solver.checkpoint is None else self._restore(recurrence)
        if self._comm is not None:  # detect corruption in this loop only
            self._comm.detect_corruption = True
        try:
            stopped = False
            while not stopped:
                last = solver.checkpoint
                # A resumed apply with checkpoint_every < 1 takes none.
                if last is None or 0 < self._every <= iteration - last.iteration:
                    self._save(iteration, recurrence)
                try:
                    iteration, stopped = recurrence.step(iteration)
                except RECOVERABLE as exc:
                    iteration = self._recover(exc, recurrence)
        finally:
            if self._comm is not None:
                self._comm.detect_corruption = False

    def _charge(self, kernel: str, nbytes: int) -> None:
        """Copy a checkpoint out to (or back from) host memory: over PCIe
        on a scalar device solve, else as one streaming kernel."""
        exec_, host = self._exec, self._exec.get_master()
        with self._paused():
            if self._comm is None and not exec_.is_host:
                save = kernel == "checkpoint_save"
                dst, src = (host, exec_) if save else (exec_, host)
                dst._charge_copy(src, nbytes)
            else:
                exec_.run(KernelCost(kernel, 0.0, 2.0 * nbytes, launches=1))

    def _save(self, iteration: int, rec) -> None:
        vectors = {name: getattr(rec, name)._data.copy() for name in rec.vectors}
        cycle = {}
        for name in () if rec.at_restart else rec.cycle:
            array, index = getattr(rec, name), rec.written(name)
            cycle[name] = (array.shape, index, array[index].copy())
        arrays = (*vectors.values(), *(values for *_, values in cycle.values()))
        checkpoint = Checkpoint(
            iteration, vectors,
            # Scalars are rebound each step, never mutated: references do.
            {name: getattr(rec, name) for name in rec.scalars},
            cycle, self._context.rhs_norm, self._context.initial_resnorm,
            sum(array.nbytes for array in arrays),
        )
        self._charge("checkpoint_save", checkpoint.nbytes)
        self._solver.checkpoint = checkpoint
        self._exec._log("checkpoint_saved", iteration=iteration)

    def _restore(self, rec) -> int:
        """Load the last checkpoint into ``rec``; returns its iteration."""
        checkpoint = self._solver.checkpoint
        for name, snap in checkpoint.vectors.items():
            vec = getattr(rec, name)
            np.copyto(vec._data, snap)
            vec.mark_modified()
        for name, value in checkpoint.scalars.items():
            setattr(rec, name, value)
        for name, (shape, index, values) in checkpoint.cycle.items():
            array = np.zeros(shape, values.dtype)
            array[index] = values
            setattr(rec, name, array)
        self._charge("checkpoint_restore", checkpoint.nbytes)
        return checkpoint.iteration

    def _recover(self, exc: Exception, rec) -> int:
        """Absorb ``exc``; the iteration to replay from.  Re-raises it
        once the budget is spent."""
        if self._budget < 1:
            raise exc
        self._budget -= 1
        solver = self._solver
        solver.num_recoveries += 1
        event = "replay_recovered"
        if isinstance(exc, RankFailure):
            event = "rank_recovered"
            with self._paused():
                solver.shrink(exc.rank, rec.b, rec.x)
        iteration = self._restore(rec)
        ranks = self._comm.num_ranks
        detail = dict(error=type(exc).__name__, iteration=iteration, ranks=ranks)
        solver.recovery_events.append({"event": event, **detail})
        self._exec._log(event, **detail, recoveries=solver.num_recoveries)
        return iteration
