"""Batch-lane coalescing — continuous batching for sparse solves.

pyGinkgo's overhead analysis (and PR 3's dispatch cache) show that for
small systems the per-solve cost is dominated by Python dispatch and
per-iteration crossings, not arithmetic.  The PR-4 batched solvers
amortise exactly that — one lockstep kernel advances K systems — but
only when someone *assembles* a batch.  The coalescer is that someone:
when the scheduler dispatches a small job, it scans the queue for up to
``max_lane - 1`` more jobs that may share a lockstep lane and solves
them as one ``BatchCsr`` batch: one binding-dispatch crossing and one
batched kernel charge instead of K.

Two jobs may share a lane only when **every** numerics-relevant control
matches — this is the coalescing contract that keeps per-job results
byte-identical to solo solves (PR-4's compaction contract supplies the
batch-vs-scalar half):

* identical sparsity pattern: equal
  :meth:`~repro.ginkgo.matrix.csr.Csr.pattern_fingerprint` (a memoized
  structural hash over shape/row_ptrs/col_idxs, invalidated by the PR-3
  ``data_version`` generation counter);
* same solver name, iteration limit, tolerance, and value dtype;
* same priority class (coalescing must not smuggle a low-priority job
  ahead of a higher class).

Deadlines do *not* gate lane membership: each member stops at its own
deadline (a per-system ``stop::Deadline`` in the lockstep check), so a
lane member is answered exactly as it would be alone.
"""

from __future__ import annotations

from repro.ginkgo.solver import methods_on
from repro.service.job import SolveJob


def lane_key(job: SolveJob) -> tuple:
    """The coalescing key: jobs with equal keys may share a batch lane."""
    return (
        job.matrix.pattern_fingerprint(),
        job.solver,
        int(job.max_iters),
        float(job.reduction_factor),
        str(job.matrix.dtype),
        int(job.priority),
    )


class Coalescer:
    """Gathers queued jobs into the anchor job's batch lane.

    A job is eligible when its method has a batched instance (its
    recurrence lists ``"batch"`` in the method table).

    Args:
        max_lane: Largest lane (anchor included).  1 disables coalescing.
    """

    def __init__(self, max_lane: int = 16) -> None:
        self.max_lane = max(1, int(max_lane))

    def eligible(self, job: SolveJob) -> bool:
        return self.max_lane > 1 and job.solver in methods_on("batch")

    def gather(self, anchor: SolveJob, queue, now: float) -> list:
        """The anchor's lane: ``[anchor, ...]`` pulled from ``queue``.

        Members are removed from the queue.  Jobs whose deadline has
        already expired are left queued — the dispatcher answers them
        without charging a solve, and pulling them into a lane would
        charge one.
        """
        lane = [anchor]
        if not self.eligible(job=anchor):
            return lane
        key = lane_key(anchor)
        for candidate in queue.jobs():
            if len(lane) >= self.max_lane:
                break
            if (
                candidate.deadline is not None
                and now >= candidate.deadline
            ):
                continue
            if lane_key(candidate) == key:
                queue.remove(candidate.job_id)
                lane.append(candidate)
        return lane

    def __repr__(self) -> str:
        return f"Coalescer(max_lane={self.max_lane})"
