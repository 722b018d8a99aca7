"""Job and result records of the solver service.

A :class:`SolveJob` is one tenant request: a system matrix (an engine
:class:`~repro.ginkgo.matrix.csr.Csr` staged on the service's staging
executor), a right-hand side, and its scheduling envelope — tenant,
priority class, optional absolute deadline on the service's virtual
clock, and solver controls.  The service answers every submitted job
with a :class:`JobResult` whose status is one of

* ``completed`` — the solve ran; ``x`` holds the solution and ``report``
  the job's own :class:`~repro.core.resilient.ResilienceReport` (a batch
  lane member's is its system's report);
* ``rejected`` — admission control refused the job (queue full or
  tenant over quota); nothing was charged;
* ``timed_out`` — on every route: the deadline expired while the job was
  still queued (truthful partial report, no solve charged) or the
  in-flight solve hit its ``stop::Deadline`` budget (best-effort partial
  solution);
* ``failed`` — every retry of the solve failed (e.g. a non-finite
  right-hand side breaks down on each attempt), alone or as a batch
  lane's quarantined system: ``x`` is the zero initial guess and the
  report is partial, with ``converged=False``, ``breakdown=True``, the
  attempt count and the failure history in its events.

The three answered statuses are decided from the job's report alone, in
one place (:func:`repro.service.service._answer`), whichever route ran it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ginkgo.exceptions import GinkgoError

#: Job routes the scheduler can pick.
ROUTES = ("scalar", "batch", "distributed")


@dataclass
class SolveJob:
    """One solve request from a tenant.

    Attributes:
        matrix: Engine ``Csr`` holding the system (staging executor).
        rhs: Host-side right-hand side, shape ``(n, 1)`` (or ``(n,)``).
        tenant: Tenant identifier used for quotas and metrics.
        priority: Higher runs first; ties break by deadline (EDF), then
            arrival order.
        deadline: Absolute virtual-clock instant (service seconds) by
            which the job should finish; ``None`` disables it.
        arrival: Virtual-clock submission instant.
        solver: Method name (default ``"cg"``); the coalescer lanes the
            methods that have a batched instance.
        max_iters / reduction_factor: Stopping controls, part of the
            coalescing lane key.
    """

    matrix: object
    rhs: np.ndarray
    tenant: str = "default"
    priority: int = 0
    deadline: float | None = None
    arrival: float = 0.0
    solver: str = "cg"
    max_iters: int = 200
    reduction_factor: float = 1e-9
    #: Assigned by the service at submission.
    job_id: int = -1

    def __post_init__(self) -> None:
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        if self.rhs.ndim == 1:
            self.rhs = self.rhs.reshape(-1, 1)
        if self.rhs.ndim != 2 or self.rhs.shape[1] != 1:
            raise GinkgoError(
                f"job rhs must be a column vector, got shape {self.rhs.shape}"
            )
        rows = self.matrix.size.rows
        if self.rhs.shape[0] != rows:
            raise GinkgoError(
                f"rhs has {self.rhs.shape[0]} rows for a {rows}-row matrix"
            )
        if self.arrival < 0:
            raise GinkgoError(f"arrival must be >= 0, got {self.arrival}")
        if self.deadline is not None and self.deadline <= self.arrival:
            raise GinkgoError(
                f"deadline {self.deadline} must be after arrival "
                f"{self.arrival}"
            )

    @property
    def num_rows(self) -> int:
        return int(self.matrix.size.rows)


@dataclass
class JobResult:
    """The service's answer to one job.

    Timing fields are virtual-clock instants on the service timeline;
    ``latency`` (completion minus arrival) therefore *includes* queue
    wait, which is what the SLO percentiles are measured over.
    """

    job: SolveJob
    status: str
    x: np.ndarray | None = None
    report: object = None
    route: str = ""
    lane_size: int = 0
    worker: int = -1
    #: Why admission refused the job (``rejected`` status only).
    reason: str = ""
    arrival: float = 0.0
    started: float = float("nan")
    finished: float = float("nan")
    #: The job finished, but after its deadline passed mid-solve.
    deadline_missed: bool = False

    @property
    def queue_wait(self) -> float:
        return self.started - self.arrival

    @property
    def solve_time(self) -> float:
        return self.finished - self.started

    @property
    def latency(self) -> float:
        return self.finished - self.arrival

    @property
    def converged(self) -> bool:
        return bool(self.report is not None and self.report.converged)

    def __repr__(self) -> str:
        return (
            f"JobResult(job={self.job.job_id}, status={self.status!r}, "
            f"route={self.route!r}, lane={self.lane_size}, "
            f"latency={self.latency:.3e})"
        )
