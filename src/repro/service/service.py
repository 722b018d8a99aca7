"""The solver service: multi-tenant solve scheduling on virtual time.

:class:`SolverService` turns the repo's solve stack into a shared
facility: tenants submit :class:`~repro.service.job.SolveJob` streams
with arrival instants on a virtual clock; the service applies admission
control (:class:`~repro.service.scheduler.AdmissionControl`), orders the
backlog with EDF-within-priority scheduling
(:class:`~repro.service.scheduler.JobQueue`), and drives a pool of
workers — each owning a *fresh* executor, so per-worker simulated
timelines never interleave — through a discrete-event loop.

The headline throughput win is **coalescing**: when a worker picks up a
small job, the :class:`~repro.service.coalesce.Coalescer` pulls queued
jobs with the same pattern fingerprint and solver controls into one
lockstep batch lane.  Large systems, and methods that run only
distributed, take the distributed route.  Every route has one body:
stage the route's operands (a ``Csr`` copy, the lane's ``BatchCsr``,
or the distributed matrix), run them once through the resilient loop
(:func:`~repro.core.resilient.resilient_run`) with the service's retry
and fallback policies and each job's remaining deadline budget (queue
wait spends it), and answer each job from its own per-system report
(:func:`_answer`).  So a job gets the same status on every route, and
a completed job's solution is byte-identical to solving it alone
(``overlap=True`` distributed matrices relax this and are off by
default).

Event-loop shape (one iteration)::

    admit arrivals due now  ->  reap workers due now
        ->  dispatch while (free worker and backlog)
        ->  advance virtual time to the next arrival/completion

The service keeps a *frontend* clock (its own fresh executor) as the
shared timeline: waiting time is advanced with a ``queued`` stall label
and lifecycle instants (``enqueue``/``scheduled``/``solve_completed``)
are annotated on it, so ``pg.profile()`` traces show the scheduler the
same way it shows kernels.  SLO metrics (latency percentiles,
throughput, coalesce ratio, deadline misses) land in a
:class:`~repro.ginkgo.log.MetricsRegistry` under ``service_*`` names.
Workers are *modelled*: every dispatched solve runs to completion on
the calling thread; parallelism exists only on the simulated clock.
"""

from __future__ import annotations

import numpy as np

from repro.core import batch_api, distributed_api
from repro.core.device import device as _device_factory
from repro.core.interop import to_scipy
from repro.core.resilient import (
    BatchSolve,
    DistributedSolve,
    FallbackChain,
    RetryPolicy,
    ScalarSolve,
    expired_report,
    resilient_run,
)
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.log.metrics import MetricsRegistry
from repro.ginkgo.matrix.dense import Dense
from repro.ginkgo.solver import methods_on
from repro.service.coalesce import Coalescer
from repro.service.job import ROUTES, JobResult, SolveJob
from repro.service.scheduler import AdmissionControl, JobQueue


def _answer(job, report, x) -> dict:
    """Job ``job``'s answer from its own report: the one place that
    decides between ``completed``, ``timed_out`` and ``failed`` (every
    attempt failed: the zero initial guess)."""
    if report.timed_out:
        status = "timed_out"
    elif report.exhausted:
        status, x = "failed", np.zeros_like(job.rhs)
    else:
        status = "completed"
    return {"x": x, "report": report, "status": status}


class _Worker:
    """One slot of the solve pool: a fresh executor plus busy-state."""

    def __init__(self, index: int, exec_) -> None:
        self.index = index
        self.exec_ = exec_
        self.lane: list | None = None
        self.route = ""
        self.dispatched_at = 0.0
        self.free_at = 0.0
        self.payloads: list | None = None

    @property
    def busy(self) -> bool:
        return self.lane is not None

    def reset(self) -> None:
        self.lane = None
        self.route = ""
        self.payloads = None


class SolverService:
    """Multi-tenant solve scheduler over a modelled worker pool.

    Worker parallelism is simulated: every solve runs on the thread that
    calls :meth:`run`, and ``num_workers`` only sets how many timelines
    the scheduler overlaps on the virtual clock.

    Args:
        num_workers: Worker slots; each owns a fresh executor.
        device: Device name the workers (and frontend clock) run on.
        policy: ``"edf"`` (priority, then earliest deadline) or
            ``"fifo"`` (the naive baseline).
        coalesce: Enable batch-lane coalescing of small same-pattern
            jobs (the headline throughput optimisation).
        max_lane: Largest coalesced lane, anchor included.
        admission: :class:`AdmissionControl`; default admits everything.
        distributed_threshold: Jobs with at least this many rows route
            to the distributed path when their method runs distributed
            (``None``: only methods that run nowhere else go there).
        distributed_ranks: Simulated ranks for distributed solves.
        overlap: Use comm/compute-overlap distributed matrices.  Off by
            default because overlap relaxes the byte-identity contract
            to a rounding tolerance (see DESIGN.md).
        retry: :class:`RetryPolicy` for every route's resilient solve.
        fallback: Shared :class:`FallbackChain` (e.g. carrying a
            :class:`~repro.core.resilient.CircuitBreaker`) so jobs on
            every route reroute off an unhealthy device instead of
            being lost.
            ``None`` pins each solve to its worker's executor.
        metrics: Shared :class:`MetricsRegistry`; one is created when
            omitted.  Also fed by the resilient layer per solve.
        device_kwargs: Extra executor-constructor kwargs (``seed``,
            ``noisy``, ...) applied to the frontend and every worker.
    """

    def __init__(
        self,
        num_workers: int = 2,
        device: str = "reference",
        policy: str = "edf",
        coalesce: bool = True,
        max_lane: int = 16,
        admission: AdmissionControl | None = None,
        distributed_threshold: int | None = 2048,
        distributed_ranks: int = 4,
        overlap: bool = False,
        retry: RetryPolicy | None = None,
        fallback: FallbackChain | None = None,
        metrics: MetricsRegistry | None = None,
        device_kwargs: dict | None = None,
    ) -> None:
        if num_workers < 1:
            raise GinkgoError(f"num_workers must be >= 1, got {num_workers}")
        self.device_name = device
        self.policy = policy
        self.coalesce = bool(coalesce)
        self.distributed_threshold = distributed_threshold
        self.distributed_ranks = int(distributed_ranks)
        self.overlap = bool(overlap)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.admission = admission if admission is not None else AdmissionControl()
        self.coalescer = Coalescer(max_lane=max_lane if coalesce else 1)
        self._retry = retry
        self._fallback = fallback
        self._device_kwargs = dict(device_kwargs or {})
        # The frontend executor's clock is the service timeline; workers
        # get their own fresh executors so lane/solve kernel charges
        # never interleave across workers.
        self._frontend = _device_factory(
            device, fresh=True, **self._device_kwargs
        )
        self._workers = [
            _Worker(i, _device_factory(device, fresh=True, **self._device_kwargs))
            for i in range(num_workers)
        ]
        self.now = 0.0
        self._next_id = 0
        self._pending: list[SolveJob] = []
        # Validate the policy eagerly (JobQueue raises on unknown names).
        JobQueue(policy)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    @property
    def clock(self):
        """The frontend :class:`~repro.perfmodel.clock.SimClock`."""
        return self._frontend.clock

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def submit(self, job: SolveJob) -> int:
        """Queue a job for the next :meth:`run`; returns its job id."""
        if not isinstance(job, SolveJob):
            raise GinkgoError(
                f"submit expects a SolveJob, got {type(job).__name__}"
            )
        job.job_id = self._next_id
        self._next_id += 1
        self._pending.append(job)
        self.metrics.counter("service_jobs_submitted").inc()
        return job.job_id

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self, jobs=None) -> list:
        """Drive the arrival stream to completion; results in job order.

        Every submitted job is answered: the returned list holds one
        :class:`JobResult` per job, sorted by job id (submission order).
        """
        if jobs is not None:
            for job in jobs:
                self.submit(job)
        arrivals = sorted(self._pending, key=lambda j: (j.arrival, j.job_id))
        self._pending = []
        queue = JobQueue(self.policy)
        results: dict[int, JobResult] = {}
        outstanding: dict[str, int] = {}
        next_arrival = 0
        while (
            next_arrival < len(arrivals)
            or queue
            or any(w.busy for w in self._workers)
        ):
            while (
                next_arrival < len(arrivals)
                and arrivals[next_arrival].arrival <= self.now
            ):
                self._admit(arrivals[next_arrival], queue, outstanding, results)
                next_arrival += 1
            for worker in self._workers:
                if worker.busy and worker.free_at <= self.now:
                    self._complete(worker, results, outstanding)
            for worker in self._workers:
                if not queue:
                    break
                if not worker.busy:
                    self._dispatch(worker, queue, results, outstanding)
            instants = []
            if next_arrival < len(arrivals):
                instants.append(arrivals[next_arrival].arrival)
            instants.extend(w.free_at for w in self._workers if w.busy)
            if not instants:
                break
            self._advance_to(min(instants), queued=len(queue))
        return [results[job_id] for job_id in sorted(results)]

    def _advance_to(self, instant: float, queued: int) -> None:
        if instant <= self.now:
            return
        self.clock.advance(
            instant - self.now,
            category="stall" if queued else "host",
            label="queued" if queued else "service_idle",
            queue_depth=queued,
        )
        self.now = instant

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit(self, job, queue, outstanding, results) -> None:
        reason = self.admission.admit(
            job, len(queue), outstanding.get(job.tenant, 0)
        )
        if reason is not None:
            results[job.job_id] = JobResult(
                job=job,
                status="rejected",
                reason=reason,
                arrival=job.arrival,
                started=job.arrival,
                finished=job.arrival,
            )
            self.metrics.counter("service_jobs_rejected").inc()
            self.clock.annotate(
                "rejected", job=job.job_id, tenant=job.tenant, reason=reason
            )
            return
        queue.push(job)
        outstanding[job.tenant] = outstanding.get(job.tenant, 0) + 1
        self.metrics.histogram("service_queue_depth").observe(len(queue))
        self.clock.annotate(
            "enqueue",
            job=job.job_id,
            tenant=job.tenant,
            priority=job.priority,
            rows=job.num_rows,
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _route_for(self, job: SolveJob) -> str:
        """Distributed when the job is large and its method runs
        distributed, or when that is its method's only instance."""
        if job.solver not in methods_on("distributed"):
            return "scalar"
        if job.solver not in methods_on("scalar") or (
            self.distributed_threshold is not None
            and job.num_rows >= self.distributed_threshold
        ):
            return "distributed"
        return "scalar"

    def _dispatch(self, worker, queue, results, outstanding) -> None:
        while queue:
            job = queue.pop()
            if job is None:
                return
            if job.deadline is not None and self.now >= job.deadline:
                self._expire_queued(job, results, outstanding)
                continue
            route = self._route_for(job)
            lane = [job]
            if route == "scalar" and self.coalesce:
                lane = self.coalescer.gather(job, queue, self.now)
                if len(lane) > 1:
                    route = "batch"
            worker.lane = lane
            worker.route = route
            worker.dispatched_at = self.now
            self.clock.annotate(
                "scheduled",
                jobs=",".join(str(j.job_id) for j in lane),
                worker=worker.index,
                route=route,
                lane=len(lane),
                wait=self.now - job.arrival,
            )
            duration, worker.payloads = self._execute(
                worker, lane, route, self.now
            )
            worker.free_at = self.now + duration
            return

    def _expire_queued(self, job, results, outstanding) -> None:
        """Answer a job whose deadline passed while it waited.

        Truthful and cheap: no solve is charged (no worker clock moves),
        the returned solution is the untouched zero initial guess, and
        the partial report says so.
        """
        report = expired_report([(
            "deadline_expired_in_queue",
            {"job": job.job_id, "deadline": job.deadline},
        )])
        self._answered(
            job, _answer(job, report, np.zeros_like(job.rhs)), results,
            outstanding, route="none", started=self.now, finished=self.now,
        )
        self.clock.annotate(
            "deadline_expired_in_queue", job=job.job_id, tenant=job.tenant
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, worker, lane, route, dispatch_now):
        clock = worker.exec_.clock
        if clock.now < dispatch_now:
            # The worker sat idle since its last job; bring its timeline
            # up to the service clock before charging the solve.
            clock.advance(
                dispatch_now - clock.now, category="stall", label="worker_idle"
            )
        start = clock.now
        clock.push_span(
            "service_solve",
            category="region",
            route=route,
            lane=len(lane),
            jobs=",".join(str(j.job_id) for j in lane),
        )
        try:
            report, x = self._solve(worker.exec_, lane, route, dispatch_now)
        finally:
            clock.pop_span()
        reports = report.systems if route == "batch" else [report]
        xs = [None] * len(lane) if x is None else x.to_numpy().reshape(
            len(lane), *lane[0].rhs.shape
        )
        return clock.now - start, list(map(_answer, lane, reports, xs))

    def _solve(self, exec_, lane, route, dispatch_now):
        """Stage the route's operands from the jobs' host data and run
        them once through the resilient loop."""
        job = lane[0]
        rhs = np.stack([j.rhs for j in lane]) if route == "batch" else job.rhs
        if route == "batch":
            mtx = batch_api.matrices(exec_, [to_scipy(j.matrix) for j in lane])
            b = batch_api.vectors(exec_, [j.rhs for j in lane])
            solve, x = BatchSolve, batch_api.zeros_like(b)
        elif route == "distributed":
            part = distributed_api.partition(
                job.num_rows, self.distributed_ranks
            )
            mtx = distributed_api.matrix(
                exec_, part, to_scipy(job.matrix).tocsr(), overlap=self.overlap
            )
            b = distributed_api.vector(exec_, part, rhs, comm=mtx.comm)
            solve, x = DistributedSolve, distributed_api.zeros_like(b)
        else:
            mtx = job.matrix
            if mtx.executor is not exec_:
                mtx = mtx.copy_to(exec_)
            b = Dense.create(exec_, rhs)
            solve, x = ScalarSolve, Dense.create(exec_, np.zeros_like(rhs))
        # Each job's budget is what is left after queueing: waiting in
        # the backlog spends it exactly like solving does.
        budget = np.array([
            np.inf if j.deadline is None else j.deadline - dispatch_now
            for j in lane
        ])
        deadline = None
        if np.isfinite(budget).any():
            deadline = budget if route == "batch" else float(budget[0])
        return resilient_run(
            solve(
                mtx, b, x, rhs, np.zeros_like(rhs), solver=job.solver,
                max_iters=job.max_iters,
                reduction_factor=job.reduction_factor,
            ),
            exec_, self._retry, self._fallback or FallbackChain(exec_),
            deadline, self.metrics,
        )

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _complete(self, worker, results, outstanding) -> None:
        finished = worker.free_at
        for job, answer in zip(worker.lane, worker.payloads):
            self._answered(
                job, answer, results, outstanding, route=worker.route,
                lane_size=len(worker.lane), worker=worker.index,
                started=worker.dispatched_at, finished=finished,
            )
        self.clock.annotate(
            "solve_completed",
            jobs=",".join(str(j.job_id) for j in worker.lane),
            worker=worker.index,
            route=worker.route,
        )
        worker.reset()

    def _answered(self, job, answer, results, outstanding, **timing) -> None:
        """Record ``job``'s answer; it missed its deadline when it timed
        out or finished after it."""
        missed = answer["status"] == "timed_out" or (
            job.deadline is not None and timing["finished"] > job.deadline
        )
        result = JobResult(
            job=job, **answer, arrival=job.arrival, deadline_missed=missed,
            **timing,
        )
        results[job.job_id] = result
        outstanding[job.tenant] -= 1
        self._record(result)

    def _record(self, result: JobResult) -> None:
        metrics = self.metrics
        metrics.counter(f"service_jobs_{result.status}").inc()
        if result.route in ROUTES:
            metrics.counter(f"service_route_{result.route}").inc()
        if result.lane_size >= 2:
            metrics.counter("service_jobs_coalesced").inc()
        if result.deadline_missed:
            metrics.counter("service_deadline_missed").inc()
        metrics.histogram("service_latency").observe(result.latency)
        metrics.histogram("service_queue_wait").observe(result.queue_wait)
        metrics.histogram("service_solve_time").observe(result.solve_time)

    # ------------------------------------------------------------------
    # SLO reporting
    # ------------------------------------------------------------------
    def slo_report(self) -> dict:
        """SLO snapshot: percentiles, throughput, coalescing, misses.

        Latency percentiles are over *answered* jobs (completed, timed
        out and failed — each still consumed service capacity);
        throughput counts completed jobs per simulated second of the
        service timeline (the makespan).
        """
        metrics = self.metrics
        latency = metrics.histogram("service_latency")
        queue_wait = metrics.histogram("service_queue_wait")
        depth = metrics.histogram("service_queue_depth")
        completed = metrics.counter("service_jobs_completed").value
        timed_out = metrics.counter("service_jobs_timed_out").value
        failed = metrics.counter("service_jobs_failed").value
        answered = completed + timed_out + failed
        coalesced = metrics.counter("service_jobs_coalesced").value
        makespan = self.now
        return {
            "makespan": makespan,
            "jobs_submitted": metrics.counter("service_jobs_submitted").value,
            "jobs_completed": completed,
            "jobs_timed_out": timed_out,
            "jobs_failed": failed,
            "jobs_rejected": metrics.counter("service_jobs_rejected").value,
            "p50_latency": latency.percentile(50),
            "p99_latency": latency.percentile(99),
            "mean_queue_wait": queue_wait.mean,
            "max_queue_depth": depth.max if depth.count else 0.0,
            "throughput": (
                completed / makespan if makespan > 0 else float("nan")
            ),
            "coalesced_jobs": coalesced,
            "coalesce_ratio": (
                coalesced / answered if answered else 0.0
            ),
            "deadline_missed": metrics.counter(
                "service_deadline_missed"
            ).value,
            "deadline_miss_rate": (
                metrics.counter("service_deadline_missed").value / answered
                if answered
                else 0.0
            ),
            "routes": {
                route: metrics.counter(f"service_route_{route}").value
                for route in ROUTES
            },
        }

    def __repr__(self) -> str:
        return (
            f"SolverService(workers={len(self._workers)}, "
            f"policy={self.policy!r}, coalesce={self.coalesce}, "
            f"device={self.device_name!r}, now={self.now:.3e})"
        )
