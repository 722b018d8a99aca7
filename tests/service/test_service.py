"""Integration tests for the SolverService discrete-event scheduler."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro as pg
from repro.core.resilient import (
    CircuitBreaker,
    FallbackChain,
    resilient_solve,
)
from repro.ginkgo.matrix import Csr
from repro.ginkgo.matrix.dense import Dense
from repro.service import (
    AdmissionControl,
    SolveJob,
    SolverService,
    synthetic_workload,
)


def _spd(n=24, shift=0.0):
    return sp.diags(
        [-np.ones(n - 1), (4.0 + shift) * np.ones(n), -np.ones(n - 1)],
        [-1, 0, 1],
        format="csr",
    )


def _job(ref, arrival=0.0, priority=0, deadline=None, n=24, shift=0.0):
    return SolveJob(
        matrix=Csr.from_scipy(ref, _spd(n, shift)),
        rhs=np.linspace(1.0, 2.0, n).reshape(-1, 1),
        arrival=arrival,
        priority=priority,
        deadline=deadline,
        solver="cg",
        max_iters=200,
        reduction_factor=1e-9,
    )


def _solo(job):
    """The byte-identity oracle: the job solved alone on a fresh device."""
    dev = pg.device("reference", fresh=True)
    mtx = job.matrix.copy_to(dev)
    b = Dense.create(dev, job.rhs)
    _, x = resilient_solve(
        dev,
        mtx,
        b,
        solver=job.solver,
        max_iters=job.max_iters,
        reduction_factor=job.reduction_factor,
        fallback=FallbackChain(dev),
    )
    return np.array(pg.to_numpy(x), copy=True)


@pytest.fixture
def burst(ref):
    """A bursty stream: 12 small jobs over 2 patterns, near-simultaneous."""
    return synthetic_workload(
        ref,
        num_jobs=12,
        num_patterns=2,
        small_n=24,
        mean_interarrival=1e-7,
        seed=42,
    )


class TestCompletionAndIdentity:
    def test_every_job_answered_in_submission_order(self, burst):
        service = SolverService(num_workers=2, coalesce=True, max_lane=8)
        results = service.run(burst)
        assert len(results) == len(burst)
        assert [r.job.job_id for r in results] == sorted(
            r.job.job_id for r in results
        )
        assert all(r.status == "completed" for r in results)
        assert all(r.converged for r in results)

    def test_coalesced_solutions_byte_identical_to_solo(self, burst):
        service = SolverService(num_workers=2, coalesce=True, max_lane=8)
        results = service.run(burst)
        assert any(r.lane_size > 1 for r in results)  # lanes actually formed
        for result in results:
            np.testing.assert_array_equal(result.x, _solo(result.job))

    def test_lanes_share_pattern_fingerprint(self, burst):
        service = SolverService(num_workers=2, coalesce=True, max_lane=8)
        results = service.run(burst)
        lanes = {}
        for r in results:
            if r.route == "batch":
                lanes.setdefault((r.worker, r.started), []).append(r)
        assert lanes
        for members in lanes.values():
            prints = {m.job.matrix.pattern_fingerprint() for m in members}
            assert len(prints) == 1

    def test_distributed_route_byte_identical(self, ref):
        n = 64
        job = _job(ref, n=n)
        service = SolverService(
            num_workers=1,
            coalesce=False,
            distributed_threshold=n,
            distributed_ranks=4,
        )
        result = service.run([job])[0]
        assert result.route == "distributed"
        assert result.status == "completed"
        np.testing.assert_array_equal(result.x, _solo(job))


class TestScheduling:
    def test_priority_runs_first(self, ref):
        jobs = [
            _job(ref, priority=0),
            _job(ref, priority=2),
            _job(ref, priority=1),
        ]
        service = SolverService(num_workers=1, coalesce=False)
        results = service.run(jobs)
        started = {r.job.priority: r.started for r in results}
        assert started[2] < started[1] < started[0]

    def test_fifo_ignores_priority(self, ref):
        jobs = [
            _job(ref, arrival=0.0, priority=0),
            _job(ref, arrival=1e-9, priority=5),
        ]
        service = SolverService(num_workers=1, coalesce=False, policy="fifo")
        results = service.run(jobs)
        assert results[0].started < results[1].started

    def test_latency_includes_queue_wait(self, burst):
        service = SolverService(num_workers=1, coalesce=False)
        results = service.run(burst)
        waited = [r for r in results if r.queue_wait > 0]
        assert waited
        for r in results:
            assert r.latency == pytest.approx(r.queue_wait + r.solve_time)


class TestAdmission:
    def test_queue_depth_rejection(self, ref):
        jobs = [_job(ref) for _ in range(3)]
        service = SolverService(
            num_workers=1,
            coalesce=False,
            admission=AdmissionControl(max_queue_depth=1),
        )
        results = service.run(jobs)
        statuses = [r.status for r in results]
        assert statuses == ["completed", "rejected", "rejected"]
        assert all("queue full" in r.reason for r in results[1:])

    def test_tenant_quota_rejection(self, ref):
        a = _job(ref)
        b = _job(ref)
        a.tenant = b.tenant = "heavy"
        service = SolverService(
            num_workers=1,
            coalesce=False,
            admission=AdmissionControl(default_quota=1),
        )
        results = service.run([a, b])
        assert results[0].status == "completed"
        assert results[1].status == "rejected"
        assert "over quota" in results[1].reason


class TestDeadlines:
    def test_deadline_expired_in_queue_is_truthful_and_free(self, ref):
        blocker = _job(ref, arrival=0.0, priority=1)
        doomed = _job(ref, arrival=1e-10, deadline=2e-10)
        service = SolverService(num_workers=1, coalesce=False)
        results = service.run([blocker, doomed])
        assert results[0].status == "completed"
        r = results[1]
        assert r.status == "timed_out"
        assert r.deadline_missed
        assert r.report.timed_out and r.report.partial
        assert r.report.attempts == 0  # no solve was charged
        np.testing.assert_array_equal(r.x, np.zeros_like(doomed.rhs))
        # Exactly one resilient solve ran (the blocker's).
        assert service.metrics.counter("solves").value == 1
        assert service.metrics.counter("service_jobs_timed_out").value == 1

    def test_deadline_mid_solve_returns_partial(self, ref):
        job = _job(ref, arrival=0.0, deadline=1e-9, n=400)
        service = SolverService(num_workers=1, coalesce=False)
        result = service.run([job])[0]
        assert result.status == "timed_out"
        assert result.deadline_missed
        assert result.report.timed_out and result.report.partial
        assert not result.report.converged

    def test_open_circuit_reroutes_instead_of_losing_jobs(self, ref):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1e9)
        # Open the circuit for the reference device family the workers
        # run on (the breaker keys circuits by executor name).
        breaker.record_failure(pg.device("reference", fresh=True))
        service = SolverService(
            num_workers=1,
            coalesce=False,
            fallback=FallbackChain("omp", breaker=breaker),
        )
        result = service.run([_job(ref)])[0]
        assert result.status == "completed"
        assert result.report.executor_name == "omp"
        assert result.report.count("circuit_skipped") == 1


class TestObservability:
    def test_trace_has_lifecycle_and_queued_stall(self, ref):
        jobs = [_job(ref, arrival=0.0), _job(ref, arrival=1e-9)]
        with pg.profile() as prof:
            service = SolverService(num_workers=1, coalesce=False)
            service.run(jobs)
        assert len(prof.trace.find("enqueue")) == 2
        assert len(prof.trace.find("scheduled")) == 2
        assert prof.trace.find("service_solve")
        queued = [
            s for s in prof.trace.find("queued") if s.category == "stall"
        ]
        assert queued  # the second job's wait shows as a queued stall

    def test_slo_report_shape(self, burst):
        service = SolverService(num_workers=2, coalesce=True, max_lane=8)
        service.run(burst)
        slo = service.slo_report()
        for key in (
            "p50_latency",
            "p99_latency",
            "throughput",
            "coalesce_ratio",
            "deadline_miss_rate",
            "makespan",
            "routes",
        ):
            assert key in slo
        assert slo["jobs_completed"] == len(burst)
        assert slo["p50_latency"] <= slo["p99_latency"]
        assert slo["throughput"] > 0
        assert slo["coalesce_ratio"] > 0

    def test_coalescing_beats_fifo_throughput(self, ref):
        def stream():
            return synthetic_workload(
                ref,
                num_jobs=16,
                num_patterns=2,
                small_n=24,
                mean_interarrival=1e-7,
                seed=9,
            )

        fast = SolverService(num_workers=2, coalesce=True, max_lane=8)
        fast.run(stream())
        slow = SolverService(num_workers=1, coalesce=False, policy="fifo")
        slow.run(stream())
        assert (
            fast.slo_report()["throughput"]
            > slow.slo_report()["throughput"]
        )



@pytest.mark.parametrize("solver,threshold,route", [
    ("minres", 100, "scalar"), ("bicg", 100, "scalar"),
    ("pipelined_cg", None, "distributed"),
])
def test_job_runs_on_an_instance_its_method_has(ref, solver, threshold, route):
    """Distributed when large and the method runs there, or when that is
    the method's only instance; else scalar."""
    from repro.suitesparse.generators import poisson_2d

    job = SolveJob(
        matrix=Csr.from_scipy(ref, poisson_2d(12)), rhs=np.ones((144, 1)),
        solver=solver, max_iters=300, reduction_factor=1e-9,
    )
    (result,) = SolverService(
        num_workers=1, coalesce=False, distributed_threshold=threshold
    ).run([job])
    assert (result.status, result.route) == ("completed", route)
    if route == "scalar":
        solo = _solo(job)
    else:
        dev = pg.device("reference", fresh=True)
        part = pg.distributed.partition(144, 4)
        A = pg.distributed.matrix(dev, part, pg.to_scipy(job.matrix))
        b = pg.distributed.vector(dev, part, job.rhs, comm=A.comm)
        _, x = pg.distributed.SOLVERS[solver](
            dev, A, max_iters=300, reduction_factor=1e-9
        ).apply(b, pg.distributed.zeros_like(b))
        solo = x.to_numpy()
    assert result.x.tobytes() == solo.tobytes()
