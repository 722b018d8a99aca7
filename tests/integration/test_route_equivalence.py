"""One answer contract for every route.

The same job set runs through the scalar route (coalescing off), the
batch-lane route (coalescing on) and the distributed route (every job
above the threshold): per job, every route gives the same verdict, and
a completed job the same solution bit for bit.  Deadlines stop a job
within one iteration on every route, and ``ResilienceReport`` is built
in one place only.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

import repro as pg
from repro.core.resilient import (
    CircuitBreaker, FallbackChain, resilient_batch_solve,
)
from repro.ginkgo.matrix import Csr
from repro.service import SolveJob, SolverService
from repro.suitesparse.generators import poisson_2d

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
ROUTES = {
    "scalar": dict(coalesce=False, distributed_threshold=None),
    "batch": dict(coalesce=True, distributed_threshold=None),
    "distributed": dict(coalesce=False, distributed_threshold=8),
}
#: The probe's three deadline jobs come first; the NaN job is last.
PROBE, NAN_JOB = 3, 7


def _probe(ref, deadline=2e-4):
    """Three Poisson-2D CG jobs whose deadline lands mid-solve."""
    return [
        SolveJob(
            matrix=Csr.from_scipy(ref, poisson_2d(40)),
            rhs=np.full((1600, 1), 1.0 + i), deadline=deadline,
            solver="cg", max_iters=1000, reduction_factor=1e-12,
        )
        for i in range(PROBE)
    ]


def _jobs():
    """The probe, four generous-deadline jobs on two patterns, and one
    job with a NaN in its right-hand side."""
    ref = pg.device("reference", fresh=True)
    jobs = _probe(ref)
    for i, n in enumerate((24, 24, 32, 32, 24)):
        mat = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                       [-1, 0, 1], format="csr")
        rhs = np.linspace(1.0, 2.0 + i, n).reshape(-1, 1)
        deadline = 10.0
        if len(jobs) == NAN_JOB:
            rhs[5], deadline = np.nan, None
        jobs.append(SolveJob(
            matrix=Csr.from_scipy(ref, mat), rhs=rhs, deadline=deadline,
            solver="cg", max_iters=200, reduction_factor=1e-9,
        ))
    return jobs


@pytest.fixture(scope="module")
def answers():
    return {
        route: SolverService(num_workers=1, **kw).run(_jobs())
        for route, kw in ROUTES.items()
    }


def _verdict(r):
    report = r.report
    return (r.status, r.converged, report.breakdown, report.timed_out,
            r.deadline_missed)


def test_every_route_gives_every_job_the_same_answer(answers):
    scalar = answers["scalar"]
    assert [r.route for r in answers["batch"]].count("batch") >= 6
    assert {r.route for r in answers["distributed"]} <= {"distributed", "none"}
    for route, results in answers.items():
        for ref, result in zip(scalar, results):
            assert _verdict(result) == _verdict(ref), (route, ref.job.job_id)
            if ref.status == "completed":
                assert result.x.tobytes() == ref.x.tobytes(), route
    statuses = ["timed_out"] * PROBE + ["completed"] * 4 + ["failed"]
    assert [r.status for r in scalar] == statuses


def test_nan_job_fails_after_four_attempts_on_every_route(answers):
    for results in answers.values():
        failed = results[NAN_JOB]
        assert failed.status == "failed" and failed.report.attempts == 4
        assert np.array_equal(failed.x, np.zeros_like(failed.job.rhs))


@pytest.mark.parametrize("route", ROUTES)
def test_open_circuit_reroutes_every_route(route):
    breaker = CircuitBreaker(failure_threshold=1, cooldown=1e9)
    breaker.record_failure(pg.device("reference", fresh=True))
    results = SolverService(
        num_workers=1, fallback=FallbackChain("omp", breaker=breaker),
        **ROUTES[route],
    ).run(_jobs()[PROBE:NAN_JOB])
    assert {r.route for r in results} == {route}
    assert all(r.status == "completed" for r in results)
    assert {r.report.executor_name for r in results} == {"omp"}


@pytest.mark.parametrize("route", ROUTES)
def test_deadline_is_honoured_within_one_iteration(route):
    ref = pg.device("reference", fresh=True)
    # One iteration of this route: a generous-deadline solve's time per
    # iteration (staging included, so an upper estimate).
    solo = SolverService(num_workers=1, **ROUTES[route]).run(
        _probe(ref, deadline=10.0)
    )[0]
    iteration = (solo.finished - solo.started) / solo.report.num_iterations
    results = SolverService(num_workers=1, **ROUTES[route]).run(_probe(ref))
    assert all(r.status == "timed_out" for r in results)
    assert max(r.finished - r.job.deadline for r in results) <= iteration


def test_batch_deadline_is_per_system():
    dev = pg.device("reference", fresh=True)
    mtx = pg.batch.matrices(dev, [poisson_2d(20)] * 3)
    b = pg.batch.vectors(dev, [np.ones((400, 1))] * 3)
    report, _ = resilient_batch_solve(
        dev, mtx, b, reduction_factor=1e-10, deadline=[1e-6, np.inf, 1.0]
    )
    assert [s.timed_out for s in report.systems] == [True, False, False]
    assert report.converged.tolist() == [False, True, True]


def test_resilience_reports_have_one_constructor_site():
    allowed = SRC / "repro" / "core" / "resilient.py"
    sites = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py")) if path != allowed
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        in ("ResilienceReport", "BatchResilienceReport")
    ]
    assert sites == []
