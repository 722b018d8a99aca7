"""A job whose every retry fails is answered ``failed`` on every route.

A NaN in one job's right-hand side breaks its solve down on every
attempt.  Solved alone (scalar route) or coalesced into a batch lane
(quarantined, then retried alone), the service must still answer every
job: the poisoned one as ``failed`` with the same verdict on both routes,
the others byte-identical to their solo solves.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro as pg
from repro.core.resilient import FallbackChain, resilient_solve
from repro.ginkgo.matrix import Csr
from repro.ginkgo.matrix.dense import Dense
from repro.service import SolveJob, SolverService

N = 24
POISONED = 1


def _jobs(ref):
    mat = sp.diags(
        [-np.ones(N - 1), 4.0 * np.ones(N), -np.ones(N - 1)], [-1, 0, 1],
        format="csr",
    )
    jobs = []
    for i in range(4):
        rhs = np.linspace(1.0, 2.0 + i, N).reshape(-1, 1)
        if i == POISONED:
            rhs[5] = np.nan
        jobs.append(
            SolveJob(
                matrix=Csr.from_scipy(ref, mat), rhs=rhs, arrival=1e-9 * i,
                solver="cg", max_iters=200, reduction_factor=1e-9,
            )
        )
    return jobs


def _solo(job):
    dev = pg.device("reference", fresh=True)
    _, x = resilient_solve(
        dev, job.matrix.copy_to(dev), Dense.create(dev, job.rhs),
        solver=job.solver, max_iters=job.max_iters,
        reduction_factor=job.reduction_factor, fallback=FallbackChain(dev),
    )
    return np.array(pg.to_numpy(x), copy=True)


def _run(coalesce):
    jobs = _jobs(pg.device("reference", fresh=True))
    service = SolverService(num_workers=1, coalesce=coalesce)
    return jobs, service, service.run(jobs)


@pytest.mark.parametrize("coalesce", [False, True], ids=["scalar", "batch"])
def test_every_job_is_answered_and_the_poisoned_one_failed(coalesce):
    jobs, service, results = _run(coalesce)
    assert [r.job.job_id for r in results] == [0, 1, 2, 3]
    failed = results[POISONED]
    assert failed.status == "failed"
    assert np.array_equal(failed.x, np.zeros((N, 1)))
    report = failed.report
    assert (report.converged, report.breakdown, report.partial) == (
        False, True, True,
    )
    assert report.attempts == 4
    assert service.slo_report()["jobs_failed"] == 1
    assert service.slo_report()["jobs_completed"] == 3
    assert service.metrics.counter("service_jobs_failed").value == 1
    for job, result in zip(jobs, results):
        if job.job_id != POISONED:
            assert result.status == "completed"
            assert np.array_equal(result.x, _solo(job))


def test_both_routes_give_the_failed_job_the_same_verdict():
    verdicts = {}
    for coalesce in (False, True):
        _, _, results = _run(coalesce)
        r = results[POISONED]
        verdicts[coalesce] = (
            r.status, r.converged, r.report.breakdown, r.report.attempts
        )
    assert verdicts[False] == verdicts[True]
    # The scalar route's report carries its failure history.
    _, _, results = _run(False)
    names = [name for name, _ in results[POISONED].report.events]
    assert names == ["attempt_failed"] * 4


def test_lane_reports_carry_their_own_system_events():
    _, _, results = _run(True)
    lane = [r for r in results if r.route == "batch"]
    assert len(lane) >= 2
    for result in lane:
        names = [name for name, _ in result.report.events]
        if result.job.job_id == POISONED:
            assert names == [
                "batch_lane", "system_quarantined", "system_unrecovered",
            ]
        else:
            assert names == ["batch_lane"]
