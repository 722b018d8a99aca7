"""The front door: one ``SolverService.run()`` over a seeded job stream.

The stream is open-loop on the simulated clock: exponential arrivals at
a fixed mean rate (below the coalesced service capacity, so the queue
drains), six shared sparsity patterns for the coalescer, two priority
classes, deadlines loose enough that the parent commit misses none, and
every 32nd job large enough to take the distributed route.  The
*envelope* of the stream (arrival instants, tenants, priorities,
deadlines, sizes) is fixed; ``--seed`` draws the matrix values and
right-hand sides.  Seeding the arrivals too moves 10-25 jobs between
the scalar and batch routes from seed to seed and the host wall of
``run()`` with them (9 % quartile spread measured), which would drown
the regression bound.

On the host it is a closed loop: each request builds a fresh service and
drives the whole stream to completion.  A job that is rejected, times
out, misses its deadline, does not converge or is off the SciPy
reference fails the request.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro as pg

from benchmarks.e2e.catalog import ROUTES
from benchmarks.e2e.harness import hash_arrays, rel_err
from benchmarks.e2e.workloads.base import Inputs, Outcome, Workload

SOLVE_TOL = 1e-6
NUM_WORKERS = 2
NUM_RANKS = 4
#: Seed of the stream's envelope, the same for every ``--seed``.
ENVELOPE_SEED = 2025


class ServiceStream(Workload):
    name = "service_stream"
    why = (
        "SolverService(2 workers, coalesce, EDF).run() over 128 seeded jobs: "
        "6 patterns n=48..68, every 32nd n=4096 (distributed route), mean "
        "sim inter-arrival 120us, 2 priorities, deadlines; scheduler path"
    )
    sizes = {
        "full": {
            "num_jobs": 128, "num_patterns": 6, "small_n": 48,
            "large_n": 4096, "large_every": 32,
        },
        "quick": {
            "num_jobs": 8, "num_patterns": 2, "small_n": 12,
            "large_n": 128, "large_every": 8,
        },
    }
    dominant = (("service",), 0.95)
    bypassed = (("core", "ginkgo.matrix"), 0.05)

    def make_inputs(self, seed, size, workdir):
        dev = pg.device("reference")
        envelope = pg.service.synthetic_workload(
            dev,
            mean_interarrival=1.2e-4,
            deadline_slack=0.05,
            priority_levels=2,
            seed=ENVELOPE_SEED,
            **size,
        )
        rng = np.random.default_rng(seed)
        jobs, mats = [], []
        for slot in envelope:
            n = slot.num_rows
            off = -1.0 - 0.5 * rng.random(n - 1)
            mat = sp.diags([off, 4.0 + rng.random(n), off], [-1, 0, 1], format="csr")
            mats.append(mat.tocsc())
            jobs.append(pg.service.SolveJob(
                matrix=pg.from_scipy(mat, device=dev),
                rhs=rng.standard_normal((n, 1)),
                tenant=slot.tenant, priority=slot.priority,
                deadline=slot.deadline, arrival=slot.arrival,
                solver=slot.solver, max_iters=slot.max_iters,
                reduction_factor=slot.reduction_factor,
            ))
        refs = [spla.spsolve(m, job.rhs.ravel()) for m, job in zip(mats, jobs)]
        arrivals = np.array([job.arrival for job in jobs])
        return Inputs(
            data={"jobs": jobs, "threshold": size["large_n"]},
            refs={"x": refs},
            digest=hash_arrays(
                arrivals, *(m.data for m in mats), *(job.rhs for job in jobs)
            ),
        )

    def start(self, inputs, tracer):
        return {"inputs": inputs, "sim_total": 0.0}

    def request(self, state, tracer):
        data = state["inputs"].data
        with tracer.span("service.create", "service"):
            service = pg.service.SolverService(
                num_workers=NUM_WORKERS, coalesce=True, policy="edf",
                distributed_threshold=data["threshold"],
                distributed_ranks=NUM_RANKS,
            )
        with tracer.span("service.run", "service"):
            results = service.run(data["jobs"])
        state["sim_total"] += service.now
        state.setdefault("facts", service.slo_report())
        state["last_results"] = results
        return Outcome(answers={"results": results})

    def verify(self, state, outcome):
        refs = state["inputs"].refs["x"]
        results = outcome.answers["results"]
        problems = []
        if len(results) != len(refs):
            problems.append(f"{len(results)} answers for {len(refs)} jobs")
        for result, ref in zip(results, refs):
            job = result.job.job_id
            if result.status != "completed":
                problems.append(f"job {job} {result.status}")
            elif result.deadline_missed:
                problems.append(f"job {job} missed its deadline")
            elif not result.converged:
                problems.append(f"job {job} did not converge")
            else:
                err = rel_err(result.x, ref)
                if not err <= SOLVE_TOL:
                    problems.append(f"job {job} rel err {err:.2e}")
        return problems

    def sim_seconds(self, state):
        return state["sim_total"]

    def probes(self, state, tracer):
        """The lanes of the last run, solved directly through
        ``pg.batch``/``pg.solve``/``pg.distributed``: what is left of
        ``run()`` after subtracting this is the service's own time."""
        lanes: dict = {}
        for result in state["last_results"]:
            key = (result.worker, result.started, result.route)
            lanes.setdefault(key, []).append(result.job)
        dev = pg.device("reference", fresh=True)
        for _ in range(3):
            with tracer.span("probe.direct_lanes", "ginkgo.solver"):
                for (_, _, route), jobs in lanes.items():
                    self._solve_lane(dev, route, jobs)

    @staticmethod
    def _solve_lane(dev, route, jobs):
        anchor = jobs[0]
        controls = {
            "max_iters": anchor.max_iters,
            "reduction_factor": anchor.reduction_factor,
        }
        if route == "batch":
            mtx = pg.batch.matrices(dev, [pg.to_scipy(job.matrix) for job in jobs])
            b = pg.batch.vectors(dev, [job.rhs for job in jobs])
            pg.batch.cg(dev, mtx, **controls).apply(b, pg.batch.zeros_like(b))
        elif route == "distributed":
            mat = pg.to_scipy(anchor.matrix).tocsr()
            part = pg.distributed.partition(mat.shape[0], NUM_RANKS)
            mtx = pg.distributed.matrix(dev, part, mat)
            b = pg.distributed.vector(dev, part, anchor.rhs, comm=mtx.comm)
            pg.distributed.cg(dev, mtx, **controls).apply(
                b, pg.distributed.zeros_like(b)
            )
        else:
            pg.solve(
                dev, anchor.matrix.copy_to(dev),
                pg.as_tensor(anchor.rhs, device=dev), solver="cg", **controls,
            )

    def layer_metrics(self, state, tracer):
        slo = state["facts"]
        run_s = tracer.median("service.run")
        num_jobs = len(state["inputs"].data["jobs"])
        out = {
            "service.run_s": run_s,
            "service.jobs_per_host_s": num_jobs / run_s,
            "service.sched_self_s": run_s - tracer.median("probe.direct_lanes"),
            "service.sim_p50_latency_s": slo["p50_latency"],
            "service.sim_p99_latency_s": slo["p99_latency"],
            "service.sim_throughput_jps": slo["throughput"],
            "service.coalesce_ratio": slo["coalesce_ratio"],
            "service.deadline_miss_rate": slo["deadline_miss_rate"],
            "service.max_queue_depth": slo["max_queue_depth"],
            "service.jobs_rejected": slo["jobs_rejected"],
        }
        for route in ROUTES:
            out[f"service.route_{route}"] = slo["routes"][route]
        return out
