"""The two other copies of each Krylov recurrence: batched and distributed.

Batch half: CG, BiCGSTAB and GMRES with batch Jacobi over same-pattern
tridiagonal systems whose conditioning spreads by two orders of
magnitude, so systems converge at very different iterations and the
lockstep active-set compaction fires.  Distributed half: blocking CG,
pipelined CG (halo overlap on the ``ETHERNET_CLUSTER`` model) and GMRES
on a shifted Poisson-2D matrix over 4 simulated ranks.  Both are
measured directly, not through the service, because they are what
ROADMAP item 2 folds into one core.

The OpenMP executor runs with one host thread.  With two (the core
count here) the same request is 1.5x slower — rank blocks of 576 rows
are too small to pay for the thread-pool hand-off — and for minutes at a
time 2.8x slower, when the pool and the main thread contend for the
interpreter lock; a number that flips between two regimes cannot carry
a 10 % bound.  The threaded partition path is therefore not measured.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro as pg
from repro.ginkgo.matrix import Csr
from repro.perfmodel.comm import ETHERNET_CLUSTER
from repro.suitesparse.generators import poisson_2d

from benchmarks.e2e.catalog import DIST_SOLVERS, SOLVERS
from benchmarks.e2e.harness import hash_arrays, hash_sparse, rel_err
from benchmarks.e2e.workloads.base import Inputs, Outcome, Workload

REDUCTION = 1e-10
BATCH_MAX_ITERS = 500
DIST_MAX_ITERS = 2000
SOLVE_TOL = 1e-6
NUM_RANKS = 4
NUM_THREADS = 1


def _batch_systems(rng, num_systems, n):
    """Same tridiagonal pattern, diagonals from barely to strongly dominant."""
    base = sp.diags(
        [-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
    ).tocsr()
    mats = []
    for k in range(num_systems):
        mat = base.copy()
        mat.setdiag(2.0 + (0.01 + 2.0 * k / num_systems) * (1.0 + rng.random(n)))
        mat.sort_indices()
        mats.append(mat.tocsr())
    return mats


class LockstepRanks(Workload):
    name = "lockstep_ranks"
    why = (
        "pg.batch CG/BiCGSTAB/GMRES + Jacobi on 128 same-pattern n=64 "
        "systems of spread conditioning, then pg.distributed CG, pipelined "
        "CG, GMRES on Poisson-2D nx=48 at 4 ranks; scalar solver bypassed"
    )
    sizes = {
        "full": {"systems": 128, "n": 64, "nx": 48},
        "quick": {"systems": 4, "n": 8, "nx": 6},
    }
    dominant = (("ginkgo.batch", "ginkgo.distributed"), 0.90)
    bypassed = (("core", "ginkgo.solver"), 0.10)

    def make_inputs(self, seed, size, workdir):
        rng = np.random.default_rng(seed)
        mats = _batch_systems(rng, size["systems"], size["n"])
        rhs = [rng.standard_normal((size["n"], 1)) for _ in mats]
        laplacian = poisson_2d(size["nx"])
        n2 = laplacian.shape[0]
        global_mat = (
            laplacian + sp.diags(0.05 * (1.0 + 0.2 * rng.random(n2)))
        ).tocsr()
        global_rhs = rng.standard_normal(n2)
        arrays = [m.data for m in mats] + rhs
        return Inputs(
            data={
                "mats": mats, "rhs": rhs,
                "global_mat": global_mat, "global_rhs": global_rhs,
            },
            refs={
                "batch": np.stack([
                    spla.spsolve(m.tocsc(), b.ravel()) for m, b in zip(mats, rhs)
                ]),
                "global": spla.spsolve(global_mat.tocsc(), global_rhs),
            },
            digest=hash_arrays(*arrays, *hash_sparse(global_mat), global_rhs),
        )

    def start(self, inputs, tracer):
        data = inputs.data
        dev = pg.device("omp", num_threads=NUM_THREADS)
        with tracer.span("batch.build", "ginkgo.batch"):
            batch_mtx = pg.batch.matrices(dev, data["mats"])
            batch_b = pg.batch.vectors(dev, data["rhs"])
            batch_precond = pg.batch.jacobi(dev, batch_mtx)
        mat, rhs = data["global_mat"], data["global_rhs"]
        with tracer.span("distributed.build", "ginkgo.distributed"):
            part = pg.distributed.partition(mat.shape[0], NUM_RANKS)
            blocking = pg.distributed.matrix(dev, part, mat)
            overlapped = pg.distributed.matrix(
                dev, part, mat, overlap=True, network=ETHERNET_CLUSTER
            )
            dist = {
                "cg": blocking, "pipelined_cg": overlapped, "gmres": blocking,
            }
            dist_b = {
                name: pg.distributed.vector(dev, part, rhs, comm=m.comm)
                for name, m in dist.items()
            }
        return {
            "inputs": inputs, "dev": dev,
            "batch_mtx": batch_mtx, "batch_b": batch_b,
            "batch_precond": batch_precond,
            "dist": dist, "dist_b": dist_b,
        }

    def request(self, state, tracer):
        dev = state["dev"]
        outcome = Outcome()
        facts = {
            "batch_iterations": 0, "iterations": {}, "reductions": {},
            "sim_comm_s": 0.0, "sim_comm_hidden_s": 0.0,
        }
        for name in SOLVERS:
            with tracer.span("batch.generate", "ginkgo.batch"):
                handle = getattr(pg.batch, name)(
                    dev, state["batch_mtx"], state["batch_precond"],
                    max_iters=BATCH_MAX_ITERS, reduction_factor=REDUCTION,
                )
                x = pg.batch.zeros_like(state["batch_b"])
            with tracer.span(f"batch.apply.{name}", "ginkgo.batch"):
                handle.apply(state["batch_b"], x)
            if not handle.all_converged:
                outcome.problems.append(f"batch {name}: not all converged")
            facts["batch_iterations"] += int(handle.num_iterations.sum())
            outcome.answers[f"batch.{name}"] = np.array(x.data)
        for name in DIST_SOLVERS:
            mtx, b = state["dist"][name], state["dist_b"][name]
            with tracer.span("distributed.generate", "ginkgo.distributed"):
                handle = getattr(pg.distributed, name)(
                    dev, mtx, max_iters=DIST_MAX_ITERS, reduction_factor=REDUCTION,
                )
                x = pg.distributed.zeros_like(b)
            with tracer.span(f"distributed.apply.{name}", "ginkgo.distributed"):
                handle.apply(b, x)
            if not handle.converged:
                outcome.problems.append(f"distributed {name} did not converge")
            facts["iterations"][name] = handle.num_iterations
            facts["reductions"][name] = handle.num_reductions
            facts["sim_comm_s"] += handle.comm_time
            facts["sim_comm_hidden_s"] += handle.comm_hidden_time
            outcome.answers[f"distributed.{name}"] = x.to_numpy()
        state.setdefault("facts", facts)
        return outcome

    def verify(self, state, outcome):
        refs = state["inputs"].refs
        problems = list(outcome.problems)
        for key, got in outcome.answers.items():
            if key.startswith("batch."):
                err = max(
                    rel_err(got[k], refs["batch"][k]) for k in range(len(got))
                )
            else:
                err = rel_err(got, refs["global"])
            if not err <= SOLVE_TOL:
                problems.append(f"{key} rel err {err:.2e} > {SOLVE_TOL:.0e}")
        return problems

    def sim_seconds(self, state):
        return state["dev"].clock.now

    def probes(self, state, tracer):
        data = state["inputs"].data
        dev = state["dev"]
        n = data["mats"][0].shape[0]
        # K scalar solves of the same systems: what batching replaces.
        with tracer.span("probe.sequential_cg", "ginkgo.solver"):
            for mat, rhs in zip(data["mats"], data["rhs"]):
                mtx = Csr.from_scipy(dev, mat)
                handle = pg.solver.cg(
                    dev, mtx, pg.preconditioner.Jacobi(dev, mtx),
                    max_iters=BATCH_MAX_ITERS, reduction_factor=REDUCTION,
                )
                b = pg.as_tensor(rhs, device=dev)
                x = pg.as_tensor(device=dev, dim=(n, 1), dtype="double", fill=0.0)
                handle.apply(b, x)
        # The same blocking CG on one rank: what distribution costs.
        mat, rhs = data["global_mat"], data["global_rhs"]
        part = pg.distributed.partition(mat.shape[0], 1)
        single = pg.distributed.matrix(dev, part, mat)
        b = pg.distributed.vector(dev, part, rhs, comm=single.comm)
        handle = pg.distributed.cg(
            dev, single, max_iters=DIST_MAX_ITERS, reduction_factor=REDUCTION
        )
        for _ in range(2):
            x = pg.distributed.zeros_like(b)
            with tracer.span("probe.single_rank_cg", "ginkgo.distributed"):
                handle.apply(b, x)

    def layer_metrics(self, state, tracer):
        facts = state["facts"]
        num_systems = len(state["inputs"].data["mats"])
        batch_cg_s = tracer.median("batch.apply.cg")
        out = {
            "batch.build_s": tracer.median("batch.build"),
            "batch.iterations_total": facts["batch_iterations"],
            "batch.systems_per_host_s": num_systems * len(SOLVERS) / sum(
                tracer.median(f"batch.apply.{name}") for name in SOLVERS
            ),
            "batch.vs_sequential_x": (
                tracer.median("probe.sequential_cg") / batch_cg_s
            ),
            "distributed.build_s": tracer.median("distributed.build"),
            "distributed.sim_comm_s": facts["sim_comm_s"],
            "distributed.sim_comm_hidden_s": facts["sim_comm_hidden_s"],
            "distributed.vs_single_rank_x": (
                tracer.median("distributed.apply.cg")
                / tracer.median("probe.single_rank_cg")
            ),
        }
        for name in SOLVERS:
            out[f"batch.apply_s.{name}"] = tracer.median(f"batch.apply.{name}")
        for name in DIST_SOLVERS:
            out[f"distributed.apply_s.{name}"] = tracer.median(
                f"distributed.apply.{name}"
            )
            out[f"distributed.iterations.{name}"] = facts["iterations"][name]
            out[f"distributed.reductions.{name}"] = facts["reductions"][name]
        return out
