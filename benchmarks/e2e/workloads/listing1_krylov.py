"""The paper's Listing 1: ``read -> as_tensor -> Jacobi -> Krylov apply``.

The system is an implicit heat step, ``shift * D + L`` with ``L`` the
5-point Laplacian and ``D`` a seeded diagonal near 1: the shift keeps
the condition number near ``8 / shift`` so CG, BiCGSTAB and restarted
GMRES all converge in 100-200 iterations, and a 1e-9 residual bounds the
error against ``spsolve`` well under the 1e-6 oracle.  One request reads
the matrix once and solves three times, which puts the Krylov loops at
roughly three quarters of request wall.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro as pg
from repro.ginkgo.mtx_io import read_mtx
from repro.suitesparse.generators import poisson_2d

from benchmarks.e2e.catalog import SOLVERS
from benchmarks.e2e.harness import hash_arrays, hash_sparse, rel_err
from benchmarks.e2e.workloads.base import Inputs, Outcome, Workload

SHIFT = 0.03
REDUCTION = 1e-9
MAX_ITERS = 2000
#: Oracle: relative error against ``spsolve``.
SOLVE_TOL = 1e-6


class Listing1Krylov(Workload):
    name = "listing1_krylov"
    why = (
        "Paper Listing 1 on cuda: pg.read(.mtx) + Jacobi + CG, BiCGSTAB, "
        "GMRES to 1e-9 on a shifted Poisson-2D nx=128 (n=16384); Krylov "
        "apply dominates, service/batch/distributed bypassed"
    )
    sizes = {"full": {"nx": 128}, "quick": {"nx": 12}}
    dominant = (("ginkgo.solver",), 0.60)
    bypassed = (("core", "ginkgo.preconditioner"), 0.40)

    def make_inputs(self, seed, size, workdir):
        rng = np.random.default_rng(seed)
        nx = size["nx"]
        n = nx * nx
        mat = (poisson_2d(nx) + sp.diags(SHIFT * (1.0 + 0.2 * rng.random(n)))).tocsr()
        rhs = rng.standard_normal((n, 1))
        path = Path(workdir) / "listing1.mtx"
        pg.write(path, mat)
        x_ref = spla.spsolve(mat.tocsc(), rhs.ravel())
        return Inputs(
            data={"mat": mat, "rhs": rhs, "path": str(path), "n": n},
            refs={"x": x_ref},
            digest=hash_arrays(*hash_sparse(mat), rhs),
        )

    def start(self, inputs, tracer):
        return {
            "inputs": inputs,
            "dev": pg.device("cuda"),
            "iterations": {},
            "max_rel_err": 0.0,
        }

    def request(self, state, tracer):
        data = state["inputs"].data
        dev, n = state["dev"], data["n"]
        outcome = Outcome()
        with tracer.span("core.read", "core"):
            mtx = pg.read(
                device=dev, path=data["path"], dtype="double", format="Csr"
            )
        with tracer.span("core.as_tensor", "core"):
            b = pg.as_tensor(data["rhs"], device=dev)
        with tracer.span("precond.jacobi", "ginkgo.preconditioner"):
            precond = pg.preconditioner.Jacobi(dev, mtx)
        for name in SOLVERS:
            with tracer.span("solver.generate", "ginkgo.solver"):
                handle = getattr(pg.solver, name)(
                    dev, mtx, precond,
                    max_iters=MAX_ITERS, reduction_factor=REDUCTION,
                )
            with tracer.span("core.as_tensor", "core"):
                x = pg.as_tensor(device=dev, dim=(n, 1), dtype="double", fill=0.0)
            with tracer.span(f"solver.apply.{name}", "ginkgo.solver"):
                handle.apply(b, x)
            if not handle.converged:
                outcome.problems.append(f"{name} did not converge")
            state["iterations"][name] = handle.num_iterations
            outcome.answers[name] = x.numpy()
        return outcome

    def verify(self, state, outcome):
        problems = list(outcome.problems)
        x_ref = state["inputs"].refs["x"]
        for name, x in outcome.answers.items():
            err = rel_err(x, x_ref)
            state["max_rel_err"] = max(state["max_rel_err"], err)
            if not err <= SOLVE_TOL:
                problems.append(f"{name} rel err {err:.2e} > {SOLVE_TOL:.0e}")
        return problems

    def sim_seconds(self, state):
        return state["dev"].clock.now

    def probes(self, state, tracer):
        data = state["inputs"].data
        for _ in range(3):
            with tracer.span("probe.read_mtx", "ginkgo.mtx_io"):
                read_mtx(data["path"])
        # The plain baseline: SciPy's CG, same Jacobi, same tolerance.
        mat = data["mat"]
        inv_diag = 1.0 / mat.diagonal()
        jacobi = spla.LinearOperator(mat.shape, matvec=lambda v: inv_diag * v)
        for _ in range(3):
            with tracer.span("probe.scipy_cg", "baselines"):
                x, info = spla.cg(
                    mat, data["rhs"].ravel(), rtol=REDUCTION, atol=0.0,
                    maxiter=MAX_ITERS, M=jacobi,
                )
        if info != 0:
            raise RuntimeError(f"SciPy CG baseline did not converge ({info})")

    def layer_metrics(self, state, tracer):
        data = state["inputs"].data
        read_s = tracer.median("probe.read_mtx")
        scipy_cg_s = tracer.median("probe.scipy_cg")
        out = {
            "core.read_s": tracer.median("core.read"),
            "mtx_io.read_s": read_s,
            "mtx_io.read_mnnz_per_s": data["mat"].nnz / 1e6 / read_s,
            "solver.generate_us": tracer.median("solver.generate") * 1e6,
            "solver.max_rel_err": state["max_rel_err"],
            "solver.vs_scipy_cg_x": (
                tracer.median("solver.apply.cg") / scipy_cg_s
            ),
            "baselines.scipy_cg_s": scipy_cg_s,
        }
        for name in SOLVERS:
            apply_s = tracer.median(f"solver.apply.{name}")
            iters = state["iterations"][name]
            out[f"solver.apply_s.{name}"] = apply_s
            out[f"solver.iterations.{name}"] = iters
            out[f"solver.us_per_iter.{name}"] = apply_s / iters * 1e6
        return out
