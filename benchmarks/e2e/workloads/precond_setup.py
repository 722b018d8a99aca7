"""Preconditioner generation: the host-side set-up phases.

One request generates each of the six preconditioners once and runs a
short preconditioned solve with it.  ILU(0), ParILU(5 sweeps), ISAI and
block-Jacobi(16) go on a seeded diagonally dominant banded matrix (dense
rows, so the per-row Python loops of the factorisations are what is
timed); IC(0) and AMG need symmetry and go on a shifted Poisson-2D
matrix.  The solves are short on purpose: the simulated clock prices
generation at microseconds while the host spends 0.1-0.3 s in it, and
this workload exists so that difference shows.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro as pg
from repro.ginkgo.matrix import Dense
from repro.suitesparse.generators import banded, poisson_2d

from benchmarks.e2e.catalog import PRECONDS
from benchmarks.e2e.harness import hash_arrays, hash_sparse, rel_err
from benchmarks.e2e.workloads.base import Inputs, Outcome, Workload

REDUCTION = 1e-10
MAX_ITERS = 500
SOLVE_TOL = 1e-6
APPLY_PROBES = 20

#: preconditioner -> (system it is generated on, Krylov solver used).
PLAN = {
    "ilu": ("banded", "gmres"),
    "parilu": ("banded", "gmres"),
    "isai": ("banded", "gmres"),
    "block_jacobi": ("banded", "gmres"),
    "ic": ("poisson", "cg"),
    "amg": ("poisson", "cg"),
}


def _generate(name, dev, mtx):
    if name == "ilu":
        return pg.preconditioner.Ilu(dev, mtx)
    if name == "parilu":
        return pg.preconditioner.Ilu(dev, mtx, algorithm="parilu", sweeps=5)
    if name == "ic":
        return pg.preconditioner.Ic(dev, mtx)
    if name == "isai":
        return pg.preconditioner.Isai(dev, mtx)
    if name == "block_jacobi":
        return pg.preconditioner.Jacobi(dev, mtx, max_block_size=16)
    return pg.preconditioner.Amg(dev, mtx)


class PrecondSetup(Workload):
    name = "precond_setup"
    why = (
        "Generate ILU, ParILU(5), ISAI, block-Jacobi(16) on banded(768,16) "
        "and IC, AMG on Poisson-2D nx=48, each with a short solve; "
        "Python factorisation loops dominate, Krylov loop bypassed"
    )
    sizes = {
        "full": {"n": 768, "bandwidth": 16, "nx": 48},
        "quick": {"n": 48, "bandwidth": 4, "nx": 6},
    }
    dominant = (("ginkgo.preconditioner",), 0.70)
    bypassed = (("ginkgo.solver", "core"), 0.30)

    def make_inputs(self, seed, size, workdir):
        rng = np.random.default_rng(seed)
        band = banded(size["n"], size["bandwidth"], seed=seed)
        laplacian = poisson_2d(size["nx"])
        n2 = laplacian.shape[0]
        poisson = (laplacian + sp.diags(0.05 * (1.0 + 0.2 * rng.random(n2)))).tocsr()
        systems = {"banded": band, "poisson": poisson}
        rhs = {k: rng.standard_normal((m.shape[0], 1)) for k, m in systems.items()}
        refs = {
            k: spla.spsolve(m.tocsc(), rhs[k].ravel()) for k, m in systems.items()
        }
        return Inputs(
            data={"systems": systems, "rhs": rhs},
            refs=refs,
            digest=hash_arrays(
                *hash_sparse(band), *hash_sparse(poisson), *rhs.values()
            ),
        )

    def start(self, inputs, tracer):
        dev = pg.device("cuda")
        data = inputs.data
        return {
            "inputs": inputs,
            "dev": dev,
            "mtx": {
                k: pg.matrix(device=dev, data=m) for k, m in data["systems"].items()
            },
            "b": {k: pg.as_tensor(v, device=dev) for k, v in data["rhs"].items()},
            "generated": {},
        }

    def request(self, state, tracer):
        dev = state["dev"]
        outcome = Outcome()
        iterations, sim_generate = {}, 0.0
        for name in PRECONDS:
            system, solver = PLAN[name]
            mtx, b = state["mtx"][system], state["b"][system]
            sim0 = dev.clock.now
            with tracer.span(f"precond.generate.{name}", "ginkgo.preconditioner"):
                precond = _generate(name, dev, mtx)
            sim_generate += dev.clock.now - sim0
            with tracer.span("solver.generate", "ginkgo.solver"):
                handle = getattr(pg.solver, solver)(
                    dev, mtx, precond,
                    max_iters=MAX_ITERS, reduction_factor=REDUCTION,
                )
            with tracer.span("core.as_tensor", "core"):
                x = pg.as_tensor(
                    device=dev, dim=(mtx.size[0], 1), dtype="double", fill=0.0
                )
            with tracer.span(f"precond.solve.{name}", "ginkgo.solver"):
                handle.apply(b, x)
            if not handle.converged:
                outcome.problems.append(f"{name}+{solver} did not converge")
            iterations[name] = handle.num_iterations
            state["generated"][name] = precond
            outcome.answers[name] = x.numpy()
        # Simulated time and counts from the first request only: a fixed
        # position in the jitter streams, so they repeat exactly.
        state.setdefault(
            "facts", {"iterations": iterations, "sim_generate_s": sim_generate}
        )
        return outcome

    def verify(self, state, outcome):
        problems = list(outcome.problems)
        refs = state["inputs"].refs
        for name, x in outcome.answers.items():
            err = rel_err(x, refs[PLAN[name][0]])
            if not err <= SOLVE_TOL:
                problems.append(f"{name} rel err {err:.2e} > {SOLVE_TOL:.0e}")
        return problems

    def sim_seconds(self, state):
        return state["dev"].clock.now

    def probes(self, state, tracer):
        dev = state["dev"]
        for name in PRECONDS:
            system = PLAN[name][0]
            rhs = state["inputs"].data["rhs"][system]
            b = Dense(dev, rhs)
            x = Dense(dev, np.zeros_like(rhs))
            precond = state["generated"][name]
            precond.apply(b, x)
            with tracer.span(f"probe.precond_apply.{name}", "ginkgo.preconditioner"):
                for _ in range(APPLY_PROBES):
                    precond.apply(b, x)

    def layer_metrics(self, state, tracer):
        facts = state["facts"]
        out = {"precond.sim_generate_s": facts["sim_generate_s"]}
        for name in PRECONDS:
            out[f"precond.generate_s.{name}"] = tracer.median(
                f"precond.generate.{name}"
            )
            out[f"precond.apply_us.{name}"] = (
                tracer.median(f"probe.precond_apply.{name}") / APPLY_PROBES * 1e6
            )
            out[f"precond.solve_iterations.{name}"] = facts["iterations"][name]
        return out
