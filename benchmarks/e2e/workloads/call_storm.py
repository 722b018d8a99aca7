"""Many tiny calls: the binding-overhead regime of Fig. 5b/5c.

Over ten small matrices drawn from the paper's overhead suite, each
request repeats ``as_tensor``, ``A @ x``, the eager expression
``x + alpha * (b - A @ x)`` and the same expression inside
``pg.deferred()``, then runs two tiny config-solver ``pg.solve`` calls
per matrix.  The operands are so small that the NumPy kernels are a few
microseconds; what is timed is ``core`` dispatch, the binding crossing,
the perf-model charge and LinOp/lazy bookkeeping.  The same expression
runs eager and deferred, so both clocks of PR 7's fusion claim land on
one report.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

import repro as pg
from repro.bindings import charge_binding, dispatch
from repro.ginkgo.matrix import Dense
from repro.perfmodel import spmv_cost
from repro.suitesparse import overhead_suite

from benchmarks.e2e.harness import (
    UNCOVERED,
    hash_arrays,
    hash_sparse,
    layer_shares,
    rel_err,
    request_seconds,
)
from benchmarks.e2e.workloads.base import Inputs, Outcome, Workload

ALPHA = 0.5
SOLVES_PER_MATRIX = 2
REDUCTION = 1e-10
SOLVE_TOL = 1e-6
EXPR_TOL = 1e-12
#: Calls per direct lower-layer probe.
PROBE_CALLS = 500
#: Valid (op, value type, index type) triples for the miss probe.
MISS_KEYS = tuple(
    (op, value, index)
    for value in ("double", "float")
    for op, index in (
        ("dense", None), ("dense_empty", None), ("csr", "int32"),
        ("coo", "int32"), ("cg_factory", None), ("gmres_factory", None),
        ("jacobi_factory", None), ("apply", None), ("axpy", None),
        ("fused_region", None),
    )
)


class CallStorm(Workload):
    name = "call_storm"
    why = (
        "Per matrix of 10 overhead-suite matrices (n=100..1500): 50x each "
        "as_tensor, A@x, eager and pg.deferred() axpy expression, plus 2 "
        "tiny pg.solve; binding/dispatch/bookkeeping dominate, kernels <20%"
    )
    sizes = {
        "full": {"matrices": 10, "calls": 50},
        "quick": {"matrices": 2, "calls": 3},
    }
    dominant = (("overhead",), 0.70)
    bypassed = (("kernel",), 0.20)

    def make_inputs(self, seed, size, workdir):
        rng = np.random.default_rng(seed)
        # The suite's own seed: ``--seed`` draws the vectors only.  Seeded
        # matrices change the tiny solves' iteration counts and with them
        # request wall by 10 % from seed to seed.
        specs = overhead_suite(count=size["matrices"], min_nnz=1e3, max_nnz=1e4)
        mats = [spec.build().tocsr() for spec in specs]
        xs = [rng.standard_normal((m.shape[0], 1)) for m in mats]
        bs = [rng.standard_normal((m.shape[0], 1)) for m in mats]
        symmetric = [abs(m - m.T).max() < 1e-12 for m in mats]
        arrays = [a for m in mats for a in hash_sparse(m)]
        return Inputs(
            data={
                "mats": mats, "xs": xs, "bs": bs, "calls": size["calls"],
                "solvers": ["cg" if s else "gmres" for s in symmetric],
            },
            refs={
                "expr": [
                    x + ALPHA * (b - m @ x) for m, x, b in zip(mats, xs, bs)
                ],
                "solve": [
                    spla.spsolve(m.tocsc(), b.ravel()) for m, b in zip(mats, bs)
                ],
            },
            digest=hash_arrays(*arrays, *xs, *bs),
        )

    def start(self, inputs, tracer):
        dev = pg.device("cuda")
        return {
            "inputs": inputs,
            "dev": dev,
            "mtx": [pg.matrix(device=dev, data=m) for m in inputs.data["mats"]],
        }

    def request(self, state, tracer):
        data = state["inputs"].data
        dev, calls = state["dev"], data["calls"]
        outcome = Outcome()
        eager, fused, solves = [], [], []
        lazy = {"regions": 0, "ops_replaced": 0, "recomputed": 0}
        for k, mtx in enumerate(state["mtx"]):
            xv, bv = data["xs"][k], data["bs"][k]
            with tracer.span("core.as_tensor", "core"):
                for _ in range(calls):
                    x = pg.as_tensor(xv, device=dev)
            b = pg.as_tensor(bv, device=dev)
            with tracer.span("core.tensor_matmul", "core"):
                for _ in range(calls):
                    y = mtx @ x
            with tracer.span("lazy.eager_expr", "core"):
                for _ in range(calls):
                    z = x + ALPHA * (b - mtx @ x)
            eager.append(z.numpy())
            with tracer.span("lazy.deferred_expr", "ginkgo.lazy"):
                with pg.deferred() as trace:
                    for _ in range(calls):
                        z = (x + ALPHA * (b - mtx @ x)).evaluate()
            fused.append(z.to_numpy())
            lazy["regions"] += trace.regions
            lazy["ops_replaced"] += trace.ops_replaced
            lazy["recomputed"] += trace.recomputed
            for _ in range(SOLVES_PER_MATRIX):
                with tracer.span("core.solve", "core"):
                    logger, sol = pg.solve(
                        dev, mtx, b, solver=data["solvers"][k],
                        preconditioner="jacobi", max_iters=1000,
                        reduction_factor=REDUCTION,
                    )
                if not logger.converged:
                    outcome.problems.append(f"pg.solve on matrix {k} diverged")
            solves.append(sol.numpy())
        state.setdefault("facts", lazy)
        outcome.answers = {"eager": eager, "fused": fused, "solve": solves}
        return outcome

    def verify(self, state, outcome):
        refs = state["inputs"].refs
        problems = list(outcome.problems)
        for kind, ref_key, tol in (
            ("eager", "expr", EXPR_TOL),
            ("fused", "expr", EXPR_TOL),
            ("solve", "solve", SOLVE_TOL),
        ):
            for k, got in enumerate(outcome.answers[kind]):
                err = rel_err(got, refs[ref_key][k])
                if not err <= tol:
                    problems.append(f"{kind}[{k}] rel err {err:.2e} > {tol:.0e}")
        return problems

    def sim_seconds(self, state):
        return state["dev"].clock.now

    def probes(self, state, tracer):
        data = state["inputs"].data
        dev, calls = state["dev"], data["calls"]
        # The same operands one layer down: engine apply on Dense, then
        # the bare SciPy/NumPy kernels the request's calls bottom out in.
        for k, mtx in enumerate(state["mtx"]):
            xv, bv, mat = data["xs"][k], data["bs"][k], data["mats"][k]
            xd, yd = Dense(dev, xv), Dense(dev, np.zeros_like(xv))
            with tracer.span("probe.csr_apply", "ginkgo.matrix"):
                for _ in range(calls):
                    mtx.apply(xd, yd)
            with tracer.span("probe.scipy_spmv", "kernel"):
                for _ in range(calls):
                    yv = mat @ xv
            with tracer.span("probe.numpy_expr", "kernel"):
                for _ in range(calls):
                    xv + ALPHA * (bv - yv)
            handle = pg.config_solver(
                dev, mtx,
                pg.build_config(
                    solver=data["solvers"][k], preconditioner="jacobi",
                    max_iters=1000, reduction_factor=REDUCTION,
                ),
            )
            b = pg.as_tensor(bv, device=dev)
            for _ in range(SOLVES_PER_MATRIX):
                x = pg.as_tensor(device=dev, dim=xv.shape, dtype="double", fill=0.0)
                with tracer.span("probe.handle_apply", "ginkgo.solver"):
                    handle.apply(b, x)

        # Fresh executor: the charges below must not land on the clock
        # the requests are accounted on.
        scratch = pg.device("cuda", fresh=True)
        with tracer.span("probe.device_lookup", "core"):
            for _ in range(PROBE_CALLS):
                pg.device("cuda")
        with tracer.span("probe.resolve_hit", "bindings"):
            for _ in range(PROBE_CALLS):
                dispatch.resolve("dense", "double", exec_=scratch)
        with tracer.span("probe.charge_binding", "bindings"):
            for _ in range(PROBE_CALLS):
                charge_binding(scratch, 2, tag="probe")
        cost = spmv_cost("csr", 1000, 1000, 5000, 8, 4)
        with tracer.span("probe.clock_record", "perfmodel"):
            for _ in range(PROBE_CALLS):
                scratch.clock.record(cost)
        dispatch.clear()
        with tracer.span("probe.resolve_miss", "bindings"):
            for op, value, index in MISS_KEYS:
                dispatch.resolve(op, value, index, exec_=scratch)

    def _per_call_us(self, state, tracer, name):
        spans = tracer.durations(name)
        calls = state["inputs"].data["calls"]
        return sum(spans) / (len(spans) * calls) * 1e6

    def layer_metrics(self, state, tracer):
        facts = state["facts"]
        matmul_us = self._per_call_us(state, tracer, "core.tensor_matmul")
        apply_us = self._per_call_us(state, tracer, "probe.csr_apply")
        # Means, not medians: the solves differ per matrix, and both
        # spans cover the same set of them.
        solves = tracer.durations("core.solve")
        applies = tracer.durations("probe.handle_apply")
        solve_us = sum(solves) / len(solves) * 1e6
        handle_us = sum(applies) / len(applies) * 1e6
        return {
            "core.as_tensor_us": self._per_call_us(state, tracer, "core.as_tensor"),
            "core.device_lookup_us": (
                tracer.total("probe.device_lookup") / PROBE_CALLS * 1e6
            ),
            "core.solve_config_self_us": solve_us - handle_us,
            "core.tensor_op_self_us": matmul_us - apply_us,
            "bindings.resolve_hit_us": (
                tracer.total("probe.resolve_hit") / PROBE_CALLS * 1e6
            ),
            "bindings.resolve_miss_us": (
                tracer.total("probe.resolve_miss") / len(MISS_KEYS) * 1e6
            ),
            "bindings.charge_us": (
                tracer.total("probe.charge_binding") / PROBE_CALLS * 1e6
            ),
            "perfmodel.record_us": (
                tracer.total("probe.clock_record") / PROBE_CALLS * 1e6
            ),
            "lazy.eager_expr_us": self._per_call_us(state, tracer, "lazy.eager_expr"),
            "lazy.deferred_expr_us": self._per_call_us(
                state, tracer, "lazy.deferred_expr"
            ),
            "lazy.regions": facts["regions"],
            "lazy.ops_replaced": facts["ops_replaced"],
            "lazy.recomputed": facts["recomputed"],
        }

    def shares(self, state, tracer):
        """Kernel share by substitution: the request's three SpMV loops
        and two elementwise loops per matrix, priced at the bare
        SciPy/NumPy time of the same operands; the rest of the covered
        wall is binding/dispatch/bookkeeping overhead."""
        requests = len(tracer.durations("request"))
        wall = request_seconds(tracer.spans) / requests
        kernel = (
            3 * tracer.total("probe.scipy_spmv")
            + 2 * tracer.total("probe.numpy_expr")
        ) / wall
        uncovered = layer_shares(tracer.spans).get(UNCOVERED, 0.0)
        return {"kernel": kernel, "overhead": 1.0 - uncovered - kernel}
