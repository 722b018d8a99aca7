"""Chaos harness: seeded fault sweep + recovery-overhead gate.

Replays deterministic fault schedules across every injectable site of
the three solve layers and gates the recovery contract:

* **Scalar** — a transient kernel fault is retried; the rerun's final
  residual is byte-identical to the fault-free solve.  With
  ``checkpoint_every`` set, the retry resumes CG, and GMRES mid-cycle,
  from the last checkpoint: the solution is byte-identical to the
  fault-free solve and the recovered solve finishes within
  ``MAX_OVERHEAD``x of its simulated time.  A deadline expiry returns a
  truthful ``timed_out``/``partial`` report instead of lying about
  convergence.
* **Batch** — an injected corruption quarantines exactly the poisoned
  system; the per-system retry recovers it and every system converges.
* **Distributed** — a rank failure (shrink + re-gather + checkpoint
  restore), a dropped halo exchange, and a corrupted all-reduce are each
  absorbed mid-solve, by CG and by GMRES(20) (mid-cycle checkpoints),
  with residual histories *byte-identical* to the fault-free run, and
  the recovered solve finishes within ``MAX_OVERHEAD``x of the
  fault-free simulated time.

The overhead gate runs on the simulated clock (deterministic, noise
free), so the gate is exact rather than statistical.

Standalone::

    python benchmarks/bench_chaos.py            # full run
    python benchmarks/bench_chaos.py --smoke    # CI gate

Writes ``BENCH_chaos.json`` next to the repo root.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import repro as pg
from repro.bindings import dispatch, reset_models
from repro.core import (
    FallbackChain,
    RetryPolicy,
    resilient_batch_solve,
    resilient_solve,
)
from repro.core import batch_api
from repro.core.io import matrix as make_matrix
from repro.ginkgo import cachestats
from repro.ginkgo.distributed import (
    DistributedCg,
    DistributedGmres,
    Matrix,
    Partition,
    Vector,
)
from repro.ginkgo.executor import OmpExecutor, ReferenceExecutor
from repro.ginkgo.fault import FaultInjector, FaultyExecutor
from repro.ginkgo.log import ConvergenceLogger
from repro.ginkgo.matrix import Dense
from repro.ginkgo.stop import Iteration, ResidualNorm

#: Recovered distributed solves must finish within this multiple of the
#: fault-free simulated time.
MAX_OVERHEAD = 2.0

NUM_RANKS = 4


def _fresh_state():
    pg.clear_device_cache()
    reset_models()
    dispatch.clear()
    cachestats.reset()


def make_system(n, band=8, seed=99):
    offsets = list(range(-band, 0)) + list(range(1, band + 1))
    mat = sp.diags(
        [-1.0 * np.ones(n - abs(o)) for o in offsets], offsets
    ).tocsr()
    mat.setdiag(2.0 * band + 1.5)
    rng = np.random.default_rng(seed)
    return mat.tocsr(), rng.standard_normal(n)


# ----------------------------------------------------------------------
# Scalar scenarios
# ----------------------------------------------------------------------
def scenario_scalar_retry(mat, rhs, failures):
    """Transient kernel fault -> retry reproduces the fault-free solve."""

    def solve(injector):
        dev = FaultyExecutor.create(
            ReferenceExecutor.create(noisy=False), injector
        )
        with injector.paused():
            mtx = make_matrix(dev, mat)
            b = Dense.create(dev, rhs.reshape(-1, 1))
        report, x = resilient_solve(
            dev, mtx, b, solver="cg", reduction_factor=1e-9,
            fallback=FallbackChain(dev),
        )
        return report, dev

    clean, _ = solve(FaultInjector())
    faulty, _ = solve(
        FaultInjector(schedule={"run": [(25, "transient")]})
    )
    ok = (
        clean.converged
        and faulty.converged
        and faulty.retries == 1
        and faulty.count("workspace_cleared") == 1
        and faulty.final_residual_norm == clean.final_residual_norm
    )
    if not ok:
        failures.append("scalar retry did not reproduce the clean solve")
    return {
        "scenario": "scalar_transient_retry",
        "converged": bool(faulty.converged),
        "retries": faulty.retries,
        "workspace_cleared": faulty.count("workspace_cleared"),
        "residual_matches_fault_free": bool(
            faulty.final_residual_norm == clean.final_residual_norm
        ),
        "ok": bool(ok),
    }


def scenario_scalar_checkpoint_resume(mat, rhs, method, failures):
    """Kernel fault mid-solve -> the retry resumes from a checkpoint.

    The fault lands after iteration 10, inside GMRES's first restart
    cycle.  Backoff is zero, so the overhead is the checkpoints plus the
    replayed iterations.
    """

    def solve(injector, **kwargs):
        dev = FaultyExecutor.create(
            ReferenceExecutor.create(noisy=False), injector
        )
        with injector.paused():
            mtx = make_matrix(dev, mat)
            b = Dense.create(dev, rhs.reshape(-1, 1))
        t0 = dev.clock.now
        report, x = resilient_solve(
            dev, mtx, b, solver=method, reduction_factor=1e-9,
            fallback=FallbackChain(dev), retry=RetryPolicy(base_delay=0.0),
            **kwargs,
        )
        return report, x.numpy(), dev.clock.now - t0

    clean, x_clean, base_sim = solve(FaultInjector())
    faulty, x, sim = solve(
        FaultInjector(schedule={"run": [(100, "transient")]}),
        checkpoint_every=5,
    )
    restored = [
        p["iteration"] for name, p in faulty.events
        if name == "checkpoint_restored"
    ]
    bit_identical = (
        x.tobytes() == x_clean.tobytes()
        and faulty.num_iterations == clean.num_iterations
    )
    overhead = sim / base_sim
    ok = (
        faulty.converged
        and faulty.retries == 1
        and len(restored) == 1
        and 0 < restored[0] < clean.num_iterations
        and bit_identical
        and overhead <= MAX_OVERHEAD
    )
    if not ok:
        failures.append(
            f"scalar {method} checkpoint resume: restored={restored} "
            f"bit_identical={bit_identical} overhead={overhead:.2f}x"
        )
    return {
        "scenario": "scalar_checkpoint_resume",
        "method": method,
        "converged": bool(faulty.converged),
        "restored_iteration": restored[0] if restored else None,
        "bit_identical": bool(bit_identical),
        "fault_free_sim_s": base_sim,
        "recovered_sim_s": sim,
        "overhead": overhead,
        "max_overhead_gate": MAX_OVERHEAD,
        "ok": bool(ok),
    }


def scenario_scalar_deadline(mat, rhs, failures):
    """An expired deadline returns a truthful partial result."""
    dev = pg.device("reference", fresh=True)
    mtx = make_matrix(dev, mat)
    b = Dense.create(dev, rhs.reshape(-1, 1))
    report, _ = resilient_solve(
        dev, mtx, b, solver="cg", fallback=FallbackChain(dev),
        deadline=1e-9,
    )
    ok = (
        report.timed_out
        and report.partial
        and not report.converged
        and report.count("deadline_exceeded") == 1
    )
    if not ok:
        failures.append("deadline expiry did not report truthfully")
    return {
        "scenario": "scalar_deadline_expiry",
        "timed_out": bool(report.timed_out),
        "partial": bool(report.partial),
        "converged": bool(report.converged),
        "ok": bool(ok),
    }


# ----------------------------------------------------------------------
# Batch scenario
# ----------------------------------------------------------------------
def scenario_batch_quarantine(failures, num_systems=8, n=60):
    """Injected corruption quarantines one system; retry recovers it."""
    injector = FaultInjector(schedule={"batch": [(3, "corruption")]})
    dev = FaultyExecutor.create(
        OmpExecutor.create(num_threads=4, noisy=False), injector
    )
    base, _ = make_system(n)
    rng = np.random.default_rng(17)
    mats = [
        sp.csr_matrix(
            (base.data * (1 + 0.02 * k), base.indices, base.indptr),
            shape=base.shape,
        )
        for k in range(num_systems)
    ]
    with injector.paused():
        mtx = batch_api.matrices(dev, mats)
        b = batch_api.vectors(
            dev, [rng.standard_normal(n) for _ in range(num_systems)]
        )
    report, x = resilient_batch_solve(
        dev, mtx, b, solver="cg", reduction_factor=1e-9
    )
    residual_ok = True
    for k in range(num_systems):
        sol = x.item(k).to_numpy().ravel()
        rhs_k = b.data[k].ravel() if hasattr(b, "data") else b._data[k].ravel()
        rel = np.linalg.norm(rhs_k - mats[k] @ sol) / np.linalg.norm(rhs_k)
        residual_ok = residual_ok and rel < 1e-6
    ok = (
        report.all_converged
        and len(report.quarantined) == 1
        and report.recovered == report.quarantined
        and residual_ok
    )
    if not ok:
        failures.append("batch quarantine/recovery failed")
    return {
        "scenario": "batch_corruption_quarantine",
        "num_systems": num_systems,
        "quarantined": report.quarantined,
        "recovered": report.recovered,
        "all_converged": bool(report.all_converged),
        "residuals_ok": bool(residual_ok),
        "ok": bool(ok),
    }


# ----------------------------------------------------------------------
# Distributed scenarios: bit-identity + simulated-time overhead gate
# ----------------------------------------------------------------------
def run_distributed(
    mat, rhs, injector=None, solver_class=DistributedCg, **params
):
    """One distributed solve; returns (solver, history, x, sim_time)."""
    inner = OmpExecutor.create(num_threads=4, noisy=False)
    ex = (
        FaultyExecutor.create(inner, injector)
        if injector is not None
        else inner
    )
    pause = injector.paused() if injector is not None else None
    if pause is not None:
        pause.__enter__()
    try:
        part = Partition.build_uniform(mat.shape[0], NUM_RANKS)
        dist = Matrix(ex, part, mat)
        db = Vector(ex, part, rhs, comm=dist.comm)
        dx = Vector.zeros(ex, part, comm=dist.comm)
        solver = solver_class(
            ex,
            criteria=Iteration(500)
            | ResidualNorm(1e-9, baseline="rhs_norm"),
            **params,
        ).generate(dist)
        logger = ConvergenceLogger()
        solver.add_logger(logger)
    finally:
        if pause is not None:
            pause.__exit__(None, None, None)
    t0 = ex.clock.now
    solver.apply(db, dx)
    sim = ex.clock.now - t0
    return solver, np.asarray(logger.residual_norms), dx.to_numpy(), sim


def scenario_distributed(
    mat, rhs, name, schedule, expect_shrink, failures, **solver
):
    _fresh_state()
    base_solver, base_hist, base_x, base_sim = run_distributed(
        mat, rhs, **solver
    )
    if not base_solver.converged:
        failures.append(f"{name}: fault-free distributed solve diverged")
    _fresh_state()
    solver, hist, x, sim = run_distributed(
        mat, rhs, FaultInjector(schedule=schedule), **solver
    )
    bit_identical = (
        hist.tobytes() == base_hist.tobytes()
        and x.tobytes() == base_x.tobytes()
    )
    overhead = sim / base_sim if base_sim > 0 else float("inf")
    ok = (
        solver.converged
        and solver.num_recoveries == 1
        and bit_identical
        and solver.comm.num_shrinks == (1 if expect_shrink else 0)
        and overhead <= MAX_OVERHEAD
    )
    if not ok:
        failures.append(
            f"{name}: converged={solver.converged} "
            f"recoveries={solver.num_recoveries} "
            f"bit_identical={bit_identical} overhead={overhead:.2f}x"
        )
    return {
        "scenario": name,
        "converged": bool(solver.converged),
        "recoveries": solver.num_recoveries,
        "shrinks": solver.comm.num_shrinks,
        "bit_identical": bool(bit_identical),
        "fault_free_sim_s": base_sim,
        "recovered_sim_s": sim,
        "overhead": overhead,
        "max_overhead_gate": MAX_OVERHEAD,
        "ok": bool(ok),
    }


def run(n=1500, out_path="BENCH_chaos.json"):
    failures = []
    mat, rhs = make_system(n)
    scalar_mat, scalar_rhs = make_system(300)

    scenarios = []
    _fresh_state()
    scenarios.append(scenario_scalar_retry(scalar_mat, scalar_rhs, failures))
    _fresh_state()
    scenarios.append(
        scenario_scalar_deadline(scalar_mat, scalar_rhs, failures)
    )
    for method in ("cg", "gmres"):
        _fresh_state()
        scenarios.append(
            scenario_scalar_checkpoint_resume(
                scalar_mat, scalar_rhs, method, failures
            )
        )
    _fresh_state()
    scenarios.append(scenario_batch_quarantine(failures))
    # GMRES checkpoints mid-cycle: the written part of its restart-cycle
    # arrays rides along with x.
    gmres = dict(solver_class=DistributedGmres, krylov_dim=20)
    for prefix, solver in (("distributed", {}), ("distributed_gmres", gmres)):
        scenarios.append(
            scenario_distributed(
                mat, rhs, f"{prefix}_rank_failure",
                {"rank": [(8, "failure")]}, expect_shrink=True,
                failures=failures, **solver,
            )
        )
        scenarios.append(
            scenario_distributed(
                mat, rhs, f"{prefix}_halo_drop",
                {"halo": [(12, "drop")]}, expect_shrink=False,
                failures=failures, **solver,
            )
        )
        scenarios.append(
            scenario_distributed(
                mat, rhs, f"{prefix}_allreduce_corruption",
                {"allreduce": [(10, "corruption")]}, expect_shrink=False,
                failures=failures, **solver,
            )
        )

    worst = max(
        (s.get("overhead", 0.0) for s in scenarios), default=0.0
    )
    report = {
        "benchmark": "chaos_recovery_sweep",
        "system_size": n,
        "num_ranks": NUM_RANKS,
        "scenarios": scenarios,
        "worst_recovery_overhead": worst,
        "max_overhead_gate": MAX_OVERHEAD,
        "failures": failures,
    }
    Path(out_path).write_text(json.dumps(report, indent=2) + "\n")

    for s in scenarios:
        extra = (
            f" overhead {s['overhead']:.2f}x (gate {MAX_OVERHEAD:.2f}x)"
            if "overhead" in s
            else ""
        )
        name = "_".join(filter(None, (s["scenario"], s.get("method"))))
        print(f"{name:36s} {'ok' if s['ok'] else 'FAIL'}{extra}")
    print(f"wrote {out_path}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI gate: smaller systems, assert every scenario passes",
    )
    parser.add_argument("--n", type=int, default=None, help="system size")
    parser.add_argument("--out", default="BENCH_chaos.json")
    args = parser.parse_args()
    report = run(
        n=args.n or (800 if args.smoke else 1500), out_path=args.out
    )
    if report["failures"]:
        for failure in report["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
