"""Per-solve step plans: a recurrence binds its kernels once per solve.

A bound operator apply (``LinOp.bind``) is validated once and runs the
operator's one ``_apply_impl`` kernel when nothing listens, and takes
``apply`` when something does, so the numerics, the simulated clock,
logger events and fault schedules are those of ``apply`` on every method.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro as pg
from repro.ginkgo.exceptions import CudaError
from repro.ginkgo.executor import ReferenceExecutor
from repro.ginkgo.fault import FaultInjector, FaultyExecutor
from repro.ginkgo.lin_op import LinOp
from repro.ginkgo.log import ConvergenceLogger, RecordLogger
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.preconditioner import Jacobi
from repro.ginkgo.solver import Cg, methods_on
from repro.ginkgo.stop import Iteration, ResidualNorm
from tests.baselines.record_uniform_histories import (
    CASES,
    build_preconditioner,
    general_matrix,
    spd_matrix,
)


def solve(case, listen=False, profile=False):
    """One seeded-noise solve of a uniform-baseline case; what must not move."""
    _, solver_cls, params, kind, precond = case
    exec_ = ReferenceExecutor.create(seed=7)
    mtx = Csr.from_scipy(exec_, spd_matrix() if kind == "spd" else general_matrix())
    solver = solver_cls(
        exec_, criteria=Iteration(300) | ResidualNorm(1e-10),
        preconditioner=build_preconditioner(exec_, precond), **params,
    ).generate(mtx)
    history, record = ConvergenceLogger(), RecordLogger()
    solver.add_logger(history)
    if listen:
        mtx.add_logger(record)
        solver.preconditioner.add_logger(record)
    n = mtx.size.rows
    b = Dense.full(exec_, (n, 1), 1.0, np.float64)
    x = Dense.zeros(exec_, (n, 1), np.float64)
    if profile:
        with pg.profile():
            solver.apply(b, x)
    else:
        solver.apply(b, x)
    clock = exec_.clock
    outcome = (x.to_numpy().tobytes(), np.array(history.residual_norms).tobytes(),
               clock.now, clock.kernel_count)
    return outcome, record.events


def test_uniform_cases_cover_every_scalar_method():
    assert {case[1].__name__.lower() for case in CASES} == {
        name.replace("_", "") for name in methods_on("scalar")
    }


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_listened_and_traced_solves_match_the_unlistened_one(case):
    quiet, _ = solve(case)
    listened, events = solve(case, listen=True)
    traced, _ = solve(case, profile=True)
    assert listened == quiet
    assert traced == quiet
    assert events and {name for name, *_ in events} == {
        "apply_started", "apply_completed",
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_csr_column_kernel_is_scipys_matmul(dtype):
    exec_ = ReferenceExecutor.create(noisy=False)
    mtx = Csr.from_scipy(exec_, general_matrix(), value_dtype=dtype)
    n = mtx.size.rows
    rhs = np.random.default_rng(3).standard_normal((n, 2)).astype(dtype)
    for b in (rhs[:, :1], rhs):  # the compiled column kernel, then ``@``
        x = Dense.full(exec_, b.shape, 1.0, dtype)  # apply overwrites x
        mtx.apply(Dense.create(exec_, b), x)
        assert x.to_numpy().tobytes() == (mtx._scipy_view() @ b).tobytes()


def cg_validations(monkeypatch, iterations: int) -> int:
    """``_validate_application`` calls of one unlistened ``iterations``-step CG."""
    calls = []
    original = LinOp._validate_application

    def counting(self, b, x):
        calls.append(type(self).__name__)
        return original(self, b, x)

    monkeypatch.setattr(LinOp, "_validate_application", counting)
    exec_ = ReferenceExecutor.create(noisy=False)
    mtx = Csr.from_scipy(exec_, spd_matrix(200))
    solver = Cg(exec_, criteria=Iteration(iterations)).generate(mtx)
    b = Dense.full(exec_, (200, 1), 1.0, np.float64)
    solver.apply(b, Dense.zeros(exec_, (200, 1), np.float64))
    assert solver.num_iterations == iterations
    monkeypatch.setattr(LinOp, "_validate_application", original)
    return len(calls)


def test_validation_is_per_solve_not_per_iteration(monkeypatch):
    assert cg_validations(monkeypatch, 20) == cg_validations(monkeypatch, 40)


def faulted_cg(schedule):
    """A Jacobi-CG solve on a faulty reference executor: the kernel of
    the first transient fault, else the kernel of every stall."""
    injector = FaultInjector(schedule=schedule)
    exec_ = FaultyExecutor.create(ReferenceExecutor.create(noisy=False), injector)
    with injector.paused():
        mtx = Csr.from_scipy(exec_, spd_matrix())
        b = Dense.full(exec_, (60, 1), 1.0, np.float64)
        x = Dense.zeros(exec_, (60, 1), np.float64)
        solver = Cg(
            exec_, criteria=Iteration(12), preconditioner=Jacobi(exec_)
        ).generate(mtx)
    trail = RecordLogger()
    exec_.add_logger(trail)
    try:
        solver.apply(b, x)
    except CudaError as exc:
        return str(exc).split("'")[1]
    return [payload["detail"] for _, _, payload in trail.events]


def test_run_faults_fire_at_the_kernels_apply_runs():
    every = {"run": [(k, "stall") for k in range(200)]}
    bound = faulted_cg(every)
    # One iteration: SpMV, p.q, cg_step_2, ||r||, Jacobi, r.z, cg_step_1.
    assert len(bound) == 86
    assert bound[12:19] == [
        "spmv_csr", "dot", "cg_step_2", "dot", "spmv_csr", "dot", "cg_step_1",
    ]
    transient = {5: "spmv_csr", 17: "dot", 23: "spmv_csr"}
    for call, kernel in transient.items():
        assert faulted_cg({"run": [(call, "transient")]}) == kernel
