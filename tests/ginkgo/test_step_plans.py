"""Per-solve step plans: a recurrence binds its kernels once per solve.

A bound operator apply (``LinOp.bind``) is validated once and runs the
operator's one ``_apply_impl`` kernel when nothing listens, and takes
``apply`` when something does, so the numerics, the simulated clock,
logger events and fault schedules are those of ``apply`` on every method.
The batched head prices its kernels once per active count and the
distributed operands once per shape, partition and rank count, so the
batched and distributed instances keep those outcomes too.
"""

from __future__ import annotations

import hashlib
import importlib
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest
import scipy.sparse as sp

import repro as pg
from repro.bindings import dispatch
from repro.bindings.overhead import reset_models
from repro.ginkgo.batch.matrix import BatchCsr
from repro.ginkgo.batch.preconditioner import BatchIdentity
from repro.ginkgo.batch.solver import _ActiveSystems
from repro.ginkgo.exceptions import CudaError
from repro.ginkgo.executor import ReferenceExecutor
from repro.ginkgo.fault import FaultInjector, FaultyExecutor
from repro.ginkgo.lin_op import LinOp
from repro.ginkgo.log import ConvergenceLogger, RecordLogger
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.preconditioner import Jacobi
from repro.ginkgo.solver import Cg, methods_on
from repro.ginkgo.solver.workspace import Workspace
from repro.ginkgo.stop import Iteration, ResidualNorm
from repro.perfmodel.comm import ETHERNET_CLUSTER
from repro.suitesparse.generators import poisson_2d
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


# ----------------------------------------------------------------------
# The batched and distributed instances
# ----------------------------------------------------------------------
def batch_systems(num_systems=6, n=24, seed=2):
    """Same-pattern tridiagonal systems of spread conditioning (systems
    stop at different iterations) and their right-hand sides."""
    base = sp.diags(
        [-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
    ).tocsr()
    rng = np.random.default_rng(seed)
    mats = []
    for k in range(num_systems):
        mat = base.copy()
        mat.setdiag(2.0 + (0.01 + 2.0 * k / num_systems) * (1 + rng.random(n)))
        mats.append(mat.tocsr())
    return mats, [rng.standard_normal((n, 1)) for _ in mats]


def cold_bindings() -> None:
    """Start from cold binding caches and jitter streams, so each solve's
    factory lookups charge the simulated clock alike."""
    reset_models()
    dispatch.clear()


def batch_solve(method, listen=False, profile=False, **options):
    """One seeded-noise Jacobi-preconditioned batched solve: what must not
    move.  ``listen`` attaches a logger to one system."""
    cold_bindings()
    exec_ = ReferenceExecutor.create(seed=7)
    mats, rhs = batch_systems()
    mtx = pg.batch.matrices(exec_, mats)
    b = pg.batch.vectors(exec_, rhs)
    handle = getattr(pg.batch, method)(
        exec_, mtx, pg.batch.jacobi(exec_, mtx), max_iters=200,
        reduction_factor=1e-10, **options,
    )
    record = RecordLogger()
    if listen:
        handle.solver.add_system_logger(1, record)
    x = pg.batch.zeros_like(b)
    if profile:
        with pg.profile():
            handle.apply(b, x)
    else:
        handle.apply(b, x)
    status, clock = handle.status, exec_.clock
    outcome = (
        x.data.tobytes(), status.num_iterations.tobytes(),
        status.converged.tobytes(), status.final_residual_norm.tobytes(),
        np.concatenate(status.residual_norms).tobytes(),
        clock.now, clock.kernel_count,
    )
    return outcome, record.events


@pytest.mark.parametrize("method", methods_on("batch"))
def test_batched_listened_and_traced_solves_match_the_unlistened_one(method):
    quiet, _ = batch_solve(method)
    listened, events = batch_solve(method, listen=True)
    traced, _ = batch_solve(method, profile=True)
    assert listened == quiet
    assert traced == quiet
    assert {name for name, *_ in events} >= {
        "iteration_complete", "criterion_check_completed", "converged",
    }


def dist_system(n=96):
    rng = np.random.default_rng(4)
    mat = sp.random(n, n, density=0.06, random_state=rng, format="csr")
    mat = mat + mat.T
    shift = abs(mat).sum(axis=1).max() + 1.0
    return sp.csr_matrix(mat + sp.eye(n) * shift), rng.standard_normal(n)


def dist_solve(method, exec_, listen=False, profile=False, injector=None):
    """One 4-rank solve (pipelined CG over an overlapping matrix); returns
    the bytes of ``x`` and the history, the clock and the handle."""
    cold_bindings()
    mat, rhs = dist_system()
    part = pg.distributed.partition(mat.shape[0], 4)
    overlap = {"overlap": True, "network": ETHERNET_CLUSTER}
    with injector.paused() if injector else nullcontext():
        mtx = pg.distributed.matrix(
            exec_, part, mat, **(overlap if method == "pipelined_cg" else {})
        )
        b = pg.distributed.vector(exec_, part, rhs, comm=mtx.comm)
        handle = getattr(pg.distributed, method)(
            exec_, mtx, max_iters=200, reduction_factor=1e-10
        )
    record = RecordLogger()
    if listen:
        mtx.add_logger(record)
        handle.solver.add_logger(record)
    x = pg.distributed.zeros_like(b)
    if profile:
        with pg.profile():
            logger, x = handle.apply(b, x)
    else:
        logger, x = handle.apply(b, x)
    outcome = (
        x.to_numpy().tobytes(), np.asarray(logger.residual_norms).tobytes(),
        exec_.clock.now, exec_.clock.kernel_count,
    )
    return outcome, record.events, handle


@pytest.mark.parametrize("method", methods_on("distributed"))
def test_distributed_listened_and_traced_solves_match_the_unlistened_one(
    method,
):
    quiet, _, _ = dist_solve(method, ReferenceExecutor.create(seed=7))
    listened, events, _ = dist_solve(
        method, ReferenceExecutor.create(seed=7), listen=True
    )
    traced, _, _ = dist_solve(
        method, ReferenceExecutor.create(seed=7), profile=True
    )
    assert listened == quiet
    assert traced == quiet
    assert {name for name, *_ in events} >= {
        "apply_started", "iteration_complete", "converged",
    }


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


#: ``method: (x, history, clock.now, kernel_count)`` of a seeded
#: ``sequential_ranks`` solve, recorded before the distributed step plans:
#: per-rank dispatch, rank-ordered reductions and split charges unchanged.
SEQUENTIAL = {
    "cg": ("da10044d73ad8cd3", "03b19ad3788eae26", 0.0005464927811113985, 404),
    "fcg": ("e6d827a47e496b9a", "171bbb6220c02efc", 0.0007848506157683777, 676),
    "bicgstab": (
        "0ee3bebf8c898d90", "a00275296445761b", 0.0007158538048134838, 604,
    ),
    "gmres": ("cc7805bcd0dcf0e3", "59a4940ac36a4e22", 0.0005174893701124862, 366),
    "pipelined_cg": (
        "95d9c7b6c75a485b", "d5b54747cd5d46ca", 0.015090709705426423, 325,
    ),
}


@pytest.mark.parametrize("method", methods_on("distributed"))
def test_sequential_ranks_results_and_charges_unchanged(method):
    with pg.distributed.sequential_ranks():
        (x, history, now, kernels), _, _ = dist_solve(
            method, ReferenceExecutor.create(seed=7)
        )
    assert (digest(x), digest(history), now, kernels) == SEQUENTIAL[method]


#: The same for a solve whose rank 2 of 4 fails at the sixth collective,
#: after every kernel is bound: shrink, repartition, replay.
RANK_FAILURE = {
    "cg": ("84866ec7e86b0419", "3ecf046c9e79815a", 0.0003483187245638781, 203),
    "fcg": ("37cf48a34c3fda20", "04fbb4610884a804", 0.00043267766271669236, 283),
    "bicgstab": (
        "0b7d21359e5f971b", "ac7a642757405f45", 0.00039902385191802325, 264,
    ),
    "gmres": ("0151cd940e2d0824", "5b772bf618cdc077", 0.0004362614453489409, 282),
    "pipelined_cg": (
        "f678be3a3d1820ba", "e62f647ca2bf7315", 0.009474436113033788, 178,
    ),
}


@pytest.mark.parametrize("method", methods_on("distributed"))
def test_rank_failure_after_binding_recovers_as_before(method):
    injector = FaultInjector(schedule={"rank": [(6, "failure")]})
    exec_ = FaultyExecutor.create(ReferenceExecutor.create(noisy=False), injector)
    (x, history, now, kernels), _, handle = dist_solve(
        method, exec_, injector=injector
    )
    assert handle.solver.num_recoveries == 1
    assert handle.comm.num_shrinks == 1
    assert (digest(x), digest(history), now, kernels) == RANK_FAILURE[method]
    if method != "pipelined_cg":  # overlap relaxes bit identity
        free, _, _ = dist_solve(method, ReferenceExecutor.create(noisy=False))
        assert (x, history) == free[:2]


def pricing_calls(monkeypatch, **options) -> int:
    """Kernel-cost evaluations (``blas1_cost``/``dot_cost``/``spmv_cost``)
    of one batched Jacobi-CG apply, the head's vector kernels included."""
    calls = Counter()
    for module, price in (
        ("batch.solver", "blas1_cost"), ("batch.matrix", "spmv_cost"),
        ("batch.preconditioner", "spmv_cost"),
        ("batch.preconditioner", "blas1_cost"),
        ("krylov_vector", "blas1_cost"), ("krylov_vector", "dot_cost"),
    ):
        module = importlib.import_module(f"repro.ginkgo.{module}")

        def counting(*args, _price=getattr(module, price), **kwargs):
            calls[_price.__name__] += 1
            return _price(*args, **kwargs)

        monkeypatch.setattr(module, price, counting)
    batch_solve("cg", **options)
    monkeypatch.undo()
    return sum(calls.values())


def test_batched_kernels_are_priced_per_active_count(monkeypatch):
    # No system stops: one active count however many iterations run.
    once = pricing_calls(monkeypatch, criteria=Iteration(10))
    assert pricing_calls(monkeypatch, criteria=Iteration(30)) == once
    # Systems stop at five different iterations: at most one set of
    # kernel prices per active count, where there are 24 iterations.
    (_, iterations, *_), _ = batch_solve("cg")
    counts = np.unique(np.frombuffer(iterations, dtype=np.int64)).size + 1
    assert pricing_calls(monkeypatch) <= once * counts < 24 * once


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_head_spmv_is_scipys_matmul(dtype):
    exec_ = ReferenceExecutor.create(noisy=False)
    mats, _ = batch_systems()
    mtx = BatchCsr.from_scipy_list(exec_, mats, value_dtype=dtype)
    active = _ActiveSystems(Workspace(exec_), mtx, BatchIdentity(exec_))
    active.reset(np.array([4, 0, 2]))  # a gathered, partial head
    rng = np.random.default_rng(3)
    for cols in (1, 2):  # the compiled column kernel, then ``@``
        src = rng.standard_normal((6, 24, cols)).astype(dtype)
        dst = np.ones_like(src)  # the head SpMV overwrites its output
        active.spmv(src, dst)
        expected = active.op @ src[:3].reshape(-1, cols)
        assert dst[:3].tobytes() == expected.tobytes()
        assert (dst[3:] == 1).all()


def test_halo_buffers_are_freed_when_the_column_count_changes():
    exec_ = ReferenceExecutor.create(noisy=False)
    mat = poisson_2d(8)
    part = pg.distributed.partition(mat.shape[0], 4)
    mtx = pg.distributed.matrix(exec_, part, mat)
    operands = []
    for cols in (1, 2):
        b = pg.distributed.vector(
            exec_, part, np.ones((mat.shape[0], cols)), comm=mtx.comm
        )
        operands.append((b, pg.distributed.zeros_like(b)))

    def alternate(times):
        for _ in range(times):
            for b, x in operands:
                mtx.apply(b, x)

    alternate(2)
    held = exec_.bytes_allocated
    alternate(50)
    assert exec_.bytes_allocated == held
    # A rank-failure shrink replaces the gatherer: only the new halo stays.
    halo = lambda: sum(b.nbytes for b in mtx._gatherer._buffers if b is not None)  # noqa: E731
    rest = exec_.bytes_allocated - halo()
    shrunk = pg.distributed.partition(mat.shape[0], 3)
    for op in (mtx, *(vec for pair in operands for vec in pair)):
        op.repartition(shrunk)
    alternate(1)
    assert exec_.bytes_allocated == rest + halo() > rest
