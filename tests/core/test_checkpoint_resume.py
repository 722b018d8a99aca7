"""One checkpoint for every solve: a scalar retry resumes the recurrence.

With ``checkpoint_every`` set, the solver's recovery driver checkpoints
the recurrence's carried state; after a device fault the retry layer
hands the last checkpoint back and the next attempt steps on from its
iteration, finishing bit-identical to the fault-free solve.  Also pins
the retry layer's bookkeeping: metrics for every outcome, and the
method parameters a quarantined batch system is re-solved with.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import batch_api
from repro.core.io import matrix as make_matrix
from repro.core.resilient import (
    FallbackChain,
    RetryPolicy,
    resilient_batch_solve,
    resilient_solve,
)
from repro.core.solve import build_config, config_solver
from repro.ginkgo.config import ConfigError, validate
from repro.ginkgo.distributed import DistributedCg
from repro.ginkgo.exceptions import CudaError, GinkgoError, ResilienceExhausted
from repro.ginkgo.executor import PCIE_LATENCY, CudaExecutor, OmpExecutor
from repro.ginkgo.fault import FaultInjector, FaultyExecutor
from repro.ginkgo.log import Logger, MetricsRegistry
from repro.ginkgo.matrix import Dense
from repro.ginkgo.solver import Cg, methods_on

N = 200
KW = dict(max_iters=400, reduction_factor=1e-12)
#: The fault lands in the iteration after this one.
FAULT_AFTER = 10


def system():
    """A scaled 1-D Laplacian: every scalar method converges in > 20
    iterations (GMRES inside its first cycle), IR included."""
    lap = sp.diags(
        [-np.ones(N - 1), 2.5 * np.ones(N), -np.ones(N - 1)], [-1, 0, 1]
    )
    rhs = np.random.default_rng(4).standard_normal(N)
    return sp.csr_matrix(lap / 2.5), rhs


def staged(injector):
    mat, rhs = system()
    dev = FaultyExecutor.create(CudaExecutor.create(noisy=False), injector)
    with injector.paused():
        mtx = make_matrix(dev, mat)
        b = Dense.create(dev, rhs.reshape(-1, 1))
    return dev, mtx, b


class _CallsAt(Logger):
    """Records a site's call count when an iteration is logged."""

    def __init__(self, injector, site, iteration) -> None:
        self.injector, self.site, self.iteration = injector, site, iteration
        self.calls = None

    def on_iteration_complete(self, op, iteration=0, **kwargs) -> None:
        if iteration == self.iteration:
            self.calls = self.injector._calls[self.site]


def calls_at(method, site, iteration=FAULT_AFTER):
    """``site``'s call count once ``iteration`` is logged, fault-free."""
    injector = FaultInjector()
    dev, mtx, b = staged(injector)
    handle = config_solver(dev, mtx, build_config(solver=method, **KW))
    probe = _CallsAt(injector, site, iteration)
    handle.solver.add_logger(probe)
    handle.apply(b, Dense.create(dev, np.zeros((N, 1))))
    assert probe.calls is not None, f"{method} stopped before {iteration}"
    return probe.calls


def solve(method, injector, **kwargs):
    dev, mtx, b = staged(injector)
    return resilient_solve(
        dev, mtx, b, solver=method, fallback=FallbackChain(dev),
        **{**KW, **kwargs},
    )


@pytest.mark.parametrize("method", methods_on("scalar"))
def test_retry_resumes_bit_identical(method):
    clean, x_clean = solve(method, FaultInjector())
    injector = FaultInjector(
        schedule={"run": [calls_at(method, "run") + 1]}
    )
    report, x = solve(method, injector, checkpoint_every=5)
    assert len(injector.injected) == 1 and report.retries == 1
    restored = [p for n, p in report.events if n == "checkpoint_restored"]
    assert len(restored) == 1
    k = restored[0]["iteration"]
    assert 0 < k <= FAULT_AFTER
    retries = [p for n, p in report.events if n == "retry"]
    assert [p["restart_iteration"] for p in retries] == [k]
    assert report.num_iterations == clean.num_iterations
    assert report.converged == clean.converged
    assert x.numpy().tobytes() == x_clean.numpy().tobytes()
    # The resumed attempt logs only the iterations after the checkpoint,
    # each with the fault-free norm; the report joins the whole history.
    tail = np.asarray(clean.residual_norms[k + 1 :])
    resumed = np.asarray(report.logger.residual_norms)
    assert resumed.tobytes() == tail.tobytes()
    full = np.asarray(clean.residual_norms)
    assert np.asarray(report.residual_norms).tobytes() == full.tobytes()
    assert len(report.residual_norms) == report.num_iterations + 1


def test_resume_on_another_executor_without_checkpointing():
    # The checkpoint is a plain host value: a solver that does not
    # checkpoint itself, on a host executor, still resumes from it.
    clean, x_clean = solve("gmres", FaultInjector())
    injector = FaultInjector(schedule={"run": [calls_at("gmres", "run") + 1]})
    dev, mtx, b = staged(injector)
    config = build_config(solver="gmres", checkpoint_every=5, **KW)
    failed = config_solver(dev, mtx, config).solver
    with pytest.raises(CudaError):
        failed.apply(b, Dense.create(dev, np.zeros((N, 1))))
    assert failed.checkpoint.iteration == FAULT_AFTER
    # Mid-cycle, only the written part of the cycle arrays is saved.
    k = FAULT_AFTER
    saved = {
        name: values.shape
        for name, (_, _, values) in failed.checkpoint.cycle.items()
    }
    assert saved == {
        "basis": (1, N, k + 1), "hessenberg": (1, k + 1, k),
        "givens_cos": (1, k), "givens_sin": (1, k), "g": (1, k + 1),
    }
    host = OmpExecutor.create(num_threads=4, noisy=False)
    handle = config_solver(
        host, mtx.copy_to(host), build_config(solver="gmres", **KW)
    )
    x = Dense.create(host, np.zeros((N, 1)))
    rhs = Dense.create(host, system()[1].reshape(-1, 1))
    logger, _ = handle.resume(failed.checkpoint, rhs, x)
    assert logger.num_iterations == clean.num_iterations
    tail = np.asarray(clean.residual_norms[FAULT_AFTER + 1 :])
    assert np.asarray(logger.residual_norms).tobytes() == tail.tobytes()
    assert x.to_numpy().tobytes() == x_clean.numpy().tobytes()


class _Saves(Logger):
    def __init__(self) -> None:
        self.count = 0

    def on_checkpoint_saved(self, exec_, **kwargs) -> None:
        self.count += 1


def checkpointed_cg(exec_, every):
    """Kernels launched, simulated seconds and checkpoints of one CG solve."""
    mat, rhs = system()
    config = build_config(solver="cg", checkpoint_every=every, **KW)
    handle = config_solver(exec_, make_matrix(exec_, mat), config)
    b = Dense.create(exec_, rhs.reshape(-1, 1))
    x = Dense.create(exec_, np.zeros((N, 1)))
    saves = _Saves()
    exec_.add_logger(saves)
    clock = exec_.clock
    kernels, now = clock.kernel_count, clock.now
    handle.apply(b, x)
    exec_.remove_logger(saves)
    return clock.kernel_count - kernels, clock.now - now, saves.count


def test_device_checkpoints_cross_pcie():
    # A device copies each checkpoint to host memory over PCIe: no
    # kernel, at least one transfer latency per save.
    kernels, sim, _ = checkpointed_cg(CudaExecutor.create(noisy=False), 0)
    kernels_ck, sim_ck, saves = checkpointed_cg(
        CudaExecutor.create(noisy=False), 5
    )
    assert saves > 1 and kernels_ck == kernels
    assert sim_ck - sim >= saves * PCIE_LATENCY
    # A host executor streams each checkpoint as one kernel.
    host = dict(num_threads=4, noisy=False)
    kernels, _, _ = checkpointed_cg(OmpExecutor.create(**host), 0)
    kernels_ck, _, saves = checkpointed_cg(OmpExecutor.create(**host), 5)
    assert kernels_ck == kernels + saves


def test_max_recoveries_is_distributed_only():
    # Only a communicator raises the failures replay absorbs.
    dev = OmpExecutor.create(num_threads=4, noisy=False)
    with pytest.raises(GinkgoError, match="max_recoveries"):
        Cg(dev, max_recoveries=2)
    with pytest.raises(ConfigError):
        validate({"type": "solver::Cg", "max_recoveries": 2})
    validate({"type": "solver::Cg", "checkpoint_every": 2})
    DistributedCg(dev, checkpoint_every=2, max_recoveries=2)


def test_nan_corruption_after_checkpoint_ends_truthfully():
    # FCG copies r into a pooled buffer every iteration; poisoning the
    # copy after iteration 10 breaks the solve down past a checkpoint.
    clean, x_clean = solve("fcg", FaultInjector())
    injector = FaultInjector(
        schedule={"copy": [(calls_at("fcg", "copy"), "corruption")]},
        corruption_mode="nan",
    )
    report, x = solve("fcg", injector, checkpoint_every=5)
    assert report.count("data_corrupted") == 1
    assert report.count("checkpoint_restored") == 1
    assert report.converged
    assert np.all(np.isfinite(x.numpy()))
    assert x.numpy().tobytes() == x_clean.numpy().tobytes()


def test_deadline_during_backoff_returns_the_checkpoint():
    injector = FaultInjector(schedule={"run": [calls_at("cg", "run") + 1]})
    report, x = solve(
        "cg", injector, checkpoint_every=5,
        retry=RetryPolicy(base_delay=1.0), deadline=0.5,
    )
    assert report.timed_out and report.partial and not report.converged
    assert report.num_iterations == FAULT_AFTER
    _, x_k = solve("cg", FaultInjector(), max_iters=FAULT_AFTER)
    assert len(report.residual_norms) == FAULT_AFTER + 1
    assert x.numpy().tobytes() == x_k.numpy().tobytes()


def test_exhausted_solve_feeds_metrics():
    injector = FaultInjector(kernel_rate=1.0)
    dev, mtx, b = staged(injector)
    metrics = MetricsRegistry()
    with pytest.raises(ResilienceExhausted):
        resilient_solve(
            dev, mtx, b, solver="cg", fallback=FallbackChain(dev),
            retry=RetryPolicy(max_retries=2), metrics=metrics, **KW,
        )
    assert metrics.counter("solves").value == 1
    assert metrics.counter("solves_exhausted").value == 1
    assert metrics.counter("attempts").value == 3
    assert metrics.counter("retries").value == 2
    assert metrics.counter("faults_injected").value == 3


def batch_system(exec_, num_systems=5, n=40):
    rng = np.random.default_rng(11)
    base = sp.random(n, n, density=0.1, random_state=rng, format="csr")
    base = sp.csr_matrix(base + sp.eye(n) * 2.0)
    mats = [
        sp.csr_matrix(
            (base.data * (1 + 0.05 * k), base.indices, base.indptr),
            shape=base.shape,
        )
        for k in range(num_systems)
    ]
    mtx = batch_api.matrices(exec_, mats)
    b = batch_api.vectors(
        exec_, [rng.standard_normal(n) for _ in range(num_systems)]
    )
    return mtx, b


def test_exhausted_batch_feeds_metrics():
    injector = FaultInjector(kernel_rate=1.0)
    dev = FaultyExecutor.create(
        OmpExecutor.create(num_threads=4, noisy=False), injector
    )
    with injector.paused():
        mtx, b = batch_system(dev)
    metrics = MetricsRegistry()
    with pytest.raises(ResilienceExhausted):
        resilient_batch_solve(
            dev, mtx, b, solver="cg", retry=RetryPolicy(max_retries=1),
            metrics=metrics,
        )
    assert metrics.counter("batch_solves").value == 1
    assert metrics.counter("solves_exhausted").value == 1
    assert metrics.counter("attempts").value == 2
    assert metrics.counter("retries").value == 1


def test_quarantined_system_keeps_method_parameters():
    injector = FaultInjector(schedule={"batch": [(2, "corruption")]})
    dev = FaultyExecutor.create(
        OmpExecutor.create(num_threads=4, noisy=False), injector
    )
    with injector.paused():
        mtx, b = batch_system(dev)
    x0 = np.array(batch_api.zeros_like(b)._data)
    params = dict(solver="gmres", max_iters=60, reduction_factor=1e-12)
    report, x = resilient_batch_solve(dev, mtx, b, krylov_dim=4, **params)
    assert len(report.quarantined) == 1
    (k,) = report.quarantined
    ref = OmpExecutor.create(num_threads=4, noisy=False)
    scalar, x_k = resilient_solve(
        ref,
        mtx.item(k).copy_to(ref),
        Dense.create(ref, b._data[k]),
        x=Dense.create(ref, x0[k]),
        fallback=FallbackChain(ref),
        krylov_dim=4,
        **params,
    )
    assert report.converged[k] == scalar.converged
    assert report.num_iterations[k] == scalar.num_iterations
    assert report.final_residual_norm[k] == scalar.final_residual_norm
    assert x._data[k].tobytes() == x_k._data.tobytes()


def test_quarantined_system_keeps_the_lane_preconditioner():
    injector = FaultInjector(schedule={"batch": [(2, "corruption")]})
    dev = FaultyExecutor.create(
        OmpExecutor.create(num_threads=4, noisy=False), injector
    )
    rng = np.random.default_rng(5)
    mats = [
        sp.diags([-np.ones(39), 2.5 + 4 * rng.random(40), -np.ones(39)],
                 [-1, 0, 1], format="csr")
        for _ in range(4)
    ]
    with injector.paused():
        mtx = batch_api.matrices(dev, mats)
        b = batch_api.vectors(dev, [rng.standard_normal(40) for _ in mats])
    report, x = resilient_batch_solve(
        dev, mtx, b, solver="cg", preconditioner=batch_api.jacobi(dev),
        max_iters=200, reduction_factor=1e-12,
    )
    (k,) = report.recovered
    ref = OmpExecutor.create(num_threads=4, noisy=False)
    solo, x_k = resilient_solve(
        ref, mtx.item(k).copy_to(ref), Dense.create(ref, b._data[k]),
        x=Dense.create(ref, np.zeros_like(b._data[k])), solver="cg",
        preconditioner="jacobi", max_iters=200, reduction_factor=1e-12,
        fallback=FallbackChain(ref),
    )
    system = report.systems[k]
    assert system.num_iterations == solo.num_iterations
    assert system.final_residual_norm == solo.final_residual_norm
    assert x._data[k].tobytes() == x_k._data.tobytes()
