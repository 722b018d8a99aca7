"""The public ``pg.profile()`` context manager."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro as pg
from repro.bindings import dispatch, reset_models
from repro.core.resilient import FallbackChain, RetryPolicy, resilient_solve
from repro.ginkgo import (
    CudaExecutor,
    FaultInjector,
    FaultyExecutor,
    ReferenceExecutor,
    cachestats,
    lazy,
)
from repro.ginkgo.matrix import Csr
from repro.perfmodel import KernelCost, SimClock
from repro.suitesparse.generators import spd_random


@pytest.fixture
def system():
    A = spd_random(120, 0.04, seed=5)
    b = np.ones((120, 1))
    return A, b


def solve_on(exec_, system, **kwargs):
    A, b_np = system
    mtx = Csr.from_scipy(exec_, A)
    b = pg.as_tensor(device=exec_, data=b_np)
    return pg.solve(
        exec_, mtx, b, solver="cg", max_iters=300, reduction_factor=1e-8,
        **kwargs,
    )


class TestTargetedMode:
    def test_profiles_only_the_target(self, ref, cuda):
        with pg.profile(ref) as prof:
            ref.run(KernelCost("on_ref", 1.0, 8.0))
            cuda.run(KernelCost("on_cuda", 1.0, 8.0))
        assert prof.trace.find("on_ref")
        assert not prof.trace.find("on_cuda")

    def test_detaches_on_exit(self, ref):
        with pg.profile(ref) as prof:
            pass
        assert not ref.clock.is_traced_by(prof)
        ref.run(KernelCost("later", 1.0, 8.0))
        assert not prof.trace.find("later")

    def test_accepts_device_names(self, system):
        with pg.profile("reference") as prof:
            solve_on(pg.device("reference"), system)
        assert prof.trace.find("CgSolver::apply")

    def test_full_solve_attribution(self, cuda, system):
        with pg.profile(cuda) as prof:
            logger, _ = solve_on(cuda, system)
        assert logger.converged
        table = prof.attribution()
        assert table.coverage >= 0.99
        # The staging (Csr.from_scipy, tensor upload) plus the solve all
        # happened inside the region; kernel time dominates.
        assert table.kernel_time > table.stall_time

    def test_duplicate_targets_attach_once(self, ref):
        with pg.profile(ref, ref, ref.clock) as prof:
            ref.run(KernelCost("once", 1.0, 8.0))
        assert len(prof.trace.find("once")) == 1


class TestGlobalMode:
    def test_observes_executors_created_inside(self, system):
        with pg.profile() as prof:
            exec_ = ReferenceExecutor.create(noisy=False)
            solve_on(exec_, system)
        assert prof.trace.find("CgSolver::apply")
        assert not SimClock._global_tracers

    def test_unregisters_on_exception(self):
        with pytest.raises(RuntimeError):
            with pg.profile():
                raise RuntimeError("boom")
        assert not SimClock._global_tracers


def _jacobi_gmres(dev, A, b_np):
    mtx = Csr.from_scipy(dev, A)
    b = pg.as_tensor(device=dev, data=b_np)
    _, x = pg.solve(
        dev, mtx, b, solver="gmres", preconditioner="jacobi",
        max_iters=300, reduction_factor=1e-8,
    )
    return [x.numpy()]


def _ilu_cg(dev, A, b_np):
    mtx = Csr.from_scipy(dev, A)
    b = pg.as_tensor(device=dev, data=b_np)
    handle = pg.solver.cg(
        dev, mtx, preconditioner=pg.preconditioner.Ilu(dev, mtx),
        max_iters=300, reduction_factor=1e-8,
    )
    _, x = handle.apply(b, pg.as_tensor(device=dev, dim=b_np.shape))
    return [x.numpy()]


def _deferred_expression(dev, A, b_np):
    mtx = Csr.from_scipy(dev, A)
    b = pg.as_tensor(device=dev, data=b_np)
    x = pg.as_tensor(device=dev, data=2.0 * b_np)
    with pg.deferred():
        z = (x + 0.5 * (b - mtx @ x)).evaluate()
    return [z.to_numpy()]


def _batch_cg(dev, A, b_np):
    mats = [A, A + 0.5 * sp.identity(A.shape[0], format="csr")]
    mtx = pg.batch.matrices(dev, mats)
    b = pg.batch.vectors(dev, [b_np, -b_np])
    x = pg.batch.zeros_like(b)
    solver = pg.batch.cg(
        dev, mtx, preconditioner=pg.batch.jacobi(dev),
        max_iters=300, reduction_factor=1e-8,
    )
    solver.apply(b, x)
    return list(x.data)


class TestTracingNeverPerturbsClock:
    """A traced run charges the simulated clock exactly what the
    untraced fast path charges, in the same order: any fast path that
    skips or reorders a charge (or a noise draw) moves ``clock.now``."""

    @staticmethod
    def _run(scenario, system, traced):
        reset_models()
        dispatch.clear()
        cachestats.reset()
        lazy.reset()
        dev = pg.device("cuda", fresh=True)  # noisy: draw order matters
        if traced:
            with pg.profile(metrics=pg.MetricsRegistry()) as prof:
                solutions = scenario(dev, *system)
            assert prof.trace.num_spans > 0
        else:
            solutions = scenario(dev, *system)
        clock = dev.clock
        counters = (
            clock.now, clock.kernel_count, clock.bytes_moved, clock.flops_done
        )
        return counters, solutions

    @pytest.mark.parametrize(
        "scenario",
        [_jacobi_gmres, _ilu_cg, _deferred_expression, _batch_cg],
        ids=["jacobi_gmres", "ilu_cg", "deferred", "batch_cg"],
    )
    def test_traced_equals_untraced(self, scenario, system):
        plain, plain_x = self._run(scenario, system, traced=False)
        traced, traced_x = self._run(scenario, system, traced=True)
        assert traced == plain
        assert len(traced_x) == len(plain_x)
        for a, b in zip(plain_x, traced_x):
            assert np.array_equal(a, b)


class TestComposesWithResilientSolve:
    def test_fault_events_recorded_inside_owning_span(self, system):
        A, b_np = system
        injector = FaultInjector(schedule={"run": [30]})
        exec_ = FaultyExecutor.create(
            CudaExecutor.create(noisy=False), injector
        )
        with injector.paused():
            mtx = Csr.from_scipy(exec_, A)
            b = pg.as_tensor(device=exec_, data=b_np)
        with pg.profile() as prof:
            report, _ = resilient_solve(
                exec_, mtx, b,
                solver="cg", max_iters=300, reduction_factor=1e-8,
                retry=RetryPolicy(max_retries=2, base_delay=1e-4),
                fallback=FallbackChain(exec_),
            )
        assert report.converged
        assert report.faults_injected == 1
        faults = prof.trace.find("fault_injected")
        assert len(faults) == 1
        # The fault fired mid-kernel, inside the solver's apply span.
        applies = prof.trace.find("CgSolver::apply")
        assert any(fault in list(root.walk()) for root in applies
                   for fault in faults)
        # The retry backoff is a labelled stall leaf, not anonymous time.
        backoffs = prof.trace.find("retry_backoff")
        assert len(backoffs) == 1
        assert backoffs[0].category == "stall"
        assert prof.trace.find("retry")
        assert prof.trace.find("attempt_started")

    def test_metrics_shared_between_profile_and_resilient(self, system):
        A, b_np = system
        metrics = pg.MetricsRegistry()
        exec_ = CudaExecutor.create(noisy=False)
        mtx = Csr.from_scipy(exec_, A)
        b = pg.as_tensor(device=exec_, data=b_np)
        with pg.profile(metrics=metrics):
            report, _ = resilient_solve(
                exec_, mtx, b,
                solver="cg", max_iters=300, reduction_factor=1e-8,
                fallback=FallbackChain(exec_),
                metrics=metrics,
            )
        assert metrics.counter("solves").value == 1
        assert metrics.counter("solves_converged").value == 1
        assert metrics.counter("attempts").value == 1
        assert metrics.counter("kernel_launches").value > 0
        hist = metrics.histogram("iterations_per_solve")
        assert hist.count == 1
        assert hist.mean == report.num_iterations

    def test_shared_registry_counts_fault_events_once(self, system):
        # Regression: with one registry wired into both pg.profile() and
        # resilient_solve(), fault/retry events used to be counted twice
        # (once from the clock mark, once from the report).
        A, b_np = system
        injector = FaultInjector(schedule={"run": [30]})
        exec_ = FaultyExecutor.create(
            CudaExecutor.create(noisy=False), injector
        )
        with injector.paused():
            mtx = Csr.from_scipy(exec_, A)
            b = pg.as_tensor(device=exec_, data=b_np)
        metrics = pg.MetricsRegistry()
        with pg.profile(metrics=metrics):
            report, _ = resilient_solve(
                exec_, mtx, b,
                solver="cg", max_iters=300, reduction_factor=1e-8,
                retry=RetryPolicy(max_retries=2, base_delay=1e-4),
                fallback=FallbackChain(exec_),
                metrics=metrics,
            )
        assert metrics.counter("faults_injected").value == report.faults_injected == 1
        assert metrics.counter("retries").value == report.retries == 1
        assert metrics.counter("attempts").value == report.attempts

    def test_pg_solve_threads_metrics(self, system):
        metrics = pg.MetricsRegistry()
        exec_ = CudaExecutor.create(noisy=False)
        report, _ = solve_on(
            exec_, system,
            retry=RetryPolicy(max_retries=1),
            fallback=FallbackChain(exec_),
            metrics=metrics,
        )
        assert report.converged
        assert metrics.counter("solves").value == 1
