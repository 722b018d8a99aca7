"""The ProfilerHook: span structure, determinism, attribution, metrics."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bindings.overhead import reset_models
from repro.ginkgo.executor import CudaExecutor, ReferenceExecutor
from repro.ginkgo.fault import FaultInjector, FaultyExecutor
from repro.ginkgo.log import MetricsLogger, MetricsRegistry, ProfilerHook
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.preconditioner import Ilu
from repro.ginkgo.solver import Cg, Gmres
from repro.ginkgo.stop import Iteration, ResidualNorm
from repro.perfmodel import KernelCost


def solve_profiled(exec_, matrix_sp, solver_cls=Cg, metrics=None, **params):
    """One profiled solve; returns (profiler, solver)."""
    mtx = Csr.from_scipy(exec_, matrix_sp)
    b = Dense(exec_, np.ones((mtx.size.rows, 1)))
    x = Dense.zeros(exec_, (mtx.size.rows, 1), np.float64)
    prof = ProfilerHook(metrics=metrics)
    prof.attach(exec_)
    try:
        solver = solver_cls(
            exec_,
            criteria=Iteration(200) | ResidualNorm(1e-8),
            **params,
        ).generate(mtx)
        solver.apply(b, x)
    finally:
        prof.detach(exec_)
    prof.close()
    return prof, solver


class TestSpanStructure:
    def test_apply_span_nesting_matches_solver_structure(self, ref, spd_small):
        prof, solver = solve_profiled(ref, spd_small)
        applies = prof.trace.find("CgSolver::apply")
        assert len(applies) == 1
        root = applies[0]
        # Every direct child of the solver apply is an iteration span
        # (plus the pre-loop setup adopted into iteration 0).
        iterations = [c for c in root.children if c.category == "iteration"]
        assert len(iterations) == solver.num_iterations + 1
        assert [s.name for s in iterations] == [
            f"iteration {i}" for i in range(len(iterations))
        ]
        # Iterations tile the apply span: contiguous, inside the parent.
        for earlier, later in zip(iterations, iterations[1:]):
            assert earlier.end == later.start
        assert iterations[0].start == root.start

    def test_generate_span_captures_preconditioner_setup(self, ref, spd_small):
        prof, _ = solve_profiled(
            ref, spd_small, solver_cls=Gmres, preconditioner=Ilu(ref)
        )
        generates = prof.trace.find("GmresSolver::generate")
        assert len(generates) == 1
        kernels = [
            s for s in generates[0].walk() if s.category == "kernel"
        ]
        assert any(s.name == "generate_ilu0" for s in kernels)

    def test_preconditioner_apply_spans_inside_iterations(self, ref, spd_small):
        prof, _ = solve_profiled(
            ref, spd_small, solver_cls=Gmres, preconditioner=Ilu(ref)
        )
        spans = prof.trace.find("IluOperator::apply")
        assert spans
        assert all(s.category == "precond" for s in spans)

    def test_leaf_events_cover_the_apply(self, ref, spd_small):
        prof, _ = solve_profiled(ref, spd_small)
        root = prof.trace.find("CgSolver::apply")[0]
        leaf_time = sum(s.duration for s in root.walk() if s.is_leaf)
        assert leaf_time == pytest.approx(root.duration, rel=1e-9)

    def test_kernel_leaves_carry_cost_metadata(self, ref):
        prof = ProfilerHook()
        prof.attach(ref)
        ref.run(KernelCost("spmv_csr", 2e4, 1e5, launches=2))
        prof.detach(ref)
        leaf = prof.trace.find("spmv_csr")[0]
        assert leaf.meta == {"flops": 2e4, "bytes": 1e5, "launches": 2}

    def test_untraced_clock_records_nothing(self, ref):
        prof = ProfilerHook()
        ref.run(KernelCost("spmv_csr", 2e4, 1e5))
        assert prof.trace.num_spans == 0


class TestDeterminismAndAttribution:
    def run_once(self, matrix_sp):
        reset_models()
        exec_ = CudaExecutor.create(noisy=False)
        prof, _ = solve_profiled(
            exec_, matrix_sp, solver_cls=Gmres, preconditioner=Ilu(exec_)
        )
        return prof

    def test_same_seed_traces_are_byte_identical(self, spd_small):
        a = self.run_once(spd_small).to_chrome_trace()
        b = self.run_once(spd_small).to_chrome_trace()
        assert a == b

    def test_gmres_ilu_attribution_covers_wallclock(self, spd_small):
        table = self.run_once(spd_small).attribution()
        assert table.coverage >= 0.99
        assert table.kernel_time > 0.0
        assert table.stall_time > 0.0

    def test_chrome_export_is_valid_and_monotonic(self, spd_small):
        data = json.loads(self.run_once(spd_small).to_chrome_trace())
        ts = [e["ts"] for e in data["traceEvents"]]
        assert ts and ts == sorted(ts)


class TestFaultsAndMetrics:
    def test_fault_instants_land_in_trace(self):
        inner = CudaExecutor.create(noisy=False)
        exec_ = FaultyExecutor.create(
            inner, FaultInjector(schedule={"run": [1]})
        )
        prof = ProfilerHook()
        prof.attach(exec_)
        try:
            exec_.run(KernelCost("k0", 1.0, 8.0))
            with pytest.raises(Exception):
                exec_.run(KernelCost("k1", 1.0, 8.0))
        finally:
            prof.detach(exec_)
        faults = prof.trace.find("fault_injected")
        assert len(faults) == 1
        assert faults[0].meta["site"] == "run"

    def test_logger_attachment_deduplicates_with_tracer(self):
        # Attached both as clock tracer and executor logger, the fault
        # must be recorded exactly once.
        inner = CudaExecutor.create(noisy=False)
        exec_ = FaultyExecutor.create(
            inner, FaultInjector(schedule={"run": [0]})
        )
        prof = ProfilerHook()
        prof.attach(exec_)
        exec_.add_logger(prof)
        try:
            with pytest.raises(Exception):
                exec_.run(KernelCost("k0", 1.0, 8.0))
        finally:
            exec_.remove_logger(prof)
            prof.detach(exec_)
        assert len(prof.trace.find("fault_injected")) == 1

    def test_logger_only_attachment_still_sees_faults(self):
        inner = CudaExecutor.create(noisy=False)
        exec_ = FaultyExecutor.create(
            inner, FaultInjector(schedule={"run": [0]})
        )
        prof = ProfilerHook()
        exec_.add_logger(prof)
        try:
            with pytest.raises(Exception):
                exec_.run(KernelCost("k0", 1.0, 8.0))
        finally:
            exec_.remove_logger(prof)
        assert len(prof.trace.find("fault_injected")) == 1

    def test_profiler_feeds_metrics(self, ref, spd_small):
        metrics = MetricsRegistry()
        prof, solver = solve_profiled(ref, spd_small, metrics=metrics)
        assert metrics.counter("kernel_launches").value > 0
        # The initial residual check also emits an iteration mark.
        assert (
            metrics.counter("iterations").value == solver.num_iterations + 1
        )

    def test_metrics_logger_counts_solver_events(self, ref, spd_small):
        metrics = MetricsRegistry()
        mtx = Csr.from_scipy(ref, spd_small)
        b = Dense(ref, np.ones((mtx.size.rows, 1)))
        x = Dense.zeros(ref, (mtx.size.rows, 1), np.float64)
        solver = Cg(
            ref, criteria=Iteration(200) | ResidualNorm(1e-8)
        ).generate(mtx)
        solver.add_logger(MetricsLogger(metrics))
        solver.apply(b, x)
        assert metrics.counter("solves_converged").value == 1
        # iteration_complete fires once per residual check, including the
        # initial iteration-0 check before the loop.
        assert (
            metrics.counter("iterations").value == solver.num_iterations + 1
        )
        hist = metrics.histogram("iterations_per_solve")
        assert hist.count == 1
        snapshot = metrics.to_dict()
        assert snapshot["counters"]["solves_converged"] == 1
        assert snapshot["histograms"]["iterations_per_solve"] == {
            "count": 1, "total": hist.total, "min": hist.min,
            "max": hist.max, "mean": hist.mean,
        }
        assert hist.mean == solver.num_iterations


class TestTrackNaming:
    def test_tracks_named_by_spec_with_ordinals(self):
        a = ReferenceExecutor.create(noisy=False)
        b = ReferenceExecutor.create(noisy=False)
        prof = ProfilerHook()
        prof.attach(a)
        prof.attach(b)
        a.run(KernelCost("k", 1.0, 8.0))
        b.run(KernelCost("k", 1.0, 8.0))
        prof.detach(a)
        prof.detach(b)
        assert prof.trace.tracks == [
            a.spec.name, f"{b.spec.name} #2",
        ]
