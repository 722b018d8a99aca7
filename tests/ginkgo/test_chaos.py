"""Chaos suite: seeded fault schedules across scalar, batch, distributed.

Every scenario runs a *deterministic* fault schedule (exact call indices,
seeded injector) and asserts the recovery contract from DESIGN.md:
recovered solves are bit-identical to fault-free ones where the contract
promises it, and truthfully degraded (``timed_out``/``partial``/
quarantine flags) where it does not.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro as pg
from repro.core import (
    CircuitBreaker,
    FallbackChain,
    RetryPolicy,
    batch_api,
    resilient_batch_solve,
    resilient_solve,
)
from repro.core.io import matrix as make_matrix
from repro.core.solver_api import _unwrap
from repro.ginkgo.distributed import (
    Communicator,
    DistributedCg,
    DistributedGmres,
    Matrix,
    Partition,
    Vector,
)
from repro.ginkgo.exceptions import (
    CommunicationError,
    GinkgoError,
    RankFailure,
    ResilienceExhausted,
)
from repro.ginkgo.executor import OmpExecutor, ReferenceExecutor
from repro.ginkgo.fault import FaultInjector, FaultyExecutor
from repro.ginkgo.log import ConvergenceLogger
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.stop import Deadline, Iteration, ResidualNorm


def spd_matrix(rng, n=120, density=0.05):
    mat = sp.random(n, n, density=density, random_state=rng, format="csr")
    mat = mat + mat.T
    shift = np.abs(mat).sum(axis=1).max() + 1.0
    return sp.csr_matrix(mat + sp.eye(n) * shift)


def crit(iters=300, tol=1e-10):
    return Iteration(iters) | ResidualNorm(tol, baseline="rhs_norm")


def faulty_omp(num_threads=4, **injector_kwargs):
    injector = FaultInjector(**injector_kwargs)
    exec_ = FaultyExecutor.create(
        OmpExecutor.create(num_threads=num_threads, noisy=False), injector
    )
    return exec_, injector


def dist_solve(exec_, mat, b, factory_cls, num_ranks=4, **params):
    """One distributed solve; returns (solver, history, solution)."""
    part = Partition.build_uniform(mat.shape[0], num_ranks)
    dist = Matrix(exec_, part, mat)
    db = Vector(exec_, part, b, comm=dist.comm)
    dx = Vector.zeros(exec_, part, comm=dist.comm)
    solver = factory_cls(exec_, criteria=crit(), **params).generate(dist)
    logger = ConvergenceLogger()
    solver.add_logger(logger)
    solver.apply(db, dx)
    return solver, list(logger.residual_norms), dx.to_numpy()


DIST_CASES = [
    (DistributedCg, {}),
    (DistributedGmres, {"krylov_dim": 20}),
]
DIST_IDS = ["cg", "gmres"]


# ----------------------------------------------------------------------
# Shrink / repartition primitives
# ----------------------------------------------------------------------
class TestShrink:
    def test_partition_shrink_merges_into_predecessor(self):
        part = Partition(10, [(0, 3), (3, 6), (6, 10)])
        shrunk = part.shrink(1)
        assert shrunk.num_ranks == 2
        assert list(shrunk) == [(0, 6), (6, 10)]
        assert shrunk.global_size == 10

    def test_partition_shrink_rank_zero_merges_into_successor(self):
        part = Partition(10, [(0, 3), (3, 6), (6, 10)])
        shrunk = part.shrink(0)
        assert list(shrunk) == [(0, 6), (6, 10)]

    def test_partition_shrink_validates(self):
        part = Partition.build_uniform(10, 2)
        with pytest.raises(IndexError):
            part.shrink(2)
        single = part.shrink(0)
        with pytest.raises(GinkgoError):
            single.shrink(0)

    def test_communicator_shrink_counts(self, ref):
        comm = Communicator(ref, num_ranks=4)
        assert comm.shrink(2) == 3
        assert comm.num_ranks == 3
        assert comm.num_shrinks == 1
        with pytest.raises(GinkgoError):
            one = Communicator(ref, num_ranks=1)
            one.shrink(0)

    def test_matrix_repartition_preserves_operator_bitwise(self, omp, rng):
        mat = spd_matrix(rng, n=60)
        part = Partition.build_uniform(60, 4)
        dist = Matrix(omp, part, mat)
        v = rng.standard_normal(60)
        x = Vector(omp, part, v, comm=dist.comm)
        y = Vector.zeros(omp, part, comm=dist.comm)
        dist.apply(x, y)
        before = y.to_numpy().copy()

        shrunk = part.shrink(1)
        dist.comm.shrink(1)
        dist.repartition(shrunk, lost_rows=part.range_of(1))
        x2 = Vector(omp, shrunk, v, comm=dist.comm)
        y2 = Vector.zeros(omp, shrunk, comm=dist.comm)
        dist.apply(x2, y2)
        assert y2.to_numpy().tobytes() == before.tobytes()

    def test_vector_repartition_rejects_wrong_size(self, ref, rng):
        part = Partition.build_uniform(10, 2)
        vec = Vector(ref, part, rng.standard_normal(10))
        with pytest.raises(Exception):
            vec.repartition(Partition.build_uniform(12, 2))


# ----------------------------------------------------------------------
# Distributed recovery: the bit-identity contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factory_cls,params", DIST_CASES, ids=DIST_IDS)
class TestDistributedRecovery:
    def fault_free(self, rng, factory_cls, params):
        mat = spd_matrix(rng)
        b = np.random.default_rng(5).standard_normal(mat.shape[0])
        ex = OmpExecutor.create(num_threads=4, noisy=False)
        solver, hist, x = dist_solve(ex, mat, b, factory_cls, **params)
        assert solver.converged
        return mat, b, hist, x

    def test_rank_failure_recovers_bit_identical(
        self, rng, factory_cls, params
    ):
        mat, b, hist, x = self.fault_free(rng, factory_cls, params)
        ex, injector = faulty_omp(schedule={"rank": [(6, "failure")]})
        solver, fhist, fx = dist_solve(ex, mat, b, factory_cls, **params)
        assert solver.converged
        assert solver.num_recoveries == 1
        assert solver.comm.num_shrinks == 1
        assert solver.comm.num_ranks == 3
        assert [e["event"] for e in solver.recovery_events] == [
            "rank_recovered"
        ]
        assert len(injector.injected) == 1
        assert injector.injected[0].kind == "failure"
        assert np.asarray(fhist).tobytes() == np.asarray(hist).tobytes()
        assert fx.tobytes() == x.tobytes()

    def test_halo_drop_replays_bit_identical(self, rng, factory_cls, params):
        mat, b, hist, x = self.fault_free(rng, factory_cls, params)
        ex, injector = faulty_omp(schedule={"halo": [(5, "drop")]})
        solver, fhist, fx = dist_solve(ex, mat, b, factory_cls, **params)
        assert solver.converged
        assert solver.num_recoveries == 1
        assert solver.comm.num_shrinks == 0
        assert [e["event"] for e in solver.recovery_events] == [
            "replay_recovered"
        ]
        assert np.asarray(fhist).tobytes() == np.asarray(hist).tobytes()
        assert fx.tobytes() == x.tobytes()

    def test_allreduce_corruption_detected_and_replayed(
        self, rng, factory_cls, params
    ):
        mat, b, hist, x = self.fault_free(rng, factory_cls, params)
        ex, injector = faulty_omp(
            schedule={"allreduce": [(4, "corruption")]}
        )
        solver, fhist, fx = dist_solve(ex, mat, b, factory_cls, **params)
        assert solver.converged
        assert solver.num_recoveries == 1
        assert np.asarray(fhist).tobytes() == np.asarray(hist).tobytes()
        assert fx.tobytes() == x.tobytes()

    def test_delay_faults_converge_and_trace_fault_time(
        self, rng, factory_cls, params
    ):
        mat, b, hist, x = self.fault_free(rng, factory_cls, params)
        ex, injector = faulty_omp(
            schedule={
                "halo": [(3, "late"), (7, "duplicate")],
                "allreduce": [(2, "straggler")],
            }
        )
        with pg.profile(ex) as prof:
            solver, fhist, fx = dist_solve(
                ex, mat, b, factory_cls, **params
            )
        assert solver.converged
        # Delays never change numerics, only the clock.
        assert solver.num_recoveries == 0
        assert np.asarray(fhist).tobytes() == np.asarray(hist).tobytes()
        fault_seconds = sum(
            span.duration
            for span in prof.trace.walk()
            if span.category == "fault"
        )
        assert fault_seconds > 0.0

    def test_recovery_budget_exhausts_truthfully(
        self, rng, factory_cls, params
    ):
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        ex, _ = faulty_omp(schedule={"halo": [(5, "drop")]})
        part = Partition.build_uniform(mat.shape[0], 4)
        dist = Matrix(ex, part, mat)
        db = Vector(ex, part, b, comm=dist.comm)
        dx = Vector.zeros(ex, part, comm=dist.comm)
        solver = DistributedCg(
            ex, criteria=crit(), max_recoveries=0
        ).generate(dist)
        with pytest.raises(CommunicationError):
            solver.apply(db, dx)

    def test_same_schedule_same_recovery_trail(
        self, rng, factory_cls, params
    ):
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        trails = []
        for _ in range(2):
            ex, _ = faulty_omp(schedule={"rank": [(6, "failure")]})
            solver, fhist, _ = dist_solve(ex, mat, b, factory_cls, **params)
            trails.append((solver.recovery_events, fhist))
        assert trails[0] == trails[1]


class TestPipelinedRecovery:
    """Non-blocking path: faults surface at wait time, recovery replays.

    The pipelined solvers relax bit-identity against *blocking* CG, but
    their fault-tolerance contract is unchanged: a recovered solve must
    be bit-identical to the same solver's own fault-free run.
    """

    def fault_free(self, rng, factory_cls, **params):
        mat = spd_matrix(rng)
        b = np.random.default_rng(5).standard_normal(mat.shape[0])
        ex = OmpExecutor.create(num_threads=4, noisy=False)
        solver, hist, x = dist_solve(ex, mat, b, factory_cls, **params)
        assert solver.converged
        return mat, b, hist, x

    @pytest.mark.parametrize(
        "schedule,expected_event",
        [
            ({"allreduce": [(4, "corruption")]}, "replay_recovered"),
            ({"halo": [(5, "drop")]}, "replay_recovered"),
            ({"rank": [(6, "failure")]}, "rank_recovered"),
        ],
        ids=["allreduce-corruption", "halo-drop", "rank-failure"],
    )
    def test_pipelined_cg_recovers_bit_identical(
        self, rng, schedule, expected_event
    ):
        from repro.ginkgo.distributed import DistributedPipelinedCg

        mat, b, hist, x = self.fault_free(rng, DistributedPipelinedCg)
        ex, injector = faulty_omp(schedule=schedule)
        solver, fhist, fx = dist_solve(ex, mat, b, DistributedPipelinedCg)
        assert solver.converged
        assert solver.num_recoveries == 1
        assert [e["event"] for e in solver.recovery_events] == [
            expected_event
        ]
        assert len(injector.injected) == 1
        assert np.asarray(fhist).tobytes() == np.asarray(hist).tobytes()
        assert fx.tobytes() == x.tobytes()

    def test_pipelined_cg_stragglers_only_cost_time(self, rng):
        from repro.ginkgo.distributed import DistributedPipelinedCg

        mat, b, hist, x = self.fault_free(rng, DistributedPipelinedCg)
        ex, injector = faulty_omp(
            schedule={
                "allreduce": [(3, "straggler")],
                "halo": [(4, "late")],
            }
        )
        with pg.profile(ex) as prof:
            solver, fhist, fx = dist_solve(
                ex, mat, b, DistributedPipelinedCg
            )
        assert solver.converged
        assert solver.num_recoveries == 0
        assert np.asarray(fhist).tobytes() == np.asarray(hist).tobytes()
        assert fx.tobytes() == x.tobytes()
        fault_seconds = sum(
            span.duration
            for span in prof.trace.walk()
            if span.category == "fault"
        )
        assert fault_seconds > 0.0

    def test_pipelined_budget_exhausts_truthfully(self, rng):
        from repro.ginkgo.distributed import DistributedPipelinedCg

        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        ex, _ = faulty_omp(schedule={"allreduce": [(4, "corruption")]})
        part = Partition.build_uniform(mat.shape[0], 4)
        dist = Matrix(ex, part, mat)
        db = Vector(ex, part, b, comm=dist.comm)
        dx = Vector.zeros(ex, part, comm=dist.comm)
        solver = DistributedPipelinedCg(
            ex, criteria=crit(), max_recoveries=0
        ).generate(dist)
        with pytest.raises(GinkgoError):
            solver.apply(db, dx)


class TestSequentialRanksContractRelaxed:
    def test_shrink_under_sequential_mode_still_converges(self, rng):
        # The documented carve-out: rank-sequential reductions relax the
        # reduction order after a shrink, so only convergence (not
        # bit-identity) is promised there.
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        ex, injector = faulty_omp(schedule={"rank": [(6, "failure")]})
        part = Partition.build_uniform(mat.shape[0], 4)
        dist = Matrix(ex, part, mat)
        db = Vector(ex, part, b, comm=dist.comm)
        dx = Vector.zeros(ex, part, comm=dist.comm)
        solver = DistributedCg(ex, criteria=crit()).generate(dist)
        with pg.distributed.sequential_ranks():
            solver.apply(db, dx)
        assert solver.converged
        assert solver.num_recoveries == 1
        res = b - mat @ dx.to_numpy().ravel()
        assert np.linalg.norm(res) / np.linalg.norm(b) < 1e-8


# ----------------------------------------------------------------------
# FaultyExecutor routing (satellite: batch/distributed sites through
# the wrapper)
# ----------------------------------------------------------------------
class TestFaultyExecutorRouting:
    @staticmethod
    def _run_site_per_kernel(setup):
        """Run ``setup(ex, injector)()`` over omp(4) and reference wrappers;
        check that every kernel it records passed the ``run`` fault site
        exactly once, in order."""
        kernels = []
        for inner in (
            OmpExecutor.create(num_threads=4, noisy=False),
            ReferenceExecutor.create(noisy=False),
        ):
            injector = FaultInjector()
            ex = FaultyExecutor.create(inner, injector)
            solve = setup(ex, injector)
            hits = []
            decide = injector.decide

            def counted(site, detail=""):
                if site == "run":
                    hits.append(detail)
                return decide(site, detail)

            injector.decide = counted
            inner.clock.enable_event_log()
            solve()
            # Same-executor copies record on the clock without a kernel
            # launch through ``run``; everything else is a kernel.
            recorded = [
                e.name for e in inner.clock.events if e.name != "device_memcpy"
            ]
            assert recorded
            assert hits == recorded
            kernels.append(recorded)
        assert kernels[0] == kernels[1]
        return kernels[0]

    def test_run_partitioned_delegates_to_thread_pool(self, rng):
        # Batch kernels: one run-site call per batched kernel, on a
        # many-threaded and a single-threaded executor alike.
        base = spd_matrix(rng, n=30)
        mats = [
            sp.csr_matrix(
                (base.data * (1 + 0.1 * k), base.indices, base.indptr),
                shape=base.shape,
            )
            for k in range(8)
        ]
        rhs = [rng.standard_normal(30) for _ in range(8)]

        def setup(ex, injector):
            with injector.paused():
                mtx = batch_api.matrices(ex, mats)
                b = batch_api.vectors(ex, rhs)
                x = batch_api.zeros_like(b)
                handle = batch_api.cg(ex, mtx, max_iters=200)

            def solve():
                mtx.apply(b, x)
                handle.apply(b, x)
                assert handle.all_converged

            return solve

        kernels = self._run_site_per_kernel(setup)
        assert kernels.count("spmv_batch_csr") > 1

    def test_run_partitioned_serial_fallback_without_pool(self, rng):
        # Rank-wise kernels: one run-site call per fused rank region.
        mat = spd_matrix(rng, n=60)
        b = rng.standard_normal(60)

        def setup(ex, injector):
            with injector.paused():
                part = Partition.build_uniform(60, 4)
                dist = Matrix(ex, part, mat)
                db = Vector(ex, part, b, comm=dist.comm)
                dx = Vector.zeros(ex, part, comm=dist.comm)
                solver = DistributedCg(ex, criteria=crit()).generate(dist)

            def solve():
                solver.apply(db, dx)
                assert solver.converged

            return solve

        kernels = self._run_site_per_kernel(setup)
        assert "halo_gather" in kernels

    def test_distributed_solve_on_wrapped_reference(self, rng):
        mat = spd_matrix(rng, n=50)
        b = rng.standard_normal(50)
        injector = FaultInjector()
        ex = FaultyExecutor.create(
            ReferenceExecutor.create(noisy=False), injector
        )
        solver, hist, x = dist_solve(ex, mat, b, DistributedCg, num_ranks=3)
        assert solver.converged

    def test_batch_site_fires_through_wrapper(self, rng):
        ex, injector = faulty_omp(schedule={"batch": [(0, "corruption")]})
        base = spd_matrix(rng, n=30)
        mats = [
            sp.csr_matrix(
                (base.data * (1 + 0.1 * k), base.indices, base.indptr),
                shape=base.shape,
            )
            for k in range(4)
        ]
        mtx = batch_api.matrices(ex, mats)
        b = batch_api.vectors(
            ex, [rng.standard_normal(30) for _ in range(4)]
        )
        handle = batch_api.cg(ex, mtx, max_iters=200)
        handle.apply(b, batch_api.zeros_like(b))
        assert [f.site for f in injector.injected] == ["batch"]
        # Exactly one system hit breakdown and was compacted out.
        assert int(handle.status.breakdown.sum()) == 1
        clean = ~handle.status.breakdown
        assert bool(handle.status.converged[clean].all())


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadline:
    def test_validates_non_finite(self):
        with pytest.raises(GinkgoError):
            Deadline(float("inf"))

    def test_stops_solver_and_flags_timed_out(self, ref, rng):
        mat = spd_matrix(rng, n=60)
        b = rng.standard_normal((60, 1))
        mtx = Csr.from_scipy(ref, mat)
        from repro.ginkgo.solver import Cg

        solver = Cg(
            ref, criteria=crit() | Deadline(ref.clock.now + 1e-12)
        ).generate(mtx)
        x = Dense.zeros(ref, (60, 1), np.float64)
        solver.apply(Dense.create(ref, b), x)
        assert solver.timed_out
        assert not solver.converged

    def test_resilient_solve_deadline_partial_result(self, rng):
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        dev = pg.device("reference", fresh=True)
        mtx = make_matrix(dev, mat)
        report, x = resilient_solve(
            dev,
            mtx,
            Dense.create(dev, b),
            solver="cg",
            fallback=FallbackChain(dev),
            deadline=1e-9,
        )
        assert report.timed_out and report.partial
        assert not report.converged
        assert report.count("deadline_exceeded") == 1

    def test_resilient_solve_generous_deadline_converges(self, rng):
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        dev = pg.device("reference", fresh=True)
        mtx = make_matrix(dev, mat)
        report, x = resilient_solve(
            dev,
            mtx,
            Dense.create(dev, b),
            solver="cg",
            fallback=FallbackChain(dev),
            deadline=1e9,
        )
        assert report.converged
        assert not report.timed_out and not report.partial
        assert report.count("deadline_exceeded") == 0

    def test_deadline_spans_retries(self, rng):
        # Backoff delays consume the budget: with a deadline shorter than
        # the first backoff, a faulting solve must return partial instead
        # of burning all retries.
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        injector = FaultInjector(
            schedule={"run": [(k, "transient") for k in range(0, 2000)]}
        )
        dev = FaultyExecutor.create(
            ReferenceExecutor.create(noisy=False), injector
        )
        with injector.paused():
            mtx = make_matrix(dev, mat)
            rhs = Dense.create(dev, b)
        report, x = resilient_solve(
            dev,
            mtx,
            rhs,
            solver="cg",
            fallback=FallbackChain(dev),
            retry=RetryPolicy(max_retries=50, base_delay=1.0),
            deadline=2.5,
        )
        assert report.timed_out and report.partial
        assert report.attempts < 50


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold(self, ref):
        brk = CircuitBreaker(failure_threshold=2, cooldown=10.0)
        assert not brk.is_open(ref)
        assert not brk.record_failure(ref)
        assert brk.record_failure(ref)
        assert brk.is_open(ref)
        assert brk.state(ref.name) == "open"

    def test_half_open_probe_after_cooldown(self, ref):
        brk = CircuitBreaker(failure_threshold=2, cooldown=0.5)
        brk.record_failure(ref)
        brk.record_failure(ref)
        assert brk.is_open(ref)
        ref.clock.advance(1.0, category="stall")
        # Cooldown expired: one probe admitted...
        assert not brk.is_open(ref)
        # ...and a single failure re-opens immediately.
        assert brk.record_failure(ref)
        assert brk.is_open(ref)

    def test_success_closes(self, ref):
        brk = CircuitBreaker(failure_threshold=1, cooldown=100.0)
        brk.record_failure(ref)
        assert brk.is_open(ref)
        brk.record_success(ref)
        assert not brk.is_open(ref)
        assert brk.state(ref.name) == "closed"

    def test_validation(self):
        with pytest.raises(GinkgoError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(GinkgoError):
            CircuitBreaker(cooldown=-1.0)

    def test_resilient_solve_opens_and_skips(self, rng):
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        injector = FaultInjector(
            schedule={"run": [(k, "transient") for k in range(5000)]}
        )
        dev = FaultyExecutor.create(
            ReferenceExecutor.create(noisy=False), injector
        )
        with injector.paused():
            mtx = make_matrix(dev, mat)
            rhs = Dense.create(dev, b)
        brk = CircuitBreaker(failure_threshold=2, cooldown=1e6)
        with pytest.raises(ResilienceExhausted):
            resilient_solve(
                dev,
                mtx,
                rhs,
                solver="cg",
                fallback=FallbackChain(dev, breaker=brk),
                retry=RetryPolicy(max_retries=5),
            )
        assert brk.state(dev.name) == "open"
        # A second solve through the same breaker is refused up front.
        with pytest.raises(ResilienceExhausted) as info:
            resilient_solve(
                dev,
                mtx,
                rhs,
                solver="cg",
                fallback=FallbackChain(dev, breaker=brk),
                retry=RetryPolicy(max_retries=5),
            )
        assert info.value.attempts == 0


# ----------------------------------------------------------------------
# Workspace-clearing retries (satellite 2)
# ----------------------------------------------------------------------
class TestWorkspaceClearedRetry:
    def test_retry_clears_poisoned_workspace(self, rng):
        # Injected copy-corruption NaN-poisons a buffer mid-solve; the
        # retry must clear the solver's pooled workspace so the poison
        # cannot survive into the rerun.
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])

        dev = pg.device("reference", fresh=True)
        mtx0 = make_matrix(dev, mat)
        clean, _ = resilient_solve(
            dev,
            mtx0,
            Dense.create(dev, b),
            solver="cg",
            fallback=FallbackChain(dev),
        )
        assert clean.converged

        injector = FaultInjector(
            corruption_rate=1.0, max_faults=1, corruption_mode="nan"
        )
        fdev = FaultyExecutor.create(
            ReferenceExecutor.create(noisy=False), injector
        )
        with injector.paused():
            mtx = make_matrix(fdev, mat)
            rhs = Dense.create(fdev, b)
        report, x = resilient_solve(
            fdev,
            mtx,
            rhs,
            solver="cg",
            fallback=FallbackChain(fdev),
        )
        assert report.converged
        assert report.count("workspace_cleared") == report.retries
        assert report.retries >= 1
        assert np.all(np.isfinite(_unwrap(x)._data))
        assert (
            report.final_residual_norm == clean.final_residual_norm
        )

    def test_handle_reused_across_retries(self, rng):
        # The workspace-clearing contract implies one solver handle per
        # executor: allocations must not grow per retry.
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        injector = FaultInjector(
            schedule={"run": [(10, "transient"), (30, "transient")]}
        )
        fdev = FaultyExecutor.create(
            ReferenceExecutor.create(noisy=False), injector
        )
        with injector.paused():
            mtx = make_matrix(fdev, mat)
            rhs = Dense.create(fdev, b)
        report, _ = resilient_solve(
            fdev, mtx, rhs, solver="cg", fallback=FallbackChain(fdev)
        )
        assert report.converged
        assert report.retries == 2
        assert report.count("workspace_cleared") == 2


# ----------------------------------------------------------------------
# Batch quarantine and per-system recovery
# ----------------------------------------------------------------------
class TestBatchChaos:
    def batch_system(self, exec_, rng, K=5, n=40):
        base = spd_matrix(rng, n=n)
        mats = [
            sp.csr_matrix(
                (base.data * (1 + 0.05 * k), base.indices, base.indptr),
                shape=base.shape,
            )
            for k in range(K)
        ]
        mtx = batch_api.matrices(exec_, mats)
        b = batch_api.vectors(
            exec_, [rng.standard_normal(n) for _ in range(K)]
        )
        return mats, mtx, b

    def test_corruption_quarantines_and_recovers(self, rng):
        ex, injector = faulty_omp(schedule={"batch": [(2, "corruption")]})
        mats, mtx, b = self.batch_system(ex, rng)
        report, x = resilient_batch_solve(ex, mtx, b, solver="cg")
        assert len(report.quarantined) == 1
        assert report.recovered == report.quarantined
        assert report.all_converged
        assert report.count("system_quarantined") == 1
        assert report.count("system_recovered") == 1
        # Every returned solution actually solves its system.
        for k in range(len(mats)):
            sol = x.item(k).to_numpy().ravel()
            rhs = b._data[k].ravel()
            res = np.linalg.norm(rhs - mats[k] @ sol)
            assert res / np.linalg.norm(rhs) < 1e-6

    def test_fault_free_batch_reports_clean(self, rng):
        ex = OmpExecutor.create(num_threads=4, noisy=False)
        mats, mtx, b = self.batch_system(ex, rng)
        report, x = resilient_batch_solve(ex, mtx, b, solver="cg")
        assert report.quarantined == []
        assert report.recovered == []
        assert report.all_converged
        assert report.attempts == 1

    def test_whole_batch_transient_fault_retries(self, rng):
        ex, injector = faulty_omp(schedule={"run": [(8, "transient")]})
        with injector.paused():
            mats, mtx, b = self.batch_system(ex, rng)
        report, x = resilient_batch_solve(ex, mtx, b, solver="cg")
        assert report.all_converged
        assert report.count("retry") == 1

    def test_metrics_fed(self, rng):
        from repro.ginkgo.log import MetricsRegistry

        ex, injector = faulty_omp(schedule={"batch": [(2, "corruption")]})
        mats, mtx, b = self.batch_system(ex, rng)
        metrics = MetricsRegistry()
        report, _ = resilient_batch_solve(
            ex, mtx, b, solver="cg", metrics=metrics
        )
        assert metrics.counter("batch_solves").value == 1
        assert metrics.counter("batch_systems").value == len(mats)
        assert metrics.counter("batch_quarantined").value == 1
        assert metrics.counter("batch_recovered").value == 1


# ----------------------------------------------------------------------
# Checkpoint restart with preconditioners; Divergence reporting
# (satellite 3)
# ----------------------------------------------------------------------
class TestCheckpointedPreconditionedRestart:
    def run_once(self, mat, b, precond, injector):
        fdev = FaultyExecutor.create(
            ReferenceExecutor.create(noisy=False), injector
        )
        with injector.paused():
            mtx = make_matrix(fdev, mat)
            rhs = Dense.create(fdev, b)
        return resilient_solve(
            fdev,
            mtx,
            rhs,
            solver="cg",
            preconditioner=precond,
            reduction_factor=1e-10,
            fallback=FallbackChain(fdev),
            checkpoint_every=2,
        )

    @pytest.mark.parametrize("precond", ["jacobi", "ilu"])
    def test_restart_resumes_with_preconditioner(self, rng, precond):
        mat = spd_matrix(rng, n=150, density=0.03)
        b = rng.standard_normal(mat.shape[0])
        # Probe the fault-free run-site call count so the scheduled fault
        # deterministically lands in the solve's final iterations, after
        # at least one checkpoint was captured.
        probe = FaultInjector()
        self.run_once(mat, b, precond, probe)
        total_runs = probe._calls["run"]
        assert total_runs > 4
        injector = FaultInjector(
            schedule={"run": [(total_runs - 3, "transient")]}
        )
        report, x = self.run_once(mat, b, precond, injector)
        assert report.converged
        assert report.retries == 1
        assert report.count("checkpoint_restored") == 1
        restarts = [
            p["restart_iteration"]
            for name, p in report.events
            if name == "retry"
        ]
        assert restarts and restarts[0] > 0
        res = b - mat @ _unwrap(x)._data.ravel()
        assert np.linalg.norm(res) / np.linalg.norm(b) < 1e-8


class TestDivergenceReporting:
    def test_divergence_reports_final_residual_on_handle(self, ref, rng):
        from repro.ginkgo.solver import Cg
        from repro.ginkgo.stop import Divergence

        # An indefinite system makes CG's residual grow immediately.
        n = 40
        diag = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        mat = sp.diags(diag).tocsr()
        mtx = Csr.from_scipy(ref, mat)
        b = rng.standard_normal((n, 1))
        solver = Cg(
            ref, criteria=Iteration(100) | Divergence(limit=1.001)
        ).generate(mtx)
        x = Dense.zeros(ref, (n, 1), np.float64)
        solver.apply(Dense.create(ref, b), x)
        assert not solver.converged
        assert np.isfinite(solver.final_residual_norm)
        logger = ConvergenceLogger()
        solver.add_logger(logger)
        solver.apply(Dense.create(ref, b), Dense.zeros(ref, (n, 1), np.float64))
        assert solver.final_residual_norm == logger.residual_norms[-1]
