"""Batched formats and solvers: bit-identity, masked stopping, threading."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from repro import bindings
from repro.ginkgo.batch import SOLVERS as BATCH
from repro.ginkgo.batch import (
    BatchCg,
    BatchCsr,
    BatchDense,
    BatchGmres,
    BatchJacobi,
    BatchLowerTrs,
    BatchUpperTrs,
)
from repro.ginkgo.distributed import SOLVERS as DISTRIBUTED
from repro.ginkgo.exceptions import BadDimension, GinkgoError, SolverBreakdown
from repro.ginkgo.log import ConvergenceLogger, ProfilerHook
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.preconditioner import Jacobi
from repro.ginkgo.solver import METHODS, Cg, Gmres
from repro.ginkgo.solver import SOLVERS as SCALAR
from repro.ginkgo.solver.gmres import GmresRecurrence
from repro.ginkgo.stop import CriterionContext, Time
from repro.ginkgo.stop import Deadline, Divergence, Iteration, ResidualNorm
from repro.ginkgo.executor import OmpExecutor, ReferenceExecutor
from tests.ginkgo.test_distributed import distributed_history


def make_batch(rng, n=30, K=6, spd=True):
    """K tridiagonal systems sharing a pattern, varied diagonals."""
    lower = -1.0 * np.ones(n - 1)
    upper = (-1.0 if spd else -0.6) * np.ones(n - 1)
    base = sp.diags([lower, 4.0 * np.ones(n), upper], [-1, 0, 1]).tocsr()
    mats = []
    for k in range(K):
        m = base.copy()
        m.setdiag(4.0 + (0.2 + 0.8 * k / K) * rng.random(n))
        m.sort_indices()
        mats.append(m.tocsr())
    bs = [rng.standard_normal((n, 1)) for _ in range(K)]
    return mats, bs


def crit():
    return Iteration(300) | ResidualNorm(1e-9, baseline="rhs_norm")


#: Criteria whose last leaf stops systems of every batch below.  Residuals
#: here only fall and the instances' clocks differ, so Divergence and Time
#: can stop a system in both only at iteration 0.
CRITERIA = {
    "": crit(),
    "divergence": crit() | Divergence(0.5),
    "time": crit() | Time(1e-12),
    "initial_resnorm": Iteration(15) | ResidualNorm(1e-9, "initial_resnorm"),
    "absolute": Iteration(300) | ResidualNorm(1e-9, "absolute"),
}


def scalar_solves(mats, bs, solver_cls, precond=False, criteria=None, **params):
    """Each system solved alone on a fresh executor; returns records."""
    out = []
    for mat, rhs in zip(mats, bs):
        ex = ReferenceExecutor.create(noisy=False)
        solver = solver_cls(
            ex,
            criteria=criteria or crit(),
            preconditioner=Jacobi(ex, max_block_size=1) if precond else None,
            **params,
        ).generate(Csr.from_scipy(ex, mat))
        logger = ConvergenceLogger()
        solver.add_logger(logger)
        x = Dense.create(ex, np.zeros_like(rhs))
        solver.apply(Dense.create(ex, rhs), x)
        out.append(
            (
                list(logger.residual_norms),
                x.to_numpy().copy(),
                logger.num_iterations,
                logger.converged,
                solver.timed_out,
            )
        )
    return out


def batch_solve(
    exec_, mats, bs, batch_cls, precond=False, criteria=None, **params
):
    A = BatchCsr.from_scipy_list(exec_, mats)
    b = BatchDense.from_dense_list(exec_, bs)
    x = BatchDense.zeros(exec_, len(mats), (mats[0].shape[0], 1), bs[0].dtype)
    solver = batch_cls(
        exec_,
        criteria=criteria or crit(),
        preconditioner=BatchJacobi() if precond else None,
        **params,
    ).generate(A)
    loggers = [ConvergenceLogger() for _ in mats]
    for k, logger in enumerate(loggers):
        solver.add_system_logger(k, logger)
    status = solver.apply(b, x)
    return status, x, loggers


class TestFormats:
    def test_batch_dense_stacks_and_views(self, ref, rng):
        items = [rng.standard_normal((4, 2)) for _ in range(3)]
        batch = BatchDense.from_dense_list(ref, items)
        assert batch.num_systems == 3
        assert batch.shape == (3, 4, 2)
        assert np.array_equal(batch.item(1).to_numpy(), items[1])
        # item() is a view into the stacked buffer
        batch.item(1).fill(0.0)
        assert np.all(batch.data[1] == 0.0)

    def test_batch_dense_shape_mismatch_raises(self, ref, rng):
        with pytest.raises(BadDimension):
            BatchDense.from_dense_list(
                ref, [np.zeros((3, 1)), np.zeros((4, 1))]
            )

    def test_batch_csr_requires_shared_pattern(self, ref, rng):
        mats, _ = make_batch(rng, n=10, K=2)
        mats[1] = (mats[1] + sp.eye(10, k=2)).tocsr()
        with pytest.raises(GinkgoError, match="sparsity pattern"):
            BatchCsr.from_scipy_list(ref, mats)

    def test_batch_csr_item_and_diagonal(self, ref, rng):
        mats, _ = make_batch(rng, n=12, K=4)
        batch = BatchCsr.from_scipy_list(ref, mats)
        assert batch.num_systems == 4
        assert np.allclose(batch.item(2)._scipy_view().toarray(), mats[2].toarray())
        diag = batch.diagonal()
        assert diag.shape == (4, 12)
        for k in range(4):
            assert np.array_equal(diag[k], mats[k].diagonal())

    def test_batch_jacobi_inverts_each_diagonal(self, ref, rng):
        mats, _ = make_batch(rng, n=12, K=4)
        op = BatchJacobi().generate(BatchCsr.from_scipy_list(ref, mats))
        assert op.inverse_diagonal.shape == (4, 12)
        for k in range(4):
            assert np.array_equal(
                op.inverse_diagonal[k], 1.0 / mats[k].diagonal()
            )

    def test_batch_spmv_matches_per_system(self, ref, rng):
        mats, bs = make_batch(rng, n=20, K=5)
        batch = BatchCsr.from_scipy_list(ref, mats)
        b = BatchDense.from_dense_list(ref, bs)
        x = BatchDense.zeros(ref, 5, (20, 1), np.float64)
        batch.apply(b, x)
        for k in range(5):
            want = mats[k] @ bs[k]
            assert x.data[k].tobytes() == want.tobytes()


class TestBitIdentity:
    """Every instance of a method reproduces the scalar solve exactly.

    For every method of the method table with a batched instance, one
    seeded batch goes through each instance of its recurrence — K
    sequential scalar solves, the lockstep batch, and (where declared)
    system 0 distributed over 1 and 4 ranks — and all residual histories
    and solutions must agree bit for bit.
    """

    @pytest.mark.parametrize(
        "name,value_type,criteria",
        [
            pytest.param(name, vt, criteria, id="-".join(filter(None, (
                name, "float32" if vt is np.float32 else "", key
            ))))
            for key, criteria in CRITERIA.items()
            for vt in (np.float64, np.float32)
            for name, rec in METHODS.items()
            if "batch" in rec.instances
        ],
    )
    @pytest.mark.parametrize("precond", [False, True])
    def test_histories_and_solutions_bitwise_equal(
        self, ref, rng, name, value_type, criteria, precond
    ):
        mats, bs = make_batch(rng, spd=name in ("cg", "fcg"))
        mats = [mat.astype(value_type) for mat in mats]
        bs = [rhs.astype(value_type) for rhs in bs]
        scalar = scalar_solves(mats, bs, SCALAR[name], precond, criteria)
        status, x, loggers = batch_solve(
            ref, mats, bs, BATCH[name], precond, criteria
        )
        for k, (hist, sol, iters, conv, timed_out) in enumerate(scalar):
            bhist = list(loggers[k].residual_norms)
            assert len(hist) == len(bhist)
            assert np.array(hist).tobytes() == np.array(bhist).tobytes()
            assert x.data[k].tobytes() == sol.tobytes()
            assert status.num_iterations[k] == iters
            assert bool(status.converged[k]) == bool(conv)
            assert bool(status.timed_out[k]) == timed_out
            assert status.residual_norms[k] == bhist
        if name in DISTRIBUTED and not precond and value_type is np.float64:
            hist, sol = scalar[0][:2]
            for ranks in (1, 4):
                _, dhist, dsol, _ = distributed_history(
                    mats[0], bs[0], DISTRIBUTED[name], ranks, criteria=criteria
                )
                assert np.array(dhist).tobytes() == np.array(hist).tobytes(), ranks
                assert dsol.tobytes() == sol.tobytes(), ranks

    def test_instances_share_one_recurrence_object(self):
        instances = {
            "scalar": SCALAR, "batch": BATCH, "distributed": DISTRIBUTED
        }
        for name, recurrence in METHODS.items():
            stem = recurrence.__name__.removesuffix("Recurrence")
            assert stem.lower() == name.replace("_", "")
            for instance, factories in instances.items():
                declared = instance in recurrence.instances
                assert (name in factories) == declared, (name, instance)
                if declared:
                    solver_class = factories[name].solver_class
                    assert solver_class.recurrence is recurrence
        assert BatchGmres.solver_class.recurrence is GmresRecurrence

    def test_gmres_restart_waves_stay_identical(self, ref, rng):
        # Three batches, each bitwise equal to its sequential solves:
        # * krylov_dim smaller than the iteration count forces systems
        #   through several restart cycles at staggered exits;
        # * systems 1 and 4 become diagonal with b a multiple of e_0, so
        #   h_next == 0 at j = 0: under an iteration-only criterion every
        #   cycle closes on an invariant subspace after one iteration,
        #   without a stop verdict, and restarts on a residual that
        #   rounding keeps nonzero — alone, while the others' cycle goes
        #   on;
        # * the same with krylov_dim larger than the system size.
        cases = (
            ("staggered", 5, False),
            ("invariant", 5, True),
            ("invariant, krylov_dim > n", 40, True),
        )
        for case, krylov_dim, invariant in cases:
            mats, bs = make_batch(rng, spd=False)
            if invariant:
                for k, diagonal, scale in ((1, 4.9, 0.7), (4, 13.0, 1.9)):
                    mats[k] = mats[k].copy()
                    mats[k].data[:] = 0.0
                    mats[k].setdiag(diagonal + np.arange(30))
                    bs[k] = np.zeros_like(bs[k])
                    bs[k][0] = scale
            criteria = Iteration(12) if invariant else crit()
            scalar = scalar_solves(
                mats, bs, Gmres, criteria=criteria, krylov_dim=krylov_dim
            )
            status, x, loggers = batch_solve(
                ref, mats, bs, BatchGmres, criteria=criteria,
                krylov_dim=krylov_dim,
            )
            for k, (hist, sol, iters, conv, _) in enumerate(scalar):
                assert np.array(hist).tobytes() == np.array(
                    loggers[k].residual_norms
                ).tobytes(), (case, k)
                assert x.data[k].tobytes() == sol.tobytes(), (case, k)
                assert status.num_iterations[k] == iters, (case, k)
                assert bool(status.converged[k]) == bool(conv), (case, k)


class TestMaskedStopping:
    def test_mixed_convergence_early_system_freezes(self, ref, rng):
        # System 3 is near-trivially conditioned: it converges within a
        # couple of iterations while the others keep iterating.
        mats, bs = make_batch(rng, K=6)
        # Zero the off-diagonals in place (keeping the stored pattern) so
        # system 3 is diagonal: CG solves it in one iteration.
        mats[3] = mats[3].copy()
        mats[3].data[:] = 0.0
        mats[3].setdiag(4.0)
        mats[3].sort_indices()
        scalar = scalar_solves(mats, bs, Cg)
        status, x, loggers = batch_solve(ref, mats, bs, BatchCg)
        assert status.num_iterations[3] <= 2
        assert status.num_iterations[3] < status.num_iterations.max()
        # The early system's record is frozen at its stop iteration and
        # every later system still matches its solo solve exactly.
        for k, (hist, sol, iters, conv, _) in enumerate(scalar):
            assert status.num_iterations[k] == iters
            assert len(status.residual_norms[k]) == len(hist)
            assert np.array(hist).tobytes() == np.array(
                status.residual_norms[k]
            ).tobytes()
            assert x.data[k].tobytes() == sol.tobytes()
        assert status.all_converged

    def test_divergent_system_breaks_down_in_isolation(self, ref, rng):
        mats, bs = make_batch(rng, K=8)
        mats[7] = mats[7].copy()
        mats[7].data[0] = np.nan  # first SpMV poisons system 7 only
        status, x, loggers = batch_solve(ref, mats, bs, BatchCg)
        assert status.breakdown[7] and not status.converged[7]
        assert not status.residual_norms[7][-1:] or np.isfinite(
            status.residual_norms[7]
        ).all()  # breakdown iteration is never appended to the history
        healthy = scalar_solves(mats[:7], bs[:7], Cg)
        for k, (hist, sol, iters, conv, _) in enumerate(healthy):
            assert bool(status.converged[k]) and conv
            assert status.num_iterations[k] == iters
            assert x.data[k].tobytes() == sol.tobytes()
        assert status.num_converged == 7

    def test_strict_breakdown_raises_after_batch_completes(self, ref, rng):
        mats, bs = make_batch(rng, K=4)
        mats[2] = mats[2].copy()
        mats[2].data[0] = np.nan
        A = BatchCsr.from_scipy_list(ref, mats)
        b = BatchDense.from_dense_list(ref, bs)
        x = BatchDense.zeros(ref, 4, (30, 1), np.float64)
        solver = BatchCg(ref, criteria=crit(), strict_breakdown=True).generate(A)
        with pytest.raises(SolverBreakdown):
            solver.apply(b, x)
        # The healthy systems still ran to convergence before the raise.
        status = solver.status
        assert status.breakdown[2]
        assert status.num_converged == 3
        for k in (0, 1, 3):
            resid = mats[k] @ x.data[k] - bs[k]
            assert np.linalg.norm(resid) < 1e-8

    def test_already_converged_system_keeps_initial_guess(self, ref, rng):
        mats, bs = make_batch(rng, K=3)
        # System 1 starts at the exact solution: stopped at iteration 0.
        exact = np.linalg.solve(mats[1].toarray(), bs[1])
        A = BatchCsr.from_scipy_list(ref, mats)
        b = BatchDense.from_dense_list(ref, bs)
        guesses = [np.zeros((30, 1)), exact, np.zeros((30, 1))]
        x = BatchDense.from_dense_list(ref, guesses)
        before = x.data[1].copy()
        status = BatchCg(ref, criteria=crit()).generate(A).apply(b, x)
        assert status.num_iterations[1] == 0 and status.converged[1]
        assert x.data[1].tobytes() == before.tobytes()
        assert status.converged.all()


class TestBatchCriteria:
    def test_iteration_and_residual_combined_is_vectorized(self, ref):
        rhs = np.full((4, 1), 2.0)
        init = np.full((4, 1), 1.0)
        criterion = crit().generate(CriterionContext(rhs, init, ref.clock))
        stop = criterion.check(
            np.array([300, 1, 1, 1]),
            np.array([[1.0], [1e-10], [1.0], [3.0]]),
            np.arange(4),
        )
        assert stop.tolist() == [True, True, False, False]
        assert criterion.converged.tolist() == [False, True, False, False]

    def test_per_system_deadline_is_one_vectorized_comparison(self, ref):
        now, rhs = ref.clock.now, np.ones((3, 1))
        factory = crit() | Deadline([now, now + 1.0, np.inf])
        criterion = factory.generate(CriterionContext(rhs, rhs, ref.clock))
        stop = criterion.check(np.ones(3, int), rhs, np.arange(3))
        assert stop.tolist() == criterion.timed_out.tolist() == [1, 0, 0]
        assert not criterion.converged.any()
        mats, bs = make_batch(np.random.default_rng(2), K=3)
        scalar = Cg(ref, criteria=factory).generate(
            Csr.from_scipy(ref, mats[0])
        )
        b0 = Dense.create(ref, bs[0])
        with pytest.raises(GinkgoError, match="batched solve"):
            scalar.apply(b0, Dense.create(ref, 0 * bs[0]))
        solver = BatchCg(ref, criteria=factory).generate(
            BatchCsr.from_scipy_list(ref, mats)
        )
        b = BatchDense(ref, np.stack(bs))
        status = solver.apply(b, BatchDense(ref, 0 * b.data))
        assert status.timed_out.tolist() == [True, False, False]
        assert status.system(0)["timed_out"] and status.converged[1:].all()

    def test_divergence_is_checked_over_the_systems_axis(self, ref):
        factory = Iteration(10) | Divergence(1e6)
        rhs = np.ones((3, 1))
        criterion = factory.generate(CriterionContext(rhs, rhs, ref.clock))
        stop = criterion.check(
            np.array([10, 2, 2]),
            np.array([[1.0], [1.0], [1e7]]),
            np.arange(3),
        )
        assert stop.tolist() == [True, False, True]


class TestTriangular:
    def _make_tri(self, rng, n=16, K=4):
        pattern = sp.tril(
            sp.random(n, n, density=0.3, random_state=2) + sp.eye(n)
        ).tocsr()
        lows = []
        for _ in range(K):
            low = pattern.copy()
            low.data = rng.random(low.data.size) + 0.5
            low.setdiag(1.0 + rng.random(n))
            low.sort_indices()
            lows.append(low.tocsr())
        return lows

    def test_lower_matches_scipy(self, ref, rng):
        lows = self._make_tri(rng)
        bs = [rng.standard_normal((16, 2)) for _ in lows]
        A = BatchCsr.from_scipy_list(ref, lows)
        b = BatchDense.from_dense_list(ref, bs)
        x = BatchDense.zeros(ref, len(lows), (16, 2), np.float64)
        BatchLowerTrs(ref).generate(A).apply(b, x)
        for k, low in enumerate(lows):
            want = spsolve_triangular(low, bs[k], lower=True)
            assert np.allclose(x.data[k], want, rtol=1e-12, atol=1e-13)

    def test_upper_matches_scipy(self, ref, rng):
        ups = [low.T.tocsr() for low in self._make_tri(rng)]
        bs = [rng.standard_normal((16, 1)) for _ in ups]
        A = BatchCsr.from_scipy_list(ref, ups)
        b = BatchDense.from_dense_list(ref, bs)
        x = BatchDense.zeros(ref, len(ups), (16, 1), np.float64)
        BatchUpperTrs(ref).generate(A).apply(b, x)
        for k, up in enumerate(ups):
            want = spsolve_triangular(up, bs[k], lower=False)
            assert np.allclose(x.data[k], want, rtol=1e-12, atol=1e-13)

    def test_unit_diagonal_skips_stored_diagonal(self, ref, rng):
        lows = self._make_tri(rng, K=2)
        bs = [rng.standard_normal((16, 1)) for _ in lows]
        A = BatchCsr.from_scipy_list(ref, lows)
        b = BatchDense.from_dense_list(ref, bs)
        x = BatchDense.zeros(ref, 2, (16, 1), np.float64)
        BatchLowerTrs(ref, unit_diagonal=True).generate(A).apply(b, x)
        dense0 = lows[0].toarray()
        np.fill_diagonal(dense0, 1.0)
        assert np.allclose(x.data[0], np.linalg.solve(dense0, bs[0]))

    def test_zero_diagonal_rejected(self, ref, rng):
        lows = self._make_tri(rng, K=2)
        lows[1] = lows[1].copy()
        lows[1].setdiag(0.0)
        A = BatchCsr.from_scipy_list(ref, lows)
        with pytest.raises(GinkgoError, match="diagonal"):
            BatchLowerTrs(ref).generate(A)


class TestOmpThreading:
    def test_threaded_batch_identical_to_reference(self, ref, omp, rng):
        mats, bs = make_batch(rng, K=16)
        st_ref, x_ref, _ = batch_solve(ref, mats, bs, BatchCg)
        st_omp, x_omp, _ = batch_solve(omp, mats, bs, BatchCg)
        assert x_ref.data.tobytes() == x_omp.data.tobytes()
        for k in range(16):
            assert st_ref.residual_norms[k] == st_omp.residual_norms[k]

    def test_partition_count_matches_num_threads(self, rng, monkeypatch):
        # Threads are modelled: every batched SpMV records exactly one
        # spmv_batch_csr kernel, whatever num_threads is.
        from repro.ginkgo.batch.solver import _ActiveSystems

        calls = []
        spmv = _ActiveSystems.spmv

        def counted(self, src, dst):
            calls.append(self.count)
            spmv(self, src, dst)

        monkeypatch.setattr(_ActiveSystems, "spmv", counted)
        mats, bs = make_batch(rng, K=16)
        records = []
        for threads in (1, 2, 8):
            omp = OmpExecutor.create(num_threads=threads, noisy=False)
            omp.clock.enable_event_log()
            calls.clear()
            batch_solve(omp, mats, bs, BatchCg)
            names = [e.name for e in omp.clock.events]
            assert names.count("spmv_batch_csr") == len(calls) > 0
            records.append(len(calls))
        assert records[0] == records[1] == records[2]

    def test_profiler_shows_per_thread_partition_spans(self, rng):
        # One kernel span per SpMV, no per-thread children, and tracing
        # moves no simulated time.
        mats, bs = make_batch(rng, K=8)
        plain = OmpExecutor.create(num_threads=4, noisy=False)
        batch_solve(plain, mats, bs, BatchCg)
        omp = OmpExecutor.create(num_threads=4, noisy=False)
        prof = ProfilerHook()
        prof.attach(omp)
        try:
            batch_solve(omp, mats, bs, BatchCg)
        finally:
            prof.detach(omp)
        prof.close()
        spans = list(prof.trace.walk())
        spmvs = [s for s in spans if s.name == "spmv_batch_csr"]
        assert spmvs and all(s.category == "kernel" for s in spmvs)
        assert all(not s.children for s in spmvs)
        assert not [
            s for s in spans
            if s.name.startswith("spmv_batch_csr[") or s.category == "thread"
        ]
        assert omp.clock.now == plain.clock.now

    def test_small_active_set_falls_back_to_serial(self, ref, rng):
        # Fewer systems than modelled threads: bitwise the reference run.
        omp = OmpExecutor.create(num_threads=8, noisy=False)
        mats, bs = make_batch(rng, K=3)
        st_ref, x_ref, _ = batch_solve(ref, mats, bs, BatchCg)
        st_omp, x_omp, _ = batch_solve(omp, mats, bs, BatchCg)
        assert x_ref.data.tobytes() == x_omp.data.tobytes()
        for k in range(3):
            assert st_ref.residual_norms[k] == st_omp.residual_norms[k]


class TestBindings:
    def test_batch_symbols_are_registered_per_value_type(self):
        names = bindings.binding_names()
        for vt in ("half", "float", "double"):
            assert f"batch_cg_factory_{vt}" in names
            assert f"batch_bicgstab_factory_{vt}" in names
            assert f"batch_gmres_factory_{vt}" in names
            assert f"batch_jacobi_factory_{vt}" in names
            assert f"batch_dense_{vt}" in names
        assert "batch_csr_double_int32" in names

    def test_resolve_routes_batch_factory_through_dispatch_cache(self, ref):
        binding = bindings.resolve(
            "batch_cg_factory", np.float64, exec_=ref
        )
        assert binding._binding_tag == "batch_cg_factory_double"
        factory = binding(ref, criteria=crit())
        assert isinstance(factory, BatchCg)

    def test_public_namespace_end_to_end(self, rng):
        import repro as pg

        dev = pg.device("reference", noisy=False)
        mats, bs = make_batch(rng, K=5)
        A = pg.batch.matrices(dev, mats)
        b = pg.batch.vectors(dev, bs)
        x = pg.batch.zeros_like(b)
        solver = pg.batch.cg(
            dev, A, preconditioner=pg.batch.jacobi(dev),
            max_iters=200, reduction_factor=1e-9,
        )
        loggers, x = solver.apply(b, x)
        assert solver.status.all_converged
        assert len(loggers) == 5
        for k in range(5):
            resid = mats[k] @ x.data[k] - bs[k]
            assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(bs[k]) * 1.01
            assert loggers[k].residual_norms == solver.status.residual_norms[k]


class TestBatchStatusSequence:
    """BatchStatus behaves as a sequence of per-system records."""

    def _solved_status(self, ref, rng, K=5):
        mats, bs = make_batch(rng, K=K)
        mat = BatchCsr.from_scipy_list(ref, mats)
        solver = BatchCg(ref, criteria=crit()).generate(mat)
        b = BatchDense.from_dense_list(ref, bs)
        x = BatchDense.zeros(ref, K, (mats[0].shape[0], 1), np.float64)
        solver.apply(b, x)
        return solver.status

    def test_len_and_indexing(self, ref, rng):
        status = self._solved_status(ref, rng, K=5)
        assert len(status) == 5
        assert status[0] == status.system(0)
        assert status[-1] == status.system(4)
        assert status[1]["converged"]
        assert status[1]["num_iterations"] > 0

    def test_iteration_and_slicing(self, ref, rng):
        status = self._solved_status(ref, rng, K=5)
        records = list(status)
        assert len(records) == 5
        assert records == [status.system(k) for k in range(5)]
        assert status[1:3] == [status.system(1), status.system(2)]
        assert status[::-1][0] == status.system(4)

    def test_out_of_range(self, ref, rng):
        status = self._solved_status(ref, rng, K=3)
        with pytest.raises(IndexError):
            status[3]
        with pytest.raises(IndexError):
            status[-4]


class TestBatchCsrStackedSize:
    """BatchCsr accepts the stacked (K, rows, cols) size tuple."""

    def _pattern(self, rng, n=12, K=4):
        base = sp.random(
            n, n, density=0.3, random_state=rng, format="csr"
        ) + sp.eye(n)
        base = base.tocsr()
        base.sort_indices()
        values = np.stack([base.data * (k + 1.0) for k in range(K)])
        return base, values

    def test_stacked_size_equals_per_system_size(self, ref, rng):
        base, values = self._pattern(rng)
        a = BatchCsr(ref, (12, 12), base.indptr, base.indices, values)
        b = BatchCsr(ref, (4, 12, 12), base.indptr, base.indices, values)
        assert a.size == b.size
        assert a.num_systems == b.num_systems == 4
        np.testing.assert_array_equal(a.values, b.values)

    def test_stacked_size_mismatched_batch_dim(self, ref, rng):
        base, values = self._pattern(rng)  # 4 systems
        with pytest.raises(BadDimension, match="names 3 systems"):
            BatchCsr(ref, (3, 12, 12), base.indptr, base.indices, values)

    def test_malformed_size_mentions_both_conventions(self, ref, rng):
        base, values = self._pattern(rng)
        with pytest.raises(BadDimension, match="stacked"):
            BatchCsr(
                ref, (12, 12, 12, 12), base.indptr, base.indices, values
            )


class TestBatchHandleStats:
    """pg.batch solver handles expose post-apply solve statistics."""

    def test_handle_stats_after_apply(self, rng):
        import repro as pg

        dev = pg.device("reference", noisy=False)
        mats, bs = make_batch(rng, K=4)
        A = pg.batch.matrices(dev, mats)
        b = pg.batch.vectors(dev, bs)
        x = pg.batch.zeros_like(b)
        solver = pg.batch.cg(dev, A, max_iters=200, reduction_factor=1e-9)
        solver.apply(b, x)
        assert solver.all_converged
        assert solver.converged.all()
        assert (solver.num_iterations > 0).all()
        assert (solver.final_residual_norm < 1e-6).all()
        np.testing.assert_array_equal(
            solver.num_iterations, solver.status.num_iterations
        )
