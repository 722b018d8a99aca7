"""Iterative solver tests: convergence, stopping, logging, parameters."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ginkgo import BadDimension
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.log import ConvergenceLogger, RecordLogger
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.preconditioner import Jacobi
from repro.ginkgo.solver import (
    Bicg,
    Bicgstab,
    CbGmres,
    Cg,
    Cgs,
    Fcg,
    Gmres,
    Idr,
    Ir,
    Minres,
)
from repro.ginkgo.stop import Iteration, ResidualNorm

ALL_KRYLOV = [Cg, Fcg, Cgs, Bicg, Bicgstab, Gmres, Minres]
ALL_SCALAR = ALL_KRYLOV + [CbGmres, Idr, Ir]
CRIT = Iteration(800) | ResidualNorm(1e-11)
#: Richardson needs damping on ``spd_small`` (eigenvalues in (2, 6)).
SPD_PARAMS = {Ir: {"relaxation_factor": 0.25}}


def _solve(factory_cls, ref, matrix, b_np, x0=None, **params):
    mtx = Csr.from_scipy(ref, matrix)
    solver = factory_cls(ref, criteria=CRIT, **params).generate(mtx)
    x = Dense(ref, x0) if x0 is not None else Dense.zeros(
        ref, (matrix.shape[0], 1), np.float64
    )
    solver.apply(Dense(ref, b_np), x)
    return solver, np.asarray(x)


class TestConvergenceSpd:
    @pytest.mark.parametrize("factory_cls", ALL_KRYLOV)
    def test_solves_spd_system(self, factory_cls, ref, spd_small, rng):
        xstar = rng.standard_normal((spd_small.shape[0], 1))
        solver, x = _solve(factory_cls, ref, spd_small, spd_small @ xstar)
        assert solver.converged, factory_cls.__name__
        np.testing.assert_allclose(x, xstar, atol=1e-7)

    @pytest.mark.parametrize("factory_cls", [Cgs, Bicg, Bicgstab, Gmres])
    def test_solves_nonsymmetric_system(
        self, factory_cls, ref, general_small, rng
    ):
        xstar = rng.standard_normal((general_small.shape[0], 1))
        solver, x = _solve(factory_cls, ref, general_small,
                           general_small @ xstar)
        assert solver.converged
        np.testing.assert_allclose(x, xstar, atol=1e-6)

    @pytest.mark.parametrize("factory_cls", ALL_SCALAR)
    def test_multi_rhs(self, factory_cls, ref, spd_small, rng):
        xstar = rng.standard_normal((spd_small.shape[0], 3))
        mtx = Csr.from_scipy(ref, spd_small)
        solver = factory_cls(
            ref, criteria=CRIT, **SPD_PARAMS.get(factory_cls, {})
        ).generate(mtx)
        x = Dense.zeros(ref, (spd_small.shape[0], 3), np.float64)
        solver.apply(Dense(ref, spd_small @ xstar), x)
        np.testing.assert_allclose(np.asarray(x), xstar, atol=1e-6)

    @pytest.mark.parametrize(
        "factory_cls, params",
        [
            (Gmres, {"krylov_dim": 10}),
            (CbGmres, {"krylov_dim": 10}),
            (Minres, {}),
            (Idr, {}),
        ],
        ids=["gmres", "cb_gmres", "minres", "idr"],
    )
    def test_multi_rhs_gmres_status_aggregates_columns(
        self, factory_cls, params, ref, rng
    ):
        # Column 0 is hard (stops at the cap), column 1 trivial (one
        # iteration): the verdict is the aggregate, not the last column's.
        n = 200
        tri = sp.diags(
            [-np.ones(n - 1), 2.0001 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
        )
        mat = sp.block_diag([tri, sp.eye(n)]).tocsr()
        b = np.zeros((2 * n, 2))
        b[:n, 0] = rng.standard_normal(n)
        b[n:, 1] = 1.0
        solver = factory_cls(
            ref, criteria=Iteration(20) | ResidualNorm(1e-8), **params
        ).generate(Csr.from_scipy(ref, mat))
        x = Dense.zeros(ref, (2 * n, 2), np.float64)
        solver.apply(Dense(ref, b), x)
        residual = np.linalg.norm(b - mat @ np.asarray(x), axis=0)
        assert residual[0] > 1e-2 * np.linalg.norm(b[:, 0])
        assert not solver.converged
        assert solver.num_iterations == 20
        assert solver.final_residual_norm > 1e-8 * np.linalg.norm(b[:, 0])

    @pytest.mark.parametrize("factory_cls", ALL_SCALAR)
    def test_multi_rhs_column_order_does_not_matter(
        self, factory_cls, ref, spd_small, rng
    ):
        # Columns of very different norms: each is solved against its
        # own baseline, so swapping them swaps the solution and nothing
        # else — no column is over-solved to the other's tolerance.
        n = spd_small.shape[0]
        xstar = rng.standard_normal((n, 2))
        xstar[:, 1] *= 1e-6
        results = []
        for order in ([0, 1], [1, 0]):
            solver = factory_cls(
                ref, criteria=CRIT, **SPD_PARAMS.get(factory_cls, {})
            ).generate(Csr.from_scipy(ref, spd_small))
            x = Dense.zeros(ref, (n, 2), np.float64)
            solver.apply(Dense(ref, spd_small @ xstar[:, order]), x)
            results.append(
                (solver.num_iterations, solver.converged, solver.breakdown)
            )
            np.testing.assert_allclose(
                np.asarray(x), xstar[:, order], rtol=0, atol=1e-6
            )
        assert results[0] == results[1]
        assert results[0][1]

    def test_nonzero_initial_guess(self, ref, spd_small, rng):
        xstar = rng.standard_normal((spd_small.shape[0], 1))
        x0 = xstar + 0.01 * rng.standard_normal(xstar.shape)
        solver, x = _solve(Cg, ref, spd_small, spd_small @ xstar, x0=x0.copy())
        assert solver.converged
        # A good initial guess converges in fewer iterations than zeros.
        solver0, _ = _solve(Cg, ref, spd_small, spd_small @ xstar)
        assert solver.num_iterations < solver0.num_iterations

    def test_exact_initial_guess_stops_immediately(self, ref, spd_small, rng):
        xstar = rng.standard_normal((spd_small.shape[0], 1))
        solver, x = _solve(
            Cg, ref, spd_small, spd_small @ xstar, x0=xstar.copy()
        )
        assert solver.num_iterations == 0
        assert solver.converged


class TestStoppingBehaviour:
    def test_iteration_limit_respected(self, ref, spd_small):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Cg(ref, criteria=Iteration(3)).generate(mtx)
        b = Dense.full(ref, (spd_small.shape[0], 1), 1.0, np.float64)
        x = Dense.zeros(ref, (spd_small.shape[0], 1), np.float64)
        solver.apply(b, x)
        assert solver.num_iterations == 3
        assert not solver.converged

    def test_residual_criterion_marks_converged(self, ref, spd_small):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Cg(
            ref, criteria=Iteration(500) | ResidualNorm(1e-8)
        ).generate(mtx)
        b = Dense.full(ref, (spd_small.shape[0], 1), 1.0, np.float64)
        x = Dense.zeros(ref, (spd_small.shape[0], 1), np.float64)
        solver.apply(b, x)
        assert solver.converged
        assert solver.final_residual_norm <= 1e-8 * np.sqrt(
            spd_small.shape[0]
        )

    def test_criteria_list_is_or_combined(self, ref, spd_small):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Cg(
            ref, criteria=[Iteration(2), ResidualNorm(1e-30)]
        ).generate(mtx)
        b = Dense.full(ref, (spd_small.shape[0], 1), 1.0, np.float64)
        solver.apply(b, Dense.zeros(ref, (spd_small.shape[0], 1), np.float64))
        assert solver.num_iterations == 2

    def test_empty_criteria_list_rejected(self, ref):
        with pytest.raises(GinkgoError):
            Cg(ref, criteria=[])


class TestLoggingIntegration:
    def test_convergence_logger_tracks_history(self, ref, spd_small, rng):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Cg(ref, criteria=CRIT).generate(mtx)
        logger = ConvergenceLogger()
        solver.add_logger(logger)
        xstar = rng.standard_normal((spd_small.shape[0], 1))
        solver.apply(
            Dense(ref, spd_small @ xstar),
            Dense.zeros(ref, (spd_small.shape[0], 1), np.float64),
        )
        assert logger.converged
        assert logger.num_iterations == solver.num_iterations
        # CG on SPD: residual history ends far below where it started.
        assert logger.residual_norms[-1] < 1e-8 * logger.residual_norms[0]

    def test_record_logger_counts_iterations(self, ref, spd_small):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Cg(ref, criteria=Iteration(5)).generate(mtx)
        logger = RecordLogger()
        solver.add_logger(logger)
        b = Dense.full(ref, (spd_small.shape[0], 1), 1.0, np.float64)
        solver.apply(b, Dense.zeros(ref, (spd_small.shape[0], 1), np.float64))
        # initial check (iteration 0) + 5 iterations
        assert logger.count("iteration_complete") == 6


class TestFactoryValidation:
    def test_unknown_parameter_rejected(self, ref):
        with pytest.raises(GinkgoError, match="unknown parameters"):
            Cg(ref, tolerance=1e-5)

    def test_square_matrix_required(self, ref, rect_small):
        mtx = Csr.from_scipy(ref, rect_small)
        with pytest.raises(BadDimension):
            Cg(ref).generate(mtx)

    def test_gmres_krylov_dim_parameter(self, ref, spd_small):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Gmres(ref, criteria=CRIT, krylov_dim=10).generate(mtx)
        assert solver.parameters["krylov_dim"] == 10

    def test_gmres_invalid_krylov_dim(self, ref, spd_small, rng):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Gmres(ref, criteria=CRIT, krylov_dim=0).generate(mtx)
        b = Dense(ref, rng.standard_normal((spd_small.shape[0], 1)))
        with pytest.raises(GinkgoError, match="krylov_dim"):
            solver.apply(
                b, Dense.zeros(ref, (spd_small.shape[0], 1), np.float64)
            )

    def test_invalid_preconditioner_type(self, ref, spd_small):
        mtx = Csr.from_scipy(ref, spd_small)
        with pytest.raises(GinkgoError, match="preconditioner"):
            Cg(ref, preconditioner=42).generate(mtx)


class TestGmresRestart:
    def test_small_restart_still_converges(self, ref, spd_small, rng):
        xstar = rng.standard_normal((spd_small.shape[0], 1))
        solver, x = _solve(
            Gmres, ref, spd_small, spd_small @ xstar, krylov_dim=5
        )
        assert solver.converged
        np.testing.assert_allclose(x, xstar, atol=1e-6)

    def test_restart_affects_iteration_count(self, ref, general_small, rng):
        xstar = rng.standard_normal((general_small.shape[0], 1))
        b = general_small @ xstar
        full, _ = _solve(Gmres, ref, general_small, b, krylov_dim=50)
        tiny, _ = _solve(Gmres, ref, general_small, b, krylov_dim=3)
        assert tiny.num_iterations >= full.num_iterations


class TestIr:
    def test_richardson_with_jacobi_inner(self, ref, spd_small, rng):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Ir(
            ref,
            criteria=Iteration(2000) | ResidualNorm(1e-10),
            solver=Jacobi(ref),
        ).generate(mtx)
        xstar = rng.standard_normal((spd_small.shape[0], 1))
        x = Dense.zeros(ref, (spd_small.shape[0], 1), np.float64)
        solver.apply(Dense(ref, spd_small @ xstar), x)
        assert solver.converged
        np.testing.assert_allclose(np.asarray(x), xstar, atol=1e-7)

    def test_relaxation_factor(self, ref, spd_small, rng):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Ir(
            ref,
            criteria=Iteration(3000) | ResidualNorm(1e-8),
            solver=Jacobi(ref),
            relaxation_factor=0.8,
        ).generate(mtx)
        xstar = rng.standard_normal((spd_small.shape[0], 1))
        x = Dense.zeros(ref, (spd_small.shape[0], 1), np.float64)
        solver.apply(Dense(ref, spd_small @ xstar), x)
        assert solver.converged

    def test_inner_solver_accessible(self, ref, spd_small):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Ir(ref, solver=Jacobi(ref)).generate(mtx)
        assert solver.inner_solver is not None


class TestAdvancedApply:
    def test_solver_advanced_apply(self, ref, spd_small, rng):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Cg(ref, criteria=CRIT).generate(mtx)
        xstar = rng.standard_normal((spd_small.shape[0], 1))
        b = spd_small @ xstar
        x0 = rng.standard_normal(xstar.shape)
        x = Dense(ref, x0)
        solver.apply_advanced(2.0, Dense(ref, b), 0.5, x)
        np.testing.assert_allclose(
            np.asarray(x), 2.0 * xstar + 0.5 * x0, atol=1e-5
        )
