"""Tests for the extension features: IDR(s), CB-GMRES, AMG, RCM
reordering, equilibration, the stencil/convolution operator, and the
performance logger."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.ndimage import correlate

from repro.ginkgo.exceptions import BadDimension, GinkgoError
from repro.ginkgo.log import PerformanceLogger
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.matrix.stencil import KERNELS, StencilOp, convolution_matrix
from repro.ginkgo.multigrid import (
    Pgm,
    pairwise_aggregation,
    prolongation_from_aggregates,
)
from repro.ginkgo.reorder import bandwidth, permute, rcm
from repro.ginkgo.scaling import equilibrate
from repro.ginkgo.solver import CbGmres, Cg, Gmres, Idr
from repro.ginkgo.stop import Iteration, ResidualNorm
from repro.suitesparse import banded, poisson_2d

CRIT = Iteration(600) | ResidualNorm(1e-10)


class TestIdr:
    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_converges_on_nonsymmetric(self, ref, general_small, rng, s):
        mtx = Csr.from_scipy(ref, general_small)
        solver = Idr(ref, criteria=CRIT, subspace_dim=s).generate(mtx)
        xstar = rng.standard_normal((general_small.shape[0], 1))
        x = Dense.zeros(ref, xstar.shape, np.float64)
        solver.apply(Dense(ref, general_small @ xstar), x)
        assert solver.converged
        np.testing.assert_allclose(np.asarray(x), xstar, atol=1e-6)

    def test_converges_on_spd(self, ref, spd_small, rng):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Idr(ref, criteria=CRIT).generate(mtx)
        xstar = rng.standard_normal((spd_small.shape[0], 1))
        x = Dense.zeros(ref, xstar.shape, np.float64)
        solver.apply(Dense(ref, spd_small @ xstar), x)
        assert solver.converged

    def test_deterministic_shadow_space(self, ref, general_small, rng):
        xstar = rng.standard_normal((general_small.shape[0], 1))
        b = general_small @ xstar
        results = []
        for _ in range(2):
            mtx = Csr.from_scipy(ref, general_small)
            solver = Idr(ref, criteria=Iteration(15)).generate(mtx)
            x = Dense.zeros(ref, xstar.shape, np.float64)
            solver.apply(Dense(ref, b), x)
            results.append(np.asarray(x).copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_invalid_subspace_dim(self, ref, spd_small, rng):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Idr(ref, subspace_dim=0).generate(mtx)
        b = Dense(ref, rng.standard_normal((spd_small.shape[0], 1)))
        x = Dense.zeros(ref, (spd_small.shape[0], 1), np.float64)
        with pytest.raises(GinkgoError, match="subspace_dim"):
            solver.apply(b, x)

    def test_with_preconditioner(self, ref, general_small, rng):
        from repro.ginkgo.preconditioner import Jacobi

        mtx = Csr.from_scipy(ref, general_small)
        plain = Idr(ref, criteria=CRIT).generate(mtx)
        precond = Idr(
            ref, criteria=CRIT, preconditioner=Jacobi(ref)
        ).generate(mtx)
        xstar = rng.standard_normal((general_small.shape[0], 1))
        b = general_small @ xstar
        for solver in (plain, precond):
            x = Dense.zeros(ref, xstar.shape, np.float64)
            solver.apply(Dense(ref, b), x)
            assert solver.converged
        assert precond.num_iterations <= plain.num_iterations + 5


class TestCbGmres:
    @pytest.mark.parametrize("storage", ["float32", "half"])
    def test_converges_with_compressed_basis(self, ref, spd_small, rng,
                                             storage):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = CbGmres(
            ref,
            criteria=Iteration(600) | ResidualNorm(1e-8),
            storage_precision=storage,
        ).generate(mtx)
        xstar = rng.standard_normal((spd_small.shape[0], 1))
        x = Dense.zeros(ref, xstar.shape, np.float64)
        solver.apply(Dense(ref, spd_small @ xstar), x)
        assert solver.converged
        np.testing.assert_allclose(np.asarray(x), xstar, atol=1e-4)

    def test_faster_per_iteration_than_gmres(self, ref):
        # The compressed basis halves the dominant memory traffic.
        matrix = poisson_2d(80)
        mtx = Csr.from_scipy(ref, matrix)
        times = {}
        for name, factory in (
            ("gmres", Gmres(ref, criteria=Iteration(60))),
            ("cb", CbGmres(ref, criteria=Iteration(60))),
        ):
            solver = factory.generate(mtx)
            b = Dense.full(ref, (matrix.shape[0], 1), 1.0, np.float64)
            x = Dense.zeros(ref, (matrix.shape[0], 1), np.float64)
            start = ref.clock.now
            solver.apply(b, x)
            times[name] = ref.clock.now - start
        assert times["cb"] < times["gmres"]

    def test_half_basis_cheaper_than_float_basis(self, ref):
        matrix = poisson_2d(80)
        mtx = Csr.from_scipy(ref, matrix)
        times = {}
        for storage in ("float32", "half"):
            solver = CbGmres(
                ref, criteria=Iteration(60), storage_precision=storage
            ).generate(mtx)
            b = Dense.full(ref, (matrix.shape[0], 1), 1.0, np.float64)
            x = Dense.zeros(ref, (matrix.shape[0], 1), np.float64)
            start = ref.clock.now
            solver.apply(b, x)
            times[storage] = ref.clock.now - start
        assert times["half"] < times["float32"]

    def test_restart_parameter(self, ref, spd_small):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = CbGmres(ref, criteria=CRIT, krylov_dim=5).generate(mtx)
        b = Dense.full(ref, (spd_small.shape[0], 1), 1.0, np.float64)
        x = Dense.zeros(ref, (spd_small.shape[0], 1), np.float64)
        solver.apply(b, x)
        assert solver.converged


class TestMultigrid:
    def test_aggregation_covers_all_nodes(self):
        matrix = poisson_2d(12)
        agg = pairwise_aggregation(matrix)
        assert agg.min() == 0
        assert agg.size == matrix.shape[0]
        # Pairwise matching roughly halves the node count.
        n_coarse = agg.max() + 1
        assert matrix.shape[0] / 3 < n_coarse < matrix.shape[0]

    def test_prolongation_partitions_unity(self):
        agg = np.array([0, 0, 1, 1, 2])
        p = prolongation_from_aggregates(agg)
        assert p.shape == (5, 3)
        np.testing.assert_array_equal(
            np.asarray(p.sum(axis=1)).ravel(), 1.0
        )

    def test_hierarchy_shrinks(self, ref):
        matrix = poisson_2d(32)
        amg = Pgm(ref, coarse_size=32).generate(Csr.from_scipy(ref, matrix))
        sizes = amg.level_sizes
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= 64
        # Every size but the direct coarsest solve's is a fine level.
        assert amg.num_levels == len(sizes) - 1 >= 1

    def test_vcycle_reduces_error(self, ref, rng):
        matrix = poisson_2d(24)
        mtx = Csr.from_scipy(ref, matrix)
        amg = Pgm(ref).generate(mtx)
        xstar = rng.standard_normal((matrix.shape[0], 1))
        b = matrix @ xstar
        approx = Dense.zeros(ref, b.shape, np.float64)
        amg.apply(Dense(ref, b), approx)
        err_after = np.linalg.norm(np.asarray(approx) - xstar)
        err_before = np.linalg.norm(xstar)
        assert err_after < 0.7 * err_before

    def test_amg_accelerates_cg(self, ref):
        matrix = poisson_2d(36)
        mtx = Csr.from_scipy(ref, matrix)
        b = Dense.full(ref, (matrix.shape[0], 1), 1.0, np.float64)

        def iterations(precond):
            solver = Cg(
                ref, criteria=Iteration(800) | ResidualNorm(1e-9),
                preconditioner=precond,
            ).generate(mtx)
            x = Dense.zeros(ref, (matrix.shape[0], 1), np.float64)
            solver.apply(b, x)
            assert solver.converged
            return solver.num_iterations

        plain = iterations(None)
        amg = iterations(Pgm(ref).generate(mtx))
        assert amg < plain / 2

    def test_mesh_robustness(self, ref):
        # AMG iteration counts grow much slower than unpreconditioned CG
        # as the mesh refines.
        counts = {}
        for n in (16, 32):
            matrix = poisson_2d(n)
            mtx = Csr.from_scipy(ref, matrix)
            solver = Cg(
                ref, criteria=Iteration(800) | ResidualNorm(1e-9),
                preconditioner=Pgm(ref).generate(mtx),
            ).generate(mtx)
            b = Dense.full(ref, (matrix.shape[0], 1), 1.0, np.float64)
            x = Dense.zeros(ref, (matrix.shape[0], 1), np.float64)
            solver.apply(b, x)
            counts[n] = solver.num_iterations
        assert counts[32] <= 2.0 * counts[16]

    def test_parameter_validation(self, ref):
        with pytest.raises(GinkgoError):
            Pgm(ref, max_levels=0)
        with pytest.raises(GinkgoError):
            Pgm(ref, coarse_size=0)

    def test_requires_square(self, ref, rect_small):
        with pytest.raises(BadDimension):
            Pgm(ref).generate(Csr.from_scipy(ref, rect_small))


class TestRcm:
    def test_reduces_bandwidth_of_shuffled_band(self, ref, rng):
        base = banded(200, bandwidth=3, seed=1)
        shuffle = rng.permutation(200)
        shuffled = base.tocsr()[shuffle, :][:, shuffle].tocsr()
        mtx = Csr.from_scipy(ref, shuffled)
        before = bandwidth(mtx)
        reordered = permute(mtx, rcm(mtx))
        after = bandwidth(reordered)
        assert after < before / 4

    def test_permute_preserves_values(self, ref, general_small, rng):
        mtx = Csr.from_scipy(ref, general_small)
        perm = rcm(mtx)
        reordered = permute(mtx, perm)
        order = perm.permutation
        expect = general_small.toarray()[order, :][:, order]
        np.testing.assert_allclose(reordered.to_scipy().toarray(), expect)

    def test_permuted_solve_matches(self, ref, spd_small, rng):
        # Solving the reordered system and un-permuting recovers x.
        mtx = Csr.from_scipy(ref, spd_small)
        perm = rcm(mtx)
        order = perm.permutation
        reordered = permute(mtx, perm)
        xstar = rng.standard_normal((spd_small.shape[0], 1))
        b = spd_small @ xstar
        solver = Cg(ref, criteria=CRIT).generate(reordered)
        x_perm = Dense.zeros(ref, b.shape, np.float64)
        solver.apply(Dense(ref, b[order]), x_perm)
        recovered = np.empty_like(xstar)
        recovered[order] = np.asarray(x_perm)
        np.testing.assert_allclose(recovered, xstar, atol=1e-6)

    def test_requires_square(self, ref, rect_small):
        with pytest.raises(BadDimension):
            rcm(Csr.from_scipy(ref, rect_small))

    def test_bandwidth_helper(self):
        assert bandwidth(sp.eye(5, format="csr")) == 0
        tri = sp.diags([np.ones(4), np.ones(5)], [-1, 0], format="csr")
        assert bandwidth(tri) == 1


class TestEquilibrate:
    def test_scaled_matrix_has_moderate_norms(self, ref):
        badly_scaled = sp.diags(
            np.logspace(-6, 6, 60)
        ) @ banded(60, bandwidth=2, seed=2)
        mtx = Csr.from_scipy(ref, badly_scaled.tocsr())
        eq = equilibrate(mtx, iterations=3)
        scaled = abs(eq.scaled_matrix.to_scipy())
        row_max = np.asarray(scaled.max(axis=1).todense()).ravel()
        assert row_max.max() < 10.0
        assert row_max[row_max > 0].min() > 0.05

    def test_solution_recovery(self, ref, rng):
        badly_scaled = (
            sp.diags(np.logspace(-3, 3, 50))
            @ banded(50, bandwidth=2, seed=3)
        ).tocsr()
        mtx = Csr.from_scipy(ref, badly_scaled)
        eq = equilibrate(mtx)
        b = rng.standard_normal(50)
        y = np.linalg.solve(
            eq.scaled_matrix.to_scipy().toarray(), eq.scale_rhs(b)
        )
        x = eq.unscale_solution(y)
        np.testing.assert_allclose(badly_scaled @ x, b, atol=1e-6)

    def test_requires_square(self, ref, rect_small):
        with pytest.raises(BadDimension):
            equilibrate(Csr.from_scipy(ref, rect_small))


class TestStencil:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_matches_scipy_correlate(self, ref, rng, name):
        image = rng.standard_normal((12, 17))
        op = StencilOp(ref, image.shape, KERNELS[name])
        expect = correlate(image, KERNELS[name], mode="constant")
        np.testing.assert_allclose(op.apply_image(image), expect, atol=1e-12)

    def test_identity_kernel(self, ref, rng):
        image = rng.standard_normal((8, 8))
        op = StencilOp(ref, (8, 8), KERNELS["identity"])
        np.testing.assert_allclose(op.apply_image(image), image)

    def test_is_a_linop(self, ref, rng):
        op = StencilOp(ref, (6, 6), KERNELS["blur3"])
        assert op.size == (36, 36)
        b = Dense(ref, rng.standard_normal((36, 2)))
        x = Dense.zeros(ref, (36, 2), np.float64)
        op.apply(b, x)  # multi-RHS works through the LinOp interface

    def test_composes_with_other_operators(self, ref, rng):
        from repro.ginkgo.lin_op import Composition

        blur = StencilOp(ref, (10, 10), KERNELS["blur3"])
        edge = StencilOp(ref, (10, 10), KERNELS["laplace"])
        pipeline = Composition(edge, blur)
        image = rng.standard_normal((10, 10))
        flat = Dense(ref, image.reshape(-1, 1))
        out = Dense.zeros(ref, (100, 1), np.float64)
        pipeline.apply(flat, out)
        expect = correlate(
            correlate(image, KERNELS["blur3"], mode="constant"),
            KERNELS["laplace"], mode="constant",
        )
        np.testing.assert_allclose(
            np.asarray(out).reshape(10, 10), expect, atol=1e-12
        )

    def test_even_kernel_rejected(self, ref):
        with pytest.raises(BadDimension, match="odd"):
            StencilOp(ref, (8, 8), np.ones((2, 2)))

    def test_wrong_image_shape_rejected(self, ref, rng):
        op = StencilOp(ref, (8, 8), KERNELS["blur3"])
        with pytest.raises(BadDimension):
            op.apply_image(rng.standard_normal((9, 9)))

    def test_convolution_matrix_band_count(self):
        mat = convolution_matrix((5, 5), KERNELS["laplace"])
        # 5 taps, minus boundary truncation.
        assert mat.nnz == 5 * 25 - 4 * 5

    def test_apply_charges_clock(self, ref, rng):
        op = StencilOp(ref, (16, 16), KERNELS["sharpen"])
        before = ref.clock.now
        op.apply_image(rng.standard_normal((16, 16)))
        assert ref.clock.now > before


class TestPerformanceLogger:
    def test_profiles_solver_pipeline(self, ref, spd_small):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Cg(ref, criteria=Iteration(10)).generate(mtx)
        profiler = PerformanceLogger()
        solver.add_logger(profiler)
        mtx.add_logger(profiler)
        b = Dense.full(ref, (spd_small.shape[0], 1), 1.0, np.float64)
        x = Dense.zeros(ref, (spd_small.shape[0], 1), np.float64)
        solver.apply(b, x)
        assert profiler.counts["CgSolver"] == 1
        # One SpMV per iteration plus the initial-residual computation.
        assert profiler.counts["Csr"] == 11
        # The solver's total time includes the SpMVs.
        assert profiler.totals["CgSolver"] > profiler.totals["Csr"]

    def test_summary_format(self, ref, spd_small):
        mtx = Csr.from_scipy(ref, spd_small)
        solver = Cg(ref, criteria=Iteration(3)).generate(mtx)
        profiler = PerformanceLogger()
        solver.add_logger(profiler)
        b = Dense.full(ref, (spd_small.shape[0], 1), 1.0, np.float64)
        solver.apply(
            b, Dense.zeros(ref, (spd_small.shape[0], 1), np.float64)
        )
        text = profiler.summary()
        assert "CgSolver" in text
        assert "100.0%" in text

    def test_empty_profile(self):
        profiler = PerformanceLogger()
        assert profiler.total_time == 0.0
        assert "operator" in profiler.summary()
