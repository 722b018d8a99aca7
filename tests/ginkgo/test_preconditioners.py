"""Preconditioner and factorization tests."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from repro.ginkgo import BadDimension
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.factorization import ic0, ilu0, lu
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.preconditioner import Ic, Ilu, Isai, Jacobi
from repro.ginkgo.solver import Cg, Gmres, LowerTrs, UpperTrs
from repro.ginkgo.stop import Iteration, ResidualNorm

CRIT = Iteration(500) | ResidualNorm(1e-10)


def _iterations_with(ref, matrix, precond_factory, solver_cls=Cg):
    mtx = Csr.from_scipy(ref, matrix)
    solver = solver_cls(
        ref, criteria=CRIT, preconditioner=precond_factory
    ).generate(mtx)
    b = Dense.full(ref, (matrix.shape[0], 1), 1.0, np.float64)
    x = Dense.zeros(ref, (matrix.shape[0], 1), np.float64)
    solver.apply(b, x)
    assert solver.converged
    return solver.num_iterations, np.asarray(x)


class TestJacobi:
    def test_scalar_jacobi_is_diagonal_inverse(self, ref, spd_small, rng):
        mtx = Csr.from_scipy(ref, spd_small)
        op = Jacobi(ref).generate(mtx)
        r = rng.standard_normal((spd_small.shape[0], 1))
        z = Dense.zeros(ref, r.shape, np.float64)
        op.apply(Dense(ref, r), z)
        np.testing.assert_allclose(
            np.asarray(z), r / spd_small.diagonal()[:, None]
        )

    def test_block_jacobi_inverts_blocks(self, ref):
        blocks = sp.block_diag(
            [np.array([[4.0, 1.0], [1.0, 3.0]])] * 5, format="csr"
        )
        mtx = Csr.from_scipy(ref, blocks)
        op = Jacobi(ref, max_block_size=2).generate(mtx)
        b = Dense.full(ref, (10, 1), 1.0, np.float64)
        z = Dense.zeros(ref, (10, 1), np.float64)
        op.apply(b, z)
        expect = np.linalg.solve(blocks.toarray(), np.ones((10, 1)))
        np.testing.assert_allclose(np.asarray(z), expect, atol=1e-12)

    def test_block_jacobi_accelerates_cg(self, ref):
        # Strongly block-structured problem: block Jacobi needs fewer
        # iterations than scalar Jacobi.
        rng = np.random.default_rng(42)
        blocks = []
        for _ in range(15):
            q = rng.standard_normal((4, 4))
            blocks.append(q @ q.T + 4 * np.eye(4))
        matrix = sp.block_diag(blocks, format="csr") + 0.01 * sp.eye(60)
        scalar_iters, _ = _iterations_with(ref, matrix.tocsr(), Jacobi(ref))
        block_iters, _ = _iterations_with(
            ref, matrix.tocsr(), Jacobi(ref, max_block_size=4)
        )
        assert block_iters < scalar_iters

    def test_invalid_block_size(self, ref):
        with pytest.raises(GinkgoError):
            Jacobi(ref, max_block_size=0)

    def test_requires_square(self, ref, rect_small):
        mtx = Csr.from_scipy(ref, rect_small)
        with pytest.raises(BadDimension):
            Jacobi(ref).generate(mtx)

    def test_zero_diagonal_handled(self, ref):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        op = Jacobi(ref).generate(Csr.from_scipy(ref, mat))
        z = Dense.zeros(ref, (2, 1), np.float64)
        op.apply(Dense.full(ref, (2, 1), 1.0, np.float64), z)
        # Zero diagonal entries are skipped (z stays 0 there).
        assert np.asarray(z)[0, 0] == 0.0


class TestIluIc:
    def test_ilu_reduces_gmres_iterations(self, ref, general_small):
        plain, _ = _iterations_with(ref, general_small, None, Gmres)
        precond, _ = _iterations_with(ref, general_small, Ilu(ref), Gmres)
        assert precond <= plain

    def test_ic_reduces_cg_iterations(self, ref, spd_small):
        plain, _ = _iterations_with(ref, spd_small, None)
        precond, _ = _iterations_with(ref, spd_small, Ic(ref))
        assert precond < plain

    def test_ilu_apply_is_two_triangular_solves(self, ref, spd_small, rng):
        mtx = Csr.from_scipy(ref, spd_small)
        op = Ilu(ref).generate(mtx)
        r = rng.standard_normal((spd_small.shape[0], 1))
        z = Dense.zeros(ref, r.shape, np.float64)
        op.apply(Dense(ref, r), z)
        l_np = op.factorization.l_factor.to_scipy().toarray()
        u_np = op.factorization.u_factor.to_scipy().toarray()
        expect = np.linalg.solve(u_np, np.linalg.solve(l_np, r))
        np.testing.assert_allclose(np.asarray(z), expect, atol=1e-10)

    def test_ilu_exposes_its_triangular_solvers(self, ref, spd_small, rng):
        op = Ilu(ref).generate(Csr.from_scipy(ref, spd_small))
        assert op.lower_solver.system_matrix is op.factorization.l_factor
        assert op.upper_solver.system_matrix is op.factorization.u_factor
        # Applying them in turn is the preconditioner's apply.
        r = Dense(ref, rng.standard_normal((spd_small.shape[0], 1)))
        y = Dense.zeros(ref, r.size, np.float64)
        z = Dense.zeros(ref, r.size, np.float64)
        op.lower_solver.apply(r, y)
        op.upper_solver.apply(y, z)
        want = Dense.zeros(ref, r.size, np.float64)
        op.apply(r, want)
        assert np.array_equal(np.asarray(z), np.asarray(want))


class TestTrsPreparedOperands:
    """Prepared ``gstrs`` operands solve bitwise as ``spsolve_triangular``."""

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("unit", [False, True])
    @pytest.mark.parametrize(
        "factor_dtype, cols",
        [(np.float64, 1), (np.float64, 3), (np.float32, 1)],
    )
    def test_bitwise_spsolve_triangular(
        self, ref, general_small, rng, lower, unit, factor_dtype, cols
    ):
        # A float32-stored factor in a float64 solve takes the
        # ``trsv_apply_double_float`` route and reads the factor upcast.
        tri = (sp.tril if lower else sp.triu)(general_small).tocsr()
        factory = (LowerTrs if lower else UpperTrs)(ref, unit_diagonal=unit)
        mtx = Csr.from_scipy(ref, tri, value_dtype=factor_dtype)
        b = rng.standard_normal((tri.shape[0], cols))
        x = Dense.zeros(ref, b.shape, np.float64)
        factory.generate(mtx).apply(Dense(ref, b), x)
        want = spsolve_triangular(
            mtx.to_scipy().astype(np.float64), b, lower=lower,
            unit_diagonal=unit,
        )
        assert np.array_equal(np.asarray(x), want)


def _isai_reference(a, power):
    """Per-row ISAI: one ``np.linalg.solve`` of ``A[J, J]^T`` per row."""
    pattern = a.copy()
    for _ in range(power - 1):
        pattern = (pattern @ a).tocsr()
    pattern.sort_indices()
    dense = a.toarray()
    values = []
    for i in range(a.shape[0]):
        j_set = pattern.indices[pattern.indptr[i]:pattern.indptr[i + 1]]
        rhs = (j_set == i).astype(a.dtype)
        values.append(np.linalg.solve(dense[np.ix_(j_set, j_set)].T, rhs))
    return pattern, np.concatenate(values)


class TestIsai:
    @pytest.mark.parametrize(
        "power, dtype", [(1, np.float64), (2, np.float64), (1, np.float32)]
    )
    def test_batched_solves_bitwise_per_row(
        self, ref, general_small, power, dtype
    ):
        a = general_small.astype(dtype)
        w = Isai(ref, sparsity_power=power).generate(
            Csr.from_scipy(ref, a)
        ).approximate_inverse.to_scipy()
        pattern, values = _isai_reference(a, power)
        assert np.array_equal(w.indptr, pattern.indptr)
        assert np.array_equal(w.indices, pattern.indices)
        assert w.dtype == dtype
        assert np.array_equal(w.data, values)

    def test_singular_local_system_names_its_row(self, ref):
        # Rows 0-3 share one stacked solve; only rows 2 and 3 have a
        # singular block, and the first of them is reported.
        blocks = [np.array([[2.0, 1.0], [1.0, 2.0]]), np.ones((2, 2))]
        mtx = Csr.from_scipy(ref, sp.block_diag(blocks, format="csr"))
        message = "ISAI: singular local system in row 2$"
        with pytest.raises(GinkgoError, match=message):
            Isai(ref).generate(mtx)

    def test_isai_approximates_inverse(self, ref, spd_small, rng):
        mtx = Csr.from_scipy(ref, spd_small)
        op = Isai(ref).generate(mtx)
        w = op.approximate_inverse.to_scipy()
        product = (w @ spd_small).toarray()
        # On the pattern, W A should be close to identity.
        diag_err = np.abs(np.diag(product) - 1.0).max()
        assert diag_err < 0.2

    def test_isai_accelerates_cg(self, ref, spd_small):
        plain, _ = _iterations_with(ref, spd_small, None)
        precond, _ = _iterations_with(ref, spd_small, Isai(ref))
        assert precond < plain

    def test_invalid_sparsity_power(self, ref):
        with pytest.raises(GinkgoError):
            Isai(ref, sparsity_power=0)


class TestIlu0Factorization:
    def test_product_matches_on_pattern(self, ref, general_small):
        mtx = Csr.from_scipy(ref, general_small)
        fact = ilu0(mtx)
        l_np = fact.l_factor.to_scipy()
        u_np = fact.u_factor.to_scipy()
        product = (l_np @ u_np).toarray()
        a_np = general_small.toarray()
        mask = a_np != 0
        # ILU(0): L U equals A exactly on A's sparsity pattern.
        np.testing.assert_allclose(product[mask], a_np[mask], atol=1e-9)

    def test_l_unit_diagonal(self, ref, general_small):
        fact = ilu0(Csr.from_scipy(ref, general_small))
        np.testing.assert_allclose(
            fact.l_factor.to_scipy().diagonal(), 1.0
        )

    def test_factors_are_triangular(self, ref, general_small):
        fact = ilu0(Csr.from_scipy(ref, general_small))
        l_np = fact.l_factor.to_scipy().toarray()
        u_np = fact.u_factor.to_scipy().toarray()
        assert np.allclose(l_np, np.tril(l_np))
        assert np.allclose(u_np, np.triu(u_np))

    def test_dense_pattern_reproduces_lu(self, ref):
        # On a fully dense matrix, ILU(0) is the complete LU.
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        fact = ilu0(Csr.from_scipy(ref, sp.csr_matrix(a)))
        product = (
            fact.l_factor.to_scipy() @ fact.u_factor.to_scipy()
        ).toarray()
        np.testing.assert_allclose(product, a, atol=1e-10)

    def test_missing_diagonal_raises(self, ref):
        mat = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        mat.eliminate_zeros()
        with pytest.raises(GinkgoError, match="row 1 has no diagonal"):
            ilu0(Csr.from_scipy(ref, mat))

    def test_requires_square(self, ref, rect_small):
        with pytest.raises(BadDimension):
            ilu0(Csr.from_scipy(ref, rect_small))


class TestIc0Factorization:
    def test_llt_matches_on_pattern(self, ref, spd_small):
        fact = ic0(Csr.from_scipy(ref, spd_small))
        l_np = fact.l_factor.to_scipy()
        product = (l_np @ l_np.T).toarray()
        a_np = spd_small.toarray()
        mask = np.tril(a_np) != 0
        np.testing.assert_allclose(
            np.tril(product)[mask], np.tril(a_np)[mask], atol=1e-9
        )

    def test_lt_factor_is_transpose(self, ref, spd_small):
        fact = ic0(Csr.from_scipy(ref, spd_small))
        np.testing.assert_allclose(
            fact.lt_factor.to_scipy().toarray(),
            fact.l_factor.to_scipy().T.toarray(),
        )

    def test_indefinite_matrix_raises(self, ref):
        mat = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(GinkgoError, match="positive"):
            ic0(Csr.from_scipy(ref, mat))

    def test_missing_diagonal_raises(self, ref):
        mat = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 0.0]]))
        mat.eliminate_zeros()
        with pytest.raises(GinkgoError, match="row 1 has no diagonal"):
            ic0(Csr.from_scipy(ref, mat))


class TestFullLu:
    def test_reconstructs_permuted_matrix(self, ref, general_small):
        fact = lu(Csr.from_scipy(ref, general_small))
        l_np = fact.l_factor.to_scipy().toarray()
        u_np = fact.u_factor.to_scipy().toarray()
        pr = fact.row_permutation.permutation
        pc = fact.col_permutation.permutation
        a_np = general_small.toarray()
        # SuperLU: Pr A Pc = L U, i.e. A[argsort(perm_r)][:, argsort(perm_c)].
        permuted = a_np[np.argsort(pr), :][:, np.argsort(pc)]
        np.testing.assert_allclose(l_np @ u_np, permuted, atol=1e-9)

    def test_requires_square(self, ref, rect_small):
        with pytest.raises(BadDimension):
            lu(Csr.from_scipy(ref, rect_small))
