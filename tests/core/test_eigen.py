"""Rayleigh-Ritz and Krylov eigensolver tests (the pure-Python layer)."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro as pg
from repro.core.rayleigh_ritz import orthonormalize
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.matrix import Csr, Dense
from repro.suitesparse import mesh_delaunay


@pytest.fixture
def spd_operator(ref):
    """SPD operator with well-separated eigenvalues."""
    n = 40
    diag = np.linspace(1.0, 40.0, n)
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dense = q @ np.diag(diag) @ q.T
    return Csr.from_scipy(ref, sp.csr_matrix(dense)), diag


@pytest.fixture
def mesh_operator(ref):
    """The example's graph Laplacian, where one Gram-Schmidt pass is not enough."""
    return Csr.from_scipy(ref, mesh_delaunay(400, seed=42))


def _scaled(ref, op, factor):
    return Csr.from_scipy(ref, sp.csr_matrix(np.asarray(op.to_dense()) * factor))


class TestOrthonormalize:
    def test_columns_become_orthonormal(self, ref, rng):
        block = Dense(ref, rng.standard_normal((20, 5)))
        q = orthonormalize(block)
        gram = np.asarray(q).T @ np.asarray(q)
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)

    def test_span_preserved(self, ref, rng):
        data = rng.standard_normal((10, 3))
        q = np.asarray(orthonormalize(Dense(ref, data)))
        # Projecting the original columns onto span(q) recovers them.
        projected = q @ (q.T @ data)
        np.testing.assert_allclose(projected, data, atol=1e-10)

    def test_dependent_columns_rejected(self, ref):
        data = np.ones((5, 2))
        with pytest.raises(GinkgoError, match="dependent"):
            orthonormalize(Dense(ref, data))

    def test_tiny_columns_are_independent(self, ref, rng):
        data = rng.standard_normal((20, 5))
        tiny = np.asarray(orthonormalize(Dense(ref, data * 1e-15)))
        np.testing.assert_allclose(
            tiny, np.asarray(orthonormalize(Dense(ref, data))), atol=1e-12
        )


class TestRayleighRitz:
    def test_full_basis_recovers_spectrum(self, ref, spd_operator, rng):
        op, diag = spd_operator
        n = op.size.rows
        basis = Dense(ref, rng.standard_normal((n, n)))
        pairs = pg.rayleigh_ritz(op, basis)
        np.testing.assert_allclose(np.sort(pairs.values), np.sort(diag),
                                   atol=1e-8)

    def test_values_ascending(self, ref, spd_operator, rng):
        op, _ = spd_operator
        basis = Dense(ref, rng.standard_normal((op.size.rows, 8)))
        pairs = pg.rayleigh_ritz(op, basis)
        assert np.all(np.diff(pairs.values) >= 0)

    def test_residuals_reported(self, ref, spd_operator, rng):
        op, _ = spd_operator
        basis = Dense(ref, rng.standard_normal((op.size.rows, 5)))
        pairs = pg.rayleigh_ritz(op, basis)
        assert pairs.residual_norms.shape == (5,)
        assert np.all(pairs.residual_norms >= 0)

    def test_eigenvector_basis_gives_zero_residual(self, ref, spd_operator):
        op, diag = spd_operator
        dense = op.to_dense()
        _, vecs = np.linalg.eigh(np.asarray(dense))
        basis = Dense(ref, vecs[:, :4].copy())
        pairs = pg.rayleigh_ritz(op, basis, orthonormal=True)
        assert np.max(pairs.residual_norms) < 1e-8

    def test_dimension_validation(self, ref, spd_operator, rng):
        op, _ = spd_operator
        with pytest.raises(GinkgoError):
            pg.rayleigh_ritz(op, Dense(ref, rng.standard_normal((7, 2))))


class TestRayleighRitzEigensolver:
    def test_finds_dominant_eigenvalues(self, ref, spd_operator):
        op, diag = spd_operator
        pairs = pg.rayleigh_ritz_eigensolver(op, 3, num_iterations=40,
                                             seed=3)
        expected = np.sort(diag)[-3:]
        np.testing.assert_allclose(pairs.values, expected, rtol=1e-4)

    def test_residuals_shrink_with_iterations(self, ref, spd_operator):
        op, _ = spd_operator
        rough = pg.rayleigh_ritz_eigensolver(op, 2, num_iterations=2, seed=3)
        tight = pg.rayleigh_ritz_eigensolver(op, 2, num_iterations=40, seed=3)
        assert np.max(tight.residual_norms) < np.max(rough.residual_norms)

    def test_tolerance_early_exit(self, ref, spd_operator):
        op, _ = spd_operator
        pairs = pg.rayleigh_ritz_eigensolver(
            op, 2, num_iterations=200, tol=1e-6, seed=3
        )
        assert np.max(pairs.residual_norms) < 1e-4

    def test_invalid_arguments(self, ref, spd_operator):
        op, _ = spd_operator
        with pytest.raises(GinkgoError):
            pg.rayleigh_ritz_eigensolver(op, 0)
        with pytest.raises(GinkgoError):
            pg.rayleigh_ritz_eigensolver(op, 2, num_iterations=0)

    def test_more_pairs_than_the_operator_has(self, ref):
        op = Csr.from_scipy(ref, sp.diags(np.arange(1.0, 6.0), format="csr"))
        with pytest.raises(GinkgoError, match="num_eigenpairs"):
            pg.rayleigh_ritz_eigensolver(op, 8)


class TestLanczos:
    def test_extreme_eigenvalues(self, ref, spd_operator):
        op, diag = spd_operator
        result = pg.lanczos(op, 30, seed=5)
        ritz = result.eigenvalues()
        assert ritz.max() == pytest.approx(diag.max(), rel=1e-3)
        assert ritz.min() == pytest.approx(diag.min(), rel=0.1)

    def test_basis_orthonormal(self, ref, spd_operator):
        op, _ = spd_operator
        result = pg.lanczos(op, 15, seed=5)
        q = np.asarray(result.basis)
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-8)

    def test_invalid_steps(self, ref, spd_operator):
        op, _ = spd_operator
        with pytest.raises(GinkgoError):
            pg.lanczos(op, 0)

    def test_scaled_operator_runs_every_step(self, ref, spd_operator):
        op, _ = spd_operator
        tiny = pg.lanczos(_scaled(ref, op, 1e-15), 20, seed=5)
        assert tiny.alphas.size == 20
        np.testing.assert_allclose(
            tiny.eigenvalues(),
            1e-15 * pg.lanczos(op, 20, seed=5).eigenvalues(),
            rtol=1e-10,
        )


class TestArnoldi:
    def test_hessenberg_relation(self, ref, general_small):
        op = Csr.from_scipy(ref, general_small)
        result = pg.arnoldi(op, 10, seed=5)
        v = np.asarray(result.basis)
        h = result.hessenberg
        # A V_m = V_{m+1} H (restricted to the built basis).
        a = general_small.toarray()
        m = h.shape[1]
        np.testing.assert_allclose(a @ v[:, :m], v @ h, atol=1e-8)

    def test_eigenvalue_estimates(self, ref, spd_operator):
        op, diag = spd_operator
        result = pg.arnoldi(op, 35, seed=5)
        assert np.max(result.eigenvalues().real) == pytest.approx(
            diag.max(), rel=1e-2
        )

    def test_scaled_operator_runs_every_step(self, ref, spd_operator):
        op, _ = spd_operator
        tiny = pg.arnoldi(_scaled(ref, op, 1e-15), 20, seed=5)
        assert tiny.hessenberg.shape == (21, 20)
        np.testing.assert_allclose(
            np.sort(tiny.eigenvalues().real),
            1e-15 * np.sort(pg.arnoldi(op, 20, seed=5).eigenvalues().real),
            rtol=1e-10,
        )

    def test_basis_orthonormal_on_a_mesh(self, mesh_operator):
        v = np.asarray(pg.arnoldi(mesh_operator, 60, seed=1).basis)
        assert np.abs(v.T @ v - np.eye(v.shape[1])).max() <= 1e-12

    def test_ritz_values_match_lanczos(self, mesh_operator):
        ritz = pg.arnoldi(mesh_operator, 60, seed=1).eigenvalues()
        np.testing.assert_allclose(
            np.sort(ritz.real),
            pg.lanczos(mesh_operator, 60, seed=1).eigenvalues(),
            rtol=1e-12,
        )

    def test_traced_spans_per_step_are_constant(self, ref, mesh_operator):
        def spans(steps):
            with pg.profile(ref) as prof:
                pg.arnoldi(mesh_operator, steps)
            return prof.trace.num_spans

        assert spans(40) <= 2.2 * spans(20)


class TestPowerIteration:
    def test_dominant_eigenpair(self, ref, spd_operator):
        op, diag = spd_operator
        value, vector = pg.power_iteration(op, num_iterations=300, seed=2)
        assert value == pytest.approx(diag.max(), rel=1e-4)
        # Residual check: A v ~ lambda v.
        av = Dense.zeros(ref, vector.size, vector.dtype)
        op.apply(vector, av)
        np.testing.assert_allclose(
            np.asarray(av), value * np.asarray(vector), atol=1e-3
        )

    def test_tolerance_stops_early(self, ref, spd_operator):
        op, diag = spd_operator
        value, _ = pg.power_iteration(op, num_iterations=5000, seed=2,
                                      tol=1e-12)
        assert value == pytest.approx(diag.max(), rel=1e-6)
