"""Triangular and direct solver tests."""

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from repro.ginkgo import BadDimension
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.solver import Direct, LowerTrs, UpperTrs, triangular


@pytest.fixture
def lower_tri(spd_small):
    return sp.tril(spd_small).tocsr()


@pytest.fixture
def upper_tri(spd_small):
    return sp.triu(spd_small).tocsr()


class TestTriangular:
    def test_lower_solve(self, ref, lower_tri, rng):
        xstar = rng.standard_normal((lower_tri.shape[0], 1))
        solver = LowerTrs(ref).generate(Csr.from_scipy(ref, lower_tri))
        x = Dense.zeros(ref, xstar.shape, np.float64)
        solver.apply(Dense(ref, lower_tri @ xstar), x)
        np.testing.assert_allclose(np.asarray(x), xstar, atol=1e-10)

    def test_upper_solve(self, ref, upper_tri, rng):
        xstar = rng.standard_normal((upper_tri.shape[0], 1))
        solver = UpperTrs(ref).generate(Csr.from_scipy(ref, upper_tri))
        x = Dense.zeros(ref, xstar.shape, np.float64)
        solver.apply(Dense(ref, upper_tri @ xstar), x)
        np.testing.assert_allclose(np.asarray(x), xstar, atol=1e-10)

    def test_multi_rhs(self, ref, lower_tri, rng):
        xstar = rng.standard_normal((lower_tri.shape[0], 4))
        solver = LowerTrs(ref).generate(Csr.from_scipy(ref, lower_tri))
        x = Dense.zeros(ref, xstar.shape, np.float64)
        solver.apply(Dense(ref, lower_tri @ xstar), x)
        np.testing.assert_allclose(np.asarray(x), xstar, atol=1e-10)

    def test_unit_diagonal_overrides_stored(self, ref, rng):
        strict = sp.csr_matrix(
            np.tril(rng.standard_normal((6, 6)), -1)
        )
        solver = LowerTrs(ref, unit_diagonal=True).generate(
            Csr.from_scipy(ref, strict)
        )
        dense = strict.toarray() + np.eye(6)
        xstar = rng.standard_normal((6, 1))
        x = Dense.zeros(ref, (6, 1), np.float64)
        solver.apply(Dense(ref, dense @ xstar), x)
        np.testing.assert_allclose(np.asarray(x), xstar, atol=1e-10)

    def test_zero_diagonal_rejected_without_unit_flag(self, ref):
        strict = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(GinkgoError, match="diagonal"):
            LowerTrs(ref).generate(Csr.from_scipy(ref, strict))

    def test_square_required(self, ref, rect_small):
        with pytest.raises(BadDimension):
            LowerTrs(ref).generate(Csr.from_scipy(ref, rect_small))

    def test_advanced_apply(self, ref, lower_tri, rng):
        xstar = rng.standard_normal((lower_tri.shape[0], 1))
        solver = LowerTrs(ref).generate(Csr.from_scipy(ref, lower_tri))
        x0 = rng.standard_normal(xstar.shape)
        x = Dense(ref, x0)
        solver.apply_advanced(2.0, Dense(ref, lower_tri @ xstar), -1.0, x)
        np.testing.assert_allclose(np.asarray(x), 2 * xstar - x0, atol=1e-9)

    def test_charges_clock(self, ref, lower_tri, rng):
        solver = LowerTrs(ref).generate(Csr.from_scipy(ref, lower_tri))
        b = Dense(ref, rng.standard_normal((lower_tri.shape[0], 1)))
        x = Dense.zeros(ref, (lower_tri.shape[0], 1), np.float64)
        before = ref.clock.now
        solver.apply(b, x)
        assert ref.clock.now > before


def test_private_gstrs_symbol_matches_public_solve(ref, rng):
    """The trsv apply calls SciPy's private ``_superlu.gstrs`` directly.

    If a SciPy release moves the symbol, importing ``repro`` fails with
    the SciPy version in the message; if the symbol stays but its
    operand contract changes, this differential check fails by version.
    """
    from scipy.sparse.linalg._dsolve import _superlu

    assert triangular.gstrs is _superlu.gstrs
    tri = sp.tril(
        sp.random(80, 80, density=0.1, random_state=rng) + sp.eye(80)
    ).tocsr()
    b = rng.standard_normal((80, 2))
    x = Dense.zeros(ref, b.shape, np.float64)
    LowerTrs(ref).generate(Csr.from_scipy(ref, tri)).apply(Dense(ref, b), x)
    assert np.array_equal(np.asarray(x), spsolve_triangular(tri, b)), (
        "prepared gstrs operands disagree with spsolve_triangular on "
        f"scipy {scipy.__version__}"
    )


class TestDirect:
    def test_solves_general_system(self, ref, general_small, rng):
        xstar = rng.standard_normal((general_small.shape[0], 1))
        solver = Direct(ref).generate(Csr.from_scipy(ref, general_small))
        x = Dense.zeros(ref, xstar.shape, np.float64)
        solver.apply(Dense(ref, general_small @ xstar), x)
        np.testing.assert_allclose(np.asarray(x), xstar, atol=1e-9)

    def test_multi_rhs(self, ref, general_small, rng):
        xstar = rng.standard_normal((general_small.shape[0], 3))
        solver = Direct(ref).generate(Csr.from_scipy(ref, general_small))
        x = Dense.zeros(ref, xstar.shape, np.float64)
        solver.apply(Dense(ref, general_small @ xstar), x)
        np.testing.assert_allclose(np.asarray(x), xstar, atol=1e-9)

    def test_factorisation_reused_across_applies(self, ref, general_small, rng):
        solver = Direct(ref).generate(Csr.from_scipy(ref, general_small))
        b = Dense(ref, rng.standard_normal((general_small.shape[0], 1)))
        x = Dense.zeros(ref, (general_small.shape[0], 1), np.float64)
        solver.apply(b, x)
        t_factorised = ref.clock.now
        solver.apply(b, x)
        second_apply = ref.clock.now - t_factorised
        # The second apply skips factorisation: much cheaper than total.
        assert second_apply < t_factorised / 2

    def test_fill_in_reported(self, ref, general_small):
        solver = Direct(ref).generate(Csr.from_scipy(ref, general_small))
        assert solver.fill_in_nnz >= general_small.nnz

    def test_square_required(self, ref, rect_small):
        with pytest.raises(BadDimension):
            Direct(ref).generate(Csr.from_scipy(ref, rect_small))

    def test_advanced_apply(self, ref, general_small, rng):
        xstar = rng.standard_normal((general_small.shape[0], 1))
        solver = Direct(ref).generate(Csr.from_scipy(ref, general_small))
        x0 = rng.standard_normal(xstar.shape)
        x = Dense(ref, x0)
        solver.apply_advanced(3.0, Dense(ref, general_small @ xstar), 1.0, x)
        np.testing.assert_allclose(np.asarray(x), 3 * xstar + x0, atol=1e-8)
