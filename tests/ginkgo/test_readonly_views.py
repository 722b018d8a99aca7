"""Exported views are read-only by default (stale-memo protection).

A raw write through ``csr.values[...]`` or ``dense.view()[...]`` bypasses
``mark_modified()``, so every memoized derived object (cached
conversions, transposes, lazy-expression results) silently keeps serving
the old data.  The properties therefore hand out non-writeable views;
deliberate in-place mutation goes through ``writable_values()`` /
``writable_view()`` followed by an explicit ``mark_modified()``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import repro as pg
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.matrix import Coo, Csr, Dense, Hybrid, Sellp


@pytest.fixture
def small_sp(rng):
    mat = sp.random(10, 10, density=0.4, format="csr", random_state=rng)
    mat.setdiag(3.0)
    return mat.tocsr()


class TestCsr:
    def test_views_reject_writes(self, ref, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        for view in (mtx.values, mtx.col_idxs, mtx.row_ptrs):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 0

    def test_views_still_read_correctly(self, ref, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        np.testing.assert_array_equal(mtx.values, small_sp.data)
        np.testing.assert_array_equal(mtx.row_ptrs, small_sp.indptr)

    def test_writable_values_plus_mark_modified(self, ref, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        t1 = mtx.transpose()
        mtx.writable_values()[:] = 1.0
        mtx.mark_modified()
        assert mtx.transpose() is not t1
        np.testing.assert_array_equal(mtx.values, 1.0)

    def test_stale_memo_scenario_is_blocked(self, ref):
        """The exact bug class the default prevents: poke values, reuse
        a cached product computed from the old data."""
        base = sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
        mtx = Csr.from_scipy(ref, base)
        b = Dense(ref, np.ones((2, 1)))
        x = Dense.zeros(ref, (2, 1), np.float64)
        mtx.apply(b, x)  # warms derived caches
        with pytest.raises(ValueError):
            mtx.values[:] = [9.0, 9.0]  # would NOT invalidate — rejected
        mtx.apply(b, x)
        np.testing.assert_array_equal(np.asarray(x), [[2.0], [3.0]])


class TestCoo:
    def test_views_reject_writes(self, ref, small_sp):
        mtx = Coo.from_scipy(ref, small_sp)
        for view in (mtx.values, mtx.row_idxs, mtx.col_idxs):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 0

    def test_writable_values_roundtrip(self, ref, small_sp):
        mtx = Coo.from_scipy(ref, small_sp)
        original = mtx.values.copy()
        mtx.writable_values()[:] = original * 2.0
        mtx.mark_modified()
        np.testing.assert_array_equal(mtx.values, original * 2.0)


class TestSellp:
    def test_views_reject_writes(self, ref, small_sp):
        mtx = Sellp.from_scipy(ref, small_sp, slice_size=4)
        for view in (mtx.values, mtx.col_idxs, mtx.slice_lengths, mtx.slice_sets):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 0

    def test_views_still_read_correctly(self, ref, small_sp):
        mtx = Sellp.from_scipy(ref, small_sp, slice_size=4)
        assert np.count_nonzero(mtx.values) == small_sp.nnz
        np.testing.assert_array_equal(
            np.diff(mtx.slice_sets), mtx.slice_lengths * 4
        )

    @pytest.mark.parametrize("value_dtype", [np.float64, np.float16])
    def test_stale_view_scenario_is_blocked(self, ref, small_sp, value_dtype):
        """A write through ``values`` would leave the cached SpMV view
        (for float16 a float32 *copy*) serving the old numbers."""
        mtx = Sellp.from_scipy(ref, small_sp, value_dtype=value_dtype)
        b = Dense(ref, np.ones((10, 1), dtype=value_dtype))
        x = Dense.zeros(ref, (10, 1), value_dtype)
        mtx.apply(b, x)  # builds the view
        before = np.asarray(x).copy()
        with pytest.raises(ValueError):
            mtx.values[:] = 0.0
        mtx.writable_values()[:] = 0.0
        mtx.mark_modified()
        mtx.apply(b, x)
        assert np.any(before != 0) and not np.any(np.asarray(x))


class TestDense:
    def test_view_rejects_writes(self, ref, rng):
        d = Dense(ref, rng.standard_normal((4, 2)))
        view = d.view()
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 99.0

    def test_writable_view_plus_mark_modified(self, ref, rng):
        d = Dense(ref, rng.standard_normal((4, 2)))
        t1 = d.transpose()
        d.writable_view()[:, :] = 7.0
        d.mark_modified()
        assert d.transpose() is not t1
        np.testing.assert_array_equal(d.view(), 7.0)

    def test_lazy_results_not_poisoned(self, ref, rng):
        """Read-only views keep LazyExpr memoization honest: the only
        mutation paths all bump data_version."""
        a = Dense(ref, np.ones((4, 1)))
        with pg.deferred():
            expr = 2.0 * a
            r1 = expr.evaluate()
            with pytest.raises(ValueError):
                a.view()[:] = 5.0  # the silent-staleness write is blocked
            assert expr.evaluate() is r1  # cache still valid — data unchanged
            a.writable_view()[:] = 5.0
            a.mark_modified()
            r2 = expr.evaluate()
        assert r2 is not r1
        np.testing.assert_array_equal(np.asarray(r2), 10.0)


class TestEscapeHatchErrors:
    def test_hybrid_has_no_single_values_array(self, ref, small_sp):
        mtx = Hybrid.from_scipy(ref, small_sp)
        with pytest.raises(GinkgoError):
            mtx.writable_values()

    def test_to_scipy_returns_independent_copy(self, ref, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        out = mtx.to_scipy()
        out.data[:] = 0.0  # mutating the export must not touch the matrix
        np.testing.assert_array_equal(mtx.values, small_sp.data)
