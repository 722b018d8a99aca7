"""Sparse format tests: CSR, COO, ELL, SELL-P, Hybrid, SparsityCsr,
Diagonal, Permutation — construction, SpMV, structure, conversions."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ginkgo import BadDimension, Dim
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.matrix import (
    Coo,
    Csr,
    Dense,
    Diagonal,
    Ell,
    Hybrid,
    Permutation,
    Sellp,
    SparsityCsr,
)

ALL_FORMATS = [Csr, Coo, Ell, Sellp, Hybrid]


def _apply(matrix, b_np):
    x = Dense.zeros(matrix.executor, (matrix.size.rows, b_np.shape[1]),
                    b_np.dtype)
    matrix.apply(Dense(matrix.executor, b_np), x)
    return np.asarray(x)


class TestAllFormatsSpmv:
    @pytest.mark.parametrize("cls", ALL_FORMATS)
    def test_spmv_matches_scipy(self, cls, ref, general_small, rng):
        mat = cls.from_scipy(ref, general_small)
        b = rng.standard_normal((general_small.shape[1], 1))
        np.testing.assert_allclose(
            _apply(mat, b), general_small @ b, rtol=1e-12
        )

    # Ell/Sellp/Hybrid multi-RHS: test_format_kernels.py (8 columns,
    # differential against Csr, which is checked against SciPy here).
    @pytest.mark.parametrize("cls", [Csr, Coo])
    def test_multi_rhs(self, cls, ref, general_small, rng):
        mat = cls.from_scipy(ref, general_small)
        b = rng.standard_normal((general_small.shape[1], 3))
        np.testing.assert_allclose(
            _apply(mat, b), general_small @ b, rtol=1e-12
        )

    @pytest.mark.parametrize("cls", ALL_FORMATS)
    def test_rectangular(self, cls, ref, rect_small, rng):
        mat = cls.from_scipy(ref, rect_small)
        b = rng.standard_normal((rect_small.shape[1], 1))
        np.testing.assert_allclose(_apply(mat, b), rect_small @ b, rtol=1e-12)

    @pytest.mark.parametrize("cls", ALL_FORMATS)
    def test_advanced_apply(self, cls, ref, general_small, rng):
        mat = cls.from_scipy(ref, general_small)
        b = rng.standard_normal((general_small.shape[1], 1))
        x0 = rng.standard_normal((general_small.shape[0], 1))
        x = Dense(ref, x0)
        mat.apply_advanced(2.0, Dense(ref, b), -0.5, x)
        np.testing.assert_allclose(
            np.asarray(x), 2.0 * (general_small @ b) - 0.5 * x0, rtol=1e-12
        )

    @pytest.mark.parametrize("cls", ALL_FORMATS)
    def test_fp32_and_fp16(self, cls, ref, general_small, rng):
        b = rng.standard_normal((general_small.shape[1], 1))
        expect = general_small @ b
        for dtype, tol in ((np.float32, 1e-5), (np.float16, 5e-2)):
            mat = cls.from_scipy(ref, general_small, value_dtype=dtype)
            got = _apply(mat, b.astype(dtype)).astype(np.float64)
            np.testing.assert_allclose(got, expect, rtol=tol, atol=tol)

    @pytest.mark.parametrize("cls", ALL_FORMATS)
    def test_nnz_and_density(self, cls, ref, general_small):
        mat = cls.from_scipy(ref, general_small)
        assert mat.nnz == general_small.nnz
        assert mat.density == pytest.approx(
            general_small.nnz / np.prod(general_small.shape)
        )

    @pytest.mark.parametrize("cls", ALL_FORMATS)
    def test_spmv_charges_clock(self, cls, ref, general_small, rng):
        mat = cls.from_scipy(ref, general_small)
        b = rng.standard_normal((general_small.shape[1], 1))
        before = ref.clock.now
        _apply(mat, b)
        assert ref.clock.now > before


class TestCsr:
    def test_invalid_row_ptrs(self, ref):
        with pytest.raises(BadDimension):
            Csr(ref, Dim(3, 3), [0, 1], [0], np.ones(1))

    def test_nnz_mismatch(self, ref):
        with pytest.raises(BadDimension):
            Csr(ref, Dim(2, 2), np.array([0, 1, 3], dtype=np.int32),
                np.array([0], dtype=np.int32), np.ones(1))

    def test_unknown_strategy(self, ref, general_small):
        with pytest.raises(GinkgoError, match="strategy"):
            Csr.from_scipy(ref, general_small, strategy="warp")

    def test_strategy_setter(self, ref, general_small):
        mat = Csr.from_scipy(ref, general_small)
        mat.strategy = "classical"
        assert mat.strategy == "classical"
        with pytest.raises(GinkgoError):
            mat.strategy = "nope"

    def test_transpose(self, ref, rect_small):
        mat = Csr.from_scipy(ref, rect_small)
        t = mat.transpose()
        assert t.size == Dim(25, 40)
        np.testing.assert_allclose(
            t.to_scipy().toarray(), rect_small.T.toarray()
        )

    def test_scale(self, ref, general_small, rng):
        mat = Csr.from_scipy(ref, general_small)
        mat.scale(2.0)
        b = rng.standard_normal((general_small.shape[1], 1))
        np.testing.assert_allclose(_apply(mat, b), 2.0 * (general_small @ b))

    def test_sorted_predicate_and_sort(self, ref):
        mat = Csr(
            ref, Dim(2, 3),
            np.array([0, 2, 3], dtype=np.int32),
            np.array([2, 0, 1], dtype=np.int32),
            np.array([1.0, 2.0, 3.0]),
        )
        assert not mat.is_sorted_by_column_index()
        mat.sort_by_column_index()
        assert mat.is_sorted_by_column_index()
        np.testing.assert_allclose(
            mat.to_scipy().toarray(), [[2.0, 0, 1.0], [0, 3.0, 0]]
        )

    def test_row_nnz_and_imbalance(self, ref):
        a = sp.csr_matrix(np.array([[1.0, 1, 1, 1], [1, 0, 0, 0],
                                    [0, 1, 0, 0], [0, 0, 1, 0]]))
        mat = Csr.from_scipy(ref, a)
        np.testing.assert_array_equal(mat.row_nnz(), [4, 1, 1, 1])
        assert mat.imbalance() == pytest.approx(4 / 1.75)

    def test_extract_diagonal(self, ref, general_small):
        mat = Csr.from_scipy(ref, general_small)
        diag = mat.extract_diagonal()
        np.testing.assert_allclose(
            np.asarray(diag.values), general_small.diagonal()
        )

    def test_index_dtypes(self, ref, general_small):
        for idx in (np.int32, np.int64):
            mat = Csr.from_scipy(ref, general_small, index_dtype=idx)
            assert mat.index_dtype == idx
            assert mat.row_ptrs.dtype == idx

    def test_astype(self, ref, general_small):
        mat = Csr.from_scipy(ref, general_small).astype(np.float32)
        assert mat.dtype == np.float32

    def test_copy_to_device(self, ref, cuda, general_small, rng):
        mat = Csr.from_scipy(ref, general_small)
        on_gpu = mat.copy_to(cuda)
        assert on_gpu.executor is cuda
        b = rng.standard_normal((general_small.shape[1], 1))
        x = Dense.zeros(cuda, (general_small.shape[0], 1), np.float64)
        on_gpu.apply(Dense(cuda, b), x)
        np.testing.assert_allclose(x.to_numpy(), general_small @ b)


class TestCoo:
    def test_triplet_length_mismatch(self, ref):
        with pytest.raises(BadDimension):
            Coo(ref, Dim(2, 2), np.array([0], dtype=np.int32),
                np.array([0, 1], dtype=np.int32), np.ones(2))

    def test_indices_out_of_range(self, ref):
        with pytest.raises(BadDimension):
            Coo(ref, Dim(2, 2), np.array([5], dtype=np.int32),
                np.array([0], dtype=np.int32), np.ones(1))

    def test_transpose_swaps_indices(self, ref, rect_small):
        mat = Coo.from_scipy(ref, rect_small)
        t = mat.transpose()
        np.testing.assert_allclose(
            t.to_scipy().toarray(), rect_small.T.toarray()
        )

    def test_convert_to_csr(self, ref, general_small):
        coo = Coo.from_scipy(ref, general_small)
        csr = coo.convert_to_csr()
        np.testing.assert_allclose(
            csr.to_scipy().toarray(), general_small.toarray()
        )


class TestEll:
    def test_padding_width(self, ref):
        a = sp.csr_matrix(np.array([[1.0, 2, 3], [4, 0, 0], [0, 5, 0]]))
        ell = Ell.from_scipy(ref, a)
        assert ell.num_stored_elements_per_row == 3
        assert ell.stored_elements == 9
        assert ell.nnz == 5

    def test_block_shape_validation(self, ref):
        with pytest.raises(BadDimension):
            Ell(ref, Dim(2, 2), np.zeros((2, 2), dtype=np.int32),
                np.zeros((3, 2)))

    def test_column_range_validation(self, ref):
        """The compiled kernel gathers ``x[col]`` unchecked."""
        values = np.ones((2, 2))
        for bad in ([[0, 2], [1, 0]], [[0, -1], [1, 0]]):
            with pytest.raises(BadDimension, match="column indices"):
                Ell(ref, Dim(2, 2), np.array(bad, dtype=np.int32), values)

    def test_roundtrip_csr(self, ref, general_small):
        ell = Ell.from_scipy(ref, general_small)
        back = ell.convert_to_csr()
        np.testing.assert_allclose(
            back.to_scipy().toarray(), general_small.toarray()
        )


class TestSellp:
    def test_slice_structure(self, ref, general_small):
        mat = Sellp.from_scipy(ref, general_small, slice_size=8)
        assert mat.slice_size == 8
        expected_slices = -(-general_small.shape[0] // 8)
        assert mat.slice_lengths.size == expected_slices
        assert mat.slice_sets.size == expected_slices + 1
        assert mat.nnz == general_small.nnz

    def test_padding_bounded_by_slice_max(self, ref, general_small):
        mat = Sellp.from_scipy(ref, general_small, slice_size=4)
        # Stored slots = sum(slice_len * slice_size) == slice_sets[-1].
        assert mat.stored_elements == int(mat.slice_sets[-1])

    def test_roundtrip_csr(self, ref, general_small):
        mat = Sellp.from_scipy(ref, general_small, slice_size=16)
        np.testing.assert_allclose(
            mat.convert_to_csr().to_scipy().toarray(),
            general_small.toarray(),
        )

    def test_invalid_slice_size(self, ref, general_small):
        with pytest.raises(BadDimension):
            Sellp(ref, Dim(4, 4), 0, [], [0], [], [])


class TestHybrid:
    def test_split_conserves_nnz(self, ref, general_small):
        mat = Hybrid.from_scipy(ref, general_small, percent=0.5)
        assert mat.nnz == general_small.nnz
        assert mat.ell_part.nnz + mat.coo_part.nnz == general_small.nnz

    def test_percent_extremes(self, ref, general_small):
        all_ell = Hybrid.from_scipy(ref, general_small, percent=1.0)
        assert all_ell.coo_part.nnz == 0
        with pytest.raises(ValueError):
            Hybrid.from_scipy(ref, general_small, percent=1.5)

    def test_roundtrip_csr(self, ref, general_small):
        mat = Hybrid.from_scipy(ref, general_small, percent=0.6)
        np.testing.assert_allclose(
            mat.convert_to_csr().to_scipy().toarray(),
            general_small.toarray(),
        )


class TestSparsityCsr:
    def test_pattern_spmv_is_row_sum_gather(self, ref, general_small, rng):
        pattern = SparsityCsr.from_scipy(ref, general_small)
        b = rng.standard_normal((general_small.shape[1], 1))
        ones_matrix = general_small.copy()
        ones_matrix.data[:] = 1.0
        np.testing.assert_allclose(_apply(pattern, b), ones_matrix @ b)

    def test_uniform_value(self, ref, general_small, rng):
        pattern = SparsityCsr.from_scipy(ref, general_small, value=0.5)
        assert pattern.value == 0.5

    def test_materialise_to_csr(self, ref, general_small):
        pattern = SparsityCsr.from_scipy(ref, general_small)
        csr = pattern.convert_to_csr()
        assert csr.nnz == general_small.nnz
        assert set(np.unique(csr.values)) == {1.0}


class TestDiagonal:
    def test_apply(self, ref, rng):
        diag = np.array([1.0, 2.0, 3.0])
        op = Diagonal(ref, diag)
        b = rng.standard_normal((3, 2))
        np.testing.assert_allclose(_apply(op, b), diag[:, None] * b)

    def test_inverse_skips_zeros(self, ref):
        op = Diagonal(ref, np.array([2.0, 0.0, 4.0]))
        inv = op.inverse()
        np.testing.assert_allclose(np.asarray(inv.values), [0.5, 0.0, 0.25])

    def test_transpose_is_self(self, ref):
        op = Diagonal(ref, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(
            np.asarray(op.transpose().values), np.asarray(op.values)
        )

    def test_nnz_counts_nonzeros(self, ref):
        assert Diagonal(ref, np.array([1.0, 0.0, 2.0])).nnz == 2


class TestPermutation:
    def test_apply_permutes_rows(self, ref):
        perm = Permutation(ref, [2, 0, 1])
        b = Dense(ref, np.array([[10.0], [20.0], [30.0]]))
        x = Dense.zeros(ref, (3, 1), np.float64)
        perm.apply(b, x)
        np.testing.assert_array_equal(
            np.asarray(x).ravel(), [30.0, 10.0, 20.0]
        )

    def test_inverse_roundtrip(self, ref, rng):
        order = rng.permutation(10)
        perm = Permutation(ref, order)
        inv = perm.inverse()
        b = Dense(ref, rng.standard_normal((10, 1)))
        mid = Dense.zeros(ref, (10, 1), np.float64)
        out = Dense.zeros(ref, (10, 1), np.float64)
        perm.apply(b, mid)
        inv.apply(mid, out)
        np.testing.assert_allclose(np.asarray(out), np.asarray(b))

    def test_invalid_permutation_rejected(self, ref):
        with pytest.raises(BadDimension):
            Permutation(ref, [0, 0, 1])
