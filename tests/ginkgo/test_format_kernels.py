"""Differential oracle for the padded formats' SpMV kernels.

One contract table, enforced against :class:`Csr` on the same operands:

========  =============================================================
format    contract
========  =============================================================
``Ell``   bitwise (signed zeros folded: padding adds ``+0 * x[0]``)
``Sellp`` bitwise, for every ``slice_size``
``Hybrid``  ``HYBRID_ULPS`` ulp of ``|A| |x|`` — a spilling row is summed
          as (ELL partial) + (COO partial), not entry by entry
========  =============================================================

The sweep covers float64/float32 and float16 storage (computed in
float32 by every format, so the same contracts hold), both index types,
1 and 8 right-hand sides, ``apply`` and ``apply(alpha, b, beta, x)``.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ginkgo import cachestats
from repro.ginkgo.matrix import Csr, Dense, Ell, Hybrid, Sellp
from repro.suitesparse.generators import kronecker_graph

#: Hybrid's pinned distance from CSR, in ulp of the row's ``|A| |x|``.
HYBRID_ULPS = 4
VALUE_DTYPES = (np.float64, np.float32, np.float16)
INDEX_DTYPES = (np.int32, np.int64)
#: 1 = every row its own slice, 5 leaves a ragged last slice on most
#: shapes, 32 is the default, 64 exceeds every small case's row count.
SLICE_SIZES = (1, 5, 32, 64)
ALPHA, BETA = 1.5, -0.25


def _random(rows, cols, density, seed):
    mat = sp.random(
        rows, cols, density=density, format="csr",
        random_state=np.random.default_rng(seed),
        data_rvs=np.random.default_rng(seed + 1).standard_normal,
    )
    mat.sort_indices()
    return mat


def _empty_rows():
    mat = _random(23, 23, 0.3, 3).tolil()
    for row in (0, 7, 8, 22):
        mat[row, :] = 0.0
    return mat.tocsr()


def _kronecker():
    mat = kronecker_graph(7, seed=4)
    mat.data[:] = np.random.default_rng(5).standard_normal(mat.nnz)
    row_nnz = np.diff(mat.indptr)
    assert row_nnz.max() > 4 * np.median(row_nnz)  # the tail SELL-P exists for
    return mat


CASES = {
    "general_50x50": lambda: _random(50, 50, 0.12, 1) + sp.eye(50, format="csr"),
    "ragged_37x29": lambda: _random(37, 29, 0.2, 2),
    "empty_rows_23x23": _empty_rows,
    "all_empty_6x5": lambda: sp.csr_matrix((6, 5)),
    "one_by_one": lambda: sp.csr_matrix(np.array([[-2.5]])),
    "wide_9x40": lambda: _random(9, 40, 0.3, 6),
    "tall_40x9": lambda: _random(40, 9, 0.3, 7),
    "kronecker_128": _kronecker,
}


def _products(matrix, b_np):
    """``A b`` and ``alpha A b + beta x0`` through the public applies."""
    exec_ = matrix.executor
    b = Dense(exec_, b_np)
    shape = (matrix.size.rows, b_np.shape[1])
    x = Dense.zeros(exec_, shape, b_np.dtype)
    matrix.apply(b, x)
    x0 = np.linspace(-1.0, 1.0, shape[0] * shape[1]).reshape(shape)
    xa = Dense(exec_, x0.astype(b_np.dtype))
    matrix.apply_advanced(ALPHA, b, BETA, xa)
    return np.asarray(x).copy(), np.asarray(xa).copy()


def _assert_bitwise(got, want, label):
    assert got.dtype == want.dtype, label
    assert np.array_equal(got + 0.0, want + 0.0), label


class TestOracle:
    @pytest.mark.parametrize("index_dtype", INDEX_DTYPES)
    @pytest.mark.parametrize("value_dtype", VALUE_DTYPES)
    @pytest.mark.parametrize("case", CASES)
    def test_padded_formats_match_csr(self, ref, case, value_dtype, index_dtype):
        mat = CASES[case]().astype(np.float64)
        mat.sort_indices()
        kinds = {"value_dtype": value_dtype, "index_dtype": index_dtype}
        csr = Csr.from_scipy(ref, mat, **kinds)
        ell = Ell.from_scipy(ref, mat, **kinds)
        hybrids = [Hybrid.from_scipy(ref, mat, percent=p, **kinds) for p in (0.5, 1.0)]
        sellps = [
            Sellp.from_scipy(ref, mat, slice_size=s, **kinds) for s in SLICE_SIZES
        ]
        eps = float(np.finfo(value_dtype).eps)
        rng = np.random.default_rng(8)
        for num_rhs in (1, 8):
            b = rng.standard_normal((mat.shape[1], num_rhs)).astype(value_dtype)
            want = _products(csr, b)
            for mode, got in zip(("apply", "advanced"), _products(ell, b)):
                _assert_bitwise(got, want[mode == "advanced"], f"ell {mode}")
            for sellp in sellps:
                label = f"sellp[{sellp.slice_size}]"
                for mode, got in zip(("apply", "advanced"), _products(sellp, b)):
                    _assert_bitwise(got, want[mode == "advanced"], f"{label} {mode}")
            # |A| |x| bounds every partial sum either order can form; the
            # advanced form scales the product's error by |alpha|.
            scale = (abs(mat) @ np.abs(b.astype(np.float64))) + 1.0
            bound = HYBRID_ULPS * eps * scale * max(1.0, abs(ALPHA))
            for hybrid in hybrids:
                for got, ref_out in zip(_products(hybrid, b), want):
                    assert got.dtype == ref_out.dtype
                    diff = np.abs(got.astype(np.float64) - ref_out.astype(np.float64))
                    assert np.all(diff <= bound)
        # Conversions equal the Csr's too (float16 ones go through
        # scipy_safe: SciPy has no float16 sparse matrices).
        want = csr.to_scipy()
        for padded in [ell, *sellps, *hybrids]:
            for got in (padded.to_scipy(), padded.convert_to_csr().to_scipy()):
                assert got.dtype == want.dtype, type(padded).__name__
                assert np.array_equal(got.toarray(), want.toarray())

    def test_hybrid_spilling_row_is_not_bitwise(self, ref):
        """Why Hybrid's contract is a tolerance: one row, three entries,
        split 1 + 2 — (a) + (b + c) against CSR's ((a + b) + c)."""
        mat = sp.csr_matrix(np.array([[1e16, 1.0, 1.0], [0.0, 1.0, 0.0]]))
        hybrid = Hybrid.from_scipy(ref, mat, percent=0.0)  # width 1
        assert hybrid.coo_part.nnz == 2
        b = np.ones((3, 1))
        got, _ = _products(hybrid, b)
        want, _ = _products(Csr.from_scipy(ref, mat), b)
        assert got[0, 0] == 1e16 + 2.0 and want[0, 0] == 1e16


class TestInvalidation:
    """The views are keyed on ``data_version``: an edit announced with
    ``mark_modified()`` reaches the next apply, at one rebuild."""

    @staticmethod
    def _build(cls, ref, mat, value_dtype):
        # percent=1.0 keeps Hybrid all-ELL, so its one view is the ELL
        # part's (a COO part looks up its own CSR view besides).
        extra = {"percent": 1.0} if cls is Hybrid else {}
        return cls.from_scipy(ref, mat, value_dtype=value_dtype, **extra)

    @pytest.mark.parametrize("value_dtype", VALUE_DTYPES)
    @pytest.mark.parametrize("cls", [Ell, Sellp, Hybrid])
    def test_edit_is_seen_at_one_miss(self, ref, cls, value_dtype):
        mat = CASES["ragged_37x29"]()
        matrix = self._build(cls, ref, mat, value_dtype)
        b = np.random.default_rng(9).standard_normal((29, 1)).astype(value_dtype)
        before, _ = _products(matrix, b)
        assert np.any(before != 0)

        holder = matrix.ell_part if cls is Hybrid else matrix
        holder.writable_values()[...] *= 2  # exact in every value type
        matrix.mark_modified()
        _, misses0 = cachestats.counts("format")
        after, _ = _products(matrix, b)  # two applies: one miss, one hit
        hits1, misses1 = cachestats.counts("format")
        assert np.array_equal(after, 2 * before)
        assert misses1 - misses0 == 1
        _products(matrix, b)
        hits2, misses2 = cachestats.counts("format")
        assert (hits2 - hits1, misses2 - misses1) == (2, 0)

    @pytest.mark.parametrize("cls", [Ell, Sellp, Hybrid])
    def test_nnz_follows_the_data_version(self, ref, cls):
        matrix = self._build(cls, ref, CASES["ragged_37x29"](), np.float64)
        nnz = matrix.nnz
        holder = matrix.ell_part if cls is Hybrid else matrix
        values = holder.writable_values()
        values.reshape(-1)[np.flatnonzero(values)[0]] = 0.0
        matrix.mark_modified()
        assert matrix.nnz == nnz - 1


def _row_loop_split(csr, width, index_dtype, value_dtype):
    """The row loop ``Hybrid.from_scipy`` used to be, kept as reference."""
    rows = csr.shape[0]
    ell_cols = np.zeros((rows, max(width, 1)), dtype=index_dtype)
    ell_vals = np.zeros((rows, max(width, 1)), dtype=value_dtype)
    coo_r, coo_c, coo_v = [], [], []
    for r in range(rows):
        start, stop = csr.indptr[r], csr.indptr[r + 1]
        keep = min(stop - start, width)
        ell_cols[r, :keep] = csr.indices[start : start + keep]
        ell_vals[r, :keep] = csr.data[start : start + keep]
        coo_r.extend([r] * (stop - start - keep))
        coo_c.extend(csr.indices[start + keep : stop])
        coo_v.extend(csr.data[start + keep : stop])
    return (
        ell_cols, ell_vals,
        np.asarray(coo_r, dtype=index_dtype),
        np.asarray(coo_c, dtype=index_dtype),
        np.asarray(coo_v, dtype=value_dtype),
    )


class TestHybridSplit:
    """``Hybrid.from_scipy`` is a mask scatter; its parts are pinned to
    what the row loop it replaced produced."""

    @pytest.mark.parametrize("percent", [0.0, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("case", CASES)
    def test_parts_equal_the_row_loop(self, ref, case, percent):
        mat = CASES[case]()
        mat.sort_indices()
        hybrid = Hybrid.from_scipy(
            ref, mat, percent=percent, value_dtype=np.float32,
            index_dtype=np.int64,
        )
        width = int(np.quantile(np.diff(mat.indptr), percent))
        ell, coo = hybrid.ell_part, hybrid.coo_part
        got = (ell.col_idxs, ell.values, coo.row_idxs, coo.col_idxs, coo.values)
        want = _row_loop_split(mat, width, np.int64, np.float32)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_literal_split(self, ref):
        mat = sp.csr_matrix(np.array([
            [1.0, 2.0, 3.0, 4.0],
            [0.0, 5.0, 0.0, 0.0],
            [6.0, 0.0, 7.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]))
        hybrid = Hybrid.from_scipy(ref, mat, percent=0.5)  # width 1
        ell, coo = hybrid.ell_part, hybrid.coo_part
        np.testing.assert_array_equal(ell.col_idxs, [[0], [1], [0], [0]])
        np.testing.assert_array_equal(ell.values, [[1.0], [5.0], [6.0], [0.0]])
        np.testing.assert_array_equal(coo.row_idxs, [0, 0, 0, 2])
        np.testing.assert_array_equal(coo.col_idxs, [1, 2, 3, 2])
        np.testing.assert_array_equal(coo.values, [2.0, 3.0, 4.0, 7.0])

    def test_width_zero_keeps_one_padding_column(self, ref):
        mat = sp.csr_matrix(np.array([[0.0, 3.0], [0.0, 0.0]]))
        hybrid = Hybrid.from_scipy(ref, mat, percent=0.0)
        assert hybrid.ell_part.values.shape == (2, 1)
        assert hybrid.ell_part.nnz == 0 and hybrid.coo_part.nnz == 1

    @pytest.mark.parametrize("percent, index_dtype, shape, spilled, digest", [
        (0.8, np.int32, (512, 9), 1499,
         "165ffb00b4ee1607f7787428077e78dd5658703fc70ec8a04e85dc50641d9773"),
        (0.5, np.int64, (512, 3), 2415,
         "d6c2853c2a04c626c763364e6a19ff064bda704a783d468c15300b45fd0dda1f"),
    ])
    def test_kronecker_parts_match_the_row_loop(
        self, ref, percent, index_dtype, shape, spilled, digest
    ):
        """sha256 over (ELL cols, ELL values, COO rows, cols, values) of
        ``kronecker_graph(9)`` with values 1..nnz, recorded from the row
        loop at the commit before it was deleted."""
        mat = kronecker_graph(9)
        mat.data[:] = np.arange(1, mat.nnz + 1)
        hybrid = Hybrid.from_scipy(
            ref, mat, percent=percent, index_dtype=index_dtype
        )
        ell, coo = hybrid.ell_part, hybrid.coo_part
        assert ell.values.shape == shape and coo.nnz == spilled
        sha = hashlib.sha256()
        for part in (ell.col_idxs, ell.values, coo.row_idxs, coo.col_idxs, coo.values):
            sha.update(np.ascontiguousarray(part).tobytes())
        assert sha.hexdigest() == digest
