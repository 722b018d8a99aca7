"""Hybrid ELL+COO format (``gko::matrix::Hybrid``).

The regular part of each row (up to a percentile-based width) is stored in
ELL; the irregular remainder spills into COO.  The SpMV applies both parts
— the ELL part's compiled kernel, then the COO part's accumulated on top —
which the cost model reflects as two kernels.  A row that spills is summed
as ``(ELL partial) + (COO partial)`` rather than entry by entry, so unlike
ELL and SELL-P the result matches CSR's to rounding, not bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ginkgo.dim import Dim
from repro.ginkgo.exceptions import BadDimension
from repro.ginkgo.executor import Executor
from repro.ginkgo.matrix.base import SparseBase, check_index_dtype, check_value_dtype
from repro.ginkgo.matrix.coo import Coo
from repro.ginkgo.matrix.ell import Ell


class Hybrid(SparseBase):
    """ELL + COO split storage."""

    _format_name = "hybrid"

    def __init__(self, exec_: Executor, size, ell: Ell, coo: Coo) -> None:
        size = Dim.of(size)
        if ell.size != size or coo.size != size:
            raise BadDimension(
                f"hybrid parts must both be {size}, got ell={ell.size}, "
                f"coo={coo.size}"
            )
        super().__init__(
            exec_, size, value_dtype=ell.dtype, index_dtype=ell.index_dtype
        )
        self._ell = ell
        self._coo = coo

    def mark_modified(self) -> None:
        # The hybrid's caches are built from the parts, so invalidation
        # cascades down; mutating a part directly requires marking the
        # hybrid itself.
        super().mark_modified()
        self._ell.mark_modified()
        self._coo.mark_modified()

    @classmethod
    def from_scipy(
        cls,
        exec_: Executor,
        mat: sp.spmatrix,
        percent: float = 0.8,
        value_dtype=None,
        index_dtype=np.int32,
    ) -> "Hybrid":
        """Split ``mat`` at the ``percent`` row-length percentile.

        Rows keep their first ``width`` entries in ELL, where ``width`` is
        the ``percent`` quantile of row lengths; the rest spill to COO.
        """
        if not 0.0 <= percent <= 1.0:
            raise ValueError(f"percent must be in [0, 1], got {percent}")
        csr = sp.csr_matrix(mat)
        csr.sort_indices()
        value_dtype = check_value_dtype(value_dtype or csr.dtype)
        index_dtype = check_index_dtype(index_dtype)
        rows = csr.shape[0]
        row_nnz = np.diff(csr.indptr)
        width = int(np.quantile(row_nnz, percent)) if rows else 0

        # Entry k of a row stays in ELL slot k while k < width and spills
        # to COO otherwise.  The row-major flattening of the slot mask
        # enumerates the kept entries in CSR order (as in Ell.from_scipy);
        # the spilled ones keep that order too.
        ell_width = max(width, 1)
        kept = np.minimum(row_nnz, width)
        entry_slot = np.arange(csr.nnz) - np.repeat(csr.indptr[:-1], row_nnz)
        keep = entry_slot < width
        spill = ~keep
        in_ell = np.arange(ell_width)[None, :] < kept[:, None]
        ell_cols = np.zeros((rows, ell_width), dtype=index_dtype)
        ell_vals = np.zeros((rows, ell_width), dtype=value_dtype)
        ell_cols[in_ell] = csr.indices[keep]
        ell_vals[in_ell] = csr.data[keep]
        ell = Ell(exec_, Dim(*csr.shape), ell_cols, ell_vals)
        coo = Coo(
            exec_,
            Dim(*csr.shape),
            np.repeat(np.arange(rows, dtype=index_dtype), row_nnz - kept),
            csr.indices[spill].astype(index_dtype),
            csr.data[spill].astype(value_dtype),
        )
        return cls(exec_, Dim(*csr.shape), ell, coo)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self._ell.nnz + self._coo.nnz

    @property
    def ell_part(self) -> Ell:
        return self._ell

    @property
    def coo_part(self) -> Coo:
        return self._coo

    # ------------------------------------------------------------------
    # SpMV: apply both parts
    # ------------------------------------------------------------------
    def _spmv_arrays(self, b: np.ndarray) -> np.ndarray:
        y = self._ell._spmv_arrays(b)  # fresh array: accumulate in place
        if self._coo.nnz:
            y += self._coo._spmv_arrays(b)
        return y

    def _to_scipy(self) -> sp.csr_matrix:
        out = self._ell._to_scipy().tocsr()
        if self._coo.nnz:
            out = (out + self._coo._to_scipy().tocsr()).tocsr()
        return out
