"""IC(0): incomplete Cholesky factorisation with zero fill-in.

Computes ``A ~= L L^T`` for a symmetric positive-definite matrix, where L
carries the lower-triangular part of A's sparsity pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.ginkgo.accessor import resolve_storage_dtype
from repro.ginkgo.exceptions import BadDimension, GinkgoError
from repro.ginkgo.factorization.ilu0 import rows_to_csr
from repro.ginkgo.matrix.csr import Csr
from repro.perfmodel import factorization_cost


@dataclass
class Ic0Factorization:
    """Result of an IC(0) factorisation: the lower-triangular factor L."""

    l_factor: Csr

    @property
    def lt_factor(self) -> Csr:
        """The transposed factor ``L^T`` (computed on demand)."""
        return self.l_factor.transpose()


def _ic0_arrays(a: sp.csr_matrix) -> sp.csr_matrix:
    """Row-wise IC(0) on the lower triangle of a sorted CSR matrix."""
    n = a.shape[0]
    lower = sp.tril(a).tocsr()
    lower.sort_indices()
    indptr, indices, data = lower.indptr, lower.indices, lower.data.astype(
        np.float64
    )
    l_rows: list[dict] = [dict() for _ in range(n)]

    for i in range(n):
        start, stop = indptr[i], indptr[i + 1]
        cols = indices[start:stop]
        vals = data[start:stop]
        if cols.size == 0 or cols[-1] != i:
            raise GinkgoError(
                f"IC(0) requires a full diagonal; row {i} has no diagonal "
                "entry"
            )
        li = l_rows[i]
        for c, v in zip(cols, vals):
            j = int(c)
            lj = l_rows[j]
            # s = a_ij - sum_{k<j} L[i,k] * L[j,k] over the shared pattern.
            s = float(v)
            if len(li) <= len(lj):
                for k, lik in li.items():
                    if k < j:
                        ljk = lj.get(k)
                        if ljk is not None:
                            s -= lik * ljk
            else:
                for k, ljk in lj.items():
                    if k < j:
                        lik = li.get(k)
                        if lik is not None:
                            s -= lik * ljk
            if j < i:
                ljj = lj.get(j, 0.0)
                if ljj == 0.0:
                    raise GinkgoError(f"IC(0) breakdown: zero pivot in row {j}")
                li[j] = s / ljj
            else:
                if s <= 0.0:
                    raise GinkgoError(
                        f"IC(0) breakdown: non-positive pivot {s:.3e} in "
                        f"row {i}; the matrix may not be positive definite"
                    )
                li[i] = np.sqrt(s)

    return rows_to_csr(l_rows)


def ic0(matrix: Csr, storage_precision=None) -> Ic0Factorization:
    """Factorise a symmetric positive-definite CSR matrix as ``A ~= L L^T``.

    The elimination runs in full (float64) precision; the factor is
    stored at ``storage_precision`` (the system matrix's precision when
    ``None``).

    Args:
        matrix: Square CSR matrix (only its lower triangle is read).
        storage_precision: Precision the L factor is stored at.

    Returns:
        An :class:`Ic0Factorization` holding the executor-resident L.
    """
    if not matrix.size.is_square:
        raise BadDimension(f"IC(0) requires a square matrix, got {matrix.size}")
    storage = resolve_storage_dtype(storage_precision, matrix.dtype)
    a = matrix._scipy_view().tocsr().astype(np.float64)
    a.sort_indices()
    l_mat = _ic0_arrays(a)
    exec_ = matrix.executor
    exec_.run(
        factorization_cost(
            "ic0",
            matrix.size.rows,
            matrix.nnz,
            matrix.value_bytes,
            matrix.index_bytes,
        )
    )
    return Ic0Factorization(
        l_factor=Csr.from_scipy(
            exec_, l_mat, value_dtype=storage,
            index_dtype=matrix.index_dtype,
        )
    )
