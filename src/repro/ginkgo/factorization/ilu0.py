"""ILU(0): incomplete LU factorisation with zero fill-in.

Computes ``A ~= L U`` where L (unit lower triangular) and U (upper
triangular) together carry exactly the sparsity pattern of A.  Uses the
classic row-wise IKJ elimination restricted to the pattern — the same
numerics as Ginkgo's ParILU fixed-point iteration at convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.ginkgo.accessor import resolve_storage_dtype
from repro.ginkgo.exceptions import BadDimension, GinkgoError
from repro.ginkgo.matrix.csr import Csr
from repro.perfmodel import factorization_cost


@dataclass
class Ilu0Factorization:
    """Result of an ILU(0) factorisation: unit-lower L and upper U."""

    l_factor: Csr
    u_factor: Csr


def rows_to_csr(rows: list[dict]) -> sp.csr_matrix:
    """Square CSR matrix from one ``{column: value}`` dict per row."""
    n = len(rows)
    counts = np.fromiter((len(r) for r in rows), dtype=np.int64, count=n)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    idx = np.empty(ptr[-1], dtype=np.int64)
    val = np.empty(ptr[-1], dtype=np.float64)
    for i, r in enumerate(rows):
        cols = sorted(r)
        idx[ptr[i]:ptr[i + 1]] = cols
        val[ptr[i]:ptr[i + 1]] = [r[c] for c in cols]
    return sp.csr_matrix((val, idx, ptr), shape=(n, n))


def _ilu0_arrays(a: sp.csr_matrix):
    """Row-wise IKJ ILU(0) on a sorted CSR matrix; returns (L, U) csr."""
    n = a.shape[0]
    indptr, indices, data = a.indptr, a.indices, a.data.astype(np.float64)
    # U rows stored as dicts for O(1) pattern lookups during elimination.
    u_rows: list[dict] = [dict() for _ in range(n)]
    l_rows: list[dict] = [dict() for _ in range(n)]

    for i in range(n):
        start, stop = indptr[i], indptr[i + 1]
        row = {int(indices[p]): float(data[p]) for p in range(start, stop)}
        if i not in row:
            raise GinkgoError(
                f"ILU(0) requires a full diagonal; row {i} has no diagonal "
                "entry"
            )
        # Eliminate with previous rows k < i present in this row's pattern.
        for k in sorted(c for c in row if c < i):
            ukk = u_rows[k].get(k, 0.0)
            if ukk == 0.0:
                raise GinkgoError(
                    f"ILU(0) breakdown: zero pivot in row {k}"
                )
            lik = row[k] / ukk
            row[k] = lik
            for j, ukj in u_rows[k].items():
                if j > k and j in row:
                    row[j] -= lik * ukj
        for j, val in row.items():
            if j < i:
                l_rows[i][j] = val
            else:
                u_rows[i][j] = val
        l_rows[i][i] = 1.0

    return rows_to_csr(l_rows), rows_to_csr(u_rows)


def ilu0(matrix: Csr, storage_precision=None) -> Ilu0Factorization:
    """Factorise a square CSR matrix as ``A ~= L U`` with zero fill-in.

    The elimination itself runs in full (float64) precision — it is a
    one-off generation cost over Python-float row dicts — and the factors
    are *stored* at ``storage_precision`` (the system matrix's precision
    when ``None``), where every subsequent triangular solve reads them.

    Args:
        matrix: Square CSR matrix with a structurally full diagonal.
        storage_precision: Precision the L/U factors are stored at.

    Returns:
        An :class:`Ilu0Factorization` with executor-resident L and U.
    """
    if not matrix.size.is_square:
        raise BadDimension(f"ILU(0) requires a square matrix, got {matrix.size}")
    storage = resolve_storage_dtype(storage_precision, matrix.dtype)
    a = matrix._scipy_view().tocsr().astype(np.float64)
    a.sort_indices()
    l_mat, u_mat = _ilu0_arrays(a)
    exec_ = matrix.executor
    exec_.run(
        factorization_cost(
            "ilu0",
            matrix.size.rows,
            matrix.nnz,
            matrix.value_bytes,
            matrix.index_bytes,
        )
    )
    return Ilu0Factorization(
        l_factor=Csr.from_scipy(
            exec_, l_mat, value_dtype=storage,
            index_dtype=matrix.index_dtype,
        ),
        u_factor=Csr.from_scipy(
            exec_, u_mat, value_dtype=storage,
            index_dtype=matrix.index_dtype,
        ),
    )
