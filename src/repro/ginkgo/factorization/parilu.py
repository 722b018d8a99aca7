"""ParILU: fixed-point iterative ILU(0) (``gko::factorization::ParIlu``).

Ginkgo's parallel incomplete factorisation replaces the inherently
sequential IKJ elimination with a Jacobi-style fixed-point iteration over
the factorisation equations

    l_ij = (a_ij - sum_{k<j} l_ik u_kj) / u_jj      (i > j)
    u_ij =  a_ij - sum_{k<i} l_ik u_kj              (i <= j)

restricted to A's sparsity pattern.  Every entry updates independently per
sweep — massively parallel on GPUs — and the iteration converges to the
exact ILU(0) factors (Chow & Patel, 2015).  A handful of sweeps usually
yields a preconditioner as effective as exact ILU(0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.ginkgo.accessor import resolve_storage_dtype
from repro.ginkgo.exceptions import BadDimension, GinkgoError
from repro.ginkgo.factorization.ilu0 import Ilu0Factorization
from repro.ginkgo.matrix.csr import Csr
from repro.perfmodel import factorization_cost


@dataclass
class ParIluFactorization(Ilu0Factorization):
    """ILU factors produced by the fixed-point iteration."""

    sweeps: int = 0


def parilu(
    matrix: Csr, sweeps: int = 5, storage_precision=None
) -> ParIluFactorization:
    """Approximate ``A ~= L U`` on A's pattern via fixed-point sweeps.

    The sweeps run in full (float64) precision; the factors are stored at
    ``storage_precision`` (the system matrix's precision when ``None``).

    Args:
        matrix: Square CSR matrix with a structurally full diagonal.
        sweeps: Fixed-point iterations; each sweep updates every stored
            entry once from the previous sweep's values (Jacobi style).
        storage_precision: Precision the L/U factors are stored at.

    Returns:
        :class:`ParIluFactorization` with unit-lower L and upper U.
    """
    if not matrix.size.is_square:
        raise BadDimension(
            f"ParILU requires a square matrix, got {matrix.size}"
        )
    if sweeps < 1:
        raise GinkgoError(f"sweeps must be >= 1, got {sweeps}")
    storage = resolve_storage_dtype(storage_precision, matrix.dtype)
    a = sp.csr_array(matrix._scipy_view(), dtype=np.float64, copy=True)
    a.sum_duplicates()
    coo = a.tocoo()
    rows, cols = coo.row, coo.col
    lower, diag = rows > cols, rows == cols
    missing = np.setdiff1d(np.arange(a.shape[0]), rows[diag])
    if missing.size:
        raise GinkgoError(
            f"ParILU requires a full diagonal; row {missing[0]} has no "
            "diagonal entry"
        )

    # One matrix on A's pattern holds both iterates: L strictly below the
    # diagonal (unit diagonal implied), U on and above it; A itself is
    # the initial guess.  The sum over k < min(i, j) of l_ik u_kj is entry
    # (i, j) of strict(L) @ strict(U), so a sweep is one SpGEMM gathered
    # onto the pattern, then the divide by the previous iterate's u_jj.
    it = a.copy()
    for _ in range(sweeps):
        prod = sp.tril(it, -1, format="csr") @ sp.triu(it, 1, format="csr")
        new = a.data - prod[rows, cols]
        pivots = it.diagonal()[cols[lower]]
        new[lower] = np.divide(
            new[lower], pivots, out=np.zeros_like(pivots), where=pivots != 0
        )
        it.data = new

    exec_ = matrix.executor
    exec_.run(
        factorization_cost(
            "ilu0",
            matrix.size.rows,
            matrix.nnz,
            matrix.value_bytes,
            matrix.index_bytes,
        ).scaled(sweeps / 4.0)
    )

    upper = sp.triu(it)
    it.data[diag] = 1.0
    return ParIluFactorization(
        l_factor=Csr.from_scipy(
            exec_, sp.tril(it), value_dtype=storage,
            index_dtype=matrix.index_dtype,
        ),
        u_factor=Csr.from_scipy(
            exec_, upper, value_dtype=storage,
            index_dtype=matrix.index_dtype,
        ),
        sweeps=sweeps,
    )
