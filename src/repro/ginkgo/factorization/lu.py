"""Complete sparse LU factorisation with pivoting.

Wraps SuperLU (via SciPy) into the engine's factorisation interface; the
:class:`~repro.ginkgo.solver.direct.Direct` solver builds on the same
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.ginkgo.exceptions import BadDimension
from repro.ginkgo.matrix.csr import Csr
from repro.ginkgo.matrix.permutation import Permutation
from repro.perfmodel import KernelCost


@dataclass
class LuFactorization:
    """Result of a complete LU factorisation: ``P_r A P_c = L U``.

    ``row_permutation``/``col_permutation`` carry SuperLU's ``perm_r``/
    ``perm_c`` verbatim; as permutation *matrices* this means
    ``L @ U == A[argsort(perm_r), :][:, argsort(perm_c)]``.
    """

    l_factor: Csr
    u_factor: Csr
    row_permutation: Permutation
    col_permutation: Permutation


def lu(matrix: Csr) -> LuFactorization:
    """Fully factorise a square CSR matrix with partial pivoting.

    Returns:
        A :class:`LuFactorization` with L, U, and the row/column
        permutations as engine operators.
    """
    if not matrix.size.is_square:
        raise BadDimension(f"LU requires a square matrix, got {matrix.size}")
    exec_ = matrix.executor
    decomposition = splu(
        matrix._scipy_view().tocsc().astype(np.float64),
        permc_spec="COLAMD",
    )
    fill = decomposition.L.nnz + decomposition.U.nnz
    exec_.run(
        KernelCost(
            name="lu_factorize",
            flops=8.0 * fill,
            bytes=6.0 * fill * (matrix.value_bytes + matrix.index_bytes),
            launches=16,
            dtype_name="float64",
        )
    )
    return LuFactorization(
        l_factor=Csr.from_scipy(
            exec_, decomposition.L.tocsr(), index_dtype=matrix.index_dtype
        ),
        u_factor=Csr.from_scipy(
            exec_, decomposition.U.tocsr(), index_dtype=matrix.index_dtype
        ),
        row_permutation=Permutation(exec_, decomposition.perm_r),
        col_permutation=Permutation(exec_, decomposition.perm_c),
    )
