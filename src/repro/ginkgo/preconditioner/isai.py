"""Incomplete Sparse Approximate Inverse (``gko::preconditioner::Isai``).

Builds an explicit sparse approximation ``W ~= A^{-1}`` with the sparsity
pattern of ``A^p`` (``sparsity_power``), by solving one small dense system
per row: restricted to row i's pattern J, ``W[i, J] @ A[J, J] = e_i[J]``.
Applying the preconditioner is then a single SpMV — the reason ISAI is
attractive on GPUs where triangular solves serialise.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ginkgo.accessor import (
    arithmetic_dtype_for,
    canonical_value_suffix,
    resolve_storage_dtype,
)
from repro.ginkgo.exceptions import BadDimension, GinkgoError
from repro.ginkgo.lin_op import LinOp, LinOpFactory
from repro.ginkgo.matrix.csr import Csr
from repro.perfmodel import factorization_cost


#: Local-system entries gathered per stacked solve: rows of pattern
#: size m go in chunks of ``_CHUNK_ENTRIES // m**2`` rows (at least one).
_CHUNK_ENTRIES = 1 << 16


def _local_solves(a: sp.csr_matrix, pattern: sp.csr_matrix) -> np.ndarray:
    """W's values on ``pattern``, solving ``W[i, J] A[J, J] = e_i[J]``.

    Rows of one pattern size share a stacked ``np.linalg.solve`` of the
    transposed local blocks, gathered by SciPy's compiled CSR sampling.
    """
    sizes = np.diff(pattern.indptr)
    out = np.empty(pattern.nnz, dtype=a.dtype)
    for m in np.unique(sizes[sizes > 0]):
        group = np.flatnonzero(sizes == m)
        step = max(1, _CHUNK_ENTRIES // int(m) ** 2)
        for lo in range(0, group.size, step):
            rows = group[lo:lo + step]
            slots = pattern.indptr[rows][:, None] + np.arange(m)
            j_set = pattern.indices[slots]
            shape = (rows.size, m, m)
            blocks = np.asarray(a[
                np.broadcast_to(j_set[:, None, :], shape).ravel(),
                np.broadcast_to(j_set[:, :, None], shape).ravel(),
            ]).reshape(shape)  # blocks[r] = A[J, J]^T
            rhs = (j_set == rows[:, None]).astype(a.dtype)[..., None]
            try:
                out[slots] = np.linalg.solve(blocks, rhs)[..., 0]
            except np.linalg.LinAlgError as exc:
                row = rows[np.argmin(np.abs(np.linalg.det(blocks)))]
                raise GinkgoError(
                    f"ISAI: singular local system in row {row}"
                ) from exc
    return out


class IsaiOperator(LinOp):
    """Generated ISAI operator: one SpMV with the approximate inverse."""

    _profile_category = "precond"

    def __init__(self, factory: "Isai", matrix) -> None:
        if not matrix.size.is_square:
            raise BadDimension(
                f"Isai requires a square matrix, got {matrix.size}"
            )
        super().__init__(matrix.executor, matrix.size)
        self._working_dtype = np.dtype(matrix.dtype)
        self._storage_dtype = resolve_storage_dtype(
            factory.storage_precision, self._working_dtype
        )
        # The local dense solves run at the working precision (float32
        # upcast for half systems), not a hard-coded float64.
        arith = arithmetic_dtype_for(self._working_dtype)
        a = matrix._scipy_view().tocsr().astype(arith)
        pattern = a.copy()
        for _ in range(factory.sparsity_power - 1):
            pattern = (pattern @ a).tocsr()
        pattern.sort_indices()

        n = a.shape[0]
        approx = sp.csr_matrix(
            (_local_solves(a, pattern), pattern.indices, pattern.indptr),
            shape=(n, n),
        )
        self._approx_inverse = Csr.from_scipy(
            matrix.executor, approx, value_dtype=self._storage_dtype,
            index_dtype=matrix.index_dtype,
        )
        self._exec.run(
            factorization_cost(
                "ilu0", n, matrix.nnz, matrix.value_bytes, matrix.index_bytes
            ).scaled(2.0)
        )

    @property
    def approximate_inverse(self) -> Csr:
        return self._approx_inverse

    @property
    def is_mixed(self) -> bool:
        """Whether the inverse is stored below the working precision."""
        return self._storage_dtype.itemsize < self._working_dtype.itemsize

    def _run_apply(self, plan) -> None:
        """Cross the mixed binding when the inverse is stored reduced.

        The apply itself is one SpMV with the (storage-precision) inverse:
        the Csr kernel reads storage-width values and charges storage-width
        bytes, while numpy promotes the arithmetic to the operand's
        working precision — the accessor contract.  Uniform applies take
        the classic route untouched.
        """
        if self.is_mixed:
            from repro.bindings import dispatch  # deferred: registry cycle

            runner = dispatch.resolve(
                "isai_apply",
                (
                    canonical_value_suffix(self._working_dtype),
                    canonical_value_suffix(self._storage_dtype),
                ),
                exec_=self._exec,
            )
            runner(self._exec, plan)
        else:
            plan()

    def _apply_impl(self, b, x) -> None:
        self._run_apply(lambda: self._approx_inverse.apply(b, x))

    def _apply_advanced_impl(self, alpha, b, beta, x) -> None:
        self._run_apply(
            lambda: self._approx_inverse.apply_advanced(alpha, b, beta, x)
        )


class Isai(LinOpFactory):
    """ISAI factory.

    Args:
        exec_: Executor.
        sparsity_power: Pattern of ``A^p`` used for the inverse (default 1).
        storage_precision: Precision the approximate inverse is stored at
            (``None`` stores at the system matrix's precision).
    """

    def __init__(
        self, exec_, sparsity_power: int = 1, storage_precision=None
    ) -> None:
        super().__init__(exec_)
        if sparsity_power < 1:
            raise GinkgoError(
                f"sparsity_power must be >= 1, got {sparsity_power}"
            )
        self.sparsity_power = int(sparsity_power)
        if storage_precision is not None:
            canonical_value_suffix(storage_precision)
        self.storage_precision = storage_precision

    def generate(self, matrix) -> IsaiOperator:
        return IsaiOperator(self, matrix)
