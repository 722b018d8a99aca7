"""Batched preconditioners (``gko::batch::preconditioner``).

A batched preconditioner exposes *state* as a plain per-system array so
the solvers can gather and compact it alongside their other per-system
buffers when systems converge:

- ``gather_state(ids)`` returns the state rows of the requested systems
  (or ``None`` for stateless preconditioners);
- ``apply_state(state, r, z, count)`` applies the preconditioner to the
  leading ``count`` systems of the stacked residual ``r``, writing ``z``.

The numerical kernels are elementwise per system, so results are
bit-identical to the scalar preconditioners applied one system at a
time — the property the batched solvers need for exact history parity.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.ginkgo.accessor import arithmetic_dtype_for
from repro.ginkgo.batch.matrix import BatchCsr
from repro.ginkgo.exceptions import GinkgoError
from repro.perfmodel import blas1_cost, factorization_cost, spmv_cost


#: The scalar counterpart of batched Jacobi, as a config-solver entry.
SCALAR_JACOBI = {"type": "preconditioner::Jacobi", "max_block_size": 1}


class BatchIdentity:
    """No-op preconditioner: ``z = r`` (one batched copy kernel)."""

    #: Scalar counterpart (a system re-solved alone): none.
    scalar = None

    def __init__(self, exec_=None) -> None:
        self._exec = exec_
        #: ``{(count, r.shape, r.dtype): KernelCost}``, priced once each.
        self._costs: dict = {}

    def generate(self, batch_matrix) -> "BatchIdentity":
        return BatchIdentity(batch_matrix.executor)

    def gather_state(self, ids):
        return None

    def apply_state(self, state, r, z, count: int) -> None:
        np.copyto(z[:count], r[:count])
        exec_ = self._exec
        if exec_ is not None:
            key = (count, r.shape, r.dtype)
            cost = self._costs.get(key)
            if cost is None:
                cost = self._costs[key] = blas1_cost(
                    "copy", r[:count].size, r.dtype.itemsize, 2
                )
            exec_.run(cost)


class BatchJacobi:
    """Factory for the batched scalar-Jacobi preconditioner.

    Mirrors ``gko::batch::preconditioner::Jacobi`` with block size 1:
    the inverse diagonals of all ``K`` systems are extracted by one
    vectorized kernel and applied as one batched elementwise product.
    """

    #: Scalar counterpart (a system re-solved alone), bitwise the same.
    scalar = SCALAR_JACOBI

    def __init__(self, max_block_size: int = 1) -> None:
        if max_block_size != 1:
            raise GinkgoError(
                "batched Jacobi supports scalar blocks only "
                f"(max_block_size=1), got {max_block_size}"
            )
        self.max_block_size = 1

    def generate(self, batch_matrix: BatchCsr) -> "BatchJacobiOperator":
        return BatchJacobiOperator(batch_matrix)

    def __repr__(self) -> str:
        return "BatchJacobi(max_block_size=1)"


class BatchJacobiOperator:
    """Generated batched Jacobi: per-system inverse diagonals."""

    scalar = SCALAR_JACOBI

    def __init__(self, batch_matrix: BatchCsr) -> None:
        self._exec = batch_matrix.executor
        # Same arithmetic as the scalar Jacobi generation, vectorized
        # over systems: invert in the value type's arithmetic precision,
        # zero diagonals stay zero, store at the value type.
        value_type = batch_matrix.values.dtype
        arith = arithmetic_dtype_for(value_type)
        diagonal = batch_matrix.diagonal().astype(arith)
        inverse = np.zeros_like(diagonal)
        mask = diagonal != 0.0
        inverse[mask] = 1.0 / diagonal[mask]
        self._inverse = inverse.astype(value_type).astype(arith)
        self._index_bytes = batch_matrix.index_bytes
        #: ``{(count, r.shape, r.dtype): KernelCost}``, priced once each.
        self._costs: dict = {}
        base = factorization_cost(
            "jacobi",
            batch_matrix.size.rows,
            batch_matrix.nnz,
            batch_matrix.value_bytes,
            batch_matrix.index_bytes,
        )
        K = batch_matrix.num_systems
        self._exec.run(
            replace(
                base,
                name="generate_batch_jacobi",
                flops=base.flops * K,
                bytes=base.bytes * K,
            )
        )

    @property
    def inverse_diagonal(self) -> np.ndarray:
        """Per-system inverse diagonals, shape ``(K, rows)``."""
        return self._inverse

    def gather_state(self, ids) -> np.ndarray:
        return self._inverse[ids]

    def apply_state(self, state, r, z, count: int) -> None:
        # z[k] = diag(inv[k]) @ r[k] — identical elementwise math to the
        # scalar Jacobi apply (inv[:, None] * rhs) per system.
        z[:count] = state[:count, :, None] * r[:count]
        key = (count, r.shape, r.dtype)
        cost = self._costs.get(key)
        if cost is None:
            rows = count * r.shape[1]
            cost = self._costs[key] = replace(
                spmv_cost(
                    "csr", rows, rows, rows, r.dtype.itemsize,
                    self._index_bytes, num_rhs=r.shape[2],
                ),
                name="batch_jacobi_apply",
            )
        self._exec.run(cost)
