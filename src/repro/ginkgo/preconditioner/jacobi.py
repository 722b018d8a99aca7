"""Scalar and block Jacobi preconditioning (``gko::preconditioner::Jacobi``).

``max_block_size=1`` gives scalar Jacobi (inverse diagonal).  Larger block
sizes extract contiguous diagonal blocks, invert them (densely, batched),
and apply the block inverses.  Storage precision is decoupled from the
working precision through :mod:`repro.ginkgo.accessor`:
``storage_precision=None`` (the default) stores the inverses at the system
matrix's precision and keeps the apply byte-identical to the classic
uniform path, a fixed precision (``"float"``, ``"half"``, ...) stores them
reduced, and ``"adaptive"`` picks each block's storage from its condition
estimate — Ginkgo's adaptive-precision block-Jacobi.  Reduced-storage
applies route through the mixed-suffix binding symbols
(``jacobi_apply_double_float``) and charge the cost model at storage
width.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.accessor import (
    ReducedPrecisionAccessor,
    arithmetic_dtype_for,
    canonical_value_suffix,
    resolve_storage_dtype,
    select_block_precision,
)
from repro.ginkgo.exceptions import BadDimension, GinkgoError
from repro.ginkgo.lin_op import LinOp, LinOpFactory
from repro.ginkgo.matrix.dense import Dense, _scalar_value
from repro.perfmodel import factorization_cost, spmv_cost


class JacobiOperator(LinOp):
    """Generated (block-)Jacobi operator."""

    _profile_category = "precond"

    def __init__(self, factory: "Jacobi", matrix) -> None:
        if not matrix.size.is_square:
            raise BadDimension(
                f"Jacobi requires a square matrix, got {matrix.size}"
            )
        super().__init__(matrix.executor, matrix.size)
        self._matrix = matrix
        self._block_size = factory.max_block_size
        self._working_dtype = np.dtype(matrix.dtype)
        # Arithmetic runs at the working precision (float32 for half
        # systems, mirroring the engine's half-kernel contract) — the
        # float64 upcast the old code forced on every input is the bug
        # this layer fixes.
        arith = arithmetic_dtype_for(self._working_dtype)
        self._arith_dtype = arith
        adaptive = factory.storage_precision == "adaptive"
        if adaptive:
            storage = None  # chosen per block below
        else:
            storage = resolve_storage_dtype(
                factory.storage_precision, self._working_dtype
            )
        n = matrix.size.rows
        a = matrix._scipy_view().tocsr().astype(arith)
        bs = self._block_size
        if bs == 1:
            diag = a.diagonal()
            inv = np.zeros_like(diag)
            mask = diag != 0
            inv[mask] = 1.0 / diag[mask]
            if adaptive:
                # 1x1 blocks are perfectly conditioned: narrowest width
                # the working precision allows.
                storage = select_block_precision(1.0, self._working_dtype)
            self._scalar_inverse = ReducedPrecisionAccessor(
                inv, storage, arithmetic_dtype=arith
            )
            self._block_inverses = None
        else:
            self._scalar_inverse = None
            accessors = []
            for start in range(0, n, bs):
                stop = min(start + bs, n)
                block = a[start:stop, start:stop].toarray()
                try:
                    inv_block = np.linalg.inv(block)
                except np.linalg.LinAlgError as exc:
                    raise GinkgoError(
                        f"Jacobi block [{start}:{stop}) is singular"
                    ) from exc
                if adaptive:
                    cond = float(
                        np.linalg.norm(block, 1) * np.linalg.norm(inv_block, 1)
                    )
                    block_storage = select_block_precision(
                        cond, self._working_dtype
                    )
                else:
                    block_storage = storage
                accessors.append(
                    ReducedPrecisionAccessor(
                        inv_block, block_storage, arithmetic_dtype=arith
                    )
                )
            self._block_inverses = accessors
        #: Scalar Jacobi stored at the working precision: an apply is one multiply.
        self._uniform_scalar = self._scalar_inverse is not None and not self.is_mixed
        self._apply_costs: dict = {}
        self._exec.run(
            factorization_cost(
                "jacobi", n, matrix.nnz, matrix.value_bytes,
                matrix.index_bytes,
            )
        )

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def storage_dtypes(self) -> tuple:
        """Per-block storage dtypes (one entry for scalar Jacobi)."""
        if self._scalar_inverse is not None:
            return (self._scalar_inverse.storage_dtype,)
        return tuple(acc.storage_dtype for acc in self._block_inverses)

    @property
    def is_mixed(self) -> bool:
        """Whether any block is stored below the working precision."""
        return any(
            dt.itemsize < self._working_dtype.itemsize
            for dt in self.storage_dtypes
        )

    def _mixed_suffixes(self) -> tuple:
        """(working, narrowest storage) suffix pair for the mixed symbol."""
        narrowest = min(self.storage_dtypes, key=lambda dt: dt.itemsize)
        return (
            canonical_value_suffix(self._working_dtype),
            canonical_value_suffix(narrowest),
        )

    def _apply_arrays(self, rhs: np.ndarray) -> np.ndarray:
        if self._scalar_inverse is not None:
            return self._scalar_inverse.read()[:, None] * rhs
        out = np.empty_like(rhs, dtype=self._arith_dtype)
        bs = self._block_size
        for index, acc in enumerate(self._block_inverses):
            start = index * bs
            inv_block = acc.read()
            stop = start + inv_block.shape[0]
            out[start:stop] = inv_block @ rhs[start:stop]
        return out

    def _record(self, num_rhs: int) -> None:
        for cost in self._costs(num_rhs):
            self._exec.run(cost)

    def _costs(self, num_rhs: int) -> list:
        """The kernel costs of one apply, priced once per ``num_rhs``."""
        costs = self._apply_costs.get(num_rhs)
        if costs is None:
            costs = self._apply_costs[num_rhs] = self._price(num_rhs)
        return costs

    def _price(self, num_rhs: int) -> list:
        bs = self._block_size
        # Block-diagonal storage, charged at each block's storage width:
        # one SpMV-shaped charge per distinct width (a single charge on
        # the uniform path, identical to the classic accounting).
        rows_by_width: dict = {}
        if self._scalar_inverse is not None:
            rows_by_width[self._scalar_inverse.storage_bytes] = (
                self._size.rows
            )
        else:
            for acc in self._block_inverses:
                width = acc.storage_bytes
                rows = acc.read().shape[0]
                rows_by_width[width] = rows_by_width.get(width, 0) + rows
        return [
            spmv_cost(
                "csr", rows, rows, rows * bs, width,
                self._matrix.index_bytes, num_rhs=num_rhs,
            )
            for width, rows in sorted(rows_by_width.items())
        ]

    def _run_apply(self, plan) -> None:
        """Run an apply plan, crossing the mixed binding when reduced.

        The uniform path calls the plan directly — no extra resolve, no
        extra crossing, byte-identical to the pre-accessor operator.
        """
        if self.is_mixed:
            from repro.bindings import dispatch  # deferred: registry cycle

            runner = dispatch.resolve(
                "jacobi_apply", self._mixed_suffixes(), exec_=self._exec
            )
            runner(self._exec, plan)
        else:
            plan()

    def _apply_impl(self, b: Dense, x: Dense) -> None:
        if self._uniform_scalar and b.dtype == x.dtype == self._arith_dtype:
            # The plan's product, written into x without its temporary.
            np.multiply(self._scalar_inverse.read()[:, None], b._data, out=x._data)
            (cost,) = self._costs(b.size.cols)
            self._exec.run(cost)
            return

        def plan():
            np.copyto(
                x._data,
                self._apply_arrays(b._data).astype(x.dtype, copy=False),
            )
            self._record(b.size.cols)

        self._run_apply(plan)

    def _apply_advanced_impl(self, alpha, b: Dense, beta, x: Dense) -> None:
        def plan():
            a = _scalar_value(alpha)
            bt = _scalar_value(beta)
            result = self._apply_arrays(b._data)
            x._data *= x.dtype.type(bt)
            x._data += x.dtype.type(a) * result.astype(x.dtype, copy=False)
            self._record(b.size.cols)

        self._run_apply(plan)


class Jacobi(LinOpFactory):
    """Jacobi factory.

    Args:
        exec_: Executor.
        max_block_size: Diagonal block size; 1 (default) is scalar Jacobi.
        storage_precision: Precision the inverted blocks are stored at:
            ``None`` (default) stores at the system matrix's precision,
            a value-type spelling (``"float"``, ``"float32"``, ``"half"``,
            ...) stores reduced, and ``"adaptive"`` selects each block's
            precision from its condition estimate.
    """

    def __init__(
        self,
        exec_,
        max_block_size: int = 1,
        storage_precision=None,
    ) -> None:
        super().__init__(exec_)
        if max_block_size < 1:
            raise GinkgoError(
                f"max_block_size must be >= 1, got {max_block_size}"
            )
        self.max_block_size = int(max_block_size)
        if storage_precision is not None and storage_precision != "adaptive":
            # Validate the spelling eagerly so config errors fail at
            # factory construction, not first generate().
            canonical_value_suffix(storage_precision)
        self.storage_precision = storage_precision

    def generate(self, matrix) -> JacobiOperator:
        return JacobiOperator(self, matrix)
