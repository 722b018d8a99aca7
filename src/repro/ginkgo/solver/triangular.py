"""Sparse triangular solvers (``gko::solver::LowerTrs`` / ``UpperTrs``).

Direct forward/backward substitution on triangular CSR matrices.  These are
the building blocks ILU/IC preconditioning composes, and the cost model
charges them with level-scheduling launch counts (triangular solves expose
far less parallelism than SpMV).

The factor is kept at its own *storage* precision while the substitution
runs at the operand's working precision: a float64 solve over a
float32-stored factor converts the factor at read (cached, accessor
style), routes through the ``trsv_apply_double_float`` binding symbol,
and charges ``trsv_cost`` at the factor's storage width — the
mixed-precision contract of :mod:`repro.ginkgo.accessor`.

An apply is SuperLU's compiled ``gstrs`` plus one scale: the operands
SciPy's ``spsolve_triangular`` rebuilds from the factor on every call are
prepared once per arithmetic precision, so results are bitwise
equal to ``spsolve_triangular``'s.
"""

from __future__ import annotations

import numpy as np
import scipy
import scipy.sparse as sp

try:  # a private SciPy symbol: name the version if it ever moves
    from scipy.sparse.linalg._dsolve._superlu import gstrs
except ImportError as exc:
    raise ImportError(f"scipy {scipy.__version__}: no gstrs") from exc

from repro.ginkgo.accessor import arithmetic_dtype_for, canonical_value_suffix
from repro.ginkgo.exceptions import BadDimension, GinkgoError
from repro.ginkgo.lin_op import LinOp, LinOpFactory
from repro.ginkgo.matrix.dense import Dense, _scalar_value
from repro.perfmodel import trsv_cost


class _TrsSolver(LinOp):
    """Shared implementation of the triangular solver LinOps."""

    lower: bool = True

    def __init__(self, factory, matrix) -> None:
        if not matrix.size.is_square:
            raise BadDimension(
                f"{type(self).__name__} requires a square matrix, "
                f"got {matrix.size}"
            )
        super().__init__(matrix.executor, matrix.size)
        self._matrix = matrix
        # Substitution is one-shot, but the handle API exposes the same
        # post-apply stats as the iterative solvers.
        self.num_iterations = 0
        self.converged = False
        self.breakdown = False
        self.final_residual_norm = float("nan")
        self._unit_diagonal = bool(factory.params.get("unit_diagonal", False))
        # Keep the factor at its own (storage) precision — float16 is
        # upcast to float32 because SciPy cannot substitute in half.
        factor_dtype = arithmetic_dtype_for(matrix.dtype)
        tri = sp.csr_matrix(
            matrix._scipy_view(), dtype=factor_dtype, copy=True
        )
        if self._unit_diagonal:
            tri.setdiag(1)
        elif np.any(tri.diagonal() == 0):
            raise GinkgoError(
                f"{type(self).__name__}: zero on the diagonal; pass "
                "unit_diagonal=True for unit-diagonal factors"
            )
        self._tri = tri
        #: ``gstrs`` operands per arithmetic dtype (the accessor read):
        #: the factor's own now, any other at its first apply.
        self._operands: dict = {}
        self._operands_at(factor_dtype)

    @property
    def system_matrix(self):
        return self._matrix

    def _operands_at(self, arith: np.dtype) -> tuple:
        """The factor as ``spsolve_triangular`` hands it to ``gstrs``.

        That is the CSC transpose (``trans="T"``) scaled by the inverse
        diagonal: SuperLU's U (unit L) for a lower factor, L for an upper.
        """
        ops = self._operands.get(arith)
        if ops is None:
            tri = self._tri.astype(arith)
            n = tri.shape[0]
            invdiag = 1 / tri.diagonal()
            scaled = (tri @ sp.diags_array(invdiag)).T
            scaled.sum_duplicates()
            if self.lower:
                scaled.setdiag(0)
                pair = (sp.eye_array(n, dtype=arith, format="csc"), scaled)
            else:
                pair = (scaled, sp.csc_array((n, n), dtype=arith))
            args = []
            for part in pair:
                args += [
                    n, part.nnz, part.data,
                    part.indices.astype(np.intc), part.indptr.astype(np.intc),
                ]
            ops = self._operands[arith] = (args, invdiag[:, None])
        return ops

    def _record(self) -> None:
        self._exec.run(
            trsv_cost(
                self._size.rows,
                self._matrix.nnz,
                self._matrix.value_bytes,
                self._matrix.index_bytes,
            )
        )

    def _substitute(self, b: Dense) -> np.ndarray:
        # The operand's precision is the working precision of the solve;
        # the factor is converted to it at read (up for mixed-storage
        # preconditioning, float32 for half operands).
        arith = arithmetic_dtype_for(b.dtype)
        args, invdiag = self._operands_at(arith)
        x, info = gstrs("T", *args, b._data.astype(arith))
        if info:
            raise GinkgoError(f"{type(self).__name__}: gstrs info {info}")
        return x * invdiag

    def _run_apply(self, b: Dense, plan) -> None:
        """Cross the mixed trsv binding when factor and operand differ."""
        factor_suffix = canonical_value_suffix(self._matrix.dtype)
        working_suffix = canonical_value_suffix(b.dtype)
        if factor_suffix != working_suffix and (
            np.dtype(self._matrix.dtype).itemsize < np.dtype(b.dtype).itemsize
        ):
            from repro.bindings import dispatch  # deferred: registry cycle

            runner = dispatch.resolve(
                "trsv_apply", (working_suffix, factor_suffix), exec_=self._exec
            )
            runner(self._exec, plan)
        else:
            plan()

    def _apply_impl(self, b: Dense, x: Dense) -> None:
        def plan():
            result = self._substitute(b)
            np.copyto(x._data, result.astype(x.dtype, copy=False))
            self._record()
            self.converged = True

        self._run_apply(b, plan)

    def _apply_advanced_impl(self, alpha, b: Dense, beta, x: Dense) -> None:
        def plan():
            a = _scalar_value(alpha)
            bt = _scalar_value(beta)
            result = self._substitute(b)
            x._data *= x.dtype.type(bt)
            x._data += x.dtype.type(a) * result.astype(x.dtype, copy=False)
            self._record()

        self._run_apply(b, plan)


class _LowerTrsSolver(_TrsSolver):
    lower = True


class _UpperTrsSolver(_TrsSolver):
    lower = False


class _TrsFactory(LinOpFactory):
    """Factory for triangular solvers.

    Parameters:
        unit_diagonal: Treat the stored diagonal as ones (used for the L
            factor of an ILU factorisation).
    """

    solver_class: type = _LowerTrsSolver

    def __init__(self, exec_, unit_diagonal: bool = False) -> None:
        super().__init__(exec_)
        self.params = {"unit_diagonal": unit_diagonal}

    def generate(self, matrix) -> _TrsSolver:
        return self.solver_class(self, matrix)


class LowerTrs(_TrsFactory):
    """Forward-substitution solver factory for lower-triangular matrices."""

    solver_class = _LowerTrsSolver


class UpperTrs(_TrsFactory):
    """Backward-substitution solver factory for upper-triangular matrices."""

    solver_class = _UpperTrsSolver
