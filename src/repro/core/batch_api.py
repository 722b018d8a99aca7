"""The ``pg.batch`` namespace: batched solver bindings.

Mirrors ``pg.solver`` for many small systems at once: each function
resolves the type-suffixed batched factory through the binding layer
(one binding crossing per batch, not per system), generates it on the
stacked system matrix, and returns a :class:`BatchSolverHandle` whose
``apply(b, x)`` returns ``(loggers, x)`` — one convergence logger per
system, built once from the solve's ``BatchStatus`` arrays after each
``apply``, so per-system diagnostics keep the scalar API's shape.
"""

from __future__ import annotations

import numpy as np

from repro import bindings
from repro.core.solver_api import _instance_functions
from repro.core.types import value_dtype
from repro.ginkgo.batch.matrix import BatchCsr, BatchDense
from repro.ginkgo.exceptions import GinkgoError


def _unwrap(operand) -> BatchDense:
    if isinstance(operand, BatchDense):
        return operand
    raise GinkgoError(
        f"expected a BatchDense operand, got {type(operand).__name__}"
    )


def matrices(device, scipy_matrices, value_dtype=None, index_dtype=np.int32):
    """Stack SciPy matrices sharing one sparsity pattern into a BatchCsr."""
    binding = bindings.resolve("batch_csr", value_dtype or np.float64,
                               index_dtype, exec_=device)
    return binding(device, scipy_matrices)


def vectors(device, arrays, value_dtype=np.float64) -> BatchDense:
    """Stack equally-shaped array-likes into a BatchDense."""
    binding = bindings.resolve("batch_dense", value_dtype, exec_=device)
    return binding(device, arrays)


def zeros_like(operand: BatchDense) -> BatchDense:
    """A zero BatchDense with ``operand``'s batch shape and dtype."""
    b = _unwrap(operand)
    return BatchDense.zeros(b.executor, b.num_systems, b.size, b.dtype)


class BatchSolverHandle:
    """A generated batched solver with pyGinkgo's apply contract.

    ``apply(b, x)`` solves all systems in place on ``x`` (the initial
    guesses) and returns ``(loggers, x)``: one
    :class:`~repro.ginkgo.log.ConvergenceLogger` per system — each
    holding exactly the history a scalar solve of that system would
    produce — and the stacked solution.  The handle attaches no logger
    to the solver: :attr:`loggers` is built from :attr:`status`, the
    per-system stopping record, once after each solve.
    """

    def __init__(self, solver) -> None:
        self._solver = solver
        self._loggers = self._built_from = None

    @property
    def solver(self):
        """The underlying engine batch solver."""
        return self._solver

    @property
    def num_systems(self) -> int:
        return self._solver.num_systems

    @property
    def loggers(self) -> list:
        if self._built_from is not self.status:
            self._built_from, self._loggers = self.status, self.status.loggers()
        return self._loggers

    @property
    def status(self):
        """Per-system stopping record of the last ``apply``."""
        return self._solver.status

    @property
    def num_iterations(self) -> np.ndarray:
        """Per-system iteration counts of the last ``apply`` (length K)."""
        return self._solver.status.num_iterations

    @property
    def converged(self) -> np.ndarray:
        """Per-system convergence flags of the last ``apply`` (length K)."""
        return self._solver.status.converged

    @property
    def all_converged(self) -> bool:
        """Whether every system converged in the last ``apply``."""
        return self._solver.status.all_converged

    @property
    def final_residual_norm(self) -> np.ndarray:
        """Per-system final residual norms of the last ``apply``."""
        return self._solver.status.final_residual_norm

    def apply(self, b, x):
        """Solve ``A[k] x[k] = b[k]`` for all systems from the guesses in ``x``."""
        self._solver.apply(_unwrap(b), _unwrap(x))
        return self.loggers, x

    def __repr__(self) -> str:
        return (
            f"BatchSolverHandle({type(self._solver).__name__}, "
            f"K={self.num_systems})"
        )


#: ``{method: function}``: ``pg.batch.cg``, ``pg.batch.gmres``, ... — one
#: per method whose recurrence runs batched, each
#: ``f(device, mtx, preconditioner=None, max_iters=1000,
#: reduction_factor=1e-6, criteria=None, **params)``.
SOLVERS = _instance_functions("batch", BatchSolverHandle)
globals().update(SOLVERS)


def jacobi(device, mtx=None, max_block_size: int = 1):
    """Batched scalar-Jacobi preconditioner (factory, or generated on ``mtx``)."""
    dtype = getattr(mtx, "dtype", np.float64) if mtx is not None else np.float64
    binding = bindings.resolve(
        "batch_jacobi_factory", value_dtype(dtype), exec_=device
    )
    factory = binding(device, max_block_size=max_block_size)
    if mtx is None:
        return factory
    return factory.generate(mtx)


def lower_trs(device, mtx, unit_diagonal: bool = False):
    """Batched forward substitution on lower-triangular systems."""
    binding = bindings.resolve(
        "batch_lower_trs_factory",
        value_dtype(getattr(mtx, "dtype", np.float64)),
        exec_=device,
    )
    return binding(device, unit_diagonal=unit_diagonal).generate(mtx)


def upper_trs(device, mtx, unit_diagonal: bool = False):
    """Batched backward substitution on upper-triangular systems."""
    binding = bindings.resolve(
        "batch_upper_trs_factory",
        value_dtype(getattr(mtx, "dtype", np.float64)),
        exec_=device,
    )
    return binding(device, unit_diagonal=unit_diagonal).generate(mtx)
