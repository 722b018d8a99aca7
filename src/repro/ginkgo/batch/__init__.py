"""Batched linear algebra (``gko::batch``).

Stacked formats and lockstep solvers for many small independent systems
sharing one sparsity pattern.  One batched kernel call advances all
``K`` systems, amortizing the Python dispatch overhead that dominates
small solves; per-system stopping keeps every residual history
bit-identical to ``K`` sequential scalar solves.
"""

from repro.ginkgo.batch.matrix import BatchCsr, BatchDense
from repro.ginkgo.batch.preconditioner import (
    BatchIdentity,
    BatchJacobi,
    BatchJacobiOperator,
)
from repro.ginkgo.batch.solver import (
    SOLVERS,
    BatchIterativeSolver,
    BatchSolverFactory,
)
from repro.ginkgo.batch.stop import BatchStatus
from repro.ginkgo.batch.triangular import BatchLowerTrs, BatchUpperTrs

#: The derived solver classes (``BatchCg``, ``BatchCgSolver``, ...).
_DERIVED = {
    cls.__name__: cls
    for factory in SOLVERS.values()
    for cls in (factory, factory.solver_class)
}
globals().update(_DERIVED)

__all__ = sorted([
    "BatchCsr",
    "BatchDense",
    "BatchIdentity",
    "BatchIterativeSolver",
    "BatchJacobi",
    "BatchJacobiOperator",
    "BatchLowerTrs",
    "BatchSolverFactory",
    "BatchStatus",
    "BatchUpperTrs",
    "SOLVERS",
    *_DERIVED,
])
