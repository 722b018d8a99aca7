"""Simulated distributed-memory subsystem (``gko::experimental::distributed``).

Row-partitions a global operator over ``K`` simulated ranks that share
one address space: numerics stay real (rank-local SpMV and fused vector
updates run as one fused region per operation), while every collective
and halo exchange is charged on the simulated clock through a
:class:`Communicator` using the alpha-beta network model in
:mod:`repro.perfmodel.comm`.

Reductions are evaluated in global element order, which makes distributed
residual histories bitwise identical to the equivalent single-rank solve
— see DESIGN.md for the argument and ``tests/ginkgo/test_distributed.py``
for the enforcement.
"""

from repro.ginkgo.distributed.comm import Communicator, InflightExchange
from repro.ginkgo.distributed.matrix import Matrix, RowGatherer
from repro.ginkgo.distributed.partition import Partition
from repro.ginkgo.distributed.solver import SOLVERS, DistributedIterativeSolver
from repro.ginkgo.distributed.vector import (
    Vector,
    run_rankwise,
    sequential_ranks,
)

#: The derived solver classes (``DistributedCg``, its solver class, ...).
_DERIVED = {
    cls.__name__: cls
    for factory in SOLVERS.values()
    for cls in (factory, factory.solver_class)
}
globals().update(_DERIVED)

__all__ = sorted([
    "Communicator",
    "DistributedIterativeSolver",
    "InflightExchange",
    "Matrix",
    "Partition",
    "RowGatherer",
    "SOLVERS",
    "Vector",
    "run_rankwise",
    "sequential_ranks",
    *_DERIVED,
])
