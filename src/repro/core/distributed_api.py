"""The ``pg.distributed`` namespace: simulated multi-rank solves.

Mirrors ``pg.solver`` for row-distributed operators: build a
:class:`~repro.ginkgo.distributed.partition.Partition`, distribute the
global matrix and vectors over it, and solve with any method whose
recurrence runs distributed (:data:`SOLVERS`).  Rank-local kernels run
as one fused region per operation; every collective charges the
simulated clock through the matrix's communicator; and the residual
history is bitwise identical to the same solve on a single rank (see
DESIGN.md).

    part = pg.distributed.partition(n, num_ranks=4)
    A = pg.distributed.matrix(dev, part, scipy_csr)
    b = pg.distributed.vector(dev, part, rhs, comm=A.comm)
    x = pg.distributed.zeros_like(b)
    solver = pg.distributed.cg(dev, A, reduction_factor=1e-10)
    logger, x = solver.apply(b, x)
"""

from __future__ import annotations

import numpy as np

from repro import bindings
from repro.core.solver_api import SolverHandle, _instance_functions
from repro.ginkgo.distributed import Partition, sequential_ranks
from repro.ginkgo.distributed import Vector as _Vector
from repro.ginkgo.exceptions import GinkgoError


def partition(global_size, num_ranks, weights=None) -> Partition:
    """Build a row partition over ``num_ranks`` simulated ranks.

    With ``weights`` (per-row work, e.g. nonzeros per row), ranges are
    cut at equal cumulative weight; otherwise rows split evenly.
    """
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (int(global_size),):
            raise GinkgoError(
                f"weights must have length {int(global_size)}, got shape "
                f"{weights.shape}"
            )
        return Partition.build_from_weights(weights, num_ranks)
    return Partition.build_uniform(global_size, num_ranks)


def _as_partition(part, global_size) -> Partition:
    if isinstance(part, Partition):
        return part
    return Partition.build_uniform(global_size, int(part))


def matrix(
    device,
    part,
    scipy_matrix,
    value_dtype=None,
    index_dtype=np.int32,
    overlap=False,
    network=None,
):
    """Distribute a global SciPy matrix over ``part`` ranks.

    ``part`` is a :class:`Partition` or a rank count (uniform split).
    With ``overlap=True`` every SpMV posts its halo exchange
    non-blocking and hides it behind the rank-local block multiply
    (relaxes bit identity to a rounding tolerance — see DESIGN.md);
    ``network`` picks the interconnect model (a
    :class:`~repro.perfmodel.comm.NetworkSpec`) for the communicator
    built with the matrix.
    """
    binding = bindings.resolve(
        "distributed_matrix",
        value_dtype or np.float64,
        index_dtype,
        exec_=device,
    )
    part = _as_partition(part, scipy_matrix.shape[0])
    return binding(
        device, part, scipy_matrix, overlap=overlap, network=network
    )


def vector(device, part, data=None, value_dtype=np.float64, comm=None):
    """Create a distributed vector on ``part`` (zeros when no data).

    Pass ``comm=A.comm`` to charge its reductions on the same
    communicator as the matrix it will be used with.
    """
    binding = bindings.resolve(
        "distributed_vector", value_dtype, exec_=device
    )
    return binding(device, part, data, comm=comm)


def zeros_like(operand: _Vector) -> _Vector:
    """A zero distributed vector with ``operand``'s partition and dtype."""
    if not isinstance(operand, _Vector):
        raise GinkgoError(
            f"expected a distributed Vector, got {type(operand).__name__}"
        )
    return _Vector.zeros_like(operand)


class DistributedSolverHandle(SolverHandle):
    """A generated distributed solver with pyGinkgo's apply contract.

    A :class:`~repro.core.solver_api.SolverHandle` over distributed
    Vectors: ``apply(b, x)`` (and ``resume``) checks that both operands
    are distributed, and records the communication stats of the solve
    as deltas: :attr:`comm_time`, :attr:`comm_hidden_time`, and
    :attr:`num_reductions`.
    """

    #: Modeled communication seconds of the last apply (hidden +
    #: exposed), from the solve's communicator.
    comm_time = 0.0
    #: Communication seconds the last apply hid behind overlapped
    #: compute (0.0 for fully blocking solvers).
    comm_hidden_time = 0.0
    #: Global reductions (all-reduces) the last apply performed.
    num_reductions = 0

    @property
    def comm(self):
        """The communicator charged for this solver's reductions."""
        return self._solver.comm

    def _run(self, solve, b, x):
        for name, operand in (("b", b), ("x", x)):
            if not isinstance(operand, _Vector):
                raise GinkgoError(
                    f"expected a distributed Vector for {name}, got "
                    f"{type(operand).__name__}"
                )
        comm = self._solver.comm
        seconds0 = comm.comm_seconds
        hidden0 = comm.comm_hidden_seconds
        reductions0 = comm.num_all_reduces
        solve(b, x)
        self.comm_time = comm.comm_seconds - seconds0
        self.comm_hidden_time = comm.comm_hidden_seconds - hidden0
        self.num_reductions = comm.num_all_reduces - reductions0
        return self._logger, x


#: ``{method: function}``: ``pg.distributed.cg``, ``pg.distributed.gmres``,
#: ... — one per method whose recurrence runs on distributed Vectors, each
#: ``f(device, mtx, max_iters=1000, reduction_factor=1e-6, criteria=None,
#: **params)`` (the preconditioner stays None); ``params`` include the
#: recovery driver's ``checkpoint_every``, which every iterative solver
#: accepts, and the distributed-only ``max_recoveries``.
SOLVERS = _instance_functions("distributed", DistributedSolverHandle)
globals().update(SOLVERS)

__all__ = sorted([
    "DistributedSolverHandle",
    "Partition",
    "SOLVERS",
    "matrix",
    "partition",
    "sequential_ranks",
    "vector",
    "zeros_like",
    *SOLVERS,
])
