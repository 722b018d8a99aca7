"""pyGinkgo's Pythonic API layer (the paper's primary contribution).

Implements the user-facing entry points of the paper's Listings 1 and 2 —
``device``, ``read``, ``as_tensor``, ``array``, ``solve``, the
``solver``/``preconditioner`` namespaces — plus the pure-Python algorithms
(Rayleigh-Ritz, Lanczos/Arnoldi eigensolvers) composed from operator
primitives and GMRES's Arnoldi step, and NumPy/SciPy interoperability.
"""

from repro.core import batch_api as batch
from repro.core import distributed_api as distributed
from repro.core import preconditioner_api as preconditioner
from repro.core import solver_api as solver
from repro.core.batch_api import BatchSolverHandle
from repro.core.device import clear_device_cache, device
from repro.core.eigensolvers import arnoldi, lanczos, power_iteration
from repro.core.interop import (
    from_numpy,
    from_scipy,
    shares_memory,
    to_numpy,
    to_scipy,
)
from repro.core.io import matrix, read, write
from repro.core.profile import profile
from repro.core.rayleigh_ritz import (
    RitzPairs,
    orthonormalize,
    rayleigh_ritz,
    rayleigh_ritz_eigensolver,
)
from repro.core.resilient import (
    BatchResilienceReport,
    CircuitBreaker,
    FallbackChain,
    ResilienceReport,
    RetryPolicy,
    resilient_batch_solve,
    resilient_solve,
)
from repro.core.solve import (
    build_config,
    config_solver,
    config_to_json,
    solve,
)
from repro.core.solver_api import SolverHandle
from repro.core.tensor import Tensor, array, as_tensor
from repro.core.types import TABLE1, index_dtype, value_dtype
from repro.ginkgo import lazy
from repro.ginkgo.lazy import DeferredTrace, LazyExpr, deferred

__all__ = [
    "BatchResilienceReport",
    "BatchSolverHandle",
    "CircuitBreaker",
    "FallbackChain",
    "ResilienceReport",
    "RetryPolicy",
    "RitzPairs",
    "SolverHandle",
    "TABLE1",
    "Tensor",
    "arnoldi",
    "array",
    "as_tensor",
    "batch",
    "build_config",
    "clear_device_cache",
    "config_solver",
    "config_to_json",
    "DeferredTrace",
    "LazyExpr",
    "deferred",
    "device",
    "distributed",
    "lazy",
    "from_numpy",
    "from_scipy",
    "index_dtype",
    "lanczos",
    "matrix",
    "orthonormalize",
    "power_iteration",
    "preconditioner",
    "profile",
    "rayleigh_ritz",
    "rayleigh_ritz_eigensolver",
    "read",
    "resilient_batch_solve",
    "resilient_solve",
    "shares_memory",
    "solve",
    "solver",
    "to_numpy",
    "to_scipy",
    "value_dtype",
    "write",
]
