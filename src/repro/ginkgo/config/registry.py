"""Type registries for the config-solver.

Maps the ``type`` strings used in configuration dictionaries (Listing 2 of
the paper uses e.g. ``solver::Gmres``, ``preconditioner::Jacobi``,
``stop::Iteration``) onto the engine's factory classes, together with the
parameter names each accepts.
"""

from __future__ import annotations

from repro.ginkgo.preconditioner import Ic, Ilu, Isai, Jacobi
from repro.ginkgo.multigrid import Pgm
from repro.ginkgo.solver import METHODS, SOLVERS, Direct, LowerTrs, UpperTrs
from repro.ginkgo.stop import (
    Deadline,
    Divergence,
    Iteration,
    ResidualNorm,
    Time,
)

#: Solver type name -> (factory class, accepted parameter names): every
#: scalar method of the method table as ``solver::<Factory>`` accepting
#: its recurrence's parameters, then the direct and triangular solvers.
SOLVER_REGISTRY = {
    **{
        f"solver::{factory.__name__}": (factory, METHODS[name].parameters)
        for name, factory in SOLVERS.items()
    },
    "solver::Direct": (Direct, ()),
    "solver::LowerTrs": (LowerTrs, ("unit_diagonal",)),
    "solver::UpperTrs": (UpperTrs, ("unit_diagonal",)),
}

#: Preconditioner type name -> (factory class, accepted parameter names).
PRECONDITIONER_REGISTRY = {
    "preconditioner::Jacobi": (Jacobi, ("max_block_size", "storage_precision")),
    "preconditioner::Ilu": (Ilu, ("algorithm", "sweeps", "storage_precision")),
    "preconditioner::Ic": (Ic, ("storage_precision",)),
    "preconditioner::Isai": (Isai, ("sparsity_power", "storage_precision")),
    "preconditioner::Multigrid": (
        Pgm,
        (
            "max_levels",
            "coarse_size",
            "smoother_relaxation",
            "pre_smoother_steps",
            "post_smoother_steps",
        ),
    ),
}

#: Criterion type name -> (factory class, accepted parameter names).
STOP_REGISTRY = {
    "stop::Iteration": (Iteration, ("max_iters",)),
    "stop::ResidualNorm": (ResidualNorm, ("reduction_factor", "baseline")),
    "stop::Time": (Time, ("time_limit",)),
    "stop::Divergence": (Divergence, ("limit",)),
    "stop::Deadline": (Deadline, ("at",)),
}

#: Short aliases accepted in configs for user convenience: the method
#: names, and ``direct``.
SOLVER_ALIASES = {
    **{name: f"solver::{f.__name__}" for name, f in SOLVERS.items()},
    "direct": "solver::Direct",
}

PRECONDITIONER_ALIASES = {
    "jacobi": "preconditioner::Jacobi",
    "ilu": "preconditioner::Ilu",
    "ic": "preconditioner::Ic",
    "isai": "preconditioner::Isai",
    "multigrid": "preconditioner::Multigrid",
    "amg": "preconditioner::Multigrid",
}
