"""Iterative and direct solvers (``gko::solver``).

All solvers follow Ginkgo's two-stage pattern: a factory holds the
parameters (stopping criteria, preconditioner, solver-specific knobs), and
``factory.generate(matrix)`` binds it to a system matrix, producing a LinOp
whose ``apply(b, x)`` runs the solve with ``x`` as the initial guess.

Every iterative method is written once, as a recurrence, and declared
once, in :data:`METHODS`.  Its solver and factory classes — scalar
(``Cg``), batched (``BatchCg``) and distributed (``DistributedCg``) —
are derived from that table by :func:`derive_instances`, and so are the
binding symbols, config types, ``pg`` functions and service routes.
"""

import sys

from repro.ginkgo.solver.base import IterativeSolver, SolverFactory
from repro.ginkgo.solver.bicg import BicgRecurrence
from repro.ginkgo.solver.bicgstab import BicgstabRecurrence
from repro.ginkgo.solver.cb_gmres import CbGmresRecurrence
from repro.ginkgo.solver.cg import CgRecurrence
from repro.ginkgo.solver.cgs import CgsRecurrence
from repro.ginkgo.solver.direct import Direct
from repro.ginkgo.solver.fcg import FcgRecurrence
from repro.ginkgo.solver.gmres import GmresRecurrence
from repro.ginkgo.solver.idr import IdrRecurrence
from repro.ginkgo.solver.ir import IrRecurrence
from repro.ginkgo.solver.minres import MinresRecurrence
from repro.ginkgo.solver.pipelined_cg import PipelinedCgRecurrence
from repro.ginkgo.solver.triangular import LowerTrs, UpperTrs
from repro.ginkgo.solver.workspace import Workspace

#: The method table: method name -> recurrence.  Each recurrence's
#: ``instances`` says which vector types its code runs on; the methods
#: that stay scalar-only say why.
METHODS = {
    "cg": CgRecurrence,
    "fcg": FcgRecurrence,
    "bicg": BicgRecurrence,  # needs A^T
    "cgs": CgsRecurrence,  # zeroed buffers from ws.dense
    "bicgstab": BicgstabRecurrence,
    "ir": IrRecurrence,  # its inner solver is a scalar LinOp
    "minres": MinresRecurrence,  # ws.dense, _data, Python-float scalars
    "gmres": GmresRecurrence,
    "cb_gmres": CbGmresRecurrence,  # basis hooks read b.dtype, skip marks
    "idr": IdrRecurrence,  # _data[:, 0] blocks, Python-float scalars
    "pipelined_cg": PipelinedCgRecurrence,  # distributed only: iall_reduce
}


def methods_on(instance: str) -> tuple:
    """The names of the methods that run on ``instance``, in table order."""
    return tuple(
        name for name, rec in METHODS.items() if instance in rec.instances
    )


def derive_instances(instance, solver_base, factory_base, namespace=None):
    """``{method: factory}`` for every method that runs on ``instance``.

    For each such method this derives the solver class
    ``<Prefix><Method>Solver(solver_base)`` naming the recurrence, and
    its factory ``<Prefix><Method>(factory_base)``, which accepts the
    recurrence's ``parameters`` plus the solver's ``extra_parameters``.
    The prefix is the capitalised instance name, none for ``"scalar"``:
    ``Cg``/``CgSolver``, ``BatchCg``, ``DistributedPipelinedCg``.  Both
    classes are bound in ``namespace`` — the instance module's globals,
    or by default the recurrence's own module — and a solver class
    already hand-written there (IR's) is kept.
    """
    prefix = "" if instance == "scalar" else instance.capitalize()
    factories = {}
    for name in methods_on(instance):
        recurrence = METHODS[name]
        ns = namespace or vars(sys.modules[recurrence.__module__])
        stem = prefix + recurrence.__name__.removesuffix("Recurrence")
        solver = ns.get(f"{stem}Solver") or type(
            f"{stem}Solver", (solver_base,), {
                "__module__": ns["__name__"],
                "__doc__": f":class:`{recurrence.__name__}` run by "
                f":class:`{solver_base.__name__}`.",
                "recurrence": recurrence,
            },
        )
        factories[name] = ns[stem] = type(stem, (factory_base,), {
            "__module__": ns["__name__"],
            "__doc__": f"{stem} factory: generates {solver.__name__}.",
            "solver_class": solver,
            "parameter_names": recurrence.parameters + solver.extra_parameters,
        })
        ns[solver.__name__] = solver
    return factories


#: ``{method: scalar factory}`` (``Cg``, ``Gmres``, ...).
SOLVERS = derive_instances("scalar", IterativeSolver, SolverFactory)
globals().update((factory.__name__, factory) for factory in SOLVERS.values())

__all__ = sorted([
    "Direct",
    "IterativeSolver",
    "LowerTrs",
    "METHODS",
    "SOLVERS",
    "SolverFactory",
    "UpperTrs",
    "Workspace",
    "derive_instances",
    "methods_on",
    *(factory.__name__ for factory in SOLVERS.values()),
])
