"""Iterative refinement / Richardson iteration (``gko::solver::Ir``).

``x_{k+1} = x_k + relaxation * S(b - A x_k)`` where the inner solver ``S``
defaults to the identity (plain Richardson).  With an inner solver factory
this becomes classical iterative refinement, e.g. low-precision inner
solves corrected in high precision.
"""

from __future__ import annotations

from repro.ginkgo.lin_op import LinOp
from repro.ginkgo.solver.base import IterativeSolver
from repro.ginkgo.solver.recurrence import Recurrence


class IrRecurrence(Recurrence):
    """Richardson on ``x += relaxation * M r``; carries ``x`` and ``r``.

    ``M`` is the inner solver.  One step is one iteration, which
    recomputes the true residual ``r = b - A x``.

    Parameters:
        relaxation_factor: Richardson damping (default 1.0).
    """

    vectors = ("x", "r")
    parameters = ("relaxation_factor",)

    def __init__(
        self, A, M, b, x, r, ws, monitor, relaxation_factor=1.0
    ) -> None:
        super().__init__(A, M, b, x, r, ws, monitor)
        self.relaxation = float(relaxation_factor)
        self.correction = r.scratch(ws, "ir.correction")
        self._precondition = M.bind(r, self.correction)
        self._norm = r.bind_norm2()

    def step(self, iteration: int) -> tuple:
        x, r = self.x, self.r
        self._precondition()
        x.add_scaled(self.relaxation, self.correction)
        r.copy_values_from(self.b)
        self.A.apply_advanced(-1.0, x, 1.0, r)
        iteration += 1
        return iteration, self.monitor(iteration, self._norm())


class IrSolver(IterativeSolver):
    """Generated IR operator: :class:`IrRecurrence` over ``Dense``, with
    the inner solver in the preconditioner's place.

    Parameters:
        solver: Inner solver (LinOp or factory); identity when omitted.
    """

    recurrence = IrRecurrence
    extra_parameters = IterativeSolver.extra_parameters + ("solver",)

    def __init__(self, factory, matrix) -> None:
        super().__init__(factory, matrix)
        self._inner = self._generate_preconditioner(
            factory.params.get("solver"), matrix
        )

    @property
    def inner_solver(self) -> LinOp:
        return self._inner

    def _recurrence(self, b, x, r, monitor) -> Recurrence:
        return IrRecurrence(
            self._matrix, self._inner, b, x, r, self._workspace, monitor,
            self._factory.params.get("relaxation_factor", 1.0),
        )
