"""Common machinery of the iterative solvers.

Every solver is its method's :class:`~repro.ginkgo.solver.recurrence.
Recurrence` plus one monitored solve (:meth:`IterativeSolver._solve`):
``r0 = b - A x0``, the iteration-0 check, then the recurrence handed to
a driver — plain ``iterate``, or the armed checkpoint/replay driver
(:mod:`repro.ginkgo.solver.recovery`), from which
:meth:`IterativeSolver.resume` continues.  A multi-column solve of a
``single_rhs`` recurrence runs column by column, each column to its own
verdict against its own baseline, and reports the aggregate: converged
when every column is, the largest iteration count and residual norm,
breakdown / timed out when any column is.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.exceptions import BadDimension, GinkgoError, SolverBreakdown
from repro.ginkgo.lin_op import Identity, LinOp, LinOpFactory
from repro.ginkgo.matrix.dense import Dense
from repro.ginkgo.solver.recovery import Recovery
from repro.ginkgo.solver.recurrence import Recurrence, iterate
from repro.ginkgo.solver.workspace import Workspace
from repro.ginkgo.stop import CriterionContext, Iteration, ResidualNorm


def _normalise_criteria(criteria):
    """Coerce a factory, list of factories, or None into one factory."""
    if criteria is None:
        return Iteration(1000) | ResidualNorm(1e-12, baseline="rhs_norm")
    if isinstance(criteria, (list, tuple)):
        if not criteria:
            raise GinkgoError("criteria list must not be empty")
        combined = criteria[0]
        for item in criteria[1:]:
            combined = combined | item
        return combined
    return criteria


class SolverFactory(LinOpFactory):
    """Factory holding solver parameters (Ginkgo's ``Solver::build()``).

    The iterative methods' factories are derived from the method table
    (:func:`repro.ginkgo.solver.derive_instances`).

    Args:
        exec_: Executor to generate solvers on.
        criteria: A criterion factory, a list of them (OR-combined), or
            None for the default (1000 iterations or relative residual
            1e-12).
        preconditioner: Either a generated LinOp applied as the
            preconditioner, or a factory with a ``generate(matrix)`` method.
        strict_breakdown: When True, a NaN/Inf residual raises
            :class:`SolverBreakdown` (``NotConverged``-style strictness);
            by default the solve just stops early and logs the breakdown.
        **params: Solver-specific parameters, validated by the subclass.
    """

    #: Concrete solver class instantiated by :meth:`generate`.
    solver_class: type | None = None
    #: Names of accepted solver-specific parameters.
    parameter_names: tuple = ()

    def __init__(
        self,
        exec_,
        criteria=None,
        preconditioner=None,
        strict_breakdown: bool = False,
        **params,
    ):
        super().__init__(exec_)
        unknown = set(params) - set(self.parameter_names)
        if unknown:
            raise GinkgoError(
                f"{type(self).__name__} got unknown parameters {sorted(unknown)}; "
                f"accepted: {sorted(self.parameter_names)}"
            )
        self.criteria = _normalise_criteria(criteria)
        self.preconditioner = preconditioner
        self.strict_breakdown = bool(strict_breakdown)
        self.params = params

    def generate(self, matrix: LinOp) -> "IterativeSolver":
        """Bind the factory to a system matrix."""
        if self.solver_class is None:
            raise NotImplementedError(
                f"{type(self).__name__} does not define solver_class"
            )
        return self.solver_class(self, matrix)


class IterativeSolver(LinOp):
    """Base of all iterative solver LinOps.

    ``apply(b, x)`` treats ``x`` as the initial guess and overwrites it with
    the solution, firing ``iteration_complete`` / ``converged`` logger
    events along the way, exactly like Ginkgo solvers.
    """

    #: Whether the solver requires a square system matrix.
    requires_square = True
    #: The method's :class:`Recurrence` (every concrete solver names one).
    recurrence: type | None = None
    #: Factory parameters this class reads itself; its factory accepts
    #: them after the recurrence's ``parameters``.  ``checkpoint_every``
    #: arms the recovery driver every N iterations (0: off).
    extra_parameters: tuple = ("checkpoint_every",)
    #: The last checkpoint the recovery driver took or resumed from.
    checkpoint = None

    _profile_category = "solver"

    def __init__(self, factory: SolverFactory, matrix: LinOp) -> None:
        if self.requires_square and not matrix.size.is_square:
            raise BadDimension(
                f"{type(self).__name__} requires a square matrix, "
                f"got {matrix.size}"
            )
        super().__init__(matrix.executor, matrix.size)
        self._factory = factory
        self._matrix = matrix
        # Preconditioner generation (factorisations, inverses) runs real
        # kernels; span it so setup cost is attributable separately from
        # the solve itself.
        clock = matrix.executor.clock
        clock.push_span(f"{type(self).__name__}::generate", "generate")
        try:
            self._preconditioner = self._generate_preconditioner(
                factory.preconditioner, matrix
            )
        finally:
            clock.pop_span()
        # Scratch buffers persist across apply() calls and restart cycles;
        # the first solve populates the pool, later solves run allocation-free.
        self._workspace = Workspace(matrix.executor)
        self._set_verdict()

    def _set_verdict(
        self, iterations=0, converged=False, residual_norm=float("nan"),
        breakdown=False, timed_out=False,
    ) -> None:
        """Record an apply's outcome (reset at the start of every apply)."""
        self.num_iterations = iterations
        self.converged = converged
        self.final_residual_norm = residual_norm
        self.breakdown = breakdown
        self.timed_out = timed_out

    @staticmethod
    def _generate_preconditioner(precond, matrix: LinOp) -> LinOp:
        if precond is None:
            return Identity(matrix.executor, matrix.size.rows)
        if isinstance(precond, LinOp):
            return precond
        if hasattr(precond, "generate"):
            return precond.generate(matrix)
        raise GinkgoError(
            f"preconditioner must be a LinOp or a factory, got "
            f"{type(precond).__name__}"
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def system_matrix(self) -> LinOp:
        return self._matrix

    @property
    def preconditioner(self) -> LinOp:
        return self._preconditioner

    @property
    def parameters(self) -> dict:
        return dict(self._factory.params)

    @property
    def workspace(self) -> Workspace:
        """The solver's persistent scratch-buffer pool."""
        return self._workspace

    def clear_workspace(self) -> None:
        """Release all pooled scratch buffers back to the executor."""
        self._workspace.clear()

    # ------------------------------------------------------------------
    # LinOp interface
    # ------------------------------------------------------------------
    def _apply_impl(self, b: Dense, x: Dense) -> None:
        self._solve(b, x, self._exec.clock.now)

    def resume(self, checkpoint, b, x):
        """Continue a failed apply from its :attr:`checkpoint` (possibly
        another executor's); only the later iterations are logged."""
        return self._applying(
            "apply", b, x, self._solve, b, x, self._exec.clock.now, checkpoint
        )

    def _solve(self, b, x, start_time: float, resume=None) -> None:
        """One monitored solve of ``A x = b`` whose clock started at ``start_time``."""
        if b.size.cols > 1 and self.recurrence.single_rhs:
            # One column solve each, to its own verdict against its own
            # baseline; the column operands are cached writable views
            # into b/x, so results land in x directly.
            ws = self._workspace
            verdicts = []
            try:
                for c in range(b.size.cols):
                    self._solve(
                        ws.column_view(f"base.b[{c}]", b, c),
                        ws.column_view(f"base.x[{c}]", x, c),
                        start_time,
                    )
                    verdicts.append((
                        self.num_iterations, self.converged,
                        self.final_residual_norm, self.breakdown,
                        self.timed_out,
                    ))
            finally:
                # One column's checkpoint cannot resume the whole block.
                self.checkpoint = None
            iterations, converged, norms, breakdown, timed_out = zip(*verdicts)
            self._set_verdict(
                max(iterations), all(converged), float(np.max(norms)),
                any(breakdown), any(timed_out),
            )
            return
        self._set_verdict()
        context = CriterionContext(
            rhs_norm=b.compute_norm2() if resume is None else resume.rhs_norm,
            clock=self._exec.clock,
            start_time=start_time,
        )
        # Initial residual r0 = b - A x0 (pooled; charges like b.clone());
        # a resumed solve restores what it carries from the checkpoint.
        r = self._initial_residual_buffer(b)
        if resume is None:
            self._matrix.apply_advanced(-1.0, x, 1.0, r)
            context.initial_resnorm = r.compute_norm2()
        else:
            context.initial_resnorm = resume.initial_resnorm
        criterion = self._factory.criteria.generate(context)
        clock = self._exec.clock
        # The attached loggers' per-iteration handlers, resolved once.
        on_iteration, on_check, on_converged = (
            [h for h in (getattr(lg, f"on_{e}", None) for lg in self._loggers)
             if h is not None]
            for e in ("iteration_complete", "criterion_check_completed", "converged")
        )

        def monitor(
            iteration: int, residual_norm, breakdown=False, exact=False
        ) -> bool:
            norms = np.asarray(residual_norm, dtype=np.float64)
            worst = float(norms.max())
            if exact:
                # x is exact at an iteration already logged and checked:
                # the host reads the zero norm back and records the stop.
                # That check did not stop, so the solve did not converge.
                clock.synchronize()
                self._set_verdict(iteration, False, worst)
                return True
            # Breakdown guard: a NaN/Inf residual means the iteration has
            # lost the plot (corrupted data, singular preconditioner, ...)
            # and would otherwise silently spin to max_iters; a step that
            # meets an exact breakdown reports its finite residual here.
            if breakdown or not np.isfinite(norms).all():
                self._set_verdict(iteration, False, worst, breakdown=True)
                self._log(
                    "breakdown",
                    iteration=iteration,
                    residual_norm=residual_norm,
                )
                clock.annotate(
                    "breakdown", iteration=iteration, residual_norm=worst
                )
                if self._factory.strict_breakdown:
                    raise SolverBreakdown(iteration, worst)
                return True
            for handler in on_iteration:
                handler(
                    self, iteration=iteration, residual_norm=residual_norm,
                    solution=x,
                )
            # The host-driven iteration loop reads the stopping status back
            # from the device once per check (Ginkgo behaviour).
            clock.synchronize()
            stop = bool(criterion.check(iteration, norms))
            for handler in on_check:
                handler(self, iteration=iteration, stopped=stop)
            if clock._traced:
                # Iteration boundary marker for attached profilers: the
                # time since the previous marker is this iteration's span.
                clock.annotate(
                    "iteration",
                    iteration=iteration,
                    residual_norm=worst,
                    stopped=stop,
                )
            if stop:
                converged = bool(criterion.converged)
                self._set_verdict(
                    iteration, converged, worst,
                    timed_out=bool(criterion.timed_out),
                )
                if converged:
                    for handler in on_converged:
                        handler(
                            self, iteration=iteration,
                            residual_norm=residual_norm,
                        )
            return stop

        # Check the initial residual before iterating (already converged?).
        if resume is None and monitor(0, context.initial_resnorm):
            return
        recovery = Recovery.arm(self, context, resume)
        drive = iterate if recovery is None else recovery.drive
        drive(self._recurrence(b, x, r, monitor))

    def _initial_residual_buffer(self, b):
        """Pooled buffer initialised to a copy of ``b``."""
        return b.scratch(self._workspace, "base.r0", copy=True)

    def _apply_advanced_impl(self, alpha, b, beta, x) -> None:
        tmp = x.scratch(self._workspace, "base.advanced_tmp", copy=True)
        self._apply_impl(b, tmp)
        x.scale(beta)
        x.add_scaled(alpha, tmp)

    # ------------------------------------------------------------------
    # the iteration: a recurrence plus a driver
    # ------------------------------------------------------------------
    def _recurrence(self, b, x, r, monitor) -> Recurrence:
        """This solve's recurrence, with the factory parameters it accepts."""
        params = self._factory.params
        return self.recurrence(
            self._matrix, self._preconditioner, b, x, r, self._workspace,
            monitor,
            **{k: params[k] for k in self.recurrence.parameters if k in params},
        )
