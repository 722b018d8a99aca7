"""The ``pg.solver`` namespace: direct solver bindings (Listing 1).

Each function builds the solver factory through the type-suffixed binding
layer, generates it on the system matrix, and returns a
:class:`SolverHandle` whose ``apply(b, x)`` returns ``(logger, result)``
exactly as in the paper's Listing 1.
"""

from __future__ import annotations

import numpy as np

from repro import bindings
from repro.core.tensor import Tensor
from repro.core.types import value_dtype
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.log import ConvergenceLogger
from repro.ginkgo.matrix.dense import Dense
from repro.ginkgo.solver import METHODS, methods_on
from repro.ginkgo.stop import Iteration, ResidualNorm


def _unwrap(operand) -> Dense:
    if isinstance(operand, Tensor):
        return operand.dense
    if isinstance(operand, Dense):
        return operand
    raise GinkgoError(
        f"expected a Tensor or Dense operand, got {type(operand).__name__}"
    )


class SolverHandle:
    """A generated solver with pyGinkgo's apply contract.

    ``apply(b, x)`` runs the solve in place on ``x`` (the initial guess)
    and returns ``(logger, x)``: the convergence logger with diagnostic
    information, and the solution (same object as the ``x`` passed in).
    """

    def __init__(self, solver) -> None:
        self._solver = solver
        self._logger = ConvergenceLogger()
        solver.add_logger(self._logger)

    @property
    def solver(self):
        """The underlying engine solver LinOp."""
        return self._solver

    @property
    def size(self):
        return self._solver.size

    @property
    def num_iterations(self) -> int:
        """Iterations run by the most recent ``apply`` (0 before any)."""
        return self._solver.num_iterations

    @property
    def converged(self) -> bool:
        """Whether the most recent ``apply`` met its residual criterion."""
        return self._solver.converged

    @property
    def final_residual_norm(self) -> float:
        """Residual norm at the end of the most recent ``apply``."""
        return self._solver.final_residual_norm

    def apply(self, b, x):
        """Solve ``A x = b`` starting from the initial guess in ``x``."""
        return self._run(self._solver.apply, b, x)

    def resume(self, checkpoint, b, x):
        """Continue a failed ``apply`` from the solver's ``checkpoint``."""
        return self._run(
            lambda b, x: self._solver.resume(checkpoint, b, x), b, x
        )

    def _run(self, solve, b, x):
        solve(_unwrap(b), _unwrap(x))
        return self._logger, x

    def __repr__(self) -> str:
        return f"{type(self).__name__}({type(self._solver).__name__})"


def _build_criteria(max_iters, reduction_factor, criteria):
    if criteria is not None:
        return criteria
    built = Iteration(max_iters)
    if reduction_factor is not None:
        built = built | ResidualNorm(reduction_factor, baseline="rhs_norm")
    return built


def _make_solver(
    name,
    device,
    mtx,
    preconditioner=None,
    max_iters=1000,
    reduction_factor=1e-6,
    criteria=None,
    *,
    handle=SolverHandle,
    **params,
):
    """The ``{name}_factory`` binding's solver generated on ``mtx``, in
    ``handle``: the one path of ``pg.solver``, ``pg.batch`` and
    ``pg.distributed``."""
    # Abstract LinOps (compositions, stencils, ...) carry no dtype; the
    # engine iterates in double precision for them.
    factory_binding = bindings.resolve(
        f"{name}_factory",
        value_dtype(getattr(mtx, "dtype", np.float64)),
        exec_=device,
    )
    factory = factory_binding(
        device,
        criteria=_build_criteria(max_iters, reduction_factor, criteria),
        preconditioner=preconditioner,
        **params,
    )
    return handle(factory.generate(mtx))


def _instance_functions(instance: str, handle) -> dict:
    """``{method: function}`` for every method that runs on ``instance``.

    Each function is ``f(device, mtx, preconditioner=None, max_iters=1000,
    reduction_factor=1e-6, criteria=None, **params)`` and returns the
    generated solver wrapped in ``handle``: the per-method functions of
    ``pg.batch`` and ``pg.distributed``.
    """

    def function(method):
        def solve(device, mtx, preconditioner=None, **kwargs):
            return _make_solver(
                f"{instance}_{method}", device, mtx, preconditioner,
                handle=handle, **kwargs,
            )

        solve.__name__ = solve.__qualname__ = method
        solve.__doc__ = (
            f"{instance.capitalize()} :class:`{METHODS[method].__name__}` "
            f"solver, returned as a :class:`{handle.__name__}`."
        )
        return solve

    return {method: function(method) for method in methods_on(instance)}


def cg(device, mtx, preconditioner=None, **kwargs) -> SolverHandle:
    """Conjugate Gradient solver (SPD systems)."""
    return _make_solver("cg", device, mtx, preconditioner, **kwargs)


def fcg(device, mtx, preconditioner=None, **kwargs) -> SolverHandle:
    """Flexible Conjugate Gradient solver."""
    return _make_solver("fcg", device, mtx, preconditioner, **kwargs)


def cgs(device, mtx, preconditioner=None, **kwargs) -> SolverHandle:
    """Conjugate Gradient Squared solver (general systems)."""
    return _make_solver("cgs", device, mtx, preconditioner, **kwargs)


def bicg(device, mtx, preconditioner=None, **kwargs) -> SolverHandle:
    """Biconjugate Gradient solver."""
    return _make_solver("bicg", device, mtx, preconditioner, **kwargs)


def bicgstab(device, mtx, preconditioner=None, **kwargs) -> SolverHandle:
    """BiCGSTAB solver."""
    return _make_solver("bicgstab", device, mtx, preconditioner, **kwargs)


def gmres(
    device,
    mtx,
    preconditioner=None,
    max_iters=1000,
    krylov_dim=30,
    reduction_factor=1e-6,
    criteria=None,
) -> SolverHandle:
    """Restarted GMRES (Listing 1's solver).

    Args:
        device: Executor the solver runs on.
        mtx: System matrix (engine LinOp).
        preconditioner: Generated preconditioner LinOp or factory.
        max_iters: Iteration limit.
        krylov_dim: Restart length (paper uses 30).
        reduction_factor: Relative residual threshold (vs the RHS norm).
        criteria: Explicit criteria factory overriding the above two.
    """
    return _make_solver(
        "gmres",
        device,
        mtx,
        preconditioner,
        max_iters=max_iters,
        reduction_factor=reduction_factor,
        criteria=criteria,
        krylov_dim=krylov_dim,
    )


def minres(device, mtx, preconditioner=None, **kwargs) -> SolverHandle:
    """MINRES solver (symmetric indefinite systems)."""
    return _make_solver("minres", device, mtx, preconditioner, **kwargs)


def idr(device, mtx, preconditioner=None, subspace_dim=2, **kwargs) -> SolverHandle:
    """IDR(s) solver (general systems, short recurrences)."""
    return _make_solver(
        "idr", device, mtx, preconditioner, subspace_dim=subspace_dim,
        **kwargs,
    )


def cb_gmres(
    device,
    mtx,
    preconditioner=None,
    krylov_dim=30,
    storage_precision="float32",
    **kwargs,
) -> SolverHandle:
    """Compressed-basis GMRES: Krylov basis stored in reduced precision."""
    return _make_solver(
        "cb_gmres", device, mtx, preconditioner, krylov_dim=krylov_dim,
        storage_precision=storage_precision, **kwargs,
    )


def ir(device, mtx, inner_solver=None, **kwargs) -> SolverHandle:
    """Iterative refinement / Richardson."""
    if inner_solver is not None:
        kwargs["solver"] = inner_solver
    return _make_solver("ir", device, mtx, None, **kwargs)


def direct(device, mtx) -> SolverHandle:
    """Sparse direct (LU) solver."""
    factory = bindings.resolve("direct_factory", mtx.dtype, exec_=device)(
        device
    )
    return SolverHandle(factory.generate(mtx))


def lower_trs(device, mtx, unit_diagonal: bool = False) -> SolverHandle:
    """Lower triangular solver."""
    factory = bindings.resolve("lower_trs_factory", mtx.dtype, exec_=device)(
        device, unit_diagonal=unit_diagonal
    )
    return SolverHandle(factory.generate(mtx))


def upper_trs(device, mtx, unit_diagonal: bool = False) -> SolverHandle:
    """Upper triangular solver."""
    factory = bindings.resolve("upper_trs_factory", mtx.dtype, exec_=device)(
        device, unit_diagonal=unit_diagonal
    )
    return SolverHandle(factory.generate(mtx))
