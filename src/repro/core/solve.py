"""The generic ``pg.solve`` entry point (config-solver route, Listing 2).

``solve`` builds a configuration dictionary from its arguments on the
Python side and hands it to the engine's config-solver — the same flow the
paper describes: "a dictionary that is based on the arguments that are
passed is created at the python backend ... then used to call Ginkgo's
config_solve method", with no temporary files on disk.
"""

from __future__ import annotations

from repro.core.device import device as _device_factory
from repro.core.solver_api import SolverHandle, _unwrap
from repro.core.tensor import Tensor, as_tensor
from repro.ginkgo.config import parse
from repro.ginkgo.config.parser import to_json
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.executor import Executor


def build_config(
    solver: str = "gmres",
    preconditioner: str | dict | None = None,
    max_iters: int = 1000,
    reduction_factor: float | None = 1e-6,
    **solver_params,
) -> dict:
    """Assemble the Listing-2-style configuration dictionary.

    Args:
        solver: Solver name or ``solver::X`` type string.
        preconditioner: Preconditioner name (``"jacobi"``/``"ilu"``/...)
            or a full preconditioner config dict, or None.
        max_iters: Iteration criterion.
        reduction_factor: Relative residual criterion (None to omit).
        **solver_params: Extra solver parameters (e.g. ``krylov_dim=30``).

    Returns:
        A config dictionary ready for the engine's config-solver.
    """
    criteria = [{"type": "stop::Iteration", "max_iters": int(max_iters)}]
    if reduction_factor is not None:
        criteria.append(
            {
                "type": "stop::ResidualNorm",
                "reduction_factor": float(reduction_factor),
                "baseline": "rhs_norm",
            }
        )
    config: dict = {"type": solver, "criteria": criteria}
    config.update(solver_params)
    if preconditioner is not None:
        if isinstance(preconditioner, str):
            config["preconditioner"] = {"type": preconditioner}
        elif isinstance(preconditioner, dict):
            config["preconditioner"] = preconditioner
        else:
            raise GinkgoError(
                "preconditioner must be a name or a config dict in the "
                "config-solver route; pass generated operators to "
                "pg.solver.* instead"
            )
    return config


def config_solver(device, mtx, config: dict) -> SolverHandle:
    """Instantiate a solver from a configuration dictionary."""
    exec_ = (
        device
        if isinstance(device, Executor)
        else _device_factory(device or "reference")
    )
    factory = parse(exec_, config)
    return SolverHandle(factory.generate(mtx))


def solve(
    device,
    mtx,
    b,
    x=None,
    solver: str = "gmres",
    preconditioner=None,
    max_iters: int = 1000,
    reduction_factor: float | None = 1e-6,
    retry=None,
    fallback=None,
    checkpoint_every: int = 0,
    metrics=None,
    **solver_params,
):
    """One-call linear solve through the config-solver.

    Args:
        device: Executor or device name.
        mtx: System matrix (engine LinOp).
        b: Right-hand side (Tensor or Dense).
        x: Initial guess; zeros when omitted.
        solver: Solver name (default GMRES, as in Listing 2).
        preconditioner: Preconditioner name or config dict.
        max_iters: Iteration limit.
        reduction_factor: Relative residual threshold.
        retry: A :class:`~repro.core.resilient.RetryPolicy`; setting it
            (or ``fallback``/``checkpoint_every``) routes the solve
            through :func:`~repro.core.resilient.resilient_solve`, which
            then returns ``(report, x)`` instead of ``(logger, x)``.
        fallback: A :class:`~repro.core.resilient.FallbackChain` of
            executors to degrade onto.
        checkpoint_every: Checkpoint the recurrence every N iterations,
            so a retry resumes from it (resilient route only).
        metrics: Optional :class:`~repro.ginkgo.log.MetricsRegistry`
            receiving solve/iteration counters (resilient route only).
        **solver_params: Extra solver parameters (``krylov_dim=...``).

    Returns:
        ``(logger, x)`` — the convergence logger and the solution tensor
        (``(report, x)`` on the resilient route).
    """
    if retry is not None or fallback is not None or checkpoint_every:
        from repro.core.resilient import resilient_solve

        return resilient_solve(
            device,
            mtx,
            b,
            x=x,
            solver=solver,
            preconditioner=preconditioner,
            max_iters=max_iters,
            reduction_factor=reduction_factor,
            retry=retry,
            fallback=fallback,
            checkpoint_every=checkpoint_every,
            metrics=metrics,
            **solver_params,
        )
    exec_ = (
        device
        if isinstance(device, Executor)
        else _device_factory(device or "reference")
    )
    if x is None:
        rows = _unwrap(b).size.rows
        cols = _unwrap(b).size.cols
        x = as_tensor(
            device=exec_, dim=(rows, cols), dtype=_unwrap(b).dtype, fill=0.0
        )
    config = build_config(
        solver=solver,
        preconditioner=preconditioner,
        max_iters=max_iters,
        reduction_factor=reduction_factor,
        **solver_params,
    )
    handle = config_solver(exec_, mtx, config)
    return handle.apply(b, x)


def config_to_json(config: dict) -> str:
    """Serialise a config dict to the JSON string Ginkgo would receive."""
    return to_json(config)
