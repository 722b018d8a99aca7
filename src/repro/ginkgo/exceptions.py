"""Exception hierarchy mirroring Ginkgo's error types."""

from __future__ import annotations


class GinkgoError(Exception):
    """Base class for all engine errors."""


class DimensionMismatch(GinkgoError):
    """Operands passed to an apply have incompatible dimensions."""

    def __init__(self, op_name: str, expected, got) -> None:
        super().__init__(
            f"{op_name}: dimension mismatch, expected {expected}, got {got}"
        )
        self.expected = expected
        self.got = got


class BadDimension(GinkgoError):
    """An object was constructed with an invalid dimension."""


class ExecutorMismatch(GinkgoError):
    """Operands live on different executors without an explicit copy."""

    def __init__(self, op_name: str, expected, got) -> None:
        super().__init__(
            f"{op_name}: operands live on executor {got!r} but the operator "
            f"lives on {expected!r}; copy the data explicitly first"
        )


class AllocationError(GinkgoError):
    """Device memory exhausted (models cudaErrorMemoryAllocation)."""

    def __init__(self, executor_name: str, requested: int, available: int) -> None:
        super().__init__(
            f"{executor_name}: failed to allocate {requested} bytes "
            f"({available} bytes available)"
        )
        self.requested = requested
        self.available = available


class CudaError(GinkgoError):
    """A device-side failure on a CUDA/HIP executor."""


class CommunicationError(GinkgoError):
    """A simulated communication failure (dropped message, dead link).

    Raised by the distributed :class:`~repro.ginkgo.distributed.comm.Communicator`
    when fault injection drops an exchange.  Treated as transient by both
    the distributed solvers' replay recovery and the resilient-solve retry
    layer (a real MPI stack would retransmit or surface ``MPI_ERR_*``).
    """


class RankFailure(CommunicationError):
    """A simulated rank died during a collective or halo exchange.

    Carries the failed rank so recovery can shrink the partition over the
    survivors.  Models the notification a fault-tolerant MPI (ULFM's
    ``MPI_ERR_PROC_FAILED``) delivers at the next communication.
    """

    def __init__(self, rank: int, op: str = "") -> None:
        where = f" during {op}" if op else ""
        super().__init__(f"rank {rank} failed{where}")
        self.rank = int(rank)
        self.op = op


class StateCorrupted(GinkgoError):
    """A reduction result was poisoned by injected corruption."""


class NotSupported(GinkgoError):
    """The requested operation is not implemented for this type."""


class SolverBreakdown(GinkgoError):
    """The iteration produced a non-finite residual (NaN/Inf breakdown).

    Mirrors the breakdown conditions real Krylov solvers hit on corrupted
    data or unlucky pivots.  Like :class:`NotConverged`, solvers only raise
    this in strict mode (``strict_breakdown=True``); by default the solve
    stops early and the logger records the breakdown.
    """

    def __init__(self, iterations: int, residual_norm: float) -> None:
        super().__init__(
            f"solver broke down after {iterations} iterations "
            f"(residual norm {residual_norm!r})"
        )
        self.iterations = iterations
        self.residual_norm = residual_norm


class ResilienceExhausted(GinkgoError):
    """Every retry and every fallback executor failed.

    Carries the per-attempt failure history so callers can see what was
    tried before giving up.
    """

    def __init__(self, attempts: int, history) -> None:
        summary = "; ".join(
            f"{name}: {type(err).__name__}" for name, err in history
        )
        super().__init__(
            f"resilient solve failed after {attempts} attempts ({summary})"
        )
        self.attempts = attempts
        self.history = tuple(history)


class NotConverged(GinkgoError):
    """A solver exhausted its stopping criteria without converging.

    Ginkgo itself does not throw on non-convergence (the logger reports it);
    this exception is only raised by APIs that request strict behaviour.
    """

    def __init__(self, iterations: int, residual_norm: float) -> None:
        super().__init__(
            f"solver did not converge after {iterations} iterations "
            f"(residual norm {residual_norm:.3e})"
        )
        self.iterations = iterations
        self.residual_norm = residual_norm
