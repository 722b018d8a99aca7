"""Logger implementations."""

from __future__ import annotations

import sys

import numpy as np


class Logger:
    """Base logger: defines the event vocabulary, ignores everything.

    Handlers follow the naming convention ``on_<event>``; operators invoke
    them via ``LinOp._log(event, **kwargs)``.  Available events:

    * ``apply_started(op, b=..., x=...)``
    * ``apply_completed(op, b=..., x=...)``
    * ``iteration_complete(op, iteration=..., residual_norm=...,
      solution=...)``
    * ``converged(op, iteration=..., residual_norm=...)``
    * ``breakdown(op, iteration=..., residual_norm=...)`` — the solver hit
      a non-finite residual and stopped early
    * ``criterion_check_completed(op, iteration=..., stopped=...)``

    Executors emit events through the same protocol (the first argument is
    then the executor):

    * ``fault_injected(exec, site=..., kind=..., index=..., call=...,
      detail=...)`` — a :class:`~repro.ginkgo.fault.FaultyExecutor`
      injected a fault
    * ``data_corrupted(exec, index=..., flat_index=...)`` — a corruption
      fault poisoned a buffer entry
    """

    def on_apply_started(self, op, **kwargs) -> None:
        pass

    def on_apply_completed(self, op, **kwargs) -> None:
        pass

    def on_iteration_complete(self, op, **kwargs) -> None:
        pass

    def on_converged(self, op, **kwargs) -> None:
        pass

    def on_breakdown(self, op, **kwargs) -> None:
        pass

    def on_criterion_check_completed(self, op, **kwargs) -> None:
        pass

    def on_fault_injected(self, op, **kwargs) -> None:
        pass

    def on_data_corrupted(self, op, **kwargs) -> None:
        pass


class ConvergenceLogger(Logger):
    """Tracks iterations and residual history of one (or more) solves.

    This is the object returned by pyGinkgo's ``solver.apply`` (Listing 1):
    it provides diagnostic information about convergence and iteration
    progress.
    """

    def __init__(self) -> None:
        self.num_iterations = 0
        self.residual_norms: list[float] = []
        self.converged = False
        self.breakdown = False
        self.final_residual_norm = float("nan")

    def on_apply_started(self, op, **kwargs) -> None:
        # A fresh apply restarts the history.
        self.num_iterations = 0
        self.residual_norms = []
        self.converged = False
        self.breakdown = False
        self.final_residual_norm = float("nan")

    def on_iteration_complete(self, op, iteration=0, residual_norm=None, **kwargs):
        self.num_iterations = iteration
        if residual_norm is not None:
            self.final_residual_norm = float(np.max(residual_norm))
            self.residual_norms.append(self.final_residual_norm)

    def on_converged(self, op, iteration=0, residual_norm=None, **kwargs) -> None:
        self.converged = True
        self.num_iterations = iteration
        if residual_norm is not None:
            self.final_residual_norm = float(np.max(residual_norm))

    def on_breakdown(self, op, iteration=0, residual_norm=None, **kwargs) -> None:
        self.breakdown = True
        self.converged = False
        self.num_iterations = iteration
        if residual_norm is not None:
            self.final_residual_norm = float(np.max(residual_norm))

    @property
    def reduction(self) -> float:
        """Final residual norm divided by the first recorded norm."""
        if not self.residual_norms or self.residual_norms[0] == 0.0:
            return float("nan")
        return self.final_residual_norm / self.residual_norms[0]

    def __repr__(self) -> str:
        return (
            f"ConvergenceLogger(iterations={self.num_iterations}, "
            f"converged={self.converged}, "
            f"final_residual_norm={self.final_residual_norm:.3e})"
        )


class RecordLogger(Logger):
    """Records every event with its payload, for tests and debugging."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def _record(self, event: str, op, kwargs) -> None:
        # Operand payloads (the in-progress solution) are dropped so the
        # recorded sequences stay printable and comparable across runs.
        payload = {k: v for k, v in kwargs.items() if k != "solution"}
        self.events.append((event, type(op).__name__, payload))

    def on_apply_started(self, op, **kwargs) -> None:
        self._record("apply_started", op, {})

    def on_apply_completed(self, op, **kwargs) -> None:
        self._record("apply_completed", op, {})

    def on_iteration_complete(self, op, **kwargs) -> None:
        self._record("iteration_complete", op, kwargs)

    def on_converged(self, op, **kwargs) -> None:
        self._record("converged", op, kwargs)

    def on_breakdown(self, op, **kwargs) -> None:
        self._record("breakdown", op, kwargs)

    def on_criterion_check_completed(self, op, **kwargs) -> None:
        self._record("criterion_check_completed", op, kwargs)

    def on_fault_injected(self, op, **kwargs) -> None:
        self._record("fault_injected", op, kwargs)

    def on_data_corrupted(self, op, **kwargs) -> None:
        self._record("data_corrupted", op, kwargs)

    def count(self, event: str) -> int:
        """Number of recorded events with the given name."""
        return sum(1 for name, _, _ in self.events if name == event)


class PerformanceLogger(Logger):
    """Aggregates simulated time per operator type across applies.

    Attach to any set of LinOps; each completed apply accumulates the
    simulated elapsed time (and call count) under the operator's class
    name, giving a per-component profile of a solver pipeline.
    """

    def __init__(self) -> None:
        self.totals: dict = {}
        self.counts: dict = {}
        self._starts: dict = {}

    def on_apply_started(self, op, **kwargs) -> None:
        self._starts[id(op)] = op.executor.clock.now

    def on_apply_completed(self, op, **kwargs) -> None:
        start = self._starts.pop(id(op), None)
        if start is None:
            return
        name = type(op).__name__
        elapsed = op.executor.clock.now - start
        self.totals[name] = self.totals.get(name, 0.0) + elapsed
        self.counts[name] = self.counts.get(name, 0) + 1

    @property
    def total_time(self) -> float:
        """Total simulated seconds across all profiled operators."""
        return sum(self.totals.values())

    def summary(self) -> str:
        """Aligned text profile, slowest component first."""
        lines = [f"{'operator':<24} {'calls':>7} {'time':>12} {'share':>7}"]
        total = self.total_time or 1.0
        for name in sorted(self.totals, key=self.totals.get, reverse=True):
            lines.append(
                f"{name:<24} {self.counts[name]:>7} "
                f"{self.totals[name] * 1e3:>9.3f} ms "
                f"{self.totals[name] / total * 100:>5.1f}%"
            )
        return "\n".join(lines)


class StreamLogger(Logger):
    """Writes one line per event to a stream (default: stdout)."""

    def __init__(self, stream=None, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.stream = stream or sys.stdout
        self.every = every

    def on_iteration_complete(self, op, iteration=0, residual_norm=None, **kwargs):
        if iteration % self.every:
            return
        norm = (
            f", residual={float(np.max(residual_norm)):.6e}"
            if residual_norm is not None
            else ""
        )
        print(
            f"[{type(op).__name__}] iteration {iteration}{norm}",
            file=self.stream,
        )

    def on_converged(self, op, iteration=0, residual_norm=None, **kwargs) -> None:
        norm = (
            f" (residual {float(np.max(residual_norm)):.6e})"
            if residual_norm is not None
            else ""
        )
        print(
            f"[{type(op).__name__}] converged after {iteration} iterations{norm}",
            file=self.stream,
        )
