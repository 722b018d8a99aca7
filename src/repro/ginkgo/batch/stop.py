"""Per-system stopping for batched solves (``gko::batch::stop``).

A batched solver advances all systems in lockstep but each system must
stop by *its own* criterion, exactly as if it were solved alone.
:class:`BatchCriteria` binds the scalar criterion factories once per
batch and evaluates them against a block of per-system residual norms.

For the common factories (``Iteration``, ``ResidualNorm``, ``Deadline``
— one instant, or one per system — and any ``Combined`` of them) the
check is fully vectorized — one NumPy comparison for the whole active
set instead of ``K`` Python calls.  The comparisons are
elementwise-identical to the scalar ``check`` methods, so stopping
decisions (and therefore residual histories) match a sequential solve
bit for bit.  Any other criterion falls back to real
per-system bound criteria.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.log import ConvergenceLogger
from repro.ginkgo.stop.criterion import (
    Combined,
    CriterionContext,
    Deadline,
    Iteration,
    ResidualNorm,
)


class BatchStatus:
    """Per-system convergence record of one batched solve.

    The only per-system record a solve writes, kept in arrays as Ginkgo's
    ``batch::log::BatchConvergence`` does: a lockstep check stops systems
    with masked writes and appends its norms as one chunk; per-system
    history lists are assembled when :attr:`residual_norms` is read.
    """

    def __init__(self, num_systems: int) -> None:
        self.num_systems = int(num_systems)
        #: Last iteration each system reached.
        self.num_iterations = np.zeros(self.num_systems, dtype=np.int64)
        #: Whether each system met a convergence criterion.
        self.converged = np.zeros(self.num_systems, dtype=bool)
        #: Whether each system hit a non-finite residual.
        self.breakdown = np.zeros(self.num_systems, dtype=bool)
        #: Whether each system was stopped by its deadline.
        self.timed_out = np.zeros(self.num_systems, dtype=bool)
        #: Final residual norm per system (NaN while unset).
        self.final_residual_norm = np.full(self.num_systems, np.nan)
        self._ids: list = []
        self._values: list = []
        self._norms = None

    def record(self, ids: np.ndarray, norms: np.ndarray) -> None:
        """Append one check's norms (max over columns) of systems ``ids``."""
        self._ids.append(ids)
        self._values.append(norms)
        self._norms = None

    @property
    def residual_norms(self) -> list:
        """Residual-norm history per system (max over columns)."""
        if self._norms is None:
            ids = np.concatenate([np.zeros(0, np.int64), *self._ids])
            values = np.concatenate([np.zeros(0), *self._values])
            ends = np.cumsum(np.bincount(ids, minlength=self.num_systems))
            by_system = values[np.argsort(ids, kind="stable")]
            self._norms = [p.tolist() for p in np.split(by_system, ends[:-1])]
        return self._norms

    def stop(
        self, ids, iterations, norms, at, converged=False, breakdown=False,
        timed_out=False,
    ):
        """Record the stop of systems ``ids[at]``, one masked write per field."""
        stopped = ids[at]
        self.num_iterations[stopped] = iterations[at]
        self.final_residual_norm[stopped] = norms[at]
        self.converged[stopped] = converged
        self.breakdown[stopped] = breakdown
        self.timed_out[stopped] = timed_out

    def loggers(self) -> list:
        """One :class:`ConvergenceLogger` per system, as a scalar solve's
        (an exact-solution stop logs no norm, so it keeps the last one)."""
        loggers = []
        for record in self:
            logger = ConvergenceLogger()
            vars(logger).update(record)
            if record["residual_norms"] and not record["breakdown"]:
                logger.final_residual_norm = record["residual_norms"][-1]
            loggers.append(logger)
        return loggers

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())

    @property
    def num_converged(self) -> int:
        return int(self.converged.sum())

    def system(self, k: int) -> dict:
        """One system's record as a plain dict."""
        return {
            "num_iterations": int(self.num_iterations[k]),
            "converged": bool(self.converged[k]),
            "breakdown": bool(self.breakdown[k]),
            "timed_out": bool(self.timed_out[k]),
            "final_residual_norm": float(self.final_residual_norm[k]),
            "residual_norms": list(self.residual_norms[k]),
        }

    # A BatchStatus is a sequence of per-system records: len() is the
    # batch size, status[k] / iteration yield the system(k) dicts.
    def __len__(self) -> int:
        return self.num_systems

    def __getitem__(self, k):
        systems = range(self.num_systems)[k]  # IndexError past either end
        if isinstance(k, slice):
            return [self.system(i) for i in systems]
        return self.system(systems)

    def __iter__(self):
        return (self.system(k) for k in range(self.num_systems))

    def __repr__(self) -> str:
        return (
            f"BatchStatus({self.num_converged}/{self.num_systems} converged, "
            f"{int(self.breakdown.sum())} breakdowns)"
        )


def _flatten_factories(factory) -> list | None:
    """Decompose a criterion factory into its vectorizable leaves.

    Returns ``None`` when any leaf is of another type (no fast path).
    """
    if isinstance(factory, Combined):
        leaves = []
        for child in factory.factories:
            sub = _flatten_factories(child)
            if sub is None:
                return None
            leaves.extend(sub)
        return leaves
    if isinstance(factory, (Iteration, ResidualNorm, Deadline)):
        return [factory]
    return None


class BatchCriteria:
    """Stopping criteria bound to every system of one batched solve.

    Args:
        factory: The solver factory's criterion (scalar API objects).
        rhs_norm: ``(K, cols)`` per-system right-hand-side norms.
        initial_resnorm: ``(K, cols)`` per-system initial residual norms.
        clock: The executor clock (for time-based criteria).
        start_time: Solve start on the simulated clock.
    """

    def __init__(self, factory, rhs_norm, initial_resnorm, clock, start_time):
        rhs_norm = np.asarray(rhs_norm, dtype=np.float64)
        initial_resnorm = np.asarray(initial_resnorm, dtype=np.float64)
        num_systems = rhs_norm.shape[0]
        self._clock = clock
        self._fast = None
        #: Which systems the last :meth:`check` stopped at their deadline.
        self.timed_out = np.zeros(0, dtype=bool)
        leaves = _flatten_factories(factory)
        if leaves is not None:
            checks = []
            for leaf in leaves:
                if isinstance(leaf, Iteration):
                    checks.append(("iteration", int(leaf.max_iters)))
                elif isinstance(leaf, Deadline):
                    at = np.broadcast_to(leaf.at, (num_systems,))
                    checks.append(("deadline", at))
                else:
                    if leaf.baseline == "rhs_norm":
                        reference = rhs_norm
                    elif leaf.baseline == "initial_resnorm":
                        reference = initial_resnorm
                    else:
                        reference = np.ones_like(rhs_norm)
                    # Same guard as the scalar bound criterion: a zero
                    # reference falls back to an absolute threshold.
                    reference = np.where(reference > 0.0, reference, 1.0)
                    checks.append(
                        ("residual", leaf.reduction_factor * reference)
                    )
            self._fast = checks
            self._bound = None
        else:
            self._bound = []
            for k in range(num_systems):
                context = CriterionContext(
                    rhs_norm=rhs_norm[k], clock=clock, start_time=start_time
                )
                context.initial_resnorm = initial_resnorm[k]
                self._bound.append(factory.generate(context))

    @property
    def vectorized(self) -> bool:
        return self._fast is not None

    def check(self, iterations, norms, ids):
        """Evaluate stopping for the systems in ``ids``.

        Args:
            iterations: ``(m,)`` per-system iteration numbers.
            norms: ``(m, cols)`` per-system residual norms.
            ids: ``(m,)`` original system indices.

        Returns:
            ``(stop, converged)`` boolean masks of shape ``(m,)``;
            :attr:`timed_out` is set to the deadline stops among them.
        """
        iterations = np.asarray(iterations)
        norms = np.asarray(norms, dtype=np.float64)
        m = ids.size
        stop = np.zeros(m, dtype=bool)
        converged = np.zeros(m, dtype=bool)
        self.timed_out = timed_out = np.zeros(m, dtype=bool)
        if self._fast is not None:
            for kind, param in self._fast:
                if kind == "iteration":
                    stop |= iterations >= param
                elif kind == "deadline":
                    timed_out |= self._clock.now >= param[ids]
                    stop |= timed_out
                else:
                    met = np.all(norms <= param[ids], axis=1)
                    stop |= met
                    converged |= met
            return stop, converged
        for i in range(m):
            criterion = self._bound[int(ids[i])]
            stop[i] = criterion.check(int(iterations[i]), norms[i])
            converged[i] = criterion.converged
            timed_out[i] = getattr(criterion, "timed_out", False)
        return stop, converged
