"""Stopping-criterion classes.

Each criterion factory produces a stateful checker bound to one solve via
:meth:`CriterionFactory.generate`; the solver calls :meth:`Criterion.check`
once per residual update.  ``check`` returns ``True`` when the solve should
stop; after a stop, :attr:`Criterion.converged` distinguishes convergence
(residual-based stops) from exhaustion (iteration/time limits) and
:attr:`Criterion.timed_out` marks a missed deadline.

Every solve instance runs the same checks.  The context's norms carry
``(cols,)`` per solve, or ``(K, cols)`` for a batched one: each bound is
an array over that optional leading systems axis, and a batched check
passes the active systems' rows (``at=ids``) and gets one decision per
system back, elementwise the comparisons a scalar solve makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ginkgo.exceptions import GinkgoError

#: Residual-norm baselines supported by Ginkgo's ResidualNorm criterion.
RESIDUAL_BASELINES = ("rhs_norm", "initial_resnorm", "absolute")


@dataclass
class CriterionContext:
    """Per-solve quantities criteria may compare against.

    Attributes:
        rhs_norm: Euclidean norm(s) of the right-hand side, ``(cols,)``,
            or ``(K, cols)`` for the ``K`` systems of a batched solve.
        initial_resnorm: Norm(s) of the initial residual ``b - A x0``,
            shaped like ``rhs_norm``.
        clock: The executor's simulated clock (for Time criteria).
    """

    rhs_norm: np.ndarray | float = 1.0
    initial_resnorm: np.ndarray | float = 1.0
    clock: object = None
    start_time: float = field(default=0.0)


class CriterionFactory:
    """Base factory; ``generate(context)`` binds the criterion to a solve."""

    def generate(self, context: CriterionContext) -> "Criterion":
        raise NotImplementedError

    def __or__(self, other: "CriterionFactory") -> "Combined":
        factories = []
        for item in (self, other):
            if isinstance(item, Combined):
                factories.extend(item.factories)
            else:
                factories.append(item)
        return Combined(factories)


class Criterion:
    """Base class of bound criteria; ``state`` becomes attributes.

    A criterion whose stop means an :attr:`outcome` keeps its last
    result as :attr:`hit`; the verdicts read the hits back after a stop.
    """

    #: The last check's result (per active system of a batched solve).
    hit = False
    #: What a hit means: ``"converged"``, ``"timed_out"`` or neither.
    outcome = None

    def __init__(self, **state) -> None:
        self.__dict__.update(state)

    def check(self, iteration, residual_norm, at=()):
        """Whether the solve should stop.

        A batched solve passes the ``(m,)`` iterations and ``(m, cols)``
        norms of the systems ``at`` and gets ``(m,)`` decisions, or one
        for all of them (a clock bound).  A scalar solve passes no ``at``:
        ``()`` selects a whole bound, a 0-d one as a NumPy scalar.
        """
        raise NotImplementedError

    def _verdict(self, outcome: str):
        return self.hit if self.outcome == outcome else False

    @property
    def converged(self):
        """Whether the last check met a residual bound."""
        return self._verdict("converged")

    @property
    def timed_out(self):
        """Whether the last check met a deadline."""
        return self._verdict("timed_out")


class Iteration(CriterionFactory):
    """Stop after a fixed number of iterations."""

    def __init__(self, max_iters: int) -> None:
        if max_iters < 0:
            raise GinkgoError(f"max_iters must be >= 0, got {max_iters}")
        self.max_iters = int(max_iters)

    def generate(self, context: CriterionContext) -> Criterion:
        return _IterationCheck(max_iters=self.max_iters)

    def __repr__(self) -> str:
        return f"Iteration(max_iters={self.max_iters})"


class ResidualNorm(CriterionFactory):
    """Stop when the residual norm falls below a (relative) threshold.

    Args:
        reduction_factor: The threshold.
        baseline: What the residual is compared against — ``rhs_norm``
            (default, matches Listing 1), ``initial_resnorm``, or
            ``absolute``.
    """

    def __init__(
        self, reduction_factor: float = 1e-15, baseline: str = "rhs_norm"
    ) -> None:
        if reduction_factor < 0:
            raise GinkgoError(
                f"reduction_factor must be >= 0, got {reduction_factor}"
            )
        if baseline not in RESIDUAL_BASELINES:
            raise GinkgoError(
                f"unknown baseline {baseline!r}; available: {RESIDUAL_BASELINES}"
            )
        self.reduction_factor = float(reduction_factor)
        self.baseline = baseline

    def generate(self, context: CriterionContext) -> Criterion:
        if self.baseline == "absolute":
            reference = np.ones(np.shape(context.rhs_norm))
        else:  # the context field of that name
            reference = getattr(context, self.baseline)
        reference = np.asarray(reference, dtype=np.float64)
        # Zero baselines (b = 0, or an exact initial guess) would make
        # the relative threshold unreachable for any nonzero residual;
        # fall back to absolute semantics for those entries, as Ginkgo
        # does, so the b = 0 solve converges to x = 0.
        reference = np.where(reference > 0.0, reference, 1.0)
        return _ResidualNormCheck(
            threshold=np.atleast_1d(self.reduction_factor * reference)
        )

    def __repr__(self) -> str:
        return (
            f"ResidualNorm(reduction_factor={self.reduction_factor}, "
            f"baseline={self.baseline!r})"
        )


class Divergence(CriterionFactory):
    """Stop — without converging — when the iteration is diverging.

    Triggers when the residual norm is non-finite (NaN/Inf breakdown) or
    has grown past ``limit`` times the initial residual norm.  Used by the
    resilient solve path to abandon a doomed attempt early instead of
    burning the full iteration budget.
    """

    def __init__(self, limit: float = 1e6) -> None:
        if limit <= 0:
            raise GinkgoError(f"divergence limit must be positive, got {limit}")
        self.limit = float(limit)

    def generate(self, context: CriterionContext) -> Criterion:
        reference = np.asarray(context.initial_resnorm, dtype=np.float64)
        threshold = self.limit * np.where(reference > 0.0, reference, 1.0)
        return _DivergenceCheck(threshold=np.atleast_1d(threshold))

    def __repr__(self) -> str:
        return f"Divergence(limit={self.limit})"


class Time(CriterionFactory):
    """Stop after a simulated-time limit (seconds on the executor clock)."""

    def __init__(self, time_limit: float) -> None:
        if time_limit <= 0:
            raise GinkgoError(f"time_limit must be positive, got {time_limit}")
        self.time_limit = float(time_limit)

    def generate(self, context: CriterionContext) -> Criterion:
        return _TimeCheck(
            clock=context.clock, start=context.start_time,
            time_limit=self.time_limit,
        )

    def __repr__(self) -> str:
        return f"Time(time_limit={self.time_limit})"


class Deadline(CriterionFactory):
    """Stop — without converging — at an absolute simulated-clock time.

    Unlike :class:`Time` (a per-solve relative budget), a deadline is an
    absolute point on the executor clock, so it keeps shrinking across
    retries and fallbacks of one resilient solve: every attempt races
    the same deadline.  The bound criterion records :attr:`timed_out`
    when it fires, which ``resilient_solve`` surfaces as
    ``ResilienceReport.timed_out`` together with the best partial
    solution instead of burning further attempts.

    ``at`` is one instant, or one per system of a batched solve (a
    length-K array, where ``inf`` marks a system without a deadline),
    checked against the active systems in one comparison; a scalar
    solve, whose context has no systems axis, rejects an array.
    """

    def __init__(self, at) -> None:
        at = np.asarray(at, dtype=np.float64)
        # Only a per-system entry may be inf (that system has none).
        bad = np.isnan(at) | (at == -np.inf) | (at.ndim == 0) & np.isinf(at)
        if at.ndim > 1 or bad.any():
            raise GinkgoError(f"deadline must be finite, got {at}")
        self.at = at if at.ndim else float(at)

    def generate(self, context: CriterionContext) -> Criterion:
        systems = np.shape(context.rhs_norm)[:-1]
        if np.ndim(self.at) > len(systems):
            raise GinkgoError(
                "a per-system deadline needs a batched solve; a scalar "
                "solve takes one instant"
            )
        return _DeadlineCheck(
            clock=context.clock, at=np.broadcast_to(self.at, systems)
        )

    def __repr__(self) -> str:
        return f"Deadline(at={self.at})"


class Combined(CriterionFactory):
    """OR-combination: stop when any sub-criterion is satisfied."""

    def __init__(self, factories) -> None:
        self.factories = tuple(factories)
        if not self.factories:
            raise GinkgoError("Combined needs at least one criterion factory")

    def generate(self, context: CriterionContext) -> Criterion:
        return _AnyCheck(bound=[f.generate(context) for f in self.factories])

    def __repr__(self) -> str:
        return f"Combined({list(self.factories)!r})"


# ----------------------------------------------------------------------
# the bound criteria :meth:`CriterionFactory.generate` returns
# ----------------------------------------------------------------------
class _IterationCheck(Criterion):
    def check(self, iteration, residual_norm, at=()):
        return iteration >= self.max_iters


class _ResidualNormCheck(Criterion):
    outcome = "converged"

    def check(self, iteration, residual_norm, at=()):
        self.hit = (residual_norm <= self.threshold[at]).all(-1)
        return self.hit


class _DivergenceCheck(Criterion):
    def check(self, iteration, residual_norm, at=()):
        diverged = ~np.isfinite(residual_norm) | (
            residual_norm > self.threshold[at]
        )
        return diverged.any(-1)


class _TimeCheck(Criterion):
    def check(self, iteration, residual_norm, at=()):
        clock = self.clock
        return clock is not None and clock.now - self.start >= self.time_limit


class _DeadlineCheck(Criterion):
    outcome = "timed_out"

    def check(self, iteration, residual_norm, at=()):
        self.hit = self.clock is not None and self.clock.now >= self.at[at]
        return self.hit


class _AnyCheck(Criterion):
    def check(self, iteration, residual_norm, at=()):
        stop = np.False_
        for criterion in self.bound:
            hit = criterion.check(iteration, residual_norm, at)
            if hit is not False:  # a counter or clock short of its bound
                stop = stop | hit
        return stop

    def _verdict(self, outcome: str):
        verdict = False
        for criterion in self.bound:
            verdict = criterion._verdict(outcome) | verdict
        return verdict
