"""Resilient solves: retry, backoff, executor fallback, checkpoint resume.

``resilient_solve`` wraps the config-solver route of
:mod:`repro.core.solve` with the failure handling a production deployment
needs on unreliable heterogeneous devices:

* **retry with exponential backoff** (in simulated time) for transient
  faults — :class:`CudaError`, :class:`AllocationError`, and
  :class:`SolverBreakdown` (NaN/Inf residuals);
* **graceful degradation** down an executor chain
  (``cuda -> omp -> reference`` by default), rebuilding the vectors from
  pristine host snapshots and moving the matrix with ``copy_to``;
* **checkpoint resume**: with ``checkpoint_every`` set, the solver's
  recovery driver (:mod:`repro.ginkgo.solver.recovery`) checkpoints the
  recurrence's state, and the next attempt — on the same executor or a
  fallback — resumes from the last checkpoint instead of from scratch,
  reproducing the fault-free solve bit for bit;
* a structured, deterministic **event trail** (`fault_injected`,
  `attempt_failed`, `retry`, `fallback`, `checkpoint_saved`, ...) so tests
  and benchmarks can assert on exactly what happened.

``resilient_batch_solve`` runs a batched solve under the same retry loop
and re-solves the systems it quarantines one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.device import device as _device_factory
from repro.core.solve import build_config, config_solver
from repro.core.solver_api import _unwrap
from repro.core.tensor import Tensor
from repro.ginkgo.exceptions import (
    AllocationError,
    CommunicationError,
    CudaError,
    GinkgoError,
    ResilienceExhausted,
    SolverBreakdown,
)
from repro.ginkgo.executor import Executor
from repro.ginkgo.log import ConvergenceLogger, Logger
from repro.ginkgo.matrix.dense import Dense
from repro.ginkgo.stop import Deadline

#: Exceptions the retry layer treats as transient by default.
#: CommunicationError covers distributed failures (dropped exchanges,
#: rank failures) that escape the solvers' own checkpoint/replay budget.
TRANSIENT_ERRORS = (
    CudaError,
    AllocationError,
    SolverBreakdown,
    CommunicationError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How often, and how patiently, a failed attempt is retried.

    Attributes:
        max_retries: Additional attempts per executor after the first.
        base_delay: Backoff before the first retry, in simulated seconds.
        backoff_factor: Multiplier applied per subsequent retry
            (exponential backoff).
        retry_on: Exception types treated as transient; anything else
            propagates immediately.
    """

    max_retries: int = 3
    base_delay: float = 1e-3
    backoff_factor: float = 2.0
    retry_on: tuple = TRANSIENT_ERRORS

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise GinkgoError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0:
            raise GinkgoError(
                f"base_delay must be >= 0, got {self.base_delay}"
            )
        if self.backoff_factor < 1.0:
            raise GinkgoError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, retry_index: int) -> float:
        """Simulated backoff before retry number ``retry_index`` (0-based)."""
        return self.base_delay * self.backoff_factor**retry_index


def _executor(device) -> Executor:
    """``device`` itself, or the executor its name resolves to."""
    if isinstance(device, Executor):
        return device
    return _device_factory(device or "reference")


class CircuitBreaker:
    """Per-device circuit breaker over repeated executor failures.

    Tracks consecutive failures per device name.  Once a device fails
    ``failure_threshold`` times in a row its circuit *opens*: resilient
    solves skip it (no staging, no retries) until ``cooldown`` simulated
    seconds have passed on that device's clock, after which one probe
    attempt is admitted (half-open) — a success closes the circuit, a
    failure re-opens it immediately.  Shared across solves by passing
    one instance to :class:`FallbackChain`; this is the admission-control
    primitive the solver-as-a-service layer builds on.
    """

    def __init__(
        self, failure_threshold: int = 3, cooldown: float = 1.0
    ) -> None:
        if failure_threshold < 1:
            raise GinkgoError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 0:
            raise GinkgoError(f"cooldown must be >= 0, got {cooldown}")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self._failures: dict[str, int] = {}
        self._opened_at: dict[str, float] = {}

    def is_open(self, exec_: Executor) -> bool:
        """Whether ``exec_``'s circuit currently rejects attempts.

        An expired cooldown flips the circuit to half-open: this call
        returns False once, admitting a single probe, and the failure
        count is primed so one more failure re-opens it.
        """
        opened = self._opened_at.get(exec_.name)
        if opened is None:
            return False
        if exec_.clock.now - opened >= self.cooldown:
            del self._opened_at[exec_.name]
            self._failures[exec_.name] = self.failure_threshold - 1
            return False
        return True

    def record_failure(self, exec_: Executor) -> bool:
        """Count one failure; returns True when this opens the circuit."""
        count = self._failures.get(exec_.name, 0) + 1
        self._failures[exec_.name] = count
        if count >= self.failure_threshold:
            self._opened_at[exec_.name] = exec_.clock.now
            return True
        return False

    def record_success(self, exec_: Executor) -> None:
        """A completed solve closes the circuit and resets the count."""
        self._failures[exec_.name] = 0
        self._opened_at.pop(exec_.name, None)

    def state(self, name: str) -> str:
        """``"open"``/``"closed"`` for the given device name."""
        return "open" if name in self._opened_at else "closed"

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(threshold={self.failure_threshold}, "
            f"cooldown={self.cooldown}, open={sorted(self._opened_at)})"
        )


class FallbackChain:
    """Ordered executors to degrade onto when one keeps failing.

    Entries are device names (resolved through :func:`repro.core.device`)
    or executor instances.  Entries matching the currently-failing
    executor's device name are skipped, so the default chain
    ``("cuda", "omp", "reference")`` does the right thing from any
    starting executor.

    An optional :class:`CircuitBreaker` (``breaker=...``) makes
    resilient solves skip devices whose circuit is open — share one
    breaker across chains/solves to pool failure history.
    """

    DEFAULT = ("cuda", "omp", "reference")

    def __init__(self, *devices, breaker: CircuitBreaker | None = None) -> None:
        if len(devices) == 1 and isinstance(devices[0], (list, tuple)):
            devices = tuple(devices[0])
        self.devices = devices or self.DEFAULT
        self.breaker = breaker

    def resolve(self, primary: Executor) -> list[Executor]:
        """Executors to try after ``primary``, in order, deduplicated."""
        chain: list[Executor] = []
        seen = {primary.name}
        for entry in self.devices:
            exec_ = _executor(entry)
            if exec_.name in seen:
                continue
            seen.add(exec_.name)
            chain.append(exec_)
        return chain

    def __repr__(self) -> str:
        return f"FallbackChain{self.devices!r}"


class _EventCounts:
    """Counts over a report's deterministic ``events`` trail."""

    def count(self, event: str) -> int:
        """Number of trail events with the given name."""
        return sum(1 for name, _ in self.events if name == event)

    @property
    def faults_injected(self) -> int:
        """Injected faults observed during the solve."""
        return self.count("fault_injected")

    @property
    def retries(self) -> int:
        return self.count("retry")

    @property
    def fallbacks(self) -> int:
        return self.count("fallback")


@dataclass
class ResilienceReport(_EventCounts):
    """What a resilient solve did and how it ended.

    The event trail is a list of ``(name, payload)`` tuples in occurrence
    order; payloads hold only plain scalars/strings, so two runs with the
    same seeds produce identical trails.
    """

    converged: bool
    breakdown: bool
    num_iterations: int
    final_residual_norm: float
    residual_norms: list = field(default_factory=list)
    events: list = field(default_factory=list)
    attempts: int = 1
    executor_name: str = ""
    logger: ConvergenceLogger | None = None
    #: The solve hit its deadline before converging.
    timed_out: bool = False
    #: The returned solution is a best-effort partial result (deadline
    #: expiry), not a converged one.
    partial: bool = False

    def __repr__(self) -> str:
        return (
            f"ResilienceReport(converged={self.converged}, "
            f"iterations={self.num_iterations}, "
            f"attempts={self.attempts}, executor={self.executor_name!r}, "
            f"faults={self.faults_injected}, retries={self.retries}, "
            f"fallbacks={self.fallbacks})"
        )


@dataclass
class BatchResilienceReport(_EventCounts):
    """What a resilient batched solve did, per system and overall.

    ``converged``/``num_iterations``/``final_residual_norm`` are length-K
    arrays reflecting the *final* outcome — a quarantined system that a
    scalar retry recovered reports its retry's verdict, not the faulted
    batch attempt's.
    """

    num_systems: int
    converged: np.ndarray
    num_iterations: np.ndarray
    final_residual_norm: np.ndarray
    #: Systems isolated out of the batch (breakdown or poisoned iterate).
    quarantined: list = field(default_factory=list)
    #: Quarantined systems whose per-system retry converged.
    recovered: list = field(default_factory=list)
    events: list = field(default_factory=list)
    attempts: int = 1
    executor_name: str = ""

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))

    def __repr__(self) -> str:
        return (
            f"BatchResilienceReport(K={self.num_systems}, "
            f"converged={int(np.sum(self.converged))}, "
            f"quarantined={self.quarantined}, recovered={self.recovered}, "
            f"attempts={self.attempts})"
        )


class _Trail(Logger):
    """One resilient solve's event trail, failure history and attempt count.

    Attached to an executor, it also mirrors the executor's fault and
    checkpoint events into the trail.
    """

    def __init__(self) -> None:
        self.events: list = []
        self.history: list = []
        self.attempts = 0

    def on_fault_injected(self, exec_, **kwargs) -> None:
        self.events.append(("fault_injected", dict(kwargs)))

    def on_data_corrupted(self, exec_, **kwargs) -> None:
        self.events.append(("data_corrupted", dict(kwargs)))

    def on_checkpoint_saved(self, exec_, **kwargs) -> None:
        self.events.append(("checkpoint_saved", dict(kwargs)))

    def emit(self, exec_: Executor, name: str, **payload) -> None:
        """Append to the trail and mirror the event onto the clock trace."""
        self.events.append((name, payload))
        exec_.clock.annotate(name, **payload)


def _retrying(
    trail, exec_, retry, attempt, rewind, started="attempt_started",
    breaker=None, expired=None,
):
    """Run ``attempt()`` on ``exec_`` until it returns, backing off between failures.

    ``expired()``, asked before each attempt, may end the loop with its
    own result; ``rewind()`` puts the operands back for a retry and
    returns extra ``retry`` payload.  Returns None once the retries are
    spent or ``breaker`` opens ``exec_``'s circuit.
    """
    for index in range(retry.max_retries + 1):
        if expired is not None and (result := expired()) is not None:
            return result
        trail.attempts += 1
        trail.emit(exec_, started, executor=exec_.name, attempt=trail.attempts)
        try:
            return attempt()
        except retry.retry_on as err:
            trail.history.append((exec_.name, err))
            trail.emit(
                exec_, "attempt_failed", executor=exec_.name,
                attempt=trail.attempts, error=type(err).__name__,
            )
        if breaker is not None and breaker.record_failure(exec_):
            trail.emit(exec_, "circuit_opened", executor=exec_.name)
            return None
        if index == retry.max_retries:
            return None
        delay = retry.delay(index)
        exec_.clock.advance(delay, category="stall", label="retry_backoff")
        trail.emit(
            exec_, "retry", executor=exec_.name, attempt=trail.attempts + 1,
            delay=delay, **rewind(),
        )
    return None


def _feed_metrics(metrics, report, exhausted: bool = False) -> None:
    """Mirror a finished solve's report, scalar or batch, into ``metrics``."""
    if metrics is None:
        return
    batch = isinstance(report, BatchResilienceReport)
    metrics.counter("batch_solves" if batch else "solves").inc()
    if exhausted:
        metrics.counter("solves_exhausted").inc()
    elif batch:
        metrics.counter("batch_systems").inc(report.num_systems)
        metrics.counter("batch_quarantined").inc(len(report.quarantined))
        metrics.counter("batch_recovered").inc(len(report.recovered))
    else:
        if report.converged:
            metrics.counter("solves_converged").inc()
        metrics.histogram("iterations_per_solve").observe(
            report.num_iterations
        )
    metrics.counter("attempts").inc(report.attempts)
    metrics.counter("retries").inc(report.retries)
    metrics.counter("fallbacks").inc(report.fallbacks)
    metrics.counter("faults_injected").inc(report.faults_injected)
    metrics.counter("data_corrupted").inc(report.count("data_corrupted"))
    metrics.counter("breakdowns").inc(report.count("breakdown"))
    metrics.counter("checkpoint_restores").inc(
        report.count("checkpoint_restored")
    )


def _partial_return(
    trail, exec_, x, logger, iterations, residual, metrics, norms
):
    """Best-effort result when the deadline expires mid-flight."""
    trail.emit(
        exec_, "deadline_exceeded", executor=exec_.name, iterations=iterations
    )
    report = ResilienceReport(
        converged=False,
        breakdown=bool(logger.breakdown) if logger else False,
        num_iterations=iterations,
        final_residual_norm=residual,
        residual_norms=list(norms),
        events=trail.events,
        attempts=trail.attempts,
        executor_name=exec_.name,
        logger=logger,
        timed_out=True,
        partial=True,
    )
    _feed_metrics(metrics, report)
    return report, x


def _find_deadline_factory(handle):
    """Locate the mutable :class:`Deadline` factory in a solver's criteria.

    The config route builds criteria factories once per solver; the
    deadline instant is only known per attempt, so ``resilient_solve``
    registers a placeholder and re-aims its ``at`` here before each
    apply (criteria bind factory state freshly on every apply).
    """
    criteria = handle.solver._factory.criteria
    for factory in getattr(criteria, "factories", (criteria,)):
        if isinstance(factory, Deadline):
            return factory
    return None


def resilient_solve(
    device,
    mtx,
    b,
    x=None,
    solver: str = "gmres",
    preconditioner=None,
    max_iters: int = 1000,
    reduction_factor: float | None = 1e-6,
    retry: RetryPolicy | None = None,
    fallback: FallbackChain | None = None,
    checkpoint_every: int = 0,
    divergence_limit: float | None = None,
    deadline: float | None = None,
    metrics=None,
    **solver_params,
):
    """Fault-tolerant one-call linear solve through the config-solver.

    Accepts everything :func:`repro.core.solve.solve` accepts, plus the
    resilience knobs.  Transient failures (device errors, failed
    allocations, NaN/Inf breakdowns) are retried with exponential backoff
    in simulated time; an executor that exhausts its retries is abandoned
    for the next one in the fallback chain, with operands rebuilt from
    pristine host snapshots.  When checkpointing is on, a retry resumes
    the recurrence from the solver's last checkpoint instead of starting
    from scratch, and finishes bit-identical to the fault-free solve.

    Args:
        device: Executor or device name the solve starts on (may be a
            :class:`~repro.ginkgo.fault.FaultyExecutor`).
        mtx: System matrix (engine LinOp, resident on ``device``).
        b: Right-hand side (Tensor or Dense).
        x: Initial guess; zeros when omitted.
        solver: Solver name (default GMRES).
        preconditioner: Preconditioner name or config dict.
        max_iters: Iteration limit per attempt.
        reduction_factor: Relative residual threshold.
        retry: :class:`RetryPolicy`; default retries 3 times.
        fallback: :class:`FallbackChain`; default
            ``cuda -> omp -> reference``.  Pass
            ``FallbackChain(device)`` to pin the solve to one device
            (no degradation, retries only).
        checkpoint_every: Checkpoint the recurrence's state every N
            iterations (0 disables checkpointing).
        divergence_limit: Abandon an attempt early when the residual
            exceeds this multiple of the initial residual (adds a
            ``stop::Divergence`` criterion).
        deadline: Total simulated-seconds budget for the whole resilient
            solve — staging, retries, backoff, and fallbacks included.
            When the budget runs out the solve stops (via a
            ``stop::Deadline`` criterion inside an attempt, or before
            the next attempt starts) and returns the best-effort partial
            solution with ``report.timed_out`` and ``report.partial``
            set, instead of raising.  ``None`` (default) disables it.
        metrics: Optional :class:`~repro.ginkgo.log.MetricsRegistry`;
            receives ``solves``/``attempts``/``retries``/``fallbacks``/
            ``faults_injected`` counters and an ``iterations_per_solve``
            histogram.
        **solver_params: Extra solver parameters (``krylov_dim=...``).

    Returns:
        ``(report, x)`` — the :class:`ResilienceReport` and the solution
        tensor (on whichever executor completed the solve).

    Raises:
        ResilienceExhausted: Every retry on every executor failed.
    """
    retry = retry or RetryPolicy()
    fallback = fallback or FallbackChain()
    primary = _executor(device)

    # Pristine host snapshots: fallback rebuilds operands from these, so a
    # corrupted device buffer cannot poison the next executor.
    b_dense = _unwrap(b)
    b_host = b_dense.to_numpy()
    if x is None:
        x_host = np.zeros_like(b_host)
        x_dense = Dense.create(primary, x_host)
    else:
        x_dense = _unwrap(x)
        x_host = x_dense.to_numpy()
    wrap_result = x is None or isinstance(x, Tensor)

    config = build_config(
        solver=solver,
        preconditioner=preconditioner,
        max_iters=max_iters,
        reduction_factor=reduction_factor,
        **solver_params,
    )
    # Strict breakdowns let the retry layer catch NaN/Inf poisoning.
    config["strict_breakdown"] = True
    if checkpoint_every:
        config["checkpoint_every"] = int(checkpoint_every)
    if divergence_limit is not None:
        config["criteria"].append(
            {"type": "stop::Divergence", "limit": float(divergence_limit)}
        )
    if deadline is not None:
        if deadline <= 0:
            raise GinkgoError(
                f"deadline must be > 0 simulated seconds, got {deadline}"
            )
        # Placeholder instant; _find_deadline_factory re-aims `at` per
        # executor once the absolute deadline on its clock is known.
        config["criteria"].append({"type": "stop::Deadline", "at": 0.0})

    trail = _Trail()
    # The solver's last checkpoint, handed to the next attempt, and the
    # residual norms of its iterations 0..k.
    checkpoint, history = None, []
    # Budget already consumed on earlier executors' clocks; each executor
    # has its own clock, so the deadline is tracked as elapsed simulated
    # seconds, not as one absolute instant.
    spent = 0.0

    def start_x():
        """Host values of ``x`` the next attempt starts from."""
        return x_host if checkpoint is None else checkpoint.vectors["x"]

    chain = [primary] + fallback.resolve(primary)
    for position, exec_ in enumerate(chain):
        if fallback.breaker is not None and fallback.breaker.is_open(exec_):
            trail.emit(exec_, "circuit_skipped", executor=exec_.name)
            continue
        exec_enter = exec_.clock.now
        deadline_at = (
            None if deadline is None else exec_enter + (deadline - spent)
        )
        # Stage the operands on this executor.
        try:
            if exec_ is primary:
                mtx_cur, b_cur, x_cur = mtx, b_dense, x_dense
            else:
                if not hasattr(mtx, "copy_to"):
                    raise GinkgoError(
                        f"matrix {type(mtx).__name__} cannot be moved to "
                        f"{exec_.name} (no copy_to); fallback impossible"
                    )
                mtx_cur = mtx.copy_to(exec_)
                b_cur = Dense.create(exec_, b_host)
                x_cur = Dense.create(exec_, start_x())
        except retry.retry_on as err:
            trail.history.append((exec_.name, err))
            trail.emit(
                exec_, "staging_failed", executor=exec_.name,
                error=type(err).__name__,
            )
            spent += exec_.clock.now - exec_enter
            continue
        solution = Tensor(x_cur) if wrap_result else x_cur
        # The handle is built once per executor and reused across retries
        # (workspace pools make rebuilds wasteful); a retry clears the
        # pooled workspace instead, so a fault-poisoned scratch buffer
        # cannot leak into the rerun.
        handle = dl_factory = None

        def expired():
            if deadline_at is None or exec_.clock.now < deadline_at:
                return None
            iterations = 0
            if checkpoint is not None:
                iterations = checkpoint.iteration
                trail.emit(exec_, "checkpoint_restored", iteration=iterations)
            return _partial_return(
                trail, exec_, solution, None, iterations, float("nan"),
                metrics, history,
            )

        def attempt():
            nonlocal handle, dl_factory, checkpoint, history
            # A resumed apply logs only the iterations after its checkpoint.
            logged = list(history)
            try:
                if handle is None:
                    handle = config_solver(exec_, mtx_cur, config)
                    if deadline_at is not None:
                        dl_factory = _find_deadline_factory(handle)
                else:
                    handle.solver.clear_workspace()
                    trail.emit(exec_, "workspace_cleared", executor=exec_.name)
                if dl_factory is not None:
                    dl_factory.at = deadline_at
                if checkpoint is None:
                    logger, _ = handle.apply(b_cur, x_cur)
                else:
                    logger, _ = handle.resume(checkpoint, b_cur, x_cur)
            finally:
                # A checkpoint taken by a failed attempt is still valid
                # state to resume from.
                if handle is not None:
                    logged += handle._logger.residual_norms
                    taken = getattr(handle.solver, "checkpoint", None)
                    checkpoint = taken or checkpoint
                    if taken is not None:
                        history = logged[: taken.iteration + 1]
            if fallback.breaker is not None:
                fallback.breaker.record_success(exec_)
            if getattr(handle.solver, "timed_out", False):
                # The Deadline criterion stopped the apply: the iterate
                # in x_cur is the truthful partial result.
                return _partial_return(
                    trail, exec_, solution, logger, logger.num_iterations,
                    logger.final_residual_norm, metrics, logged,
                )
            trail.emit(
                exec_, "solve_completed", executor=exec_.name,
                attempt=trail.attempts, converged=logger.converged,
                iterations=logger.num_iterations,
            )
            report = ResilienceReport(
                converged=logger.converged,
                breakdown=logger.breakdown,
                num_iterations=logger.num_iterations,
                final_residual_norm=logger.final_residual_norm,
                residual_norms=logged,
                events=trail.events,
                attempts=trail.attempts,
                executor_name=exec_.name,
                logger=logger,
            )
            _feed_metrics(metrics, report)
            return report, solution

        def rewind():
            np.copyto(x_cur._data, start_x())
            x_cur.mark_modified()
            if checkpoint is None:
                if not exec_.is_host:  # x0 goes back to the device
                    exec_._charge_copy(exec_.get_master(), x_host.nbytes)
                return {"restart_iteration": 0}
            trail.emit(
                exec_, "checkpoint_restored", iteration=checkpoint.iteration
            )
            return {"restart_iteration": checkpoint.iteration}

        exec_.add_logger(trail)
        try:
            outcome = _retrying(
                trail, exec_, retry, attempt, rewind,
                breaker=fallback.breaker, expired=expired,
            )
        finally:
            exec_.remove_logger(trail)
        if outcome is not None:
            return outcome
        spent += exec_.clock.now - exec_enter
        if position + 1 < len(chain):
            trail.emit(
                exec_, "fallback",
                **{"from": exec_.name, "to": chain[position + 1].name},
            )

    report = ResilienceReport(
        converged=False, breakdown=False, num_iterations=0,
        final_residual_norm=float("nan"), events=trail.events,
        attempts=trail.attempts, executor_name=chain[-1].name,
    )
    _feed_metrics(metrics, report, exhausted=True)
    raise ResilienceExhausted(trail.attempts, trail.history)


def resilient_batch_solve(
    device,
    mtx,
    b,
    x=None,
    solver: str = "cg",
    preconditioner=None,
    max_iters: int = 1000,
    reduction_factor: float | None = 1e-6,
    retry: RetryPolicy | None = None,
    metrics=None,
    **solver_params,
):
    """Fault-tolerant batched solve with per-system quarantine.

    Runs the batched solver once; transient failures of the *whole*
    batch (device errors, allocation faults) are retried with backoff
    from pristine snapshots.  Systems the batch run could not finish
    cleanly — a breakdown flag (the batch monitors compact faulted
    systems out of the active set) or a non-finite iterate — are
    *quarantined* and re-solved one at a time through
    :func:`resilient_solve` on copies of their pristine operands, and
    the recovered solutions are scattered back into the stacked result.

    Args:
        device: Executor or device name (may be a
            :class:`~repro.ginkgo.fault.FaultyExecutor`).
        mtx: :class:`~repro.ginkgo.batch.matrix.BatchCsr` system matrices.
        b: Stacked right-hand sides (:class:`BatchDense`).
        x: Stacked initial guesses; zeros when omitted.
        solver: A method with a batched instance (``pg.batch.SOLVERS``).
        preconditioner: Batched preconditioner passed through to the
            batch factory (the per-system retry runs unpreconditioned).
        max_iters / reduction_factor: Per-system stopping controls.
        retry: :class:`RetryPolicy` for whole-batch transient failures.
        metrics: Optional metrics registry; receives ``batch_solves``,
            ``batch_systems``, ``batch_quarantined``, ``batch_recovered``
            counters.
        **solver_params: Extra batch-solver parameters.

    Returns:
        ``(report, x)`` — the :class:`BatchResilienceReport` and the
        stacked solution (solved in place when ``x`` was given).

    Raises:
        ResilienceExhausted: Every whole-batch retry failed.
    """
    # Lazy import: batch_api pulls the binding layer, which imports this
    # module's consumers.
    from repro.core import batch_api

    retry = retry or RetryPolicy()
    exec_ = _executor(device)
    if solver not in batch_api.SOLVERS:
        raise GinkgoError(
            f"unknown batch solver {solver!r}; expected one of "
            f"{sorted(batch_api.SOLVERS)}"
        )
    if x is None:
        x = batch_api.zeros_like(b)
    b_host = np.array(b._data, copy=True)
    x_host = np.array(x._data, copy=True)
    num_systems = b.num_systems
    trail = _Trail()
    handle = None

    def attempt():
        nonlocal handle
        if handle is None:
            handle = batch_api.SOLVERS[solver](
                exec_,
                mtx,
                preconditioner=preconditioner,
                max_iters=max_iters,
                reduction_factor=reduction_factor,
                **solver_params,
            )
        handle.apply(b, x)
        return handle.status

    def rewind():
        np.copyto(x._data, x_host)
        return {}

    exec_.add_logger(trail)
    try:
        status = _retrying(
            trail, exec_, retry, attempt, rewind,
            started="batch_attempt_started",
        )
    finally:
        exec_.remove_logger(trail)
    if status is None:
        report = BatchResilienceReport(
            num_systems=num_systems,
            converged=np.zeros(num_systems, dtype=bool),
            num_iterations=np.zeros(num_systems, dtype=np.int64),
            final_residual_norm=np.full(num_systems, np.nan),
            events=trail.events, attempts=trail.attempts,
            executor_name=exec_.name,
        )
        _feed_metrics(metrics, report, exhausted=True)
        raise ResilienceExhausted(trail.attempts, trail.history)

    converged = np.array(status.converged, copy=True)
    num_iterations = np.array(status.num_iterations, copy=True)
    final_residual_norm = np.array(status.final_residual_norm, copy=True)

    # Quarantine: breakdown (injected corruption compacts the system out
    # of the batch) or a non-finite iterate that slipped through.
    quarantined = sorted(
        set(np.flatnonzero(status.breakdown).tolist())
        | {
            k
            for k in range(num_systems)
            if not np.all(np.isfinite(x._data[k]))
        }
    )
    recovered: list = []
    for k in quarantined:
        trail.emit(
            exec_, "system_quarantined", system=int(k),
            breakdown=bool(status.breakdown[k]),
        )
        try:
            sys_report, x_sys = resilient_solve(
                exec_,
                mtx.item(k),
                Dense.create(exec_, b_host[k]),
                x=Dense.create(exec_, x_host[k]),
                solver=solver,
                max_iters=max_iters,
                reduction_factor=reduction_factor,
                retry=retry,
                fallback=FallbackChain(exec_),
                **solver_params,
            )
        except ResilienceExhausted as exc:
            trail.emit(
                exec_, "system_unrecovered", system=int(k),
                attempts=exc.attempts,
            )
            continue
        np.copyto(x._data[k], x_sys._data)
        converged[k] = sys_report.converged
        num_iterations[k] = sys_report.num_iterations
        final_residual_norm[k] = sys_report.final_residual_norm
        if sys_report.converged:
            recovered.append(int(k))
            trail.emit(
                exec_, "system_recovered", system=int(k),
                iterations=sys_report.num_iterations,
                attempts=sys_report.attempts,
            )

    report = BatchResilienceReport(
        num_systems=num_systems,
        converged=converged,
        num_iterations=num_iterations,
        final_residual_norm=final_residual_norm,
        quarantined=[int(k) for k in quarantined],
        recovered=recovered,
        events=trail.events,
        attempts=trail.attempts,
        executor_name=exec_.name,
    )
    _feed_metrics(metrics, report)
    return report, x
