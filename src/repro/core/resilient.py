"""Resilient solves: retry, backoff, fallback, deadlines, quarantine.

One loop, :func:`resilient_run`, serves every instance of a solve: one
system through the config-solver (:class:`ScalarSolve`), a ``pg.batch``
lockstep batch (:class:`BatchSolve`) and a ``pg.distributed`` solve
(:class:`DistributedSolve`), which differ only in how they stage
operands on an executor from host snapshots and which handle they
build there.  The loop retries transient faults
(:data:`TRANSIENT_ERRORS`) with exponential backoff in simulated time;
degrades down a :class:`FallbackChain` (``cuda -> omp -> reference``
by default), skipping devices whose :class:`CircuitBreaker` is open;
resumes a retry from the recovery driver's last checkpoint
(:mod:`repro.ginkgo.solver.recovery`), bit-identical to the fault-free
solve; stops each system at its deadline, an ordinary ``stop::Deadline``
criterion aimed at each executor's absolute instant, with a truthful
partial result; quarantines a batched system that breaks down into a
scalar re-solve through the same loop; and records a deterministic
event trail (``fault_injected``, ``attempt_failed``, ``retry``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import batch_api, distributed_api
from repro.core.device import device as _device_factory
from repro.core.solve import build_config, config_solver
from repro.core.solver_api import _build_criteria, _unwrap
from repro.core.tensor import Tensor
from repro.ginkgo.batch.matrix import BatchDense
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
    """What a resilient solve of one system did and how it ended.

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
    #: The solution is a best-effort partial result (deadline expiry, or
    #: the initial guess after every attempt failed).
    partial: bool = False
    #: ``(executor name, exception)`` of every failed attempt.
    failures: list = field(default_factory=list, repr=False)

    @property
    def exhausted(self) -> bool:
        """Every attempt failed: the solution is the initial guess."""
        return self.partial and not self.timed_out

    def __repr__(self) -> str:
        return (
            f"ResilienceReport(converged={self.converged}, "
            f"iterations={self.num_iterations}, "
            f"attempts={self.attempts}, executor={self.executor_name!r}, "
            f"faults={self.faults_injected}, retries={self.retries}, "
            f"fallbacks={self.fallbacks})"
        )


def _per_system(name, dtype):
    """A length-K array of one report field, read from ``systems``."""
    return property(
        lambda self: np.array([getattr(s, name) for s in self.systems], dtype)
    )


@dataclass
class BatchResilienceReport(_EventCounts):
    """What a resilient batched solve did: one report per system.

    ``systems[k]`` is system ``k``'s :class:`ResilienceReport` — for a
    quarantined system, its scalar re-solve's — and the per-system
    arrays below are read from them.
    """

    systems: list
    events: list = field(default_factory=list)
    attempts: int = 1
    executor_name: str = ""
    failures: list = field(default_factory=list, repr=False)

    converged = _per_system("converged", bool)
    num_iterations = _per_system("num_iterations", np.int64)
    final_residual_norm = _per_system("final_residual_norm", np.float64)

    @property
    def num_systems(self) -> int:
        return len(self.systems)

    @property
    def quarantined(self) -> list:
        """Systems isolated out of the batch (breakdown, poisoned iterate)."""
        return [
            k for k, s in enumerate(self.systems)
            if s.count("system_quarantined")
        ]

    @property
    def recovered(self) -> list:
        """Quarantined systems whose scalar re-solve converged."""
        return [k for k in self.quarantined if self.systems[k].converged]

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


def _verdict(timed_out, iterations=0, norms=(), breakdown=False) -> dict:
    """The verdict of a solve no attempt completed: its budget ran out
    (``timed_out``) or every attempt failed (``breakdown``)."""
    return dict(
        converged=False, breakdown=breakdown, num_iterations=iterations,
        final_residual_norm=float("nan"), residual_norms=list(norms),
        timed_out=timed_out, partial=True,
    )


def _report(record, attempts=0, executor_name="", failures=()):
    """The one constructor of a :class:`ResilienceReport`: ``record`` is
    one system's verdict (a ``BatchStatus.system`` dict, plus its
    ``events`` and the ``logger`` of a scalar attempt)."""
    return ResilienceReport(
        **{"partial": record["timed_out"], **record}, attempts=attempts,
        executor_name=executor_name, failures=list(failures),
    )


def expired_report(events) -> ResilienceReport:
    """The report of a solve whose deadline passed before it started:
    no attempt, the initial guess, timed out."""
    return _report(dict(_verdict(timed_out=True), events=events))


class _Trail(Logger):
    """One resilient solve's event trail, failure history and attempt
    count; attached to an executor, it also mirrors the executor's
    fault and checkpoint events."""

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

    def failed(self, exec_: Executor, name: str, err, **payload) -> None:
        """Record a failed staging or attempt on ``exec_``."""
        self.history.append((exec_.name, err))
        self.emit(
            exec_, name, executor=exec_.name, **payload,
            error=type(err).__name__,
        )


#: Metric counters fed from the trail: counter name -> event name.
_COUNTED = {
    "retries": "retry", "fallbacks": "fallback",
    "faults_injected": "fault_injected", "data_corrupted": "data_corrupted",
    "breakdowns": "breakdown", "checkpoint_restores": "checkpoint_restored",
}


def _feed_metrics(metrics, report, events, exhausted: bool) -> None:
    """Mirror a finished solve's report, scalar or batch, into ``metrics``
    (event counts over the whole trail ``events``)."""
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
    for counter, event in _COUNTED.items():
        metrics.counter(counter).inc(sum(1 for e, _ in events if e == event))


class ScalarSolve:
    """The scalar instance: one system through the config-solver.

    Holds the caller's operands ``(mtx, b, x)``, used as they are on the
    primary executor, and pristine host snapshots of ``b`` and ``x``
    from which every other executor is staged, so a corrupted device
    buffer cannot poison the next one.  ``params`` are extra solver
    parameters, ``checkpoint_every`` and ``divergence_limit``.
    """

    num_systems = 1
    batched = False

    def __init__(
        self, mtx, b, x, b_host, x_host, solver="gmres", preconditioner=None,
        max_iters=1000, reduction_factor=1e-6, **params,
    ) -> None:
        self.operands = (mtx, b, x)
        self.b_host, self.x_host = b_host, x_host
        self.solver, self.preconditioner = solver, preconditioner
        self.max_iters, self.reduction_factor = max_iters, reduction_factor
        self.params = params

    def stage(self, exec_, x0):
        """``(mtx, b, x)`` on a fallback ``exec_``, ``x`` holding ``x0``."""
        mtx = self.operands[0]
        if not hasattr(mtx, "copy_to"):
            raise GinkgoError(
                f"matrix {type(mtx).__name__} cannot be moved to "
                f"{exec_.name} (no copy_to); fallback impossible"
            )
        mtx = mtx.copy_to(exec_)
        b, x = (self.vector(exec_, mtx, v) for v in (self.b_host, x0))
        return mtx, b, x

    def vector(self, exec_, mtx, data):
        return Dense.create(exec_, data)

    def build(self, exec_, mtx, at):
        """The handle on ``exec_``, stopping at the instant ``at``;
        strict breakdowns let the loop retry NaN/Inf poisoning."""
        params = dict(self.params)
        limit = params.pop("divergence_limit", None)
        if not params.get("checkpoint_every", 1):
            del params["checkpoint_every"]
        config = build_config(
            self.solver, self.preconditioner, self.max_iters,
            self.reduction_factor, strict_breakdown=True, **params,
        )
        for kind, key, value in (
            ("Divergence", "limit", limit), ("Deadline", "at", at)
        ):
            if value is not None:
                criterion = {"type": f"stop::{kind}", key: value}
                config["criteria"].append(criterion)
        return config_solver(exec_, mtx, config)

    def records(self, handle, norms) -> list:
        """Per-system verdicts of a completed attempt."""
        logger = handle._logger
        return [dict(
            converged=logger.converged, breakdown=logger.breakdown,
            num_iterations=logger.num_iterations,
            final_residual_norm=logger.final_residual_norm,
            residual_norms=norms, logger=logger,
            timed_out=getattr(handle.solver, "timed_out", False),
        )]

    def settle(self, trail, exec_, reports, mtx, x, at, retry) -> None:
        """Nothing is left to do after a completed attempt."""


class DistributedSolve(ScalarSolve):
    """The distributed instance: one system over simulated ranks."""

    def vector(self, exec_, mtx, data):
        return distributed_api.vector(
            exec_, mtx.partition, data, comm=mtx.comm
        )

    def build(self, exec_, mtx, at):
        return distributed_api.SOLVERS[self.solver](
            exec_, mtx, criteria=_criteria(self, at), strict_breakdown=True,
            **self.params,
        )


class BatchSolve(ScalarSolve):
    """The batched instance: ``K`` same-pattern systems in lockstep.

    A breakdown stays inside the batch (its monitor compacts the system
    out); :meth:`settle` quarantines it afterwards.
    """

    batched = True

    def __init__(self, mtx, b, x, b_host, x_host, **controls) -> None:
        super().__init__(mtx, b, x, b_host, x_host, **controls)
        self.num_systems = len(b_host)

    def vector(self, exec_, mtx, data):
        return BatchDense(exec_, data)

    def build(self, exec_, mtx, at):
        return batch_api.SOLVERS[self.solver](
            exec_, mtx, preconditioner=self.preconditioner,
            criteria=_criteria(self, at), **self.params,
        )

    def records(self, handle, norms) -> list:
        lane = self.num_systems
        return [
            dict(record, events=[("batch_lane", {"lane": lane, "system": k})])
            for k, record in enumerate(handle.status)
        ]

    def settle(self, trail, exec_, reports, mtx, x, at, retry) -> None:
        """Quarantine: re-solve alone, through the same loop and with
        the scalar counterpart of the batch's preconditioner, each system
        that broke down or left a non-finite iterate; scatter the
        recovered solutions back into ``x``."""
        at = np.broadcast_to(np.inf if at is None else at, (len(reports),))
        for k, report in enumerate(reports):
            if not report.breakdown and np.isfinite(x._data[k]).all():
                continue
            events = report.events

            def note(name, **payload):
                trail.emit(exec_, name, system=k, **payload)
                events.append((name, {"system": k, **payload}))

            note("system_quarantined", breakdown=report.breakdown)
            b_k, x_k = self.b_host[k], self.x_host[k]
            alone = ScalarSolve(
                mtx.item(k), Dense.create(exec_, b_k),
                Dense.create(exec_, x_k), b_k, x_k, self.solver,
                getattr(self.preconditioner, "scalar", None), self.max_iters,
                self.reduction_factor, **self.params,
            )
            reports[k], solved = resilient_run(
                alone, exec_, retry, FallbackChain(exec_),
                None if np.isinf(at[k]) else at[k] - exec_.clock.now,
            )
            if solved is None:
                note("system_unrecovered", attempts=reports[k].attempts)
            else:
                np.copyto(x._data[k], solved._data)
                if reports[k].converged:
                    note(
                        "system_recovered",
                        iterations=reports[k].num_iterations,
                        attempts=reports[k].attempts,
                    )
            reports[k].events = events


def _resume_point(checkpoint, solve):
    """``(iteration, x)`` the next attempt starts from."""
    if checkpoint is None:
        return 0, solve.x_host
    return checkpoint.iteration, checkpoint.vectors["x"]


def _criteria(solve, at):
    """``pg.solver``'s criteria for ``solve``'s controls, plus a
    ``stop::Deadline`` at ``at`` (None: no deadline)."""
    criteria = _build_criteria(solve.max_iters, solve.reduction_factor, None)
    return criteria if at is None else criteria | Deadline(at)


def resilient_run(
    solve, device, retry=None, fallback=None, deadline=None, metrics=None
):
    """The one retry/backoff/fallback/circuit-breaker/deadline loop.

    Runs ``solve`` (a :class:`ScalarSolve`, :class:`BatchSolve` or
    :class:`DistributedSolve`) on ``device``, then down ``fallback``.
    ``deadline`` is the simulated-seconds budget of the whole solve —
    one, or one per system of a batch — spent across staging, attempts,
    backoff and executors.

    Returns:
        ``(report, x)``; ``x`` is None when every attempt on every
        executor failed (the report is then :attr:`~ResilienceReport.
        exhausted`).
    """
    retry = retry or RetryPolicy()
    fallback = fallback or FallbackChain()
    breaker = fallback.breaker
    primary = _executor(device)
    trail = _Trail()
    # The solver's last checkpoint, handed to the next attempt, and the
    # residual norms of its iterations 0..k.
    checkpoint, history = None, []
    # Budget consumed on earlier executors' clocks: each executor has its
    # own clock, so the deadline is tracked as elapsed seconds.
    spent = 0.0
    chain = [primary] + fallback.resolve(primary)
    for position, exec_ in enumerate(chain):
        if breaker is not None and breaker.is_open(exec_):
            trail.emit(exec_, "circuit_skipped", executor=exec_.name)
            continue
        enter = exec_.clock.now
        at = None if deadline is None else enter + (deadline - spent)
        try:
            mtx, b, x = solve.operands if exec_ is primary else solve.stage(
                exec_, _resume_point(checkpoint, solve)[1]
            )
        except retry.retry_on as err:
            trail.failed(exec_, "staging_failed", err)
            spent += exec_.clock.now - enter
            continue
        # One handle per executor, reused across retries (a retry clears
        # its pooled workspace, so a poisoned scratch buffer cannot leak).
        handle = outcome = None
        exec_.add_logger(trail)
        try:
            for index in range(retry.max_retries + 1):
                if at is not None and np.all(exec_.clock.now >= at):
                    # The budget ran out between attempts: x holds the
                    # last checkpoint's iterate, if any.
                    iterations = _resume_point(checkpoint, solve)[0]
                    if checkpoint is not None:
                        trail.emit(
                            exec_, "checkpoint_restored", iteration=iterations
                        )
                    verdict = _verdict(True, iterations, history)
                    outcome = [verdict] * solve.num_systems, None
                    break
                trail.attempts += 1
                trail.emit(
                    exec_, "attempt_started", executor=exec_.name,
                    attempt=trail.attempts,
                )
                # A resumed apply logs only the iterations after its
                # checkpoint.
                logged, solved = list(history), False
                try:
                    if handle is None:
                        handle = solve.build(exec_, mtx, at)
                    else:
                        handle.solver.clear_workspace()
                        trail.emit(
                            exec_, "workspace_cleared", executor=exec_.name
                        )
                    if checkpoint is None:
                        handle.apply(b, x)
                    else:
                        handle.resume(checkpoint, b, x)
                    solved = True
                except retry.retry_on as err:
                    trail.failed(
                        exec_, "attempt_failed", err, attempt=trail.attempts
                    )
                finally:
                    # A checkpoint taken by a failed attempt is still
                    # valid state to resume from.
                    if handle is not None and not solve.batched:
                        logged += handle._logger.residual_norms
                        taken = getattr(handle.solver, "checkpoint", None)
                        checkpoint = taken or checkpoint
                        if taken is not None:
                            history = logged[: taken.iteration + 1]
                if solved:
                    if breaker is not None:
                        breaker.record_success(exec_)
                    outcome = solve.records(handle, logged), handle
                    break
                if breaker is not None and breaker.record_failure(exec_):
                    trail.emit(exec_, "circuit_opened", executor=exec_.name)
                    break
                if index == retry.max_retries:
                    break
                delay = retry.delay(index)
                exec_.clock.advance(
                    delay, category="stall", label="retry_backoff"
                )
                # Rewind x to the checkpoint's iterate, or to x0.
                restart, x0 = _resume_point(checkpoint, solve)
                np.copyto(x._data, x0)
                x.mark_modified()
                if checkpoint is not None:
                    trail.emit(exec_, "checkpoint_restored", iteration=restart)
                elif not exec_.is_host:  # x0 goes back to the device
                    exec_._charge_copy(exec_.get_master(), x0.nbytes)
                trail.emit(
                    exec_, "retry", executor=exec_.name,
                    attempt=trail.attempts + 1, delay=delay,
                    restart_iteration=restart,
                )
        finally:
            exec_.remove_logger(trail)
        if outcome is not None:
            records, handle = outcome
            return _finish(
                trail, exec_, solve, records, metrics, x,
                None if handle is None else (mtx, x, at, retry),
            )
        spent += exec_.clock.now - enter
        if position + 1 < len(chain):
            trail.emit(
                exec_, "fallback",
                **{"from": exec_.name, "to": chain[position + 1].name},
            )
    return _finish(trail, chain[-1], solve, None, metrics, None, None)


def _finish(trail, exec_, solve, records, metrics, x, settle):
    """The loop's one exit: the reports of ``records`` — per-system
    verdicts, None when every attempt failed — and ``(report, x)``.
    ``settle`` holds what a completed attempt hands to ``solve.settle``."""
    if records is None:
        failures = [
            ("attempt_failed", {"executor": name, "error": type(err).__name__})
            for name, err in trail.history
        ]
        verdict = dict(_verdict(False, breakdown=True), events=failures)
        records = [verdict] * solve.num_systems
    else:
        timed_out = any(r["timed_out"] for r in records)
        trail.emit(
            exec_, "deadline_exceeded" if timed_out else "solve_completed",
            executor=exec_.name, attempt=trail.attempts,
            converged=all(r["converged"] for r in records),
            iterations=max(r["num_iterations"] for r in records),
        )
    reports = [
        _report(
            {"events": trail.events, **record}, trail.attempts, exec_.name,
            trail.history,
        )
        for record in records
    ]
    if settle is not None:
        solve.settle(trail, exec_, reports, *settle)
    report = reports[0]
    if solve.batched:
        report = BatchResilienceReport(
            reports, trail.events, trail.attempts, exec_.name, trail.history
        )
    _feed_metrics(metrics, report, trail.events, x is None)
    return report, x


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
    """Fault-tolerant one-call solve: :func:`repro.core.solve.solve`'s
    arguments (operands resident on ``device``, which may be a
    :class:`~repro.ginkgo.fault.FaultyExecutor`), run as a
    :class:`ScalarSolve` through :func:`resilient_run`.

    Args beyond ``solve``'s:
        retry: :class:`RetryPolicy` (default: 3 retries).
        fallback: :class:`FallbackChain` (default ``cuda -> omp ->
            reference``); ``FallbackChain(device)`` pins the solve.
        checkpoint_every: Checkpoint the recurrence every N iterations,
            so a retry resumes from it (0: off).
        divergence_limit: Abandon an attempt once the residual exceeds
            this multiple of the initial one (``stop::Divergence``).
        deadline: Simulated-seconds budget of the whole solve — staging,
            retries, backoff and fallbacks included.  When it runs out
            the best-effort partial solution is returned, with
            ``report.timed_out`` and ``report.partial`` set.
        metrics: Optional :class:`~repro.ginkgo.log.MetricsRegistry`
            (``solves``/``attempts``/``retries``/... counters and an
            ``iterations_per_solve`` histogram).

    Returns:
        ``(report, x)`` — the :class:`ResilienceReport` and the solution
        (on whichever executor completed the solve).

    Raises:
        ResilienceExhausted: Every retry on every executor failed.
    """
    deadline = _budget(deadline)
    primary = _executor(device)
    b_dense = _unwrap(b)
    b_host = b_dense.to_numpy()
    if x is None:
        x_host = np.zeros_like(b_host)
        x_dense = Dense.create(primary, x_host)
    else:
        x_dense = _unwrap(x)
        x_host = x_dense.to_numpy()
    solve = ScalarSolve(
        mtx, b_dense, x_dense, b_host, x_host, solver, preconditioner,
        max_iters, reduction_factor, checkpoint_every=checkpoint_every,
        divergence_limit=divergence_limit, **solver_params,
    )
    report, x_out = _raise_exhausted(
        *resilient_run(solve, primary, retry, fallback, deadline, metrics)
    )
    wrap = x is None or isinstance(x, Tensor)
    return report, Tensor(x_out) if wrap else x_out


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
    deadline=None,
    metrics=None,
    **solver_params,
):
    """Fault-tolerant batched solve with per-system quarantine.

    Runs a :class:`BatchSolve` of the :class:`~repro.ginkgo.batch.
    matrix.BatchCsr` ``mtx`` and stacked ``b``/``x`` (zeros when
    omitted; solved in place) through :func:`resilient_run`, pinned to
    ``device``.  Whole-batch transient failures are retried; a system
    that breaks down or leaves a non-finite iterate is re-solved alone
    through the same loop, with ``preconditioner``'s ``scalar``
    counterpart.  ``deadline`` is one budget, or one per system
    (``inf``: none); a system whose budget runs out reports
    ``timed_out``.  ``metrics`` receives ``batch_solves``,
    ``batch_systems``, ``batch_quarantined`` and ``batch_recovered``.

    Returns:
        ``(report, x)`` — the :class:`BatchResilienceReport` and the
        stacked solution.

    Raises:
        ResilienceExhausted: Every whole-batch retry failed.
    """
    if solver not in batch_api.SOLVERS:
        raise GinkgoError(
            f"unknown batch solver {solver!r}; expected one of "
            f"{sorted(batch_api.SOLVERS)}"
        )
    deadline = _budget(deadline)
    exec_ = _executor(device)
    if x is None:
        x = batch_api.zeros_like(b)
    solve = BatchSolve(
        mtx, b, x, np.array(b.data, copy=True), np.array(x.data, copy=True),
        solver=solver, preconditioner=preconditioner, max_iters=max_iters,
        reduction_factor=reduction_factor, **solver_params,
    )
    return _raise_exhausted(*resilient_run(
        solve, exec_, retry, FallbackChain(exec_), deadline, metrics
    ))


def _budget(deadline):
    """``deadline`` as seconds (one, or one per system), validated."""
    if deadline is None:
        return None
    if not np.all(np.asarray(deadline) > 0):
        raise GinkgoError(
            f"deadline must be > 0 simulated seconds, got {deadline}"
        )
    return np.asarray(deadline, dtype=np.float64)


def _raise_exhausted(report, x):
    if x is None:
        raise ResilienceExhausted(report.attempts, report.failures)
    return report, x
