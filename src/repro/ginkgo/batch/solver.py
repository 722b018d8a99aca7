"""Batched Krylov solvers (``gko::batch::solver``).

One batched solver advances ``K`` independent systems in lockstep: every
NumPy kernel call (SpMV, dot, fused vector update) operates on the whole
stacked ``(K, n, cols)`` state at once, so the per-iteration Python
dispatch cost — the dominant overhead for small systems, per the paper —
is paid once per *batch* instead of once per system.

Per-system stopping uses *compaction*: systems that converge (or break
down) are scattered back to the caller's solution block and removed from
the leading ``[:m]`` active region of every state buffer, so the
remaining systems keep iterating with no masked dead work.  The batched
solvers — one per method whose recurrence lists ``"batch"`` in its
``instances`` — are the scalar recurrences
(:mod:`repro.ginkgo.solver.recurrence`) instantiated over
:class:`_Head` — the active-head view of a stacked state tensor, the
active-systems instance of the recurrence vector protocol — with
the compaction as a driver around ``step``; residual histories of a
batched solve therefore match ``K`` sequential scalar solves exactly, by
construction.  A GMRES system whose restart cycle closes alone (an
invariant subspace, no stop) leaves the head like a stopped one and
rejoins at the others' next restart point.

A lockstep step is NumPy calls plus one ``exec_.run`` per kernel: each
head kernel is priced once per active count (a bound vector kernel is
resolved once per active set, the SpMV through
:meth:`_ActiveSystems.cost`), the head SpMV runs SciPy's compiled kernel
straight into the head, and a check where nothing broke down and nobody
listens is array work only.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.ginkgo.batch.matrix import BatchCsr, BatchDense
from repro.ginkgo.batch.preconditioner import BatchIdentity
from repro.ginkgo.batch.stop import BatchStatus
from repro.ginkgo.exceptions import BadDimension, GinkgoError, SolverBreakdown
from repro.ginkgo.fault import injector_of
from repro.ginkgo.krylov_vector import KrylovVector
from repro.ginkgo.matrix.csr import column_kernel, matvec_into
from repro.ginkgo.solver import derive_instances
from repro.ginkgo.solver.base import SolverFactory
from repro.ginkgo.solver.workspace import Workspace
from repro.ginkgo.stop import CriterionContext
from repro.perfmodel import blas1_cost


def _per_system(result, m: int) -> np.ndarray:
    """A criterion result over ``m`` active systems: a clock bound's one
    decision holds for all of them."""
    return result if np.ndim(result) else np.full(m, result)


class _ActiveSystems:
    """The compacted active set: its system operator and preconditioner.

    Owns a pooled ``(K, nnz)`` copy of the batch's matrix values whose
    leading ``[:count]`` rows always hold the active systems (the data
    of the block-diagonal operator over them) and the matching rows of
    the preconditioner state.

    A recurrence sees :meth:`spmv` as ``A`` and :meth:`precondition` as
    ``M`` (each wrapped in a :class:`_HeadOperator`).
    """

    def __init__(self, ws: Workspace, matrix: BatchCsr, precond) -> None:
        self._exec = matrix.executor
        self._mat = matrix
        self._precond = precond
        self._pstate = None
        self._vals = ws.tensor(
            "batch.vals", matrix.values.shape, matrix.values.dtype
        )
        #: Number of active systems (the head length of every state tensor).
        self.count = 0
        #: ``ids[i]`` is the system at head position ``i``.
        self.ids = np.zeros(0, dtype=np.int64)
        self._op = None
        #: ``{(price, count, *args): KernelCost}`` (:meth:`cost`).
        self._costs: dict = {}

    def cost(self, price, *args):
        """Head SpMV price ``price(count, *args)`` at the active count,
        priced once per count: at most ``K`` per kernel, as the count only
        shrinks within a solve (a GMRES system rejoining at a restart
        returns it to an earlier one)."""
        key = (price, self.count, *args)
        cost = self._costs.get(key)
        if cost is None:
            cost = self._costs[key] = price(self.count, *args)
        return cost

    def reset(self, ids: np.ndarray) -> None:
        """Gather the systems in ``ids`` into the active head."""
        m = ids.size
        self._vals[:m] = self._mat.values[ids]
        self._exec.run(
            blas1_cost(
                "batch_pack", m * self._mat.nnz, self._mat.value_bytes, 2
            )
        )
        self._pstate = self._precond.gather_state(ids)
        self.ids = ids
        self._rebuild(m)

    def compact(self, keep_idx: np.ndarray) -> None:
        """Keep only the active positions in ``keep_idx`` (in order)."""
        m = keep_idx.size
        self._vals[:m] = self._vals[keep_idx]
        if self._pstate is not None:
            self._pstate = self._pstate[keep_idx]
        self.ids = self.ids[keep_idx]
        self._rebuild(m)

    def precondition(self, src: np.ndarray, dst: np.ndarray) -> None:
        """``dst[k] = M[k]^{-1} src[k]`` over the active head."""
        self._precond.apply_state(self._pstate, src, dst, self.count)

    def _rebuild(self, count: int) -> None:
        self.count = count
        self._op = None

    @property
    def op(self):
        """The SciPy block-diagonal operator over the active systems."""
        if self._op is None:
            self._op = self._mat.block_operator(self.count, self._vals)
        return self._op

    def spmv(self, src: np.ndarray, dst: np.ndarray) -> None:
        """``dst[k] = A[k] @ src[k]`` over the active head — one kernel.

        One contiguous column of the value type runs SciPy's compiled
        kernel on the block-diagonal arrays straight into the head (the
        kernel ``@`` calls for it, as in ``Csr``); any other operand
        takes ``@`` on :attr:`op`.
        """
        count, mat = self.count, self._mat
        num_rhs = src.shape[2]
        xs = src[:count].reshape(count * mat.size.cols, num_rhs)
        out = dst[:count].reshape(count * mat.size.rows, num_rhs)
        if column_kernel(xs, out, self._vals.dtype):
            matvec_into(mat.block_arrays(count, self._vals), xs, out)
        else:
            out[:] = self.op @ xs
        exec_ = self._exec
        exec_.run(self.cost(self._mat._spmv_cost, num_rhs))
        # Per-system fault site: corruption lands in exactly one active
        # system's output block, which the monitor then quarantines via
        # the existing breakdown compaction — the rest of the batch is
        # unaffected.
        injector = injector_of(exec_)
        if injector is not None:
            fault = injector.decide("batch", detail=f"batch_spmv:{count}")
            if fault is not None:
                system = injector.choose(count)
                poisoned = injector.corrupt(dst[system])
                exec_._log(
                    "fault_injected",
                    site=fault.site,
                    kind=fault.kind,
                    index=fault.index,
                    call=fault.call,
                    detail=fault.detail,
                    system=system,
                )
                exec_._log(
                    "data_corrupted", index=fault.index, flat_index=poisoned
                )


class _HeadOperator:
    """One active-set kernel as a recurrence operand (``A`` or ``M``)."""

    def __init__(self, kernel, ws: Workspace) -> None:
        self._kernel = kernel
        self._ws = ws

    def apply(self, b: "_Head", x: "_Head") -> None:
        self._kernel(b._data, x._data)

    def bind(self, b: "_Head", x: "_Head"):
        """``apply(b, x)``: the kernel covers whatever head is active."""
        return partial(self._kernel, b._data, x._data)

    def apply_advanced(self, alpha, b: "_Head", beta, x: "_Head") -> None:
        """``x = alpha op(b) + beta x``, rounded as ``Csr`` rounds it."""
        tmp = x.scratch(self._ws, "batch.spmv_tmp")
        self._kernel(b._data, tmp._data)
        head = x.extent
        head *= head.dtype.type(beta)
        head += head.dtype.type(alpha) * tmp.extent


class _Head(KrylovVector):
    """Active-head view of one pooled ``(K, n, cols)`` state tensor: the
    active-systems instance of the recurrence vector protocol, whose
    extent is the leading ``active.count`` systems.  Coefficients are
    ``(count, cols)`` arrays, cast as ``Dense`` casts its per-column row,
    so each system's arithmetic is the scalar solve's.
    """

    def __init__(self, active: _ActiveSystems, data: np.ndarray) -> None:
        self._active = active
        self._exec = active._exec
        self._data = data
        self._coef_shape = (-1, 1, data.shape[2])

    @property
    def extent(self) -> np.ndarray:
        return self._data[: self._active.count]

    _operand = extent

    def _bind(self, build):
        """Resolved once per active set (a new ``active.ids`` each change)."""
        active, built = self._active, [None, None]

        def kernel(*args):
            if built[0] is not active.ids:
                built[:] = active.ids, build()
            return built[1](*args)

        return kernel

    def _check_compatible(self, other, op_name: str) -> None:
        """Operands are state tensors of the same active set."""

    def mark_modified(self) -> None:
        """Nothing derives from a state tensor, so nothing to invalidate."""

    def scratch(self, ws: Workspace, name: str, copy: bool = False) -> "_Head":
        out = _Head(
            self._active, ws.tensor(name, self._data.shape, self._data.dtype)
        )
        if copy:
            self._exec.copy_into(self._exec, self.extent, out.extent)
        return out


class _Rows(_Head):
    """The caller's ``(K, n, cols)`` block read at the active systems' rows.

    The batched right-hand side: its extent gathers ``data[ids]``, so it
    follows every compaction without being carried.
    """

    @property
    def extent(self) -> np.ndarray:
        return self._data[self._active.ids]

    _operand = extent


class BatchSolverFactory(SolverFactory):
    """Factory holding batched-solver parameters.

    Accepts exactly the scalar :class:`SolverFactory` options — the same
    criterion factories, a *batched* preconditioner (factory or generated
    operator), and ``strict_breakdown`` — so scalar solver configurations
    port to the batched API unchanged; ``generate`` takes a
    :class:`BatchCsr`.
    """


class BatchIterativeSolver:
    """Base of the batched Krylov solvers.

    ``apply(b, x)`` treats ``x`` as the per-system initial guesses and
    overwrites each system's block with its solution, firing the same
    logger events a scalar solve fires — per system, through
    :meth:`add_system_logger` — and returning a
    :class:`~repro.ginkgo.batch.stop.BatchStatus`.
    """

    #: The method's scalar recurrence (every concrete solver names one).
    recurrence: type
    #: Factory parameters this class reads itself (none).
    extra_parameters: tuple = ()

    def __init__(self, factory: BatchSolverFactory, matrix: BatchCsr) -> None:
        if not matrix.size.is_square:
            raise BadDimension(
                f"{type(self).__name__} requires square systems, "
                f"got {matrix.size}"
            )
        self._exec = matrix.executor
        self._factory = factory
        self._matrix = matrix
        clock = self._exec.clock
        clock.push_span(f"{type(self).__name__}::generate", "generate")
        try:
            self._preconditioner = self._generate_preconditioner(
                factory, matrix
            )
        finally:
            clock.pop_span()
        self._workspace = Workspace(self._exec)
        self._system_loggers = [[] for _ in range(matrix.num_systems)]
        #: Which systems have a logger (the only ones events go to).
        self._listened = np.zeros(matrix.num_systems, dtype=bool)
        #: Whether no system of the running apply has a logger.
        self._quiet = True
        self.status = BatchStatus(matrix.num_systems)
        self._criterion = None
        self._first_breakdown = None

    @staticmethod
    def _generate_preconditioner(factory, matrix):
        precond = factory.preconditioner
        if precond is None:
            return BatchIdentity(matrix.executor)
        if hasattr(precond, "apply_state"):
            return precond
        if hasattr(precond, "generate"):
            generated = precond.generate(matrix)
            if not hasattr(generated, "apply_state"):
                raise GinkgoError(
                    f"{type(precond).__name__} generated a non-batched "
                    "preconditioner; use the batch variants "
                    "(e.g. BatchJacobi)"
                )
            return generated
        raise GinkgoError(
            "preconditioner must be a batched operator or factory, got "
            f"{type(precond).__name__}"
        )

    # ------------------------------------------------------------------
    # properties / logging
    # ------------------------------------------------------------------
    @property
    def system_matrix(self) -> BatchCsr:
        return self._matrix

    @property
    def preconditioner(self):
        return self._preconditioner

    @property
    def num_systems(self) -> int:
        return self._matrix.num_systems

    @property
    def workspace(self) -> Workspace:
        return self._workspace

    def clear_workspace(self) -> None:
        """Release all pooled scratch buffers back to the executor."""
        self._workspace.clear()

    def add_system_logger(self, k: int, logger) -> None:
        """Attach a logger receiving system ``k``'s solve events."""
        self._system_loggers[k].append(logger)
        self._listened[k] = True

    def add_logger(self, logger) -> None:
        """Attach one logger to every system."""
        for loggers in self._system_loggers:
            loggers.append(logger)
        self._listened[:] = True

    def _log_system(self, k: int, event: str, **kwargs) -> None:
        for logger in self._system_loggers[k]:
            handler = getattr(logger, f"on_{event}", None)
            if handler is not None:
                handler(self, **kwargs)

    # ------------------------------------------------------------------
    # lockstep monitor
    # ------------------------------------------------------------------
    def _monitor(
        self, iterations, norms, ids, breakdown=None, exact=None
    ) -> np.ndarray:
        """One lockstep convergence check over the systems in ``ids``
        (``iterations``: their ``(m,)`` int64 iteration numbers).

        Performs, per system, exactly what the scalar solve's monitor
        does — breakdown detection (a NaN/Inf norm, or ``breakdown[i]``
        for an exact breakdown the step met), history logging, criterion
        check, final-status bookkeeping — and returns the boolean
        keep-mask of systems that continue iterating.  With an ``exact``
        mask it only records the stop of those systems (``x`` exact at
        an iteration already checked) and keeps the rest unchecked.
        Events go only to systems with a logger; the status is array work.
        """
        status = self.status
        clock = self._exec.clock
        m = ids.size
        norms = np.asarray(norms, dtype=np.float64).reshape(m, -1)
        maxed = norms.max(axis=1)
        if exact is not None:
            # As the scalar monitor: one read-back, no log, no verdict
            # beyond the stop (the last check did not converge).
            clock.synchronize()
            status.stop(ids, iterations, maxed, exact)
            return ~exact
        if (
            self._quiet and np.isfinite(maxed).all()
            and (breakdown is None or not breakdown.any())
        ):
            # The common check: nothing broke down and nobody listens.
            status.record(ids, maxed)
            clock.synchronize()
            criterion = self._criterion
            stop = _per_system(criterion.check(iterations, norms, ids), m)
            if stop.any():
                status.stop(
                    ids, iterations, maxed, stop,
                    converged=_per_system(criterion.converged, m)[stop],
                    timed_out=_per_system(criterion.timed_out, m)[stop],
                )
            if clock._traced:
                clock.annotate(
                    "iteration", iteration=int(iterations.max(initial=0)),
                    active=int(m), stopped=int(stop.sum()),
                )
            return ~stop
        keep = np.isfinite(norms).all(axis=1)
        if breakdown is not None:
            keep &= ~breakdown
        heard = self._listened[ids]
        broken = np.flatnonzero(~keep)
        status.stop(ids, iterations, maxed, broken, breakdown=True)
        for i in broken:
            s, it, worst = int(ids[i]), int(iterations[i]), float(maxed[i])
            if heard[i]:
                self._log_system(
                    s, "breakdown", iteration=it, residual_norm=norms[i]
                )
            clock.annotate(
                "breakdown", system=s, iteration=it, residual_norm=worst
            )
            if self._first_breakdown is None:
                self._first_breakdown = (it, worst)
        ok = np.flatnonzero(keep)
        status.record(ids[ok], maxed[ok])
        for i in ok[heard[ok]]:
            self._log_system(
                int(ids[i]), "iteration_complete", iteration=int(iterations[i]),
                residual_norm=norms[i], solution=None,
            )
        # One host read-back of the stopping status per lockstep check —
        # this, not K read-backs, is the batched API's latency win.
        clock.synchronize()
        criterion = self._criterion
        stop = _per_system(
            criterion.check(iterations[ok], norms[ok], ids[ok]), ok.size
        )
        converged = _per_system(criterion.converged, ok.size)
        status.stop(
            ids, iterations, maxed, ok[stop], converged=converged[stop],
            timed_out=_per_system(criterion.timed_out, ok.size)[stop],
        )
        keep[ok[stop]] = False
        for pos in np.flatnonzero(heard[ok]):
            s, it = int(ids[ok[pos]]), int(iterations[ok[pos]])
            self._log_system(
                s, "criterion_check_completed", iteration=it,
                stopped=bool(stop[pos]),
            )
            if stop[pos] and converged[pos]:
                self._log_system(
                    s, "converged", iteration=it, residual_norm=norms[ok[pos]]
                )
        clock.annotate(
            "iteration",
            iteration=int(iterations.max(initial=0)),
            active=int(m),
            stopped=int(m - int(keep.sum())),
        )
        return keep

    # ------------------------------------------------------------------
    # apply
    # ------------------------------------------------------------------
    def apply(self, b: BatchDense, x: BatchDense) -> BatchStatus:
        """Solve all systems: ``x[k] <- solve(A[k], b[k])`` from guess ``x[k]``."""
        mat = self._matrix
        K = mat.num_systems
        if b.num_systems != K or x.num_systems != K:
            raise BadDimension(
                f"batch size mismatch: matrix has {K} systems, operands "
                f"{b.num_systems}/{x.num_systems}"
            )
        if b.size.rows != mat.size.cols or x.size.rows != mat.size.rows:
            raise BadDimension(
                f"operand rows {b.size.rows}/{x.size.rows} do not match "
                f"system size {mat.size}"
            )
        if b.size.cols != x.size.cols:
            raise BadDimension(
                f"b has {b.size.cols} columns but x has {x.size.cols}"
            )
        # Criteria that cannot serve K systems fail here, before any kernel.
        probe = CriterionContext(rhs_norm=np.zeros((K, b.size.cols)))
        self._factory.criteria.generate(probe)
        exec_ = self._exec
        clock = exec_.clock
        ws = self._workspace
        clock.push_span(f"{type(self).__name__}::apply", "solver")
        try:
            self.status = BatchStatus(K)
            self._first_breakdown = None
            listeners = np.flatnonzero(self._listened)
            self._quiet = listeners.size == 0
            for s in listeners:
                self._log_system(s, "apply_started", b=b, x=x)
            context = CriterionContext(clock=clock, start_time=clock.now)
            context.rhs_norm = b.compute_norm2()
            B = b.data
            X = x.data
            # Initial residual r0 = b - A x0, one batched kernel each.
            ops = _ActiveSystems(ws, mat, self._preconditioner)
            r = _Head(ops, ws.tensor_like("batch.r", B))
            ops.reset(np.arange(K, dtype=np.int64))
            _HeadOperator(ops.spmv, ws).apply_advanced(
                -1.0, _Head(ops, X), 1.0, r
            )
            context.initial_resnorm = r.compute_norm2()
            self._criterion = self._factory.criteria.generate(context)
            # Iteration-0 check: already-converged systems never iterate
            # and keep their initial guess, exactly like a scalar solve.
            keep = self._monitor(
                np.zeros(K, dtype=np.int64), context.initial_resnorm, ops.ids
            )
            if keep.any():
                if not keep.all():
                    keep_idx = np.flatnonzero(keep)
                    r.extent[: keep_idx.size] = r.extent[keep_idx]
                    ops.compact(keep_idx)
                self._iterate_batch(B, X, r, ops)
            for s in listeners:
                self._log_system(s, "apply_completed", b=b, x=x)
        finally:
            clock.pop_span()
        if self._factory.strict_breakdown and self._first_breakdown is not None:
            # Breakdowns are isolated: the whole batch completes (every
            # healthy system gets its solution) before strictness raises
            # for the first broken system.
            raise SolverBreakdown(*self._first_breakdown)
        return self.status

    def _iterate_batch(self, B, X, r, ops) -> None:
        """Drive :attr:`recurrence` over the active head with compaction.

        ``r`` holds the active systems' initial residuals.  After every
        step, systems the monitor stopped are scattered back to ``X`` and
        the survivors' carried state (vectors, per-system scalars and,
        mid-cycle, the cycle arrays) is gathered to the front.  A system
        whose restart cycle closed while the others' goes on is scattered
        too, and rejoins from ``X`` at their next restart point;
        ``offset`` keeps its own iteration count.
        """
        exec_ = self._exec
        ws = self._workspace
        K, n, cols = B.shape
        itemsize = B.dtype.itemsize
        rec_cls = self.recurrence
        if cols != 1 and rec_cls.single_rhs:
            raise GinkgoError(
                f"{type(self).__name__} solves a single right-hand side, "
                f"got {cols} columns"
            )
        x = _Head(ops, ws.tensor("batch.x", B.shape, B.dtype))
        x.extent[:] = X[ops.ids]
        exec_.run(blas1_cost("batch_pack", ops.count * n * cols, itemsize, 2))
        # A system's iteration count minus the run's, per system.
        offset = np.zeros(K, dtype=np.int64)
        keep = None

        def monitor(iteration, norms, breakdown=None, exact=None):
            nonlocal keep
            keep = self._monitor(
                offset[ops.ids] + iteration, norms, ops.ids, breakdown, exact
            )
            return ~keep

        params = self._factory.params
        rec = rec_cls(
            _HeadOperator(ops.spmv, ws), _HeadOperator(ops.precondition, ws),
            _Rows(ops, B), x, r, ws, monitor,
            **{k: params[k] for k in rec_cls.parameters if k in params},
        )
        iteration = 0
        parked = np.zeros(0, dtype=np.int64)
        while True:
            iteration, _ = rec.step(iteration)
            leave = ~keep
            if not rec.at_restart:
                leave |= rec.closed
            if leave.any():
                drop_idx = np.flatnonzero(leave)
                X[ops.ids[drop_idx]] = x._data[drop_idx]
                exec_.run(
                    blas1_cost(
                        "batch_scatter", drop_idx.size * n * cols, itemsize, 2
                    )
                )
                park = ops.ids[leave & keep]
                offset[park] += iteration
                parked = np.concatenate([parked, park])
                keep_idx = np.flatnonzero(~leave)
                if keep_idx.size == 0 and parked.size == 0:
                    return
                m = keep_idx.size
                for name in rec.vectors:
                    data = getattr(rec, name)._data
                    data[:m] = data[keep_idx]
                carried = rec.scalars + (() if rec.at_restart else rec.cycle)
                for name in carried:
                    value = getattr(rec, name)
                    if isinstance(value, np.ndarray):
                        setattr(rec, name, value[keep_idx])
                ops.compact(keep_idx)
            if parked.size and rec.at_restart:
                m = ops.count
                x._data[m : m + parked.size] = X[parked]
                exec_.run(
                    blas1_cost(
                        "batch_pack", parked.size * n * cols, itemsize, 2
                    )
                )
                offset[parked] -= iteration
                ops.reset(np.concatenate([ops.ids, parked]))
                parked = parked[:0]


#: ``{method: batched factory}`` (``BatchCg``, ...), one per method whose
#: recurrence runs on the batched head.
SOLVERS = derive_instances(
    "batch", BatchIterativeSolver, BatchSolverFactory, globals()
)
