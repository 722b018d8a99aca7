"""Batched Krylov solvers (``gko::batch::solver``).

One batched solver advances ``K`` independent systems in lockstep: every
NumPy kernel call (SpMV, dot, fused vector update) operates on the whole
stacked ``(K, n, cols)`` state at once, so the per-iteration Python
dispatch cost — the dominant overhead for small systems, per the paper —
is paid once per *batch* instead of once per system.

Per-system stopping uses *compaction*: systems that converge (or break
down) are scattered back to the caller's solution block and removed from
the leading ``[:m]`` active region of every state buffer, so the
remaining systems keep iterating with no masked dead work.  Batched CG
and BiCGSTAB are the scalar recurrences
(:mod:`repro.ginkgo.solver.recurrence`) instantiated over
:class:`_Head` — the active-head view of a stacked state tensor — with
the compaction as a driver around ``step``; residual histories of a
batched solve therefore match ``K`` sequential scalar solves exactly, by
construction.  GMRES alone keeps a batched body of its own
(:class:`BatchGmresSolver`): its per-wave regrouping is a different
schedule, not a different vector type.

On a multi-threaded :class:`~repro.ginkgo.executor.OmpExecutor` the
batched SpMV splits the active systems into contiguous per-thread
sub-batches dispatched on the executor's thread pool (block-diagonal
rows are independent, so threading never changes results).
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.batch.matrix import BatchCsr, BatchDense
from repro.ginkgo.batch.preconditioner import BatchIdentity
from repro.ginkgo.batch.stop import BatchCriteria, BatchStatus
from repro.ginkgo.exceptions import BadDimension, GinkgoError, SolverBreakdown
from repro.ginkgo.fault import injector_of
from repro.ginkgo.solver.base import SolverFactory
from repro.ginkgo.solver.bicgstab import BicgstabRecurrence
from repro.ginkgo.solver.cg import CgRecurrence
from repro.ginkgo.solver.gmres import DEFAULT_KRYLOV_DIM
from repro.ginkgo.solver.kernels import gmres_finalize
from repro.ginkgo.solver.workspace import Workspace
from repro.perfmodel import KernelCost, blas1_cost, dot_cost


class _ActiveSystems:
    """The compacted active set: its system operator and preconditioner.

    Owns a pooled ``(K, nnz)`` copy of the batch's matrix values whose
    leading ``[:count]`` rows always hold the active systems, the SciPy
    block-diagonal operator(s) over them, and the matching rows of the
    preconditioner state.  On a multi-threaded ``OmpExecutor`` the
    active set is split into contiguous per-thread sub-batches; each
    SpMV then runs the chunks concurrently on the executor's pool while
    recording one aggregate batched kernel.

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
        self._ops = []

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
        self._rebuild(m)

    def compact(self, keep_idx: np.ndarray) -> None:
        """Keep only the active positions in ``keep_idx`` (in order)."""
        m = keep_idx.size
        self._vals[:m] = self._vals[keep_idx]
        if self._pstate is not None:
            self._pstate = self._pstate[keep_idx]
        self._rebuild(m)

    def precondition(self, src: np.ndarray, dst: np.ndarray) -> None:
        """``dst[k] = M[k]^{-1} src[k]`` over the active head."""
        self._precond.apply_state(self._pstate, src, dst, self.count)

    def _rebuild(self, count: int) -> None:
        self.count = count
        self._ops = []
        if count == 0:
            return
        exec_ = self._exec
        # Duck-typed so wrappers (FaultyExecutor around an OmpExecutor)
        # still take the thread-partitioned path.
        if (
            (getattr(exec_, "num_threads", None) or 1) > 1
            and hasattr(exec_, "partition")
            and count >= exec_.num_threads
        ):
            ranges = exec_.partition(np.ones(count))
        else:
            ranges = [(0, count)]
        for lo, hi in ranges:
            self._ops.append(
                (lo, hi, self._mat.block_operator(hi - lo, self._vals[lo:hi]))
            )

    def spmv(self, src: np.ndarray, dst: np.ndarray) -> None:
        """``dst[k] = A[k] @ src[k]`` over the active head — one kernel."""
        count = self.count
        num_rhs = src.shape[2]
        n = self._mat.size.rows
        c = self._mat.size.cols
        xs = src[:count].reshape(count * c, num_rhs)
        out = dst[:count].reshape(count * n, num_rhs)
        cost = self._mat._spmv_cost(count, num_rhs)
        exec_ = self._exec
        if len(self._ops) > 1:
            tasks = []
            parts = []
            for lo, hi, sub in self._ops:

                def task(lo=lo, hi=hi, sub=sub):
                    out[lo * n : hi * n] = sub @ xs[lo * c : hi * c]

                tasks.append(task)
                parts.append({"weight": float(hi - lo), "systems": hi - lo})
            exec_.run_partitioned(cost, tasks, parts)
        else:
            _, _, sub = self._ops[0]
            out[:] = sub @ xs
            exec_.run(cost)
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

    def __init__(self, kernel) -> None:
        self._kernel = kernel

    def apply(self, b: "_Head", x: "_Head") -> None:
        self._kernel(b._data, x._data)


class _Head:
    """Active-head view of one pooled ``(K, n, cols)`` state tensor.

    The batched instance of the vector API the recurrences are written
    against: every operation covers the leading ``active.count`` systems
    of ``data`` in one NumPy call and records one batched kernel.
    Coefficients are ``(count, cols)`` arrays — one per system and
    column — cast and broadcast exactly as ``Dense`` casts its
    per-column row, so each system's arithmetic is the scalar solve's.
    """

    def __init__(self, active: _ActiveSystems, data: np.ndarray) -> None:
        self._active = active
        self._data = data

    @property
    def executor(self):
        return self._active._exec

    @property
    def head(self) -> np.ndarray:
        return self._data[: self._active.count]

    def _coef(self, alpha):
        arr = np.asarray(alpha)
        if arr.ndim == 0:
            return self._data.dtype.type(arr)
        return arr.astype(self._data.dtype, copy=False)[:, None, :]

    def _record(self, name: str, num_vectors: int) -> None:
        """One batched streaming kernel over the active head."""
        _, n, cols = self._data.shape
        self._active._exec.run(
            blas1_cost(
                name, self._active.count * n * cols,
                self._data.dtype.itemsize, num_vectors,
            )
        )

    def mark_modified(self) -> None:
        """Nothing derives from a state tensor, so nothing to invalidate."""

    def scratch(self, ws: Workspace, name: str, copy: bool = False) -> "_Head":
        out = _Head(
            self._active, ws.tensor(name, self._data.shape, self._data.dtype)
        )
        if copy:
            exec_ = self._active._exec
            exec_.copy_into(exec_, self.head, out.head)
        return out

    def elementwise(self, name: str, op, num_vectors: int, *coefficients) -> None:
        op(0, self._active.count, *(self._coef(c) for c in coefficients))
        self._record(name, num_vectors)

    def copy_values_from(self, other: "_Head") -> None:
        np.copyto(self.head, other.head)
        self._record("copy", 2)

    def scale(self, alpha) -> None:
        head = self.head
        head *= self._coef(alpha)
        self._record("scale", 2)

    def add_scaled(self, alpha, other: "_Head") -> None:
        a = self._coef(alpha)
        head = self.head
        if np.ndim(a) == 0 and a == 1.0:
            head += other.head
        else:
            head += a * other.head
        self._record("add_scaled", 3)

    def sub_scaled(self, alpha, other: "_Head") -> None:
        self.add_scaled(-np.asarray(alpha), other)

    def compute_dot(self, other: "_Head") -> np.ndarray:
        """Per-system, per-column dot products, shape ``(count, cols)``."""
        result = np.einsum("kij,kij->kj", self.head, other.head)
        _, n, cols = self._data.shape
        self._active._exec.run(
            dot_cost(n, self._data.dtype.itemsize, self._active.count * cols)
        )
        return result

    def compute_norm2(self) -> np.ndarray:
        return np.sqrt(self.compute_dot(self).astype(np.float64))


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

    #: The method's scalar recurrence (wave-scheduled GMRES has none).
    recurrence: type | None = None

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
        self._system_loggers: list[list] = [
            [] for _ in range(matrix.num_systems)
        ]
        self.status = BatchStatus(matrix.num_systems)
        self._criteria = None
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

    def add_system_logger(self, k: int, logger) -> None:
        """Attach a logger receiving system ``k``'s solve events."""
        self._system_loggers[k].append(logger)

    def add_logger(self, logger) -> None:
        """Attach one logger to every system."""
        for loggers in self._system_loggers:
            loggers.append(logger)

    def _log_system(self, k: int, event: str, **kwargs) -> None:
        for logger in self._system_loggers[k]:
            handler = getattr(logger, f"on_{event}", None)
            if handler is not None:
                handler(self, **kwargs)

    # ------------------------------------------------------------------
    # lockstep monitor
    # ------------------------------------------------------------------
    def _monitor(self, iterations, norms, ids, breakdown=None) -> np.ndarray:
        """One lockstep convergence check over the systems in ``ids``.

        Performs, per system, exactly what the scalar solve's monitor
        does — breakdown detection (a NaN/Inf norm, or ``breakdown[i]``
        for an exact breakdown the step met), history logging, criterion
        check, final-status bookkeeping — and returns the boolean
        keep-mask of systems that continue iterating.
        """
        status = self.status
        clock = self._exec.clock
        norms = np.asarray(norms, dtype=np.float64)
        m = ids.size
        iterations = np.broadcast_to(
            np.asarray(iterations, dtype=np.int64), (m,)
        )
        maxed = norms.max(axis=1)
        finite = np.isfinite(norms).all(axis=1)
        if breakdown is not None:
            finite &= ~breakdown
        keep = np.ones(m, dtype=bool)
        for i in np.flatnonzero(~finite):
            s = int(ids[i])
            it = int(iterations[i])
            worst = float(maxed[i])
            status.num_iterations[s] = it
            status.converged[s] = False
            status.breakdown[s] = True
            status.final_residual_norm[s] = worst
            self._log_system(
                s, "breakdown", iteration=it, residual_norm=norms[i]
            )
            clock.annotate(
                "breakdown", system=s, iteration=it, residual_norm=worst
            )
            if self._first_breakdown is None:
                self._first_breakdown = (it, worst)
            keep[i] = False
        ok = np.flatnonzero(finite)
        for i in ok:
            s = int(ids[i])
            status.residual_norms[s].append(float(maxed[i]))
            self._log_system(
                s,
                "iteration_complete",
                iteration=int(iterations[i]),
                residual_norm=norms[i],
                solution=None,
            )
        # One host read-back of the stopping status per lockstep check —
        # this, not K read-backs, is the batched API's latency win.
        clock.synchronize()
        if ok.size:
            stop, conv = self._criteria.check(
                iterations[ok], norms[ok], ids[ok]
            )
            for pos, i in enumerate(ok):
                s = int(ids[i])
                self._log_system(
                    s,
                    "criterion_check_completed",
                    iteration=int(iterations[i]),
                    stopped=bool(stop[pos]),
                )
                if stop[pos]:
                    status.num_iterations[s] = int(iterations[i])
                    status.converged[s] = bool(conv[pos])
                    status.final_residual_norm[s] = float(maxed[i])
                    if conv[pos]:
                        self._log_system(
                            s,
                            "converged",
                            iteration=int(iterations[i]),
                            residual_norm=norms[i],
                        )
                    keep[i] = False
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
        exec_ = self._exec
        clock = exec_.clock
        ws = self._workspace
        clock.push_span(f"{type(self).__name__}::apply", "solver")
        try:
            self.status = BatchStatus(K)
            self._first_breakdown = None
            for s in range(K):
                self._log_system(s, "apply_started", b=b, x=x)
            start_time = clock.now
            B = b.data
            X = x.data
            n = mat.size.rows
            cols = b.size.cols
            vb = b.value_bytes
            rhs_norm = np.sqrt(
                np.einsum("kij,kij->kj", B, B).astype(np.float64)
            )
            exec_.run(dot_cost(n, vb, K * cols))
            # Initial residual r0 = b - A x0, one batched kernel each.
            R = ws.tensor_like("batch.r", B)
            AX = ws.tensor("batch.spmv_tmp", B.shape, B.dtype)
            ops = _ActiveSystems(ws, mat, self._preconditioner)
            ids = np.arange(K, dtype=np.int64)
            ops.reset(ids)
            ops.spmv(X, AX)
            R += B.dtype.type(-1.0) * AX
            initial_resnorm = np.sqrt(
                np.einsum("kij,kij->kj", R, R).astype(np.float64)
            )
            exec_.run(dot_cost(n, vb, K * cols))
            self._criteria = BatchCriteria(
                self._factory.criteria,
                rhs_norm,
                initial_resnorm,
                clock,
                start_time,
            )
            # Iteration-0 check: already-converged systems never iterate
            # and keep their initial guess, exactly like a scalar solve.
            keep = self._monitor(
                np.zeros(K, dtype=np.int64), initial_resnorm, ids
            )
            ids = ids[np.flatnonzero(keep)]
            if ids.size:
                if ids.size < K:
                    R[: ids.size] = R[ids]
                    ops.compact(ids)
                self._iterate_batch(B, X, R, ids, ops)
            for s in range(K):
                self._log_system(s, "apply_completed", b=b, x=x)
        finally:
            clock.pop_span()
        if self._factory.strict_breakdown and self._first_breakdown is not None:
            # Breakdowns are isolated: the whole batch completes (every
            # healthy system gets its solution) before strictness raises
            # for the first broken system.
            raise SolverBreakdown(*self._first_breakdown)
        return self.status

    def _iterate_batch(self, B, X, R, ids, ops) -> None:
        """Drive :attr:`recurrence` over the active head with compaction.

        ``R`` holds the active systems' initial residuals in its head;
        ``ids[i]`` is the system at head position ``i``.  After every
        step, systems the monitor stopped are scattered back to ``X``
        and the survivors' carried state is gathered to the front.
        """
        exec_ = self._exec
        _, n, cols = B.shape
        x = _Head(ops, self._workspace.tensor("batch.x", B.shape, B.dtype))
        x.head[:] = X[ids]
        x._record("batch_pack", 2)
        keep = None

        def monitor(iteration, norms) -> bool:
            nonlocal keep
            keep = self._monitor(iteration, norms, ids)
            return not keep.any()

        rec = self.recurrence(
            _HeadOperator(ops.spmv), _HeadOperator(ops.precondition),
            None, x, _Head(ops, R), self._workspace, monitor,
        )
        iteration, stopped = 0, False
        while True:
            iteration, stopped = rec.step(iteration)
            if keep.all():
                continue
            drop_idx = np.flatnonzero(~keep)
            X[ids[drop_idx]] = x._data[drop_idx]
            exec_.run(
                blas1_cost(
                    "batch_scatter", drop_idx.size * n * cols,
                    B.dtype.itemsize, 2,
                )
            )
            if stopped:
                return
            keep_idx = np.flatnonzero(keep)
            m = keep_idx.size
            for name in rec.vectors:
                data = getattr(rec, name)._data
                data[:m] = data[keep_idx]
            for name in rec.scalars:
                value = getattr(rec, name)
                if value is not None:
                    setattr(rec, name, value[keep_idx])
            ids = ids[keep_idx]
            ops.compact(keep_idx)


class BatchCgSolver(BatchIterativeSolver):
    """Lockstep-batched CG: :class:`CgRecurrence` over the active head."""

    recurrence = CgRecurrence


class BatchBicgstabSolver(BatchIterativeSolver):
    """Lockstep-batched BiCGSTAB: :class:`BicgstabRecurrence` over the active head."""

    recurrence = BicgstabRecurrence


class BatchGmresSolver(BatchIterativeSolver):
    """Wave-batched restarted GMRES — the one batched body kept apart.

    Because systems leave a restart cycle at different inner iterations,
    the batch runs in *waves*: every unfinished system starts a restart
    cycle together; systems that stop (or hit a lucky breakdown) are
    finalized per system with the exact scalar back-substitution and
    removed, and the survivors regroup into the next wave.  That
    regrouping is a different *schedule* from
    :class:`~repro.ginkgo.solver.gmres.GmresRecurrence`'s cycle, not the
    same cycle over a different vector type, so this stays a second
    copy of the Arnoldi–Givens arithmetic; its bit-identity with the
    scalar solver is pinned by tests rather than held by construction.
    """

    def _iterate_batch(self, B, X, R, ids, ops) -> None:
        exec_ = self._exec
        ws = self._workspace
        K, n, cols = B.shape
        dtype = B.dtype
        vb = dtype.itemsize
        if cols != 1:
            raise GinkgoError(
                "batched GMRES supports a single right-hand-side column; "
                f"got {cols}"
            )
        m_dim = int(self._factory.params.get("krylov_dim", DEFAULT_KRYLOV_DIM))
        if m_dim < 1:
            raise GinkgoError(f"krylov_dim must be >= 1, got {m_dim}")

        total_iteration = np.zeros(K, dtype=np.int64)
        Xw = ws.tensor("gmres.x", B.shape, dtype)
        Wt = ws.tensor("gmres.w", B.shape, dtype)
        Rt = ws.tensor("gmres.r", B.shape, dtype)
        basis3 = ws.tensor("gmres.basis", (K, n, m_dim + 1), np.float64)
        unfinished = ids

        while unfinished.size:
            wids = unfinished
            w = wids.size
            ops.reset(wids)
            Xw[:w] = X[wids]
            exec_.run(blas1_cost("batch_pack", w * n, vb, 2))
            # Preconditioned residual r = M^{-1}(b - A x).
            Wt[:w] = B[wids]
            exec_.run(blas1_cost("copy", w * n, vb, 2))
            ops.spmv(Xw, Rt)
            Wt[:w] += dtype.type(-1.0) * Rt[:w]
            ops.precondition(Wt, Rt)
            beta = np.sqrt(
                np.einsum("kij,kij->kj", Rt[:w], Rt[:w]).astype(np.float64)
            )[:, 0]
            exec_.run(dot_cost(n, vb, w))
            exact = beta == 0.0
            if exact.any():
                # Zero residual: the scalar solver logs one check and
                # returns immediately, whatever the criterion says.
                zi = np.flatnonzero(exact)
                self._monitor(
                    total_iteration[wids[zi]],
                    np.zeros((zi.size, 1)),
                    wids[zi],
                )
                keep_idx = np.flatnonzero(~exact)
                w = keep_idx.size
                wids = wids[keep_idx]
                Xw[:w] = Xw[keep_idx]
                Rt[:w] = Rt[keep_idx]
                beta = beta[keep_idx]
                ops.compact(keep_idx)
                if w == 0:
                    unfinished = np.zeros(0, dtype=np.int64)
                    continue
            basis3[:w] = 0.0
            basis3[:w, :, 0] = Rt[:w, :, 0] / beta[:, None]
            exec_.run(blas1_cost("gmres_init", w * n, vb, 2))
            h3 = np.zeros((w, m_dim + 1, m_dim))
            cos3 = np.zeros((w, m_dim))
            sin3 = np.zeros((w, m_dim))
            g3 = np.zeros((w, m_dim + 1))
            g3[:, 0] = beta
            restart = []

            for j in range(m_dim):
                # w = M^{-1} A v_j
                Wt[:w, :, 0] = basis3[:w, :, j]
                ops.spmv(Wt, Rt)
                ops.precondition(Rt, Wt)
                # Fused multi-dot + rank update (lockstep Gram-Schmidt).
                coeffs = np.einsum(
                    "kij,ki->kj", basis3[:w, :, : j + 1], Wt[:w, :, 0]
                )
                exec_.run(blas1_cost("gmres_multidot", w * n * (j + 1), vb, 2))
                h3[:, : j + 1, j] = coeffs
                Wt[:w, :, 0] -= np.einsum(
                    "kij,kj->ki", basis3[:w, :, : j + 1], coeffs
                )
                exec_.run(blas1_cost("gmres_update", w * n * (j + 1), vb, 2))
                h_next = np.sqrt(
                    np.einsum("kij,kij->kj", Wt[:w], Wt[:w]).astype(np.float64)
                )[:, 0]
                exec_.run(dot_cost(n, vb, w))
                h3[:, j + 1, j] = h_next
                nz = h_next != 0.0
                if nz.any():
                    basis3[:w, :, j + 1][nz] = (
                        Wt[:w, :, 0][nz] / h_next[nz, None]
                    )
                    exec_.run(
                        blas1_cost("gmres_scale", int(nz.sum()) * n, vb, 2)
                    )
                # Accumulated Givens rotations on column j, vectorized
                # over the wave (the i-chain stays sequential).
                for i in range(j):
                    hi = h3[:, i, j].copy()
                    hi1 = h3[:, i + 1, j].copy()
                    h3[:, i, j] = cos3[:, i] * hi + sin3[:, i] * hi1
                    h3[:, i + 1, j] = -sin3[:, i] * hi + cos3[:, i] * hi1
                denom = np.hypot(h3[:, j, j], h3[:, j + 1, j])
                ok = denom != 0.0
                cosj = np.ones(w)
                sinj = np.zeros(w)
                np.divide(h3[:, j, j], denom, out=cosj, where=ok)
                np.divide(h3[:, j + 1, j], denom, out=sinj, where=ok)
                cos3[:, j] = cosj
                sin3[:, j] = sinj
                h3[:, j, j] = denom
                h3[:, j + 1, j] = 0.0
                g3[:, j + 1] = -sinj * g3[:, j]
                g3[:, j] = cosj * g3[:, j]
                exec_.run(
                    KernelCost(
                        "givens_update", 6.0 * m_dim * w, 24.0 * m_dim * w,
                        launches=3,
                    )
                )
                # A zero pivot is an exact breakdown, as in the scalar
                # cycle: the system closes on its first j columns and
                # reports their residual |g[j]|.
                residual_norm = np.abs(np.where(ok, g3[:, j + 1], g3[:, j]))
                total_iteration[wids] += 1
                exec_.run(
                    KernelCost("residual_check", 0.0, 64.0 * w, launches=4)
                )
                keep = self._monitor(
                    total_iteration[wids], residual_norm[:, None], wids,
                    breakdown=~ok,
                )
                drop = (~keep) | (~nz)
                if drop.any():
                    for i in np.flatnonzero(drop):
                        # This system's contiguous slices have the scalar
                        # solver's shapes and strides, so the two small
                        # BLAS products are bitwise a sequential solve's.
                        gmres_finalize(
                            exec_, basis3[i], h3[i], g3[i],
                            np.zeros(j + 1 if ok[i] else j), Xw[i][:, 0], vb,
                        )
                        sid = int(wids[i])
                        X[sid] = Xw[i]
                        exec_.run(blas1_cost("batch_scatter", n, vb, 2))
                        if keep[i]:
                            # Lucky breakdown without a stop verdict:
                            # restart from the updated x, like the scalar
                            # solver's h_next == 0 exit.
                            restart.append(sid)
                    keep_idx = np.flatnonzero(~drop)
                    w = keep_idx.size
                    wids = wids[keep_idx]
                    Xw[:w] = Xw[keep_idx]
                    basis3[:w] = basis3[keep_idx]
                    h3 = h3[keep_idx]
                    cos3 = cos3[keep_idx]
                    sin3 = sin3[keep_idx]
                    g3 = g3[keep_idx]
                    ops.compact(keep_idx)
                    if w == 0:
                        break
            else:
                # Krylov space exhausted: finalize the survivors and send
                # them into the next restart wave.
                for i in range(w):
                    gmres_finalize(
                        exec_, basis3[i], h3[i], g3[i],
                        np.zeros(m_dim), Xw[i][:, 0], vb,
                    )
                    sid = int(wids[i])
                    X[sid] = Xw[i]
                    exec_.run(blas1_cost("batch_scatter", n, vb, 2))
                    restart.append(sid)
            unfinished = np.asarray(sorted(restart), dtype=np.int64)


class BatchCg(BatchSolverFactory):
    """Batched CG factory (``gko::batch::solver::Cg``)."""

    solver_class = BatchCgSolver
    parameter_names = ()


class BatchBicgstab(BatchSolverFactory):
    """Batched BiCGSTAB factory (``gko::batch::solver::Bicgstab``)."""

    solver_class = BatchBicgstabSolver
    parameter_names = ()


class BatchGmres(BatchSolverFactory):
    """Batched GMRES factory (``gko::batch::solver::Gmres``)."""

    solver_class = BatchGmresSolver
    parameter_names = ("krylov_dim",)
