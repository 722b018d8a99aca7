"""Restarted GMRES with Givens rotations (``gko::solver::Gmres``).

This follows Ginkgo's implementation strategy, which the paper contrasts
with CuPy's in section 6.2.1:

* the Hessenberg matrix is updated with *Givens rotations* (CuPy uses an
  orthonormal-projection approach and a CPU least-squares solve);
* the residual norm is checked *after every Hessenberg update* — i.e.
  ``restart - 1`` more checks per cycle than CuPy, which only checks after
  the full Hessenberg matrix is built;
* the small triangular solve runs on the device.

Those strategy differences are exactly why CuPy's GMRES is slightly faster
per iteration in the paper's fixed-iteration benchmark, and the ablation
bench ``benchmarks/bench_ablation_gmres.py`` quantifies each one.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.solver.kernels import (
    fused_region,
    givens_update,
    gmres_project,
    hessenberg_solve,
    record_fused,
)
from repro.ginkgo.solver.recurrence import Recurrence
from repro.perfmodel import KernelCost

#: Default Krylov dimension, matching Ginkgo and the paper's restart of 30.
DEFAULT_KRYLOV_DIM = 30


class GmresRecurrence(Recurrence):
    """Left-preconditioned restarted GMRES for one right-hand side.

    One step is one inner iteration: an Arnoldi step (:meth:`arnoldi`,
    which ``pg.arnoldi`` and ``pg.lanczos`` also run), a Givens update,
    and the residual estimate reported to the monitor.  At cycle
    position ``j == 0`` the step first restarts from ``x`` alone and
    opens the :attr:`cycle` arrays, which have a leading systems axis
    (the active systems of a batched head, else one).  A system's cycle
    closes — back-solve, then ``x += V y`` — in the step where it stops,
    breaks down, runs out of ``krylov_dim`` or reaches an invariant
    subspace; :attr:`closed` marks it, and ``j`` returns to 0 once every
    system's cycle closed.  CB-GMRES overrides the five ``_`` basis
    methods to store the basis compressed.

    Parameters:
        krylov_dim: Restart length (default 30, as in the paper).
    """

    vectors = ("x",)
    scalars = ("j",)
    cycle = ("basis", "hessenberg", "givens_cos", "givens_sin", "g")
    parameters = ("krylov_dim",)
    single_rhs = True
    instances = ("scalar", "batch", "distributed")
    #: Precision of the host bookkeeping (Hessenberg, Givens, ``g``, ``y``).
    work_dtype = np.float64

    def __init__(
        self, A, M, b, x, r, ws, monitor, krylov_dim=DEFAULT_KRYLOV_DIM
    ) -> None:
        super().__init__(A, M, b, x, r, ws, monitor)
        self.krylov_dim = int(krylov_dim)
        if self.krylov_dim < 1:
            raise GinkgoError(f"krylov_dim must be >= 1, got {krylov_dim}")
        self.w = w = r.scratch(ws, "gmres.w")
        self.j = 0
        self.closed = None
        # The Arnoldi applies: v_j is loaded into r without M, w with it.
        self._spmv = A.bind(r, w) if M is None else A.bind(w, r)
        self._precondition = None if M is None else M.bind(r, w)
        self._norm = w.bind_norm2()

    @property
    def at_restart(self) -> bool:
        return self.j == 0

    def written(self, name: str):
        # j steps into a cycle: j + 1 basis vectors and entries of g, j
        # Givens rotations and Hessenberg columns of j + 1 rows.
        j = self.j
        if name == "hessenberg":
            return np.s_[:, : j + 1, :j]
        return np.s_[..., : j + 1 if name in ("basis", "g") else j]

    def step(self, iteration: int) -> tuple:
        A, M, x, w, r, ws = self.A, self.M, self.x, self.w, self.r, self.ws
        exec_ = x.executor
        j, m, work = self.j, self.krylov_dim, self.work_dtype
        systems = x.extent.shape[0]
        if j == 0:
            # Preconditioned residual r = M^{-1}(b - A x).
            w.copy_values_from(self.b)
            A.apply_advanced(-1.0, x, 1.0, w)
            M.apply(w, r)
            beta = r.compute_norm2().reshape(-1)
            if not beta.all():
                # x is exact: stop at the iteration the last check logged.
                return iteration, self.monitor(iteration, beta, exact=beta == 0.0)
            self._open(r, beta)
        h_next = self.arnoldi(j)
        pivot = givens_update(
            exec_, self.hessenberg, self.givens_cos, self.givens_sin, self.g, j
        )
        # A zero pivot closes the cycle on the first j columns.
        inner = j + pivot
        iteration += 1
        # Ginkgo checks the residual after EVERY Hessenberg update
        # (restart-1 more checks per cycle than CuPy): a small device
        # kernel updates the estimate and the host reads the stopping
        # status back.
        exec_.run(KernelCost("residual_check", 0.0, 64.0 * systems, launches=4))
        stop = self.monitor(
            iteration, np.abs(self.g[np.arange(systems), inner]), breakdown=~pivot
        )
        self.closed = stop | (h_next == 0.0) | (j + 1 == m)
        closing = self.closed.nonzero()[0]
        for k in closing:
            self._close(k, ws.array("gmres.y", inner[k], dtype=work))
        self.j = 0 if closing.size == systems else j + 1
        return iteration, stop

    def arnoldi(self, j: int, passes: int = 1):
        """Hessenberg column ``j`` and ``v_{j+1}`` from ``w = M^{-1} A v_j``
        (``A v_j`` without ``M``), orthogonalised in ``passes`` summed fused
        Gram-Schmidt passes (two: CGS2); returns ``h_{j+1,j}`` per system."""
        w, r, basis = self.w, self.r, self.basis
        self._load(basis, j, r if self.M is None else w)
        self._spmv()
        if self._precondition is not None:
            self._precondition()
        coeffs = [self._orthogonalize(basis, w, j + 1) for _ in range(passes)]
        self.hessenberg[:, : j + 1, j] = sum(coeffs[1:], coeffs[0])
        h_next = self._norm().reshape(-1)
        self.hessenberg[:, j + 1, j] = h_next
        rows = h_next.nonzero()[0]
        if rows.size:
            # A slice unless some system reached an invariant subspace
            # (h_next == 0): a fancy-indexed basis-column write is slow.
            every = rows.size == h_next.size
            self._extend(basis, w, j + 1, h_next, slice(None) if every else rows)
        return h_next

    def _open(self, v, beta) -> None:
        """Open a cycle at ``v_0 = v / beta``: the basis, zeroed host arrays."""
        systems, m, ws, work = beta.size, self.krylov_dim, self.ws, self.work_dtype
        self.basis = self._start(v, beta)
        self.hessenberg = ws.array("gmres.hessenberg", (systems, m + 1, m), dtype=work)
        self.givens_cos = ws.array("gmres.givens_cos", (systems, m), dtype=work)
        self.givens_sin = ws.array("gmres.givens_sin", (systems, m), dtype=work)
        self.g = ws.array("gmres.g", (systems, m + 1), dtype=work)
        self.g[:, 0] = beta

    def _start(self, r, beta):
        """The cycle's basis block (pooled) with ``v_0 = r / beta``."""
        rd = r.extent
        systems, n, _ = rd.shape
        basis = self.ws.array("gmres.basis", (systems, n, self.krylov_dim + 1))
        # beta in the vector's precision, as a Python-float divisor would be.
        basis[:, :, 0] = rd[:, :, 0] / beta.astype(rd.dtype)[:, None]
        record_fused(
            r.executor, "gmres_init", systems * n, rd.dtype.itemsize, 2
        )
        return basis

    def _load(self, basis, j: int, w) -> None:
        """``w = v_j``."""
        w.extent[:, :, 0] = basis[:, :, j]

    @staticmethod
    def _orthogonalize(basis, w, count: int):
        """Gram-Schmidt ``w`` against ``count`` basis vectors; the coefficients."""
        # Ginkgo's fused multi-dot + rank update each collapse `count`
        # eager dots / axpys into one kernel: a fused region.
        return fused_region(
            w.executor, "gmres::orthogonalize", 2 * count,
            gmres_project, basis, w, count,
        )

    def _extend(self, basis, w, j: int, h_next, rows) -> None:
        """``v_j = w / h_next`` for the systems ``rows`` indexes."""
        wd = w.extent
        h = h_next[rows]
        basis[rows, :, j] = wd[rows, :, 0] / h.astype(wd.dtype)[:, None]
        record_fused(
            w.executor, "gmres_scale", h.size * wd.shape[1],
            wd.dtype.itemsize, 2,
        )

    def _close(self, k: int, y) -> None:
        """Solve system ``k``'s least-squares problem into ``y``; ``x += V y``."""
        x = self.x
        exec_ = x.executor
        hessenberg_solve(exec_, self.hessenberg[k], self.g[k], y)
        basis = self.basis[k]
        x.extent[k, :, 0] += basis[:, : y.size] @ y
        record_fused(
            exec_, "gmres_x_update", basis.shape[0] * y.size,
            x._data.dtype.itemsize, 2,
        )
        x.mark_modified()
