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
from repro.ginkgo.solver.base import IterativeSolver, SolverFactory
from repro.ginkgo.solver.kernels import (
    givens_update,
    gmres_finalize,
    gmres_multidot,
    gmres_update,
    record_fused,
)
from repro.ginkgo.solver.recurrence import Recurrence
from repro.perfmodel import KernelCost

#: Default Krylov dimension, matching Ginkgo and the paper's restart of 30.
DEFAULT_KRYLOV_DIM = 30


class GmresRecurrence(Recurrence):
    """Left-preconditioned restarted GMRES for one right-hand side.

    One step is one restart cycle (Arnoldi with Givens rotations, the
    residual reported to the monitor after every Hessenberg update).  A
    cycle starts from ``x`` alone — the residual is recomputed — so ``x``
    is the whole carried state.  The Krylov basis and Hessenberg matrix
    are host-side workspace arrays (replicated on every rank when the
    vectors are distributed); CB-GMRES overrides the five ``_`` basis
    methods to store the basis compressed.
    """

    vectors = ("x",)
    parameters = ("krylov_dim",)
    single_rhs = True
    #: Precision of the host bookkeeping (Hessenberg, Givens, ``g``, ``y``).
    work_dtype = np.float64

    def __init__(
        self, A, M, b, x, r, ws, monitor, krylov_dim=DEFAULT_KRYLOV_DIM
    ) -> None:
        super().__init__(A, M, b, x, r, ws, monitor)
        self.krylov_dim = int(krylov_dim)
        if self.krylov_dim < 1:
            raise GinkgoError(f"krylov_dim must be >= 1, got {krylov_dim}")
        self.w = r.scratch(ws, "gmres.w")

    def step(self, iteration: int) -> tuple:
        A, M, b, x, w, r, ws = (
            self.A, self.M, self.b, self.x, self.w, self.r, self.ws
        )
        exec_ = x.executor
        m = self.krylov_dim
        work = self.work_dtype
        # Preconditioned residual r = M^{-1}(b - A x).
        w.copy_values_from(b)
        A.apply_advanced(-1.0, x, 1.0, w)
        M.apply(w, r)
        beta = float(r.compute_norm2()[0])
        if beta == 0.0:
            self.monitor(iteration, 0.0)
            return iteration, True
        basis = self._start(r, beta)
        hessenberg = ws.array("gmres.hessenberg", (m + 1, m), dtype=work)
        givens_cos = ws.array("gmres.givens_cos", m, dtype=work)
        givens_sin = ws.array("gmres.givens_sin", m, dtype=work)
        g = ws.array("gmres.g", m + 1, dtype=work)
        g[0] = beta

        for j in range(m):
            # w = M^{-1} A v_j
            self._load(basis, j, w)
            A.apply(w, r)
            M.apply(r, w)
            hessenberg[: j + 1, j] = self._orthogonalize(basis, w, j + 1)
            h_next = float(w.compute_norm2()[0])
            hessenberg[j + 1, j] = h_next
            if h_next != 0.0:
                self._extend(basis, w, j + 1, h_next)
            pivot = givens_update(
                exec_, hessenberg, givens_cos, givens_sin, g, j
            )
            # A zero pivot closes the cycle on the first j columns.
            inner = j + 1 if pivot else j
            iteration += 1
            # Ginkgo checks the residual after EVERY Hessenberg update
            # (restart-1 more checks per cycle than CuPy): a small
            # device kernel updates the estimate and the host reads the
            # stopping status back.
            exec_.run(KernelCost("residual_check", 0.0, 64.0, launches=4))
            stopped = self.monitor(
                iteration, abs(g[inner]), breakdown=not pivot
            )
            if stopped or h_next == 0.0:
                break

        self._close(basis, hessenberg, g, ws.array("gmres.y", inner, dtype=work))
        return iteration, stopped

    def _start(self, r, beta: float):
        """The cycle's basis block (pooled) with ``v_0 = r / beta``."""
        n = r.size.rows
        basis = self.ws.array("gmres.basis", (n, self.krylov_dim + 1))
        basis[:, 0] = r._data[:, 0] / beta
        record_fused(r.executor, "gmres_init", n, r.value_bytes, 2)
        return basis

    def _load(self, basis, j: int, w) -> None:
        """``w = v_j``."""
        w._data[:, 0] = basis[:, j]

    def _orthogonalize(self, basis, w, count: int):
        """Gram-Schmidt ``w`` against ``count`` basis vectors; the coefficients."""
        from repro.ginkgo.lazy import fused_step

        # Ginkgo's fused multi-dot + rank update each collapse `count`
        # eager dots / axpys into one kernel: a fused region.
        with fused_step(
            w.executor, "gmres::orthogonalize", ops_replaced=2 * count
        ):
            coeffs = gmres_multidot(basis, w, count)
            gmres_update(basis, w, coeffs, count)
        return coeffs

    def _extend(self, basis, w, j: int, h_next: float) -> None:
        """``v_j = w / h_next``."""
        basis[:, j] = w._data[:, 0] / h_next
        record_fused(w.executor, "gmres_scale", w.size.rows, w.value_bytes, 2)

    def _close(self, basis, hessenberg, g, y) -> None:
        """Solve the cycle's least-squares problem into ``y``; ``x += V y``."""
        x = self.x
        gmres_finalize(
            x.executor, basis, hessenberg, g, y, x._data[:, 0], x.value_bytes
        )
        x.mark_modified()


class GmresSolver(IterativeSolver):
    """Generated GMRES operator: :class:`GmresRecurrence` over ``Dense``."""

    recurrence = GmresRecurrence


class Gmres(SolverFactory):
    """GMRES factory.

    Parameters:
        krylov_dim: Restart length (default 30, as in the paper).
    """

    solver_class = GmresSolver
    parameter_names = ("krylov_dim",)
