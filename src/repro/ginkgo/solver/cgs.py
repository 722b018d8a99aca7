"""Conjugate Gradient Squared (``gko::solver::Cgs``).

CGS is the solver where the paper measures pyGinkgo's largest advantage
over CuPy (up to 4x per iteration at small NNZ, section 6.2.1): each
iteration performs two SpMVs plus a long tail of vector updates, so
framework dispatch overhead weighs heavily.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.solver.kernels import cgs_step_1, cgs_step_2, cgs_step_3
from repro.ginkgo.solver.recurrence import Recurrence, safe_divide


class CgsRecurrence(Recurrence):
    """Sonneveld's CGS, preconditioned; one step is one iteration.

    Carries ``x, r``, the fixed shadow residual ``r_tld``, ``p, u, q`` and
    ``rho_old``.
    """

    vectors = ("x", "r", "r_tld", "p", "u", "q")
    scalars = ("rho_old",)

    def __init__(self, A, M, b, x, r, ws, monitor) -> None:
        super().__init__(A, M, b, x, r, ws, monitor)
        self.r_tld = r.scratch(ws, "cgs.r_tld", copy=True)
        # p/u/q are READ in the first cgs_step_1 before being written, so
        # they must come back zeroed on every apply.
        self.p = ws.dense("cgs.p", r.size, r.dtype, zero=True)
        self.u = ws.dense("cgs.u", r.size, r.dtype, zero=True)
        self.q = ws.dense("cgs.q", r.size, r.dtype, zero=True)
        self.v = r.scratch(ws, "cgs.v")
        self.t = r.scratch(ws, "cgs.t")
        self.u_hat = r.scratch(ws, "cgs.u_hat")
        self.rho_old = np.ones(r.size.cols)
        # v = A M^{-1} p, then v = A M^{-1} t through the same u_hat.
        self._precondition_p = M.bind(self.p, self.u_hat)
        self._precondition_t = M.bind(self.t, self.u_hat)
        self._spmv = A.bind(self.u_hat, self.v)
        self._rho, self._tv = self.r_tld.bind_dot(r), self.r_tld.bind_dot(self.v)
        self._norm = r.bind_norm2()

    def step(self, iteration: int) -> tuple:
        x, r = self.x, self.r
        p, u, q, v, t, u_hat = self.p, self.u, self.q, self.v, self.t, self.u_hat
        rho = self._rho()
        beta = safe_divide(rho, self.rho_old)
        # Fused: u = r + beta q ; p = u + beta (q + beta p).
        cgs_step_1(u, p, r, q, beta)
        # v = A M^{-1} p
        self._precondition_p()
        self._spmv()
        alpha = safe_divide(rho, self._tv())
        # Fused: q = u - alpha v ; t = u + q.
        cgs_step_2(q, t, u, v, alpha)
        # x += alpha M^{-1} t ; r -= alpha A M^{-1} t.
        self._precondition_t()
        self._spmv()
        cgs_step_3(x, r, u_hat, v, alpha)
        self.rho_old = rho
        iteration += 1
        return iteration, self.monitor(iteration, self._norm())
