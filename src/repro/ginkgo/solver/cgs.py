"""Conjugate Gradient Squared (``gko::solver::Cgs``).

CGS is the solver where the paper measures pyGinkgo's largest advantage
over CuPy (up to 4x per iteration at small NNZ, section 6.2.1): each
iteration performs two SpMVs plus a long tail of vector updates, so
framework dispatch overhead weighs heavily.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.solver.base import IterativeSolver, SolverFactory
from repro.ginkgo.solver.recurrence import safe_divide


class CgsSolver(IterativeSolver):
    """Generated CGS operator (Sonneveld's algorithm, preconditioned)."""

    def _iterate(self, A, M, b, x, r, monitor) -> None:
        ws = self._workspace
        r_tld = ws.dense_like("cgs.r_tld", r)  # fixed shadow residual r~0
        # p/u/q are READ in the first cgs_step_1 before being written, so
        # they must come back zeroed on every apply.
        p = ws.dense("cgs.p", r.size, r.dtype, zero=True)
        u = ws.dense("cgs.u", r.size, r.dtype, zero=True)
        q = ws.dense("cgs.q", r.size, r.dtype, zero=True)
        v = ws.dense("cgs.v", r.size, r.dtype)
        t = ws.dense("cgs.t", r.size, r.dtype)
        u_hat = ws.dense("cgs.u_hat", r.size, r.dtype)
        rho_old = np.ones(r.size.cols)

        from repro.ginkgo.solver.kernels import (
            cgs_step_1,
            cgs_step_2,
            cgs_step_3,
        )

        iteration = 0
        while True:
            iteration += 1
            rho = r_tld.compute_dot(r)
            beta = safe_divide(rho, rho_old)
            # Fused: u = r + beta q ; p = u + beta (q + beta p).
            cgs_step_1(u, p, r, q, beta)
            # v = A M^{-1} p
            M.apply(p, u_hat)
            A.apply(u_hat, v)
            sigma = r_tld.compute_dot(v)
            alpha = safe_divide(rho, sigma)
            # Fused: q = u - alpha v ; t = u + q.
            cgs_step_2(q, t, u, v, alpha)
            # x += alpha M^{-1} t ; r -= alpha A M^{-1} t.
            M.apply(t, u_hat)
            A.apply(u_hat, v)
            cgs_step_3(x, r, u_hat, v, alpha)
            rho_old = rho
            res_norm = r.compute_norm2()
            if monitor(iteration, res_norm):
                return


class Cgs(SolverFactory):
    """CGS factory."""

    solver_class = CgsSolver
    parameter_names = ()
