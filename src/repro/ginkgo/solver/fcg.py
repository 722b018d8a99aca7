"""Flexible Conjugate Gradient (``gko::solver::Fcg``).

FCG recomputes the direction-update coefficient with the Polak-Ribiere-like
formula ``beta = (r_new - r_old)^T z_new / (r_old^T z_old)``, tolerating
preconditioners that change between iterations.
"""

from __future__ import annotations

from repro.ginkgo.solver.base import IterativeSolver, SolverFactory
from repro.ginkgo.solver.recurrence import safe_divide


class FcgSolver(IterativeSolver):
    """Generated FCG operator."""

    def _iterate(self, A, M, b, x, r, monitor) -> None:
        ws = self._workspace
        z = ws.dense("fcg.z", r.size, r.dtype)
        M.apply(r, z)
        p = ws.dense_like("fcg.p", z)
        q = ws.dense("fcg.q", r.size, r.dtype)
        r_old = ws.dense_like("fcg.r_old", r)
        rz = r.compute_dot(z)

        iteration = 0
        while True:
            iteration += 1
            A.apply(p, q)
            pq = p.compute_dot(q)
            alpha = safe_divide(rz, pq)
            x.add_scaled(alpha, p)
            r.sub_scaled(alpha, q)
            res_norm = r.compute_norm2()
            if monitor(iteration, res_norm):
                return
            M.apply(r, z)
            # Flexible beta: ((r - r_old), z) / rz.
            diff = ws.dense_like("fcg.diff", r)
            diff.sub_scaled(1.0, r_old)
            rz_new = diff.compute_dot(z)
            beta = safe_divide(rz_new, rz)
            p.scale(beta)
            p.add_scaled(1.0, z)
            r_old.copy_values_from(r)
            rz = r.compute_dot(z)


class Fcg(SolverFactory):
    """FCG factory."""

    solver_class = FcgSolver
    parameter_names = ()
