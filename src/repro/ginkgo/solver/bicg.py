"""Biconjugate Gradient (``gko::solver::Bicg``).

Classic BiCG for general (nonsymmetric) systems, using the transposed
system matrix for the shadow sequence.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.exceptions import NotSupported
from repro.ginkgo.solver.base import IterativeSolver, SolverFactory
from repro.ginkgo.solver.recurrence import safe_divide


class BicgSolver(IterativeSolver):
    """Generated BiCG operator."""

    def _iterate(self, A, M, b, x, r, monitor) -> None:
        if not hasattr(A, "transpose"):
            raise NotSupported(
                f"Bicg needs a transposable system matrix, got "
                f"{type(A).__name__}"
            )
        At = A.transpose()
        ws = self._workspace
        r2 = ws.dense_like("bicg.r2", r)  # shadow residual
        z = ws.dense("bicg.z", r.size, r.dtype)
        z2 = ws.dense("bicg.z2", r.size, r.dtype)
        q = ws.dense("bicg.q", r.size, r.dtype)
        q2 = ws.dense("bicg.q2", r.size, r.dtype)
        M.apply(r, z)
        M.apply(r2, z2)
        p = ws.dense_like("bicg.p", z)
        p2 = ws.dense_like("bicg.p2", z2)
        rz = r2.compute_dot(z)

        iteration = 0
        while True:
            iteration += 1
            A.apply(p, q)
            At.apply(p2, q2)
            pq = p2.compute_dot(q)
            alpha = safe_divide(rz, pq)
            x.add_scaled(alpha, p)
            r.sub_scaled(alpha, q)
            r2.sub_scaled(alpha, q2)
            res_norm = r.compute_norm2()
            if monitor(iteration, res_norm):
                return
            M.apply(r, z)
            M.apply(r2, z2)
            rz_new = r2.compute_dot(z)
            beta = safe_divide(rz_new, rz)
            p.scale(beta)
            p.add_scaled(1.0, z)
            p2.scale(beta)
            p2.add_scaled(1.0, z2)
            rz = rz_new


class Bicg(SolverFactory):
    """BiCG factory."""

    solver_class = BicgSolver
    parameter_names = ()
