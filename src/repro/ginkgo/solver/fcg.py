"""Flexible Conjugate Gradient (``gko::solver::Fcg``).

FCG recomputes the direction-update coefficient with the Polak-Ribiere-like
formula ``beta = (r_new - r_old)^T z_new / (r_old^T z_old)``, tolerating
preconditioners that change between iterations.
"""

from __future__ import annotations

from repro.ginkgo.solver.recurrence import Recurrence, safe_divide


class FcgRecurrence(Recurrence):
    """FCG; carries ``x, r, p, r_old`` and ``rz``.

    One step is one iteration ending at its residual check; as in CG,
    the flexible direction update closing iteration ``i`` opens step
    ``i + 1``.
    """

    vectors = ("x", "r", "p", "r_old")
    scalars = ("rz",)
    instances = ("scalar", "batch", "distributed")

    def __init__(self, A, M, b, x, r, ws, monitor) -> None:
        super().__init__(A, M, b, x, r, ws, monitor)
        self.z = r.scratch(ws, "fcg.z")
        M.apply(r, self.z)
        self.p = self.z.scratch(ws, "fcg.p", copy=True)
        self.q = r.scratch(ws, "fcg.q")
        self.r_old = r.scratch(ws, "fcg.r_old", copy=True)
        self.rz = r.compute_dot(self.z)
        self._precondition, self._spmv = M.bind(r, self.z), A.bind(self.p, self.q)
        self._rz, self._pq = r.bind_dot(self.z), self.p.bind_dot(self.q)
        self._norm = r.bind_norm2()

    def step(self, iteration: int) -> tuple:
        x, r, p, q, z = self.x, self.r, self.p, self.q, self.z
        if iteration:
            self._precondition()
            # Flexible beta: ((r - r_old), z) / rz.
            diff = r.scratch(self.ws, "fcg.diff", copy=True)
            diff.sub_scaled(1.0, self.r_old)
            beta = safe_divide(diff.compute_dot(z), self.rz)
            p.scale(beta)
            p.add_scaled(1.0, z)
            self.r_old.copy_values_from(r)
            self.rz = self._rz()
        self._spmv()
        alpha = safe_divide(self.rz, self._pq())
        x.add_scaled(alpha, p)
        r.sub_scaled(alpha, q)
        iteration += 1
        return iteration, self.monitor(iteration, self._norm())
