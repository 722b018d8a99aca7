"""Biconjugate Gradient (``gko::solver::Bicg``).

Classic BiCG for general (nonsymmetric) systems, using the transposed
system matrix for the shadow sequence.
"""

from __future__ import annotations

from repro.ginkgo.exceptions import NotSupported
from repro.ginkgo.solver.recurrence import Recurrence, safe_divide


class BicgRecurrence(Recurrence):
    """BiCG; carries ``x, r``, the shadow residual ``r2``, ``p, p2`` and ``rz``.

    One step is one iteration ending at its residual check; the direction
    updates closing iteration ``i`` open step ``i + 1``.
    """

    vectors = ("x", "r", "r2", "p", "p2")
    scalars = ("rz",)

    def __init__(self, A, M, b, x, r, ws, monitor) -> None:
        super().__init__(A, M, b, x, r, ws, monitor)
        if not hasattr(A, "transpose"):
            raise NotSupported(
                f"Bicg needs a transposable system matrix, got "
                f"{type(A).__name__}"
            )
        self.At = A.transpose()
        self.r2 = r.scratch(ws, "bicg.r2", copy=True)
        self.z = r.scratch(ws, "bicg.z")
        self.z2 = r.scratch(ws, "bicg.z2")
        self.q = r.scratch(ws, "bicg.q")
        self.q2 = r.scratch(ws, "bicg.q2")
        M.apply(r, self.z)
        M.apply(self.r2, self.z2)
        self.p = self.z.scratch(ws, "bicg.p", copy=True)
        self.p2 = self.z2.scratch(ws, "bicg.p2", copy=True)
        self.rz = self.r2.compute_dot(self.z)
        self._precondition = M.bind(r, self.z)
        self._precondition2 = M.bind(self.r2, self.z2)
        self._spmv = A.bind(self.p, self.q)
        self._spmv_t = self.At.bind(self.p2, self.q2)
        self._rz, self._pq = self.r2.bind_dot(self.z), self.p2.bind_dot(self.q)
        self._norm = r.bind_norm2()

    def step(self, iteration: int) -> tuple:
        x, r, r2, p, p2 = self.x, self.r, self.r2, self.p, self.p2
        z, z2, q, q2 = self.z, self.z2, self.q, self.q2
        if iteration:
            self._precondition()
            self._precondition2()
            rz_new = self._rz()
            beta = safe_divide(rz_new, self.rz)
            p.scale(beta)
            p.add_scaled(1.0, z)
            p2.scale(beta)
            p2.add_scaled(1.0, z2)
            self.rz = rz_new
        self._spmv()
        self._spmv_t()
        alpha = safe_divide(self.rz, self._pq())
        x.add_scaled(alpha, p)
        r.sub_scaled(alpha, q)
        r2.sub_scaled(alpha, q2)
        iteration += 1
        return iteration, self.monitor(iteration, self._norm())
