"""Conjugate Gradient (``gko::solver::Cg``).

The classical preconditioned CG for symmetric positive-definite systems,
with per-column coefficients so multiple right-hand sides converge
independently in one apply.
"""

from __future__ import annotations

from repro.ginkgo.solver.kernels import cg_step_1, cg_step_2
from repro.ginkgo.solver.recurrence import Recurrence, safe_divide


class CgRecurrence(Recurrence):
    """CG with Ginkgo's fused step kernels; carries ``x, r, p`` and ``rz``.

    One step is one iteration ending at its residual check, so the
    direction update ``p = z + beta p`` that closes iteration ``i`` opens
    step ``i + 1`` — the kernel sequence is the textbook loop's.
    """

    vectors = ("x", "r", "p")
    scalars = ("rz",)
    instances = ("scalar", "batch", "distributed")

    def __init__(self, A, M, b, x, r, ws, monitor) -> None:
        super().__init__(A, M, b, x, r, ws, monitor)
        self.z = z = r.scratch(ws, "cg.z")
        M.apply(r, z)
        self.p = p = z.scratch(ws, "cg.p", copy=True)
        self.q = q = r.scratch(ws, "cg.q")
        self.rz = r.compute_dot(z)
        self._precondition, self._spmv = M.bind(r, z), A.bind(p, q)
        self._rz, self._pq, self._norm = r.bind_dot(z), p.bind_dot(q), r.bind_norm2()
        self._step_1, self._step_2 = cg_step_1(p, z), cg_step_2(x, r, p, q)

    def step(self, iteration: int) -> tuple:
        if iteration:
            self._precondition()
            rz_new = self._rz()
            self._step_1(safe_divide(rz_new, self.rz))
            self.rz = rz_new
        self._spmv()
        self._step_2(safe_divide(self.rz, self._pq()))
        iteration += 1
        return iteration, self.monitor(iteration, self._norm())
