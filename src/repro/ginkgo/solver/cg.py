"""Conjugate Gradient (``gko::solver::Cg``).

The classical preconditioned CG for symmetric positive-definite systems,
with per-column coefficients so multiple right-hand sides converge
independently in one apply.
"""

from __future__ import annotations

from repro.ginkgo.solver.kernels import cg_step_1, cg_step_2, fused_step
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
        self.z = r.scratch(ws, "cg.z")
        M.apply(r, self.z)
        self.p = self.z.scratch(ws, "cg.p", copy=True)
        self.q = r.scratch(ws, "cg.q")
        self.rz = r.compute_dot(self.z)

    def step(self, iteration: int) -> tuple:
        x, r, p, q, z = self.x, self.r, self.p, self.q, self.z
        exec_ = x.executor
        if iteration:
            self.M.apply(r, z)
            rz_new = r.compute_dot(z)
            beta = safe_divide(rz_new, self.rz)
            # cg_step_1 fuses the scale+add of p = z + beta p.
            with fused_step(exec_, "cg::step_1", ops_replaced=2):
                cg_step_1(p, z, beta)
            self.rz = rz_new
        self.A.apply(p, q)
        alpha = safe_divide(self.rz, p.compute_dot(q))
        # cg_step_2 is one fused kernel standing in for the two eager
        # axpys (x += alpha p, r -= alpha q) — mark it as a fused
        # region so attribution counts the amortisation.
        with fused_step(exec_, "cg::step_2", ops_replaced=2):
            cg_step_2(x, r, p, q, alpha)
        iteration += 1
        return iteration, self.monitor(iteration, r.compute_norm2())
