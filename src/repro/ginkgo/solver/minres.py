"""MINRES (``gko::solver::Minres``) for symmetric (indefinite) systems.

Implements the Paige & Saunders Lanczos/QR recurrence with support for a
symmetric positive-definite preconditioner; the tracked residual norm is
the ``phibar`` estimate of the preconditioned residual.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.solver.recurrence import Recurrence


def _m_norm(r, y) -> float:
    """``sqrt(r^T y)`` for ``y = M^{-1} r``: the Lanczos normalisation."""
    rho = float(r.compute_dot(y)[0])
    if rho < 0:
        raise ValueError("MINRES preconditioner must be positive definite")
    return np.sqrt(rho)


class MinresRecurrence(Recurrence):
    """MINRES for one right-hand side; one step is one Lanczos/QR update.

    Carries the Lanczos vectors ``r`` (Paige–Saunders' ``r1``), ``r2`` and
    ``y = M^{-1} r2``, the direction vectors ``w, w2`` and the QR scalars
    ``oldb, beta, dbar, epsln, phibar, cs, sn``.  A third pooled buffer
    rotates through the ``w`` roles.
    """

    vectors = ("x", "r", "r2", "y", "w", "w2")
    scalars = ("oldb", "beta", "dbar", "epsln", "phibar", "cs", "sn")
    single_rhs = True

    def __init__(self, A, M, b, x, r, ws, monitor) -> None:
        super().__init__(A, M, b, x, r, ws, monitor)
        self.y = r.scratch(ws, "minres.y")
        M.apply(r, self.y)
        self.oldb, self.beta = 0.0, _m_norm(r, self.y)
        self.dbar, self.epsln = 0.0, 0.0
        self.phibar = self.beta
        self.cs, self.sn = -1.0, 0.0
        # w/w2 are read with nonzero coefficients from iteration 2 on, so
        # pooled reuse must hand them back zeroed; `spare` rotates in as
        # the next w and is always fully overwritten first.
        self.w = ws.dense("minres.w", r.size, r.dtype, zero=True)
        self.w2 = ws.dense("minres.w2", r.size, r.dtype, zero=True)
        self.spare = r.scratch(ws, "minres.w1")
        self.r2 = r.scratch(ws, "minres.r2", copy=True)
        self.v = r.scratch(ws, "minres.v")
        self._spmv = A.bind(self.v, self.y)
        self._precondition = M.bind(self.r2, self.y)

    def step(self, iteration: int) -> tuple:
        x, r1, r2, y, v = self.x, self.r, self.r2, self.y, self.v
        beta, oldb = self.beta, self.oldb
        if beta == 0.0:
            # The Lanczos sequence ended on an invariant subspace: x is
            # exact there.
            return iteration, self.monitor(iteration, 0.0, exact=True)
        iteration += 1
        # Lanczos step.
        v.copy_values_from(y)
        v.scale(1.0 / beta)
        self._spmv()
        if iteration >= 2:
            y.sub_scaled(beta / oldb, r1)
        alfa = float(v.compute_dot(y)[0])
        y.sub_scaled(alfa / beta, r2)
        r1.copy_values_from(r2)
        r2.copy_values_from(y)
        self._precondition()
        oldb, beta = beta, _m_norm(r2, y)

        # QR update via Givens rotations.
        cs, sn = self.cs, self.sn
        oldeps = self.epsln
        delta = cs * self.dbar + sn * alfa
        gbar = sn * self.dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.hypot(gbar, beta)
        if gamma == 0.0:
            # Zero QR pivot: b has a component A cannot reach, so no
            # update lowers phibar — an exact breakdown.
            return iteration, self.monitor(
                iteration, abs(self.phibar), breakdown=True
            )
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * self.phibar
        phibar = sn * self.phibar

        # Solution update: w = (v - oldeps*w1 - delta*w2) / gamma.  The
        # three pooled buffers rotate through the w/w2/w1 roles; the
        # vacated one becomes the next step's w.  copy_into charges the
        # same transfer a fresh v.clone() would.
        w1, w2, w = self.w2, self.w, self.spare
        x.executor.copy_into(v.executor, v._data, w._data)
        w.sub_scaled(oldeps, w1)
        w.sub_scaled(delta, w2)
        w.scale(1.0 / gamma)
        x.add_scaled(phi, w)
        self.w, self.w2, self.spare = w, w2, w1
        self.oldb, self.beta, self.dbar, self.epsln = oldb, beta, dbar, epsln
        self.phibar, self.cs, self.sn = phibar, cs, sn
        return iteration, self.monitor(iteration, abs(phibar))
