"""IDR(s) — Induced Dimension Reduction (``gko::solver::Idr``).

The biorthogonalised IDR(s) variant of van Gijzen & Sonneveld (TOMS 2011),
as implemented in Ginkgo: a short-recurrence method for general systems
whose residuals are forced into a shrinking sequence of nested subspaces.
``s = 1`` is mathematically equivalent to BiCGSTAB; larger shadow-space
dimensions usually converge in fewer iterations at slightly higher cost
per iteration.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.solver.kernels import record_fused
from repro.ginkgo.solver.recurrence import Recurrence


class IdrRecurrence(Recurrence):
    """IDR(s) for one right-hand side; one step is one cycle.

    A cycle is ``s`` biorthogonal updates against the fixed shadow space
    ``P`` followed by the dimension-reduction step, the residual reported
    to the monitor after each of the ``s + 1`` updates.  Carries ``x, r``,
    the ``G`` / ``U`` blocks, the small matrix ``P^T G`` and ``omega``.

    Parameters:
        subspace_dim: Shadow-space dimension ``s`` (default 2).
        deterministic: Seed the shadow space reproducibly (default True).
        kappa: Omega safeguard threshold (default 0.7, as in Ginkgo).
    """

    vectors = ("x", "r")
    scalars = ("omega",)
    # Carried across cycles, so every checkpoint holds them whole.
    cycle = ("p_block", "g_block", "u_block", "m_small")
    at_restart = False
    parameters = ("subspace_dim", "deterministic", "kappa")
    single_rhs = True

    def __init__(
        self, A, M, b, x, r, ws, monitor,
        subspace_dim=2, deterministic=True, kappa=0.7,
    ) -> None:
        super().__init__(A, M, b, x, r, ws, monitor)
        s = int(subspace_dim)
        if s < 1:
            raise GinkgoError(f"subspace_dim must be >= 1, got {s}")
        n = b.size.rows
        s = min(s, n)
        self.kappa = float(kappa)
        # Shadow space P: random orthonormal block, fixed for the solve.
        rng = np.random.default_rng(42 if deterministic else None)
        self.p_block, _ = np.linalg.qr(rng.standard_normal((n, s)))
        record_fused(x.executor, "idr_init_shadow", n * s, b.value_bytes, 2)
        self.g_block = ws.array("idr.g_block", (n, s))
        self.u_block = ws.array("idr.u_block", (n, s))
        self.m_small = ws.array("idr.m_small", (s, s))
        np.fill_diagonal(self.m_small, 1.0)
        self.omega = 1.0
        self.v = r.scratch(ws, "idr.v")
        self.v_hat = r.scratch(ws, "idr.v_hat")
        self.t = r.scratch(ws, "idr.t")
        self._precondition_v = M.bind(self.v, self.v_hat)
        self._spmv_v = A.bind(self.v, self.t)
        self._precondition_r = M.bind(r, self.v_hat)
        self._spmv_v_hat = A.bind(self.v_hat, self.t)

    def _breakdown(self, iteration: int) -> tuple:
        """Stop at a singular projection, reporting the true residual.

        A zero residual is no breakdown: ``x`` is exact.
        """
        norm = float(self.r.compute_norm2()[0])
        return iteration, self.monitor(
            iteration, norm, breakdown=norm != 0.0, exact=norm == 0.0
        )

    def step(self, iteration: int) -> tuple:
        x, r = self.x, self.r
        v, v_hat, t = self.v, self.v_hat, self.t
        p_block, g_block, u_block = self.p_block, self.g_block, self.u_block
        m_small = self.m_small
        exec_ = x.executor
        n, s = p_block.shape
        vb = r.value_bytes
        # f = P^T r (one fused multi-dot kernel).
        f = p_block.T @ r._data[:, 0]
        record_fused(exec_, "idr_multidot", n * s, vb, 2)

        for k in range(s):
            # Solve the small lower-triangular system M[k:, k:] c = f[k:].
            try:
                c = np.linalg.solve(m_small[k:, k:], f[k:])
            except np.linalg.LinAlgError:
                return self._breakdown(iteration)
            # v = r - G[:, k:] c  (fused rank-update).
            v._data[:, 0] = r._data[:, 0] - g_block[:, k:] @ c
            record_fused(exec_, "idr_update_v", n * (s - k), vb, 2)
            self._precondition_v()
            # U[:, k] = U[:, k:] c + omega * v_hat.
            u_block[:, k] = u_block[:, k:] @ c + self.omega * v_hat._data[:, 0]
            record_fused(exec_, "idr_update_u", n * (s - k), vb, 2)
            # G[:, k] = A U[:, k].
            v._data[:, 0] = u_block[:, k]
            self._spmv_v()
            g_block[:, k] = t._data[:, 0]
            # Bi-orthogonalise against P[:, :k].
            for i in range(k):
                alpha = (p_block[:, i] @ g_block[:, k]) / m_small[i, i]
                g_block[:, k] -= alpha * g_block[:, i]
                u_block[:, k] -= alpha * u_block[:, i]
            if k:
                record_fused(exec_, "idr_biortho", n * k, vb, 3)
            m_small[k:, k] = p_block[:, k:].T @ g_block[:, k]
            record_fused(exec_, "idr_m_update", n * (s - k), vb, 2)
            if m_small[k, k] == 0.0:
                return self._breakdown(iteration)
            beta = f[k] / m_small[k, k]
            # r -= beta G[:, k] ; x += beta U[:, k] (one fused kernel).
            r._data[:, 0] -= beta * g_block[:, k]
            x._data[:, 0] += beta * u_block[:, k]
            record_fused(exec_, "idr_step", n, vb, 4)

            iteration += 1
            if self.monitor(iteration, float(r.compute_norm2()[0])):
                return iteration, True
            if k + 1 < s:
                f[k + 1 :] -= beta * m_small[k + 1 :, k]

        # Dimension-reduction step: omega from the (t, r) angle with
        # Ginkgo's kappa safeguard against tiny omegas.
        self._precondition_r()
        self._spmv_v_hat()
        tt = float(t.compute_dot(t)[0])
        tr = float(t.compute_dot(r)[0])
        if tt == 0.0:
            return self._breakdown(iteration)
        omega = tr / tt
        t_norm = np.sqrt(tt)
        r_norm = float(r.compute_norm2()[0])
        rho = abs(tr) / (t_norm * r_norm) if t_norm * r_norm else 0.0
        if rho < self.kappa and rho > 0.0:
            omega *= self.kappa / rho
        self.omega = omega
        x.add_scaled(omega, v_hat)
        r.sub_scaled(omega, t)
        iteration += 1
        return iteration, self.monitor(iteration, float(r.compute_norm2()[0]))
