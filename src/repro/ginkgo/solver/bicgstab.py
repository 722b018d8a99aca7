"""Biconjugate Gradient Stabilised (``gko::solver::Bicgstab``)."""

from __future__ import annotations

from repro.ginkgo.solver.recurrence import Recurrence, safe_divide


class BicgstabRecurrence(Recurrence):
    """van der Vorst's BiCGSTAB; one step is one iteration.

    Carries ``x, r, r_tld, p, v`` and the coefficients
    ``alpha, omega, rho_old`` (all None before the first iteration).
    """

    vectors = ("x", "r", "r_tld", "p", "v")
    scalars = ("alpha", "omega", "rho_old")
    instances = ("scalar", "batch", "distributed")

    def __init__(self, A, M, b, x, r, ws, monitor) -> None:
        super().__init__(A, M, b, x, r, ws, monitor)
        self.r_tld = r.scratch(ws, "bicgstab.r_tld", copy=True)
        self.p = r.scratch(ws, "bicgstab.p", copy=True)
        self.p_hat = r.scratch(ws, "bicgstab.p_hat")
        self.s_hat = r.scratch(ws, "bicgstab.s_hat")
        self.v = r.scratch(ws, "bicgstab.v")
        self.s = r.scratch(ws, "bicgstab.s")
        self.t = r.scratch(ws, "bicgstab.t")
        self.rho_old = None
        self.alpha = None
        self.omega = None
        p, p_hat, s, s_hat, t = self.p, self.p_hat, self.s, self.s_hat, self.t
        self._precondition_p, self._spmv_p = M.bind(p, p_hat), A.bind(p_hat, self.v)
        self._precondition_s, self._spmv_s = M.bind(s, s_hat), A.bind(s_hat, t)
        self._rho, self._rv = self.r_tld.bind_dot(r), self.r_tld.bind_dot(self.v)
        self._tt, self._ts = t.bind_dot(t), t.bind_dot(s)
        self._s_norm, self._norm = s.bind_norm2(), r.bind_norm2()

    def step(self, iteration: int) -> tuple:
        x, r, p, v = self.x, self.r, self.p, self.v
        p_hat, s_hat, s, t = self.p_hat, self.s_hat, self.s, self.t
        rho = self._rho()
        if self.rho_old is not None:
            beta = safe_divide(rho * self.alpha, self.rho_old * self.omega)
            # p = r + beta * (p - omega * v)
            p.sub_scaled(self.omega, v)
            p.scale(beta)
            p.add_scaled(1.0, r)
        self._precondition_p()
        self._spmv_p()
        alpha = safe_divide(rho, self._rv())
        # s = r - alpha v
        s.copy_values_from(r)
        s.sub_scaled(alpha, v)
        # Half-step norm (Ginkgo evaluates it for the early exit).
        self._s_norm()
        self._precondition_s()
        self._spmv_s()
        tt = self._tt()
        omega = safe_divide(self._ts(), tt)
        x.add_scaled(alpha, p_hat)
        x.add_scaled(omega, s_hat)
        # r = s - omega t
        r.copy_values_from(s)
        r.sub_scaled(omega, t)
        self.alpha, self.omega, self.rho_old = alpha, omega, rho
        iteration += 1
        return iteration, self.monitor(iteration, self._norm())
