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

    def step(self, iteration: int) -> tuple:
        A, M, x, r, r_tld, p, v = (
            self.A, self.M, self.x, self.r, self.r_tld, self.p, self.v
        )
        p_hat, s_hat, s, t = self.p_hat, self.s_hat, self.s, self.t
        rho = r_tld.compute_dot(r)
        if self.rho_old is not None:
            beta = safe_divide(rho * self.alpha, self.rho_old * self.omega)
            # p = r + beta * (p - omega * v)
            p.sub_scaled(self.omega, v)
            p.scale(beta)
            p.add_scaled(1.0, r)
        M.apply(p, p_hat)
        A.apply(p_hat, v)
        alpha = safe_divide(rho, r_tld.compute_dot(v))
        # s = r - alpha v
        s.copy_values_from(r)
        s.sub_scaled(alpha, v)
        # Half-step norm (Ginkgo evaluates it for the early exit).
        s.compute_norm2()
        M.apply(s, s_hat)
        A.apply(s_hat, t)
        tt = t.compute_dot(t)
        omega = safe_divide(t.compute_dot(s), tt)
        x.add_scaled(alpha, p_hat)
        x.add_scaled(omega, s_hat)
        # r = s - omega t
        r.copy_values_from(s)
        r.sub_scaled(omega, t)
        self.alpha, self.omega, self.rho_old = alpha, omega, rho
        iteration += 1
        return iteration, self.monitor(iteration, r.compute_norm2())
