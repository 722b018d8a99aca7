"""Pipelined CG (Ghysels–Vanroose): a different algorithm from blocking
CG, not a reduction policy, so a recurrence of its own.  It runs on
``distributed.Vector`` only: overlapping its one fused reduction needs
``iall_reduce``.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.solver.recurrence import Recurrence, safe_divide
from repro.perfmodel import KernelCost


def _pcg_local_dots(r, u, w) -> np.ndarray:
    """Fused local reductions of the pipelined-CG triple, one kernel.

    Computes ``gamma = (r, u)``, ``delta = (w, u)`` and ``rr = (r, r)``
    per column in global element order, reading the three arenas once —
    the fused multi-dot the Ghysels–Vanroose formulation exists to
    amortise.  Returns the stacked ``(3, cols)`` float64 payload for the
    single all-reduce.
    """
    rows, cols = r._data.shape
    result = np.stack(
        [
            np.einsum("ij,ij->j", r._data, u._data),
            np.einsum("ij,ij->j", w._data, u._data),
            np.einsum("ij,ij->j", r._data, r._data),
        ]
    ).astype(np.float64, copy=False)
    r.executor.run(
        KernelCost(
            "pipelined_cg_dots",
            flops=6.0 * rows * cols,
            bytes=3.0 * rows * cols * r.value_bytes,
            launches=1,
        )
    )
    return result


def pcg_step(z, q, s, p, x, r, u, w, m, n, alpha, beta) -> None:
    """Fused Ghysels–Vanroose recurrence update, rank-parallel.

    One streaming kernel updating all eight recurrence vectors from the
    overlapped products ``m = M^{-1} w`` and ``n = A m``::

        z = n + beta z ;  q = m + beta q ;  s = w + beta s ;  p = u + beta p
        x += alpha p   ;  r -= alpha s   ;  u -= alpha q   ;  w -= alpha z

    The auxiliary updates read ``w``/``u`` *before* their own updates
    run, matching the paper's ordering.
    """
    zd, qd, sd, pd = z._data, q._data, s._data, p._data
    xd, rd, ud, wd = x._data, r._data, u._data, w._data
    md, nd = m._data, n._data

    def op(lo, hi, a, bt):
        zd[lo:hi] *= bt
        zd[lo:hi] += nd[lo:hi]
        qd[lo:hi] *= bt
        qd[lo:hi] += md[lo:hi]
        sd[lo:hi] *= bt
        sd[lo:hi] += wd[lo:hi]
        pd[lo:hi] *= bt
        pd[lo:hi] += ud[lo:hi]
        xd[lo:hi] += a * pd[lo:hi]
        rd[lo:hi] -= a * sd[lo:hi]
        ud[lo:hi] -= a * qd[lo:hi]
        wd[lo:hi] -= a * zd[lo:hi]

    x.elementwise("pipelined_cg_step", op, 18, alpha, beta)
    for vec in (z, q, s, p, r, u, w):
        vec.mark_modified()


class PipelinedCgRecurrence(Recurrence):
    """Pipelined CG (Ghysels & Vanroose): one overlapped reduction/step.

    Blocking CG pays three all-reduces per iteration (``p.q``, the
    residual norm, ``r.z``), each a synchronisation point.  The
    pipelined formulation fuses them into a single all-reduce of the
    triple ``gamma = (r, u)``, ``delta = (w, u)``, ``rr = (r, r)``,
    posts it non-blocking, and computes the next preconditioner apply
    and SpMV while it is in flight — at high latency the reduction
    disappears behind the matrix work entirely.

    Cost of the latency win: extra recurrences (``z, q, s, p`` next to
    ``x, r, u, w``) reassociate the CG arithmetic, so residual histories
    match blocking CG only to rounding-level tolerance (pinned in the
    tests/benchmark, documented in DESIGN.md), and the recurrence for
    ``r`` drifts from the true residual ``b - A x`` a few digits earlier
    than blocking CG under loss of orthogonality.  One step is one pass;
    the monitored residual of iteration ``i`` is computed by the
    reduction of pass ``i + 1`` (pipeline depth 1), so a converged solve
    performs one extra overlapped SpMV.
    """

    vectors = ("x", "r", "u", "w", "z", "q", "s", "p")
    scalars = ("prev_gamma", "alpha")
    instances = ("distributed",)

    def __init__(self, A, M, b, x, r, ws, monitor) -> None:
        super().__init__(A, M, b, x, r, ws, monitor)
        self.u = r.scratch(ws, "pcg.u")
        M.apply(r, self.u)
        self.w = r.scratch(ws, "pcg.w")
        A.apply(self.u, self.w)
        self.m = r.scratch(ws, "pcg.m")
        self.n = r.scratch(ws, "pcg.n")
        # The auxiliary recurrences start at zero (beta_0 = 0 makes the
        # first update a plain copy, but a stale NaN from a previous
        # broken-down solve would survive `0 * NaN`).
        self.z = r.scratch(ws, "pcg.z").fill(0.0)
        self.q = r.scratch(ws, "pcg.q").fill(0.0)
        self.s = r.scratch(ws, "pcg.s").fill(0.0)
        self.p = r.scratch(ws, "pcg.p").fill(0.0)
        self._precondition = M.bind(self.w, self.m)
        self._spmv = A.bind(self.m, self.n)
        self.prev_gamma = None
        self.alpha = None

    def step(self, passes: int) -> tuple:
        r, u, w, m, n = self.r, self.u, self.w, self.m, self.n
        passes += 1
        # Fused local dots, then ONE non-blocking all-reduce …
        reduced = _pcg_local_dots(r, u, w)
        request = r.iall_reduce(reduced, "iallreduce_pcg")
        # … hidden behind the next preconditioner apply + SpMV
        # (the point of the pipelined formulation).
        self._precondition()
        self._spmv()
        request.wait()
        gamma, delta, rr = reduced
        # Pipeline depth 1: this pass's reduction delivers the
        # residual of the *previous* pass's update.
        if passes > 1 and self.monitor(passes - 1, np.sqrt(rr)):
            return passes, True
        if self.prev_gamma is None:
            beta = np.zeros_like(gamma)
            alpha = safe_divide(gamma, delta)
        else:
            beta = safe_divide(gamma, self.prev_gamma)
            alpha = safe_divide(
                gamma, delta - safe_divide(beta * gamma, self.alpha)
            )
        pcg_step(
            self.z, self.q, self.s, self.p, self.x, r, u, w, m, n,
            alpha, beta,
        )
        self.prev_gamma, self.alpha = gamma, alpha
        return passes, False
