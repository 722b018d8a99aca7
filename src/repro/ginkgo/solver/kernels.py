"""Fused solver step kernels.

Ginkgo implements each solver's vector-update tail as one fused device
kernel (``cg::step_1``, ``cgs::step_2``, ...) rather than a chain of BLAS-1
calls — a key reason its Krylov iterations launch far fewer kernels than
Python-dispatched frameworks (the effect measured in the paper's Fig. 3c).

These helpers perform the update numerically on the operands' buffers and
record exactly one kernel with the combined byte traffic.  The CG steps
(bound once per solve, like the dots and norms) and the GMRES projection
run through the vector protocol (``bind_elementwise`` / ``all_reduce``),
the GMRES helpers over a vector's ``(systems, rows, cols)`` ``extent``,
so the same definition serves ``Dense``, ``distributed.Vector`` and the
batched head (:class:`~repro.ginkgo.krylov_vector.KrylovVector`).
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.krylov_vector import _coef
from repro.ginkgo.matrix.dense import Dense
from repro.perfmodel import KernelCost, blas1_cost


def record_fused(exec_, name: str, length: int, value_bytes: int, num_vectors: int) -> None:
    """Record one fused kernel touching ``num_vectors`` vector operands."""
    exec_.run(blas1_cost(name, length, value_bytes, num_vectors))


def fused_region(exec_, region: str, ops_replaced: int, kernel, *args):
    """``kernel(*args)``, in a ``fused_region`` span (free, trace-only)
    showing attribution the eager op count a hand-fused update replaced."""
    clock = exec_.clock
    if not clock._traced:
        return kernel(*args)
    clock.push_span(region, "fused_region", ops_replaced=int(ops_replaced))
    try:
        return kernel(*args)
    finally:
        clock.pop_span()


def fused_kernel(vec, name, op, num_vectors, region, ops_replaced, also=()):
    """A fused step kernel bound for a solve, called with its coefficient:
    ``op(lo, hi, coefficient)`` over ``vec``'s extent as one kernel of
    ``num_vectors`` operands (``vec.bind_elementwise``) in
    ``fused_region`` ``region``; marks ``also``."""
    run, exec_ = vec.bind_elementwise(name, op, num_vectors), vec.executor

    def kernel(coefficient) -> None:
        fused_region(exec_, region, ops_replaced, run, coefficient)
        for other in also:
            other.mark_modified()

    return kernel


def cg_step_1(p, z):
    """Fused ``p = z + beta * p`` (one kernel, 3 vector operands); call
    with ``beta``."""
    pd, zd = p._data, z._data

    def op(lo, hi, b):
        ps = pd[lo:hi]  # a view: `pd[lo:hi] *= b` also copies the block back
        ps *= b
        ps += zd[lo:hi]

    return fused_kernel(p, "cg_step_1", op, 3, "cg::step_1", 2)


def cg_step_2(x, r, p, q):
    """Fused ``x += alpha p ; r -= alpha q`` (one kernel, 6 operands);
    call with ``alpha``.  It stands for the two eager axpys."""
    xd, rd, pd, qd = x._data, r._data, p._data, q._data

    def op(lo, hi, a):
        xs, rs = xd[lo:hi], rd[lo:hi]
        xs += a * pd[lo:hi]
        rs -= a * qd[lo:hi]

    return fused_kernel(x, "cg_step_2", op, 6, "cg::step_2", 2, also=(r,))


def cgs_step_1(u: Dense, p: Dense, r: Dense, q: Dense, beta) -> None:
    """Fused ``u = r + beta q ; p = u + beta (q + beta p)`` (one kernel)."""
    b = _coef(beta, u.dtype)
    u._data[...] = r._data + b * q._data
    p._data[...] = u._data + b * (q._data + b * p._data)
    record_fused(u.executor, "cgs_step_1", u.size.num_elements, u.value_bytes, 6)


def cgs_step_2(q: Dense, t: Dense, u: Dense, v: Dense, alpha) -> None:
    """Fused ``q = u - alpha v ; t = u + q`` (one kernel)."""
    a = _coef(alpha, q.dtype)
    q._data[...] = u._data - a * v._data
    t._data[...] = u._data + q._data
    record_fused(q.executor, "cgs_step_2", q.size.num_elements, q.value_bytes, 5)


def cgs_step_3(x: Dense, r: Dense, u_hat: Dense, w: Dense, alpha) -> None:
    """Fused ``x += alpha u_hat ; r -= alpha w`` (one kernel)."""
    a = _coef(alpha, x.dtype)
    x._data += a * u_hat._data
    r._data -= a * w._data
    record_fused(x.executor, "cgs_step_3", x.size.num_elements, x.value_bytes, 6)


def gmres_project(basis, w, count: int):
    """One Gram-Schmidt pass of ``w`` against ``count`` basis vectors.

    ``basis`` is ``(systems, rows, krylov_dim + 1)``.  The fused
    multi-dot (one batched reduction kernel plus its finalisation pass,
    as in Ginkgo's ``gmres::multi_dot``) gives the ``(systems, count)``
    coefficients; a distributed ``w`` then pays one all-reduce of them.
    The fused rank-``count`` update ``w -= V[:, :count] @ coeffs``
    follows.  Both are einsum contractions, whose per-system reduction
    order does not depend on the number of systems (BLAS gemv blocks
    its accumulation differently).  Returns the coefficients.
    """
    wd = w.extent
    systems, rows, _ = wd.shape
    block, length = basis[:, :, :count], systems * rows * count
    coeffs = np.einsum("kij,ki->kj", block, wd[:, :, 0])
    record_fused(w.executor, "gmres_multidot", length, wd.dtype.itemsize, 2)
    coeffs = w.all_reduce(coeffs, "all_reduce_multidot")
    wd[:, :, 0] -= np.einsum("kij,kj->ki", block, coeffs)
    record_fused(w.executor, "gmres_update", length, wd.dtype.itemsize, 2)
    return coeffs


def givens_update(exec_, hessenberg, givens_cos, givens_sin, g, j: int):
    """Triangularise Hessenberg column ``j`` and rotate the residual vector ``g``.

    Every array has a leading systems axis.  The ``j`` accumulated Givens
    rotations, then the new one, applied to the column and to ``g``:
    three tiny device kernels in Ginkgo (run redundantly on every rank
    when distributed).  Returns the per-system pivot mask.  A zero pivot
    is an exact breakdown: the column vanished, its rotation is the
    identity, and ``|g[j]|`` is the least residual the cycle's Krylov
    space reaches.
    """
    systems, m = givens_cos.shape
    column = hessenberg[:, :, j]
    if j:
        # Rotation i maps (t, h[i+1]) to (c t + s h[i+1], c h[i+1] - s t),
        # t being entry i as rotation i - 1 left it.  The products with
        # the untouched h[i+1] are taken at once; the t chain is
        # sequential.  With one system the chain runs on NumPy scalars:
        # the same arithmetic, without a ufunc dispatch per operation.
        rows = (j,) if systems == 1 else (j, systems)
        cos = givens_cos[:, :j].T.reshape(rows)
        sin = givens_sin[:, :j].T.reshape(rows)
        below = column[:, 1 : j + 1].T.reshape(rows)
        plus, minus = sin * below, cos * below
        rotated = np.empty_like(plus)
        t = column[:, 0].copy().reshape(rows[1:])[()]
        for i in range(j):
            rotated[i] = cos[i] * t + plus[i]
            t = minus[i] - sin[i] * t
        column[:, :j] = rotated.T
        column[:, j] = t
    denom = np.hypot(column[:, j], column[:, j + 1])
    exec_.run(
        KernelCost(
            "givens_update", 6.0 * m * systems, 24.0 * m * systems, launches=3
        )
    )
    pivot = denom != 0.0
    # A zero pivot keeps the identity rotation (cos 1, sin 0).
    cos = np.divide(
        column[:, j], denom, out=(~pivot).astype(denom.dtype), where=pivot
    )
    sin = np.divide(
        column[:, j + 1], denom, out=np.zeros(systems, denom.dtype), where=pivot
    )
    givens_cos[:, j] = cos
    givens_sin[:, j] = sin
    column[:, j] = denom
    column[:, j + 1] = 0.0
    g[:, j + 1] = -sin * g[:, j]
    g[:, j] = cos * g[:, j]
    return pivot


def hessenberg_solve(exec_, hessenberg, g, y) -> None:
    """Back-substitute ``R y = g`` into ``y`` (zeroed, one entry per column).

    Solved ON THE DEVICE: low parallelism makes this a per-row dependency
    chain of small kernels (CuPy instead solves it on the CPU).
    """
    inner = y.size
    for i in range(inner - 1, -1, -1):
        y[i] = (
            g[i] - hessenberg[i, i + 1 : inner] @ y[i + 1 : inner]
        ) / hessenberg[i, i]
    exec_.run(
        KernelCost(
            "hessenberg_trsv",
            flops=float(inner * inner),
            bytes=float(hessenberg.itemsize) * inner * inner,
            launches=max(inner, 1),
        )
    )
