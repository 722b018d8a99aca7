"""Fused solver step kernels.

Ginkgo implements each solver's vector-update tail as one fused device
kernel (``cg::step_1``, ``cgs::step_2``, ...) rather than a chain of BLAS-1
calls — a key reason its Krylov iterations launch far fewer kernels than
Python-dispatched frameworks (the effect measured in the paper's Fig. 3c).

These helpers perform the update numerically on the operands' buffers and
record exactly one kernel with the combined byte traffic.  The CG steps
and the GMRES orthogonalisation pair run through the vector hooks
(``elementwise`` / ``all_reduce``), so the same definition serves
``Dense``, ``distributed.Vector`` and the batched active head.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.matrix.dense import Dense, _coef
from repro.perfmodel import KernelCost, blas1_cost


def record_fused(exec_, name: str, length: int, value_bytes: int, num_vectors: int) -> None:
    """Record one fused kernel touching ``num_vectors`` vector operands."""
    exec_.run(blas1_cost(name, length, value_bytes, num_vectors))


def cg_step_1(p, z, beta) -> None:
    """Fused ``p = z + beta * p`` (one kernel, 3 vector operands)."""
    pd, zd = p._data, z._data

    def op(lo, hi, b):
        ps = pd[lo:hi]  # a view: `pd[lo:hi] *= b` also copies the block back
        ps *= b
        ps += zd[lo:hi]

    p.elementwise("cg_step_1", op, 3, beta)


def cg_step_2(x, r, p, q, alpha) -> None:
    """Fused ``x += alpha p ; r -= alpha q`` (one kernel, 6 operands)."""
    xd, rd, pd, qd = x._data, r._data, p._data, q._data

    def op(lo, hi, a):
        xs, rs = xd[lo:hi], rd[lo:hi]
        xs += a * pd[lo:hi]
        rs -= a * qd[lo:hi]

    x.elementwise("cg_step_2", op, 6, alpha)
    r.mark_modified()


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


def gmres_multidot(basis_block, w, count: int):
    """Fused multi-dot: coefficients of ``w`` against ``count`` basis vectors.

    One batched reduction kernel (plus its finalisation pass), as in
    Ginkgo's ``gmres::multi_dot``.  Evaluated as an einsum contraction so
    the per-system reduction order matches the batched lockstep kernels
    bit-for-bit (BLAS gemv blocks its accumulation differently).  A
    distributed ``w`` then pays one all-reduce of the ``count``
    coefficients.
    """
    coeffs = np.einsum("ij,i->j", basis_block[:, :count], w._data[:, 0])
    w.executor.run(
        blas1_cost(
            "gmres_multidot",
            w.size.rows * count,
            w.value_bytes,
            2,
        )
    )
    return w.all_reduce(coeffs, "all_reduce_multidot")


def gmres_update(basis_block, w, coeffs, count: int) -> None:
    """Fused rank-``count`` update ``w -= V[:, :count] @ coeffs``."""
    w._data[:, 0] -= np.einsum("ij,j->i", basis_block[:, :count], coeffs)
    record_fused(
        w.executor, "gmres_update", w.size.rows * count, w.value_bytes, 2
    )


def givens_update(exec_, hessenberg, givens_cos, givens_sin, g, j: int) -> bool:
    """Triangularise Hessenberg column ``j`` and rotate the residual vector ``g``.

    The ``j`` accumulated Givens rotations, then the new one, applied to
    the column and to ``g``: three tiny device kernels in Ginkgo (run
    redundantly on every rank when distributed).  Returns False at a zero
    pivot — an exact breakdown: the column vanished, and ``|g[j]|`` is the
    least residual the cycle's Krylov space reaches.
    """
    m = givens_cos.size
    for i in range(j):
        hi, hi1 = hessenberg[i, j], hessenberg[i + 1, j]
        hessenberg[i, j] = givens_cos[i] * hi + givens_sin[i] * hi1
        hessenberg[i + 1, j] = -givens_sin[i] * hi + givens_cos[i] * hi1
    denom = np.hypot(hessenberg[j, j], hessenberg[j + 1, j])
    exec_.run(KernelCost("givens_update", 6.0 * m, 24.0 * m, launches=3))
    if denom == 0.0:
        return False
    givens_cos[j] = hessenberg[j, j] / denom
    givens_sin[j] = hessenberg[j + 1, j] / denom
    hessenberg[j, j] = denom
    hessenberg[j + 1, j] = 0.0
    g[j + 1] = -givens_sin[j] * g[j]
    g[j] = givens_cos[j] * g[j]
    return True


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


def gmres_finalize(exec_, basis_block, hessenberg, g, y, x_col, value_bytes: int) -> None:
    """Close a restart cycle: :func:`hessenberg_solve`, then ``x_col += V y``."""
    hessenberg_solve(exec_, hessenberg, g, y)
    inner = y.size
    x_col += basis_block[:, :inner] @ y
    record_fused(
        exec_, "gmres_x_update", basis_block.shape[0] * inner, value_bytes, 2
    )
