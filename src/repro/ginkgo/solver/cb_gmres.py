"""CB-GMRES — compressed-basis GMRES (``gko::solver::CbGmres``).

Ginkgo's flagship mixed-precision solver: the Krylov basis — the dominant
memory traffic of GMRES — is *stored* in a reduced precision while all
arithmetic happens in the full working precision.  Because GMRES is
memory-bandwidth bound, storing the basis in float32 (or float16) cuts
per-iteration time almost proportionally with, usually, negligible effect
on convergence (the basis only spans the search space; the Hessenberg
recurrence stays in full precision).

This reproduction stores the basis block in the configured storage dtype
and charges basis-touching kernels (multi-dot, rank update, x-update) with
the *storage* width, exactly the mechanism behind the real speedup.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.accessor import arithmetic_dtype_for, value_dtype_for
from repro.ginkgo.matrix.base import check_value_dtype
from repro.ginkgo.solver.gmres import DEFAULT_KRYLOV_DIM, GmresRecurrence
from repro.ginkgo.solver.kernels import hessenberg_solve
from repro.perfmodel import blas1_cost


class CbGmresRecurrence(GmresRecurrence):
    """GMRES's inner iteration over a basis stored in ``storage_precision``.

    Host bookkeeping (Hessenberg, Givens, ``g``, ``y``) lives at the
    working precision — a float32 solve must not leak float64 arrays —
    and the basis decompresses into the arithmetic precision (float32 for
    half working dtypes, like the engine's half kernels).  The multi-dot
    and rank update are BLAS products against the decompressed basis
    (not GMRES's einsum contraction).

    Parameters:
        krylov_dim: Restart length (default 30).
        storage_precision: dtype the Krylov basis is stored in
            (default float32; float16 for the most aggressive compression).
    """

    parameters = ("krylov_dim", "storage_precision")
    instances = ("scalar",)

    def __init__(
        self, A, M, b, x, r, ws, monitor,
        krylov_dim=DEFAULT_KRYLOV_DIM, storage_precision=np.float32,
    ) -> None:
        super().__init__(A, M, b, x, r, ws, monitor, krylov_dim)
        # ``value_dtype_for`` accepts every value-type spelling the config
        # layer does ("float"/"float32"/...), not just numpy dtypes.
        self.storage = check_value_dtype(value_dtype_for(storage_precision))
        self.work_dtype = np.dtype(b.dtype)
        self.arith = arithmetic_dtype_for(self.work_dtype)

    def _charge(self, name: str, length: int) -> None:
        """One basis kernel moving storage-precision bytes."""
        self.x.executor.run(blas1_cost(name, length, self.storage.itemsize, 2))

    def _start(self, r, beta):
        rd = r.extent
        systems, n, _ = rd.shape
        basis = self.ws.array(
            "cb_gmres.basis", (systems, n, self.krylov_dim + 1),
            dtype=self.storage,
        )
        basis[:, :, 0] = (
            rd[:, :, 0] / beta.astype(rd.dtype)[:, None]
        ).astype(self.storage)
        self._charge("cb_gmres_init", systems * n)
        return basis

    def _load(self, basis, j: int, w) -> None:
        w.extent[:, :, 0] = basis[:, :, j].astype(self.arith)

    def _orthogonalize(self, basis, w, count: int):
        wd = w.extent
        systems, n, _ = wd.shape
        block = basis[:, :, :count].astype(self.arith)
        coeffs = np.stack([v.T @ c for v, c in zip(block, wd[:, :, 0])])
        self._charge("cb_gmres_multidot", systems * n * count)
        wd[:, :, 0] -= np.stack([v @ c for v, c in zip(block, coeffs)])
        self._charge("cb_gmres_update", systems * n * count)
        return coeffs

    def _extend(self, basis, w, j: int, h_next, rows) -> None:
        wd = w.extent
        h = h_next[rows]
        basis[rows, :, j] = (
            wd[rows, :, 0] / h.astype(wd.dtype)[:, None]
        ).astype(self.storage)
        self._charge("cb_gmres_scale", h.size * wd.shape[1])

    def _close(self, k: int, y) -> None:
        xd = self.x.extent
        hessenberg_solve(self.x.executor, self.hessenberg[k], self.g[k], y)
        xd[k, :, 0] += self.basis[k][:, : y.size].astype(self.arith) @ y
        self._charge("cb_gmres_x_update", xd.shape[1] * y.size)
