"""Krylov eigensolvers composed from engine primitives (pure Python).

Companions to :mod:`repro.core.rayleigh_ritz`, run through the LinOp apply
interface on any executor.  Arnoldi is GMRES's Arnoldi step
(:meth:`~repro.ginkgo.solver.gmres.GmresRecurrence.arnoldi`) with two
Gram-Schmidt passes (CGS2) and no Givens update, restart or monitor;
Lanczos is that process on a symmetric operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.lin_op import LinOp
from repro.ginkgo.matrix.dense import Dense
from repro.ginkgo.solver.gmres import GmresRecurrence
from repro.ginkgo.solver.workspace import Workspace

#: A vector whose norm after orthogonalisation is at most this fraction
#: of its norm before lies in the span already built.
BREAKDOWN_RTOL = 1e-12


@dataclass
class LanczosResult:
    """Lanczos factorisation ``A V ~= V T`` with tridiagonal T."""

    alphas: np.ndarray
    betas: np.ndarray
    basis: Dense

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the tridiagonal projection (ascending)."""
        if self.alphas.size == 1:
            return self.alphas.copy()
        return eigh_tridiagonal(self.alphas, self.betas)[0]


@dataclass
class ArnoldiResult:
    """Arnoldi factorisation ``A V_m = V_{m+1} H``."""

    hessenberg: np.ndarray
    basis: Dense

    def eigenvalues(self) -> np.ndarray:
        """Ritz values from the square part of the Hessenberg matrix."""
        m = self.hessenberg.shape[1]
        return np.linalg.eigvals(self.hessenberg[:m, :m])


def _start_vector(operator: LinOp, seed: int, method: str) -> Dense:
    """The seeded random start vector of ``method`` on a square operator."""
    if not operator.size.is_square:
        raise GinkgoError(f"{method} needs a square operator, got {operator.size}")
    rng = np.random.default_rng(seed)
    return Dense(operator.executor, rng.standard_normal((operator.size.rows, 1)))


def _krylov(operator: LinOp, num_steps: int, seed: int, method: str):
    """``(H, V)``: ``(m + 1) x m`` and ``m + 1`` columns after ``m`` steps,
    or ``k x k`` and ``k`` columns on a breakdown after ``k`` steps."""
    start = _start_vector(operator, seed, method)
    m = min(num_steps, operator.size.rows)
    if m < 1:
        raise GinkgoError(f"num_steps must be >= 1, got {num_steps}")
    process = GmresRecurrence(
        operator, None, None, None, start, Workspace(start.executor), None, m
    )
    process._open(start, start.compute_norm2())
    h, basis = process.hessenberg[0], process.basis[0]
    for j in range(m):
        # ||A v_j|| is the norm of the column the step wrote (V orthonormal).
        h_next = process.arnoldi(j, passes=2)[0]
        if h_next <= BREAKDOWN_RTOL * np.linalg.norm(h[: j + 2, j]):
            return h[: j + 1, : j + 1], basis[:, : j + 1]
    return h, basis


def arnoldi(operator: LinOp, num_steps: int, seed: int = 0) -> ArnoldiResult:
    """Run ``num_steps`` of the Arnoldi iteration on a general operator."""
    h, basis = _krylov(operator, num_steps, seed, "Arnoldi")
    return ArnoldiResult(hessenberg=h, basis=Dense(operator.executor, basis))


def lanczos(operator: LinOp, num_steps: int, seed: int = 0) -> LanczosResult:
    """Run ``num_steps`` of the Lanczos iteration on a symmetric operator.

    Arnoldi with full reorthogonalisation: ``alphas``/``betas`` are the
    diagonal/subdiagonal of its Hessenberg matrix, the basis its first
    ``m`` columns; ``result.eigenvalues()`` gives the Ritz values.
    """
    h, basis = _krylov(operator, num_steps, seed, "Lanczos")
    m = h.shape[1]
    alphas, betas = np.diag(h).copy(), np.diag(h, -1)[: m - 1].copy()
    return LanczosResult(alphas, betas, Dense(operator.executor, basis[:, :m]))


def power_iteration(
    operator: LinOp, num_iterations: int = 100, seed: int = 0, tol: float = 0.0
):
    """Dominant eigenpair by power iteration.

    Returns:
        ``(eigenvalue, eigenvector)`` where the eigenvector is an ``n x 1``
        Dense on the operator's executor.
    """
    v = _start_vector(operator, seed, "power iteration")
    v.scale(1.0 / float(v.compute_norm2()[0]))
    w = Dense.empty(v.executor, v.size, v.dtype)
    eigenvalue = 0.0
    for _ in range(num_iterations):
        operator.apply(v, w)
        new_eigenvalue = float(v.compute_dot(w)[0])
        norm = float(w.compute_norm2()[0])
        if norm == 0.0:
            return 0.0, v
        w.scale(1.0 / norm)
        v, w = w, v
        if tol and abs(new_eigenvalue - eigenvalue) <= tol * abs(new_eigenvalue):
            eigenvalue = new_eigenvalue
            break
        eigenvalue = new_eigenvalue
    return eigenvalue, v
