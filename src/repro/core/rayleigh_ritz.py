"""Rayleigh-Ritz method implemented purely in Python (paper section 3.4).

The paper implements Rayleigh-Ritz on the Python side as proof that
complex algorithms can be composed from the exposed operator primitives
(SpMV, dots, axpys) "without worrying about low-level GPU or CPU
parallelization details".  This module is exactly that: every numerical
step goes through engine operators, so it runs — and is timed — on
whatever device the operands live on.  Its Gram-Schmidt is GMRES's
fused Arnoldi pass, run twice per column (:func:`orthonormalize`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.eigensolvers import BREAKDOWN_RTOL
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.lin_op import LinOp
from repro.ginkgo.matrix.dense import Dense
from repro.ginkgo.solver.gmres import GmresRecurrence


@dataclass
class RitzPairs:
    """Result of a Rayleigh-Ritz extraction.

    Attributes:
        values: Ritz values, ascending (length k).
        vectors: Ritz vectors as an ``n x k`` Dense on the operator's
            executor.
        residual_norms: ``||A y_i - theta_i y_i||`` per Ritz pair.
    """

    values: np.ndarray
    vectors: Dense
    residual_norms: np.ndarray


def orthonormalize(basis: Dense) -> Dense:
    """Orthonormalise the columns of a Dense block.

    Column by column, GMRES's fused Gram-Schmidt pass
    (``GmresRecurrence._orthogonalize``) runs twice (CGS2) against the
    columns before it, over a stacked view of the block, so the work is
    charged to the owning executor.
    """
    out = Dense(basis.executor, basis._data)
    block = out._data[None]
    for j in range(out.size.cols):
        v = Dense._wrap(out.executor, out._data[:, j : j + 1])
        # Two passes (CGS2); none against the empty block before column 0.
        coeffs = sum(
            GmresRecurrence._orthogonalize(block, v, j) for _ in range(2 if j else 0)
        )
        norm = float(v.compute_norm2()[0])
        if norm <= BREAKDOWN_RTOL * np.hypot(norm, np.linalg.norm(coeffs)):
            raise GinkgoError(
                f"orthonormalize: column {j} is (numerically) linearly "
                "dependent on the previous columns"
            )
        v.scale(1.0 / norm)
    return out


def rayleigh_ritz(operator: LinOp, basis: Dense, orthonormal: bool = False) -> RitzPairs:
    """Extract Ritz approximations of ``operator`` from ``span(basis)``.

    Args:
        operator: Symmetric LinOp A (n x n).
        basis: ``n x k`` Dense whose columns span the trial subspace.
        orthonormal: Set when the basis columns are already orthonormal to
            skip the Gram-Schmidt pass.

    Returns:
        :class:`RitzPairs` with ascending Ritz values.
    """
    if not operator.size.is_square:
        raise GinkgoError(
            f"Rayleigh-Ritz needs a square operator, got {operator.size}"
        )
    if basis.size.rows != operator.size.rows:
        raise GinkgoError(
            f"basis has {basis.size.rows} rows for an "
            f"{operator.size.rows}-dimensional operator"
        )
    exec_ = operator.executor
    v = basis if orthonormal else orthonormalize(basis)
    k = v.size.cols

    # Projected operator S = V^T (A V), built column-wise with applies.
    av = Dense.empty(exec_, v.size, v.dtype)
    operator.apply(v, av)
    vt = v.transpose()
    s = Dense.empty(exec_, (k, k), v.dtype)
    vt.apply(av, s)

    # Small dense symmetric eigenproblem on the host.
    s_host = s.to_numpy().astype(np.float64)
    s_host = 0.5 * (s_host + s_host.T)  # symmetrise away roundoff
    theta, y = np.linalg.eigh(s_host)

    # Ritz vectors: X = V Y via the engine's dense mat-mat apply.
    y_op = Dense(exec_, y.astype(v.dtype))
    ritz_vectors = Dense.empty(exec_, v.size, v.dtype)
    v.apply(y_op, ritz_vectors)

    # Residuals ||A x_i - theta_i x_i||.
    residual = Dense.empty(exec_, v.size, v.dtype)
    operator.apply(ritz_vectors, residual)
    residual.add_scaled(-theta.astype(np.float64), ritz_vectors)
    res_norms = residual.compute_norm2()

    return RitzPairs(
        values=theta,
        vectors=ritz_vectors,
        residual_norms=np.asarray(res_norms, dtype=np.float64),
    )


def rayleigh_ritz_eigensolver(
    operator: LinOp,
    num_eigenpairs: int,
    num_iterations: int = 20,
    subspace_factor: int = 2,
    seed: int = 0,
    tol: float | None = None,
) -> RitzPairs:
    """Subspace-iteration eigensolver built on Rayleigh-Ritz extraction.

    Repeatedly applies the operator to the last Ritz vectors (an
    orthonormal block) and extracts Ritz pairs from the image — a
    pure-Python advanced eigensolver composed entirely of engine
    primitives (the paper's "ongoing development" use case for the Python
    layer).

    Args:
        operator: Symmetric LinOp.
        num_eigenpairs: Number of (largest-magnitude) eigenpairs to return.
        num_iterations: Subspace iteration count.
        subspace_factor: Subspace size = factor * num_eigenpairs.
        seed: Seed for the random initial block.
        tol: Optional early-exit tolerance on the max Ritz residual.

    Returns:
        :class:`RitzPairs` restricted to the ``num_eigenpairs`` dominant
        pairs (ascending by value).
    """
    n = operator.size.rows
    if not 1 <= num_eigenpairs <= n:
        raise GinkgoError(
            f"num_eigenpairs must be in [1, {n}] (the operator's size), "
            f"got {num_eigenpairs}"
        )
    if num_iterations < 1:
        raise GinkgoError(f"num_iterations must be >= 1, got {num_iterations}")
    k = min(max(num_eigenpairs * subspace_factor, num_eigenpairs + 2), n)
    rng = np.random.default_rng(seed)
    exec_ = operator.executor
    block = Dense(exec_, rng.standard_normal((n, k)))

    for _ in range(num_iterations):
        out = Dense.empty(exec_, block.size, block.dtype)
        operator.apply(block, out)
        pairs = rayleigh_ritz(operator, out)
        # The Ritz vectors are an orthonormal basis of span(out).
        block = pairs.vectors
        if tol is not None and float(np.max(pairs.residual_norms)) < tol:
            break

    # Keep the num_eigenpairs of largest magnitude, reported ascending.
    order = np.argsort(np.abs(pairs.values))[::-1][:num_eigenpairs]
    order = order[np.argsort(pairs.values[order])]
    vectors = Dense(exec_, pairs.vectors._data[:, order])
    return RitzPairs(
        values=pairs.values[order],
        vectors=vectors,
        residual_norms=pairs.residual_norms[order],
    )
