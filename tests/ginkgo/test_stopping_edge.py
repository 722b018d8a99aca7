"""Degenerate stopping cases: zero RHS, exact initial guess, odd layouts.

A zero right-hand side makes the relative-residual baseline zero; the
criterion clamps it to 1.0 so the check is well defined and the solver
stops at iteration 0 instead of dividing by zero.  An exact initial guess
gives a zero initial residual with a nonzero baseline — also iteration 0.
Every solver (scalar and batched) must handle both without breakdown.

A singular, inconsistent system has no solution: every solver must end
with ``breakdown`` or an honest ``converged=False``, a finite ``x`` and a
finite residual norm no smaller than the true residual's lower bound —
and a solver reused for it must not report the previous apply's verdict.

An exact solution reached under an iteration-only criterion: a solver
that stops itself there records its own verdict and logs every iteration
once, and a batched solve matches the scalar one.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ginkgo.batch import (
    BatchBicgstab,
    BatchCg,
    BatchCsr,
    BatchDense,
    BatchGmres,
)
from repro.ginkgo.log import ConvergenceLogger
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.solver import (
    Bicg,
    Bicgstab,
    CbGmres,
    Cg,
    Cgs,
    Fcg,
    Gmres,
    Idr,
    Ir,
    Minres,
)
from repro.ginkgo.stop import Iteration, ResidualNorm

SCALAR_SOLVERS = {
    "cg": Cg,
    "fcg": Fcg,
    "cgs": Cgs,
    "bicg": Bicg,
    "bicgstab": Bicgstab,
    "gmres": Gmres,
    "cb_gmres": CbGmres,
    "idr": Idr,
    "minres": Minres,
    "ir": Ir,
}

BATCH_SOLVERS = {
    "batch_cg": BatchCg,
    "batch_bicgstab": BatchBicgstab,
    "batch_gmres": BatchGmres,
}


def crit():
    return Iteration(100) | ResidualNorm(1e-9, baseline="rhs_norm")


def spd(n=24):
    return sp.diags(
        [-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
    ).tocsr()


def singular_probe(n=50):
    """``diag(linspace(1, 3, n))`` with its last entry zeroed, and two RHS.

    The first is consistent (supported where Richardson also converges);
    the second, ``e_{n-1}``, lies outside the range: no ``x`` gets the
    residual below 1.
    """
    diag = np.linspace(1.0, 3.0, n)
    diag[-1] = 0.0
    consistent = np.zeros((n, 1))
    consistent[:10, 0] = diag[:10]
    inconsistent = np.zeros((n, 1))
    inconsistent[-1, 0] = 1.0
    return sp.diags(diag).tocsr(), consistent, inconsistent


def exact_probe(n=12):
    """``diag(2 + arange(n)/n)`` with ``b = e_0``: one step makes x exact.

    Solved under an iteration limit only, so no criterion stops the
    solve when the residual reaches zero; GMRES, CB-GMRES (``krylov_dim``
    5, :func:`probe_params`), MINRES and IDR stop themselves instead.
    """
    rhs = np.zeros((n, 1))
    rhs[0, 0] = 1.0
    return sp.diags(2.0 + np.arange(n) / n).tocsr(), rhs


def probe_params(name):
    return {"krylov_dim": 5} if "gmres" in name else {}


@pytest.mark.parametrize("name", sorted(SCALAR_SOLVERS), ids=str)
class TestScalarStopping:
    def test_zero_rhs_stops_at_iteration_zero(self, ref, name):
        mat = Csr.from_scipy(ref, spd())
        solver = SCALAR_SOLVERS[name](ref, criteria=crit()).generate(mat)
        b = Dense(ref, np.zeros((24, 1)))
        x = Dense(ref, np.zeros((24, 1)))
        solver.apply(b, x)
        assert solver.converged
        assert not solver.breakdown
        assert solver.num_iterations == 0
        assert solver.final_residual_norm == 0.0
        assert (x._data == 0.0).all()

    def test_exact_initial_guess_stops_at_iteration_zero(self, ref, rng, name):
        mat = spd()
        exact = rng.standard_normal((24, 1))
        b = mat @ exact
        solver = SCALAR_SOLVERS[name](
            ref, criteria=crit()
        ).generate(Csr.from_scipy(ref, mat))
        x = Dense(ref, exact.copy())
        logger = ConvergenceLogger()
        solver.add_logger(logger)
        solver.apply(Dense(ref, b), x)
        assert solver.converged
        assert solver.num_iterations == 0
        # Iteration 0 is the only logged residual, and the guess survives
        # untouched.
        assert len(logger.residual_norms) == 1
        np.testing.assert_array_equal(x._data, exact)

    def test_singular_inconsistent_system_reported_honestly(self, ref, name):
        mat, consistent, inconsistent = singular_probe()
        solver = SCALAR_SOLVERS[name](ref, criteria=crit()).generate(
            Csr.from_scipy(ref, mat)
        )
        x = Dense(ref, np.zeros_like(consistent))
        solver.apply(Dense(ref, consistent), x)
        assert solver.converged
        # The same solver again: this apply's verdict, not the last one's.
        x = Dense(ref, np.zeros_like(inconsistent))
        solver.apply(Dense(ref, inconsistent), x)
        solution = np.asarray(x)
        assert np.isfinite(solution).all()
        assert not solver.converged
        assert solver.num_iterations <= 100
        assert np.isfinite(solver.final_residual_norm)
        assert solver.final_residual_norm >= 1.0 - 1e-12
        assert np.linalg.norm(inconsistent - mat @ solution) >= 1.0 - 1e-12

    def test_exact_solution_stops_with_a_verdict(self, ref, name):
        mat, b = exact_probe()
        solver = SCALAR_SOLVERS[name](
            ref, criteria=Iteration(12), **probe_params(name)
        ).generate(Csr.from_scipy(ref, mat))
        logger = ConvergenceLogger()
        solver.add_logger(logger)
        solver.apply(Dense(ref, b), Dense(ref, np.zeros_like(b)))
        history = logger.residual_norms
        # Every iteration is logged once, and the verdict is the last.
        assert len(history) == solver.num_iterations + 1
        assert solver.final_residual_norm == history[-1]
        assert not solver.breakdown
        assert not solver.converged
        if name in ("gmres", "cb_gmres", "minres", "idr"):
            assert history == [1.0, 0.0]


@pytest.mark.parametrize("name", sorted(BATCH_SOLVERS), ids=str)
class TestBatchStopping:
    def test_zero_rhs_converges_every_system(self, ref, name):
        n, K = 16, 4
        mat = BatchCsr.from_scipy_list(ref, [spd(n) for _ in range(K)])
        solver = BATCH_SOLVERS[name](ref, criteria=crit()).generate(mat)
        b = BatchDense.zeros(ref, K, (n, 1), np.float64)
        x = BatchDense.zeros(ref, K, (n, 1), np.float64)
        solver.apply(b, x)
        status = solver.status
        assert status.all_converged
        assert (status.num_iterations == 0).all()
        assert (x._data == 0.0).all()

    def test_exact_initial_guess_converges_every_system(self, ref, rng, name):
        n, K = 16, 4
        mats = [spd(n) for _ in range(K)]
        mat = BatchCsr.from_scipy_list(ref, mats)
        exact = [rng.standard_normal((n, 1)) for _ in range(K)]
        b = BatchDense.from_dense_list(
            ref, [m @ e for m, e in zip(mats, exact)]
        )
        solver = BATCH_SOLVERS[name](ref, criteria=crit()).generate(mat)
        x = BatchDense.from_dense_list(ref, exact)
        solver.apply(b, x)
        status = solver.status
        assert status.all_converged
        assert (status.num_iterations == 0).all()
        np.testing.assert_array_equal(x._data, np.stack(exact))

    def test_mixed_trivial_and_real_systems(self, ref, rng, name):
        # System 0 has a zero RHS, the rest need real work; the masked
        # stopping logic must retire system 0 at iteration 0 only.
        n, K = 16, 3
        mats = [spd(n) for _ in range(K)]
        mat = BatchCsr.from_scipy_list(ref, mats)
        rhs = [np.zeros((n, 1))] + [
            rng.standard_normal((n, 1)) for _ in range(K - 1)
        ]
        solver = BATCH_SOLVERS[name](ref, criteria=crit()).generate(mat)
        x = BatchDense.zeros(ref, K, (n, 1), np.float64)
        solver.apply(BatchDense.from_dense_list(ref, rhs), x)
        status = solver.status
        assert status.all_converged
        assert status.num_iterations[0] == 0
        assert (status.num_iterations[1:] > 0).all()

    def test_singular_inconsistent_system_matches_scalar(self, ref, name):
        mat, consistent, inconsistent = singular_probe()
        batch = BATCH_SOLVERS[name](ref, criteria=crit()).generate(
            BatchCsr.from_scipy_list(ref, [mat, mat])
        )
        scalar = SCALAR_SOLVERS[name.removeprefix("batch_")](
            ref, criteria=crit()
        ).generate(Csr.from_scipy(ref, mat))
        rhs = [consistent, inconsistent]
        x = BatchDense.zeros(ref, 2, consistent.shape, np.float64)
        batch.apply(BatchDense.from_dense_list(ref, rhs), x)
        status = batch.status
        for k, b in enumerate(rhs):
            xs = Dense(ref, np.zeros_like(b))
            scalar.apply(Dense(ref, b), xs)
            assert status.converged[k] == scalar.converged
            assert status.breakdown[k] == scalar.breakdown
            assert status.num_iterations[k] == scalar.num_iterations
            assert status.final_residual_norm[k] == scalar.final_residual_norm
            assert x._data[k].tobytes() == xs._data.tobytes()
        assert status.converged[0] and not status.converged[1]
        assert np.isfinite(x._data).all()

    def test_exact_solution_verdict_matches_scalar(self, ref, name):
        # System 0 is the exact-solution probe; system 1 keeps iterating
        # beside it, so a batched GMRES stops system 0 alone.
        mat, b = exact_probe()
        scalar_name = name.removeprefix("batch_")
        rhs = [b, np.ones_like(b)]
        batch = BATCH_SOLVERS[name](
            ref, criteria=Iteration(12), **probe_params(name)
        ).generate(BatchCsr.from_scipy_list(ref, [mat, mat]))
        x = BatchDense.zeros(ref, 2, b.shape, np.float64)
        batch.apply(BatchDense.from_dense_list(ref, rhs), x)
        status = batch.status
        for k, b_k in enumerate(rhs):
            scalar = SCALAR_SOLVERS[scalar_name](
                ref, criteria=Iteration(12), **probe_params(name)
            ).generate(Csr.from_scipy(ref, mat))
            logger = ConvergenceLogger()
            scalar.add_logger(logger)
            xs = Dense(ref, np.zeros_like(b_k))
            scalar.apply(Dense(ref, b_k), xs)
            assert status.residual_norms[k] == logger.residual_norms
            assert status.num_iterations[k] == scalar.num_iterations
            assert status.final_residual_norm[k] == scalar.final_residual_norm
            assert status.converged[k] == scalar.converged
            assert status.breakdown[k] == scalar.breakdown
            assert x._data[k].tobytes() == xs._data.tobytes()
        assert not status.breakdown[0] and not status.converged[0]
        assert status.final_residual_norm[0] == 0.0


class TestArrayLayouts:
    """Fortran-order and non-contiguous inputs must behave like C-order."""

    def test_fortran_order_dense_matches_c_order(self, ref, rng):
        arr = rng.standard_normal((20, 3))
        c = Dense(ref, arr)
        f = Dense(ref, np.asfortranarray(arr))
        assert f._data.flags["C_CONTIGUOUS"]
        assert f._data.tobytes() == c._data.tobytes()

    def test_noncontiguous_dense_matches_contiguous(self, ref, rng):
        arr = rng.standard_normal((40, 6))
        sliced = arr[::2, ::2]
        assert not sliced.flags["C_CONTIGUOUS"]
        d = Dense(ref, sliced)
        assert d._data.flags["C_CONTIGUOUS"]
        assert d._data.tobytes() == np.ascontiguousarray(sliced).tobytes()

    def test_solve_with_fortran_order_rhs(self, ref, rng):
        mat = spd()
        exact = rng.standard_normal((24, 1))
        b = mat @ exact

        def solve(rhs_arr, guess_arr):
            solver = Cg(ref, criteria=crit()).generate(
                Csr.from_scipy(ref, mat)
            )
            x = Dense(ref, guess_arr)
            solver.apply(Dense(ref, rhs_arr), x)
            return solver, x._data.copy()

        s_c, x_c = solve(b, np.zeros((24, 1)))
        s_f, x_f = solve(
            np.asfortranarray(b), np.asfortranarray(np.zeros((24, 1)))
        )
        assert s_f.num_iterations == s_c.num_iterations
        assert x_f.tobytes() == x_c.tobytes()

    def test_solve_with_strided_rhs(self, ref, rng):
        mat = spd()
        wide = rng.standard_normal((24, 4))
        strided = wide[:, ::3]  # (24, 2) with a column stride
        assert not strided.flags["C_CONTIGUOUS"]

        solver = Cg(ref, criteria=crit()).generate(Csr.from_scipy(ref, mat))
        x = Dense(ref, np.zeros((24, 2)))
        solver.apply(Dense(ref, strided), x)
        assert solver.converged

        reference = Cg(ref, criteria=crit()).generate(
            Csr.from_scipy(ref, mat)
        )
        xr = Dense(ref, np.zeros((24, 2)))
        reference.apply(Dense(ref, np.ascontiguousarray(strided)), xr)
        assert x._data.tobytes() == xr._data.tobytes()
