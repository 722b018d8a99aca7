"""The batched logger contract: ``BatchStatus`` arrays are the record.

A ``pg.batch`` handle attaches no logger to its solver; its
``ConvergenceLogger`` list is built from the solve's ``BatchStatus``
after each apply.  These tests pin that list, field for field, to the
loggers a caller attaches per system, and check that an unlistened
batched solve makes no logger call at all.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro as pg
from repro.ginkgo.log import ConvergenceLogger, Logger, RecordLogger
from repro.ginkgo.matrix import Csr

N = 48
MAX_ITERS = 25
REDUCTION = 1e-10


def _tridiag(n, diag):
    return sp.diags(
        [-np.ones(n - 1), diag * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
    ).tocsr()


def _fields(logger):
    return (
        logger.num_iterations,
        list(logger.residual_norms),
        logger.converged,
        logger.breakdown,
        repr(logger.final_residual_norm),
    )


def _five_kinds(seed):
    """One system per stopping kind: converges, zero rhs, NaN rhs, exact
    initial guess, capped by ``max_iters``."""
    rng = np.random.default_rng(seed)
    mats = [_tridiag(N, d) for d in (4.0, 4.0, 4.0, 4.0, 2.0)]
    exact = rng.integers(-4, 5, size=(N, 1)).astype(np.float64)
    rhs = [rng.standard_normal((N, 1)) for _ in mats]
    rhs[1][:] = 0.0
    rhs[2][N // 3] = np.nan
    rhs[3] = mats[3] @ exact
    guesses = [np.zeros((N, 1)) for _ in mats]
    guesses[3] = exact
    return mats, rhs, guesses


def _attached(handle):
    loggers = [ConvergenceLogger() for _ in range(handle.num_systems)]
    for k, logger in enumerate(loggers):
        handle.solver.add_system_logger(k, logger)
    return loggers


@pytest.fixture
def dev():
    return pg.device("reference", fresh=True)


class TestLoggersFromStatus:
    @pytest.mark.parametrize("method", sorted(pg.batch.SOLVERS))
    def test_every_stopping_kind_matches_an_attached_logger(self, dev, method):
        mats, rhs, guesses = _five_kinds(seed=3)
        handle = pg.batch.SOLVERS[method](
            dev, pg.batch.matrices(dev, mats),
            max_iters=MAX_ITERS, reduction_factor=REDUCTION,
        )
        attached = _attached(handle)
        x = pg.batch.vectors(dev, guesses)
        loggers, _ = handle.apply(pg.batch.vectors(dev, rhs), x)
        assert loggers is handle.loggers
        status = handle.status
        assert status.converged[0] and not status.breakdown[0]
        assert status.converged[1] and status.num_iterations[1] == 0
        assert status.breakdown[2] and not status.converged[2]
        assert status.converged[3] and status.num_iterations[3] == 0
        assert not status.converged[4]
        assert status.num_iterations[4] == MAX_ITERS
        assert [type(logger) for logger in loggers] == [ConvergenceLogger] * 5
        first = [_fields(logger) for logger in loggers]
        assert first == [_fields(logger) for logger in attached]

        # A second solve with another rhs rebuilds the list for it.
        rhs2 = [2.0 * b for b in rhs]
        x2 = pg.batch.vectors(dev, guesses)
        loggers2, _ = handle.apply(pg.batch.vectors(dev, rhs2), x2)
        assert loggers2 is handle.loggers
        second = [_fields(logger) for logger in loggers2]
        assert second == [_fields(logger) for logger in attached]
        assert second[0] != first[0]

    def test_exact_solution_stop_keeps_the_last_logged_norm(self, dev):
        # On I with b = (1, 2) each two-step GMRES cycle leaves a
        # round-off residual estimate; the second restart reads the true
        # residual as exactly zero at the iteration its last check logged.
        # Only max_iters stops the other system.
        mats = [sp.identity(2, format="csr"), sp.diags([1.0, 3.0]).tocsr()]
        rhs = [np.array([[1.0], [2.0]]), np.array([[1.0], [1.0]])]
        handle = pg.batch.gmres(
            dev, pg.batch.matrices(dev, mats),
            max_iters=6, reduction_factor=None, krylov_dim=2,
        )
        attached = _attached(handle)
        x = pg.batch.zeros_like(pg.batch.vectors(dev, rhs))
        loggers, _ = handle.apply(pg.batch.vectors(dev, rhs), x)
        status = handle.status
        assert status.num_iterations[0] == 4 and not status.converged[0]
        assert status.final_residual_norm[0] == 0.0
        assert loggers[0].final_residual_norm == status.residual_norms[0][-1]
        assert loggers[0].final_residual_norm > 0.0
        assert [_fields(logger) for logger in loggers] == [
            _fields(logger) for logger in attached
        ]


def _lockstep_batch(num_systems=128, n=64, seed=11):
    rng = np.random.default_rng(seed)
    mats = []
    for k in range(num_systems):
        mat = _tridiag(n, 4.0)
        mat.setdiag(
            2.0 + (0.01 + 2.0 * k / num_systems) * (1.0 + rng.random(n))
        )
        mat.sort_indices()
        mats.append(mat.tocsr())
    rhs = [rng.standard_normal((n, 1)) for _ in mats]
    return mats, rhs


def _event_key(event):
    name, _, payload = event
    norm = payload.get("residual_norm")
    return (
        name,
        payload.get("iteration"),
        payload.get("stopped"),
        None if norm is None else float(np.max(norm)),
    )


class TestUnlistenedIteration:
    def test_unlistened_batch_makes_no_logger_call(self, dev, monkeypatch):
        calls = []
        for cls in (Logger, ConvergenceLogger):
            for name, handler in list(vars(cls).items()):
                if name.startswith("on_"):
                    def counted(self, *args, _h=handler, _n=name, **kwargs):
                        calls.append(_n)
                        return _h(self, *args, **kwargs)

                    monkeypatch.setattr(cls, name, counted)
        mats, rhs = _lockstep_batch()
        bm = pg.batch.matrices(dev, mats)
        handle = pg.batch.cg(
            dev, bm, pg.batch.jacobi(dev, bm),
            max_iters=500, reduction_factor=REDUCTION,
        )
        b = pg.batch.vectors(dev, rhs)
        handle.apply(b, pg.batch.zeros_like(b))
        assert handle.all_converged
        assert calls == []
        # Reading the loggers builds them without replaying events.
        assert len(handle.loggers) == 128
        assert calls == []

    @pytest.mark.parametrize("method", ["cg", "gmres"])
    def test_one_listened_system_sees_its_scalar_solve(self, dev, method):
        mats, rhs = _lockstep_batch(num_systems=16, seed=5)
        k = 9
        handle = getattr(pg.batch, method)(
            dev, pg.batch.matrices(dev, mats),
            max_iters=500, reduction_factor=REDUCTION,
        )
        batch_record = RecordLogger()
        handle.solver.add_system_logger(k, batch_record)
        b = pg.batch.vectors(dev, rhs)
        x = pg.batch.zeros_like(b)
        handle.apply(b, x)

        mtx = Csr.from_scipy(dev, mats[k])
        scalar = getattr(pg.solver, method)(
            dev, mtx, max_iters=500, reduction_factor=REDUCTION
        )
        scalar_record = RecordLogger()
        scalar.solver.add_logger(scalar_record)
        xs = pg.as_tensor(np.zeros((mats[k].shape[0], 1)), device=dev)
        scalar.apply(pg.as_tensor(rhs[k], device=dev), xs)

        got = [_event_key(e) for e in batch_record.events]
        want = [_event_key(e) for e in scalar_record.events]
        assert got == want
        assert len(got) > 3
        assert np.array_equal(x.data[k], xs.numpy())
