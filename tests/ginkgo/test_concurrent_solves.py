"""Thread-safety regression tests for solves driven from caller threads.

The library starts no threads of its own (executor thread counts and
service workers are modelled on the simulated clock), but callers may
run solves, or whole ``SolverService.run()`` streams, on their own
threads.  Everything those threads share — workspace pools, cachestats
counters, the dispatch table, the device cache, and a common metrics
registry — must stay consistent under concurrency, and solutions must
remain byte-identical to their single-threaded counterparts.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

import repro as pg
from repro.bindings import dispatch
from repro.core.resilient import FallbackChain, resilient_solve
from repro.ginkgo import cachestats
from repro.ginkgo.log.metrics import MetricsRegistry
from repro.ginkgo.matrix import Csr
from repro.ginkgo.matrix.dense import Dense
from repro.ginkgo.solver.workspace import Workspace


def _spd(n, shift=0.0):
    return sp.diags(
        [-np.ones(n - 1), (4.0 + shift) * np.ones(n), -np.ones(n - 1)],
        [-1, 0, 1],
        format="csr",
    )


def _solve(shift, metrics=None):
    """One scalar CG solve on its own fresh device."""
    dev = pg.device("reference", fresh=True)
    n = 32
    mtx = Csr.from_scipy(dev, _spd(n, shift))
    b = Dense.create(dev, np.linspace(1.0, 2.0, n).reshape(-1, 1))
    _, x = resilient_solve(
        dev, mtx, b, solver="cg", max_iters=200, reduction_factor=1e-9,
        fallback=FallbackChain(dev), metrics=metrics,
    )
    return np.array(pg.to_numpy(x), copy=True)


class TestConcurrentSolves:
    def test_threaded_solves_match_serial(self):
        shifts = [0.25 * i for i in range(12)]
        serial = [_solve(s) for s in shifts]
        metrics = MetricsRegistry()
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(
                pool.map(lambda s: _solve(s, metrics=metrics), shifts)
            )
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)
        # The shared registry saw every solve exactly once.
        assert metrics.counter("solves").value == len(shifts)
        assert metrics.counter("solves_converged").value == len(shifts)

    def test_workspace_pool_consistent_under_contention(self, ref):
        ws = Workspace(ref)
        num_threads, rounds = 8, 50

        def worker(tid):
            buffers = []
            for r in range(rounds):
                buf = ws.dense(f"slot{tid}", (16, 1), np.float64, zero=True)
                assert not np.any(buf._data)  # zeroed on every acquisition
                buf._data.fill(tid + 1)
                buffers.append(buf)
            # Per-slot pooling: every acquisition of a slot returns the
            # same storage, and no other thread's fill leaked into it.
            assert all(b._data is buffers[0]._data for b in buffers)
            assert np.all(buffers[0]._data == tid + 1)
            return True

        cachestats.reset()
        with ThreadPoolExecutor(max_workers=num_threads) as pool:
            assert all(pool.map(worker, range(num_threads)))
        hits, misses = cachestats.counts("workspace")
        # One miss per slot, every other acquisition a hit — no double
        # misses from racing threads leaking buffers.
        assert misses == num_threads
        assert hits == num_threads * (rounds - 1)

    def test_dispatch_resolve_threaded(self, ref):
        dispatch.clear()

        def resolve_many(_):
            return [
                dispatch.resolve("csr", np.float64, np.int32)
                for _ in range(20)
            ]

        with ThreadPoolExecutor(max_workers=8) as pool:
            batches = list(pool.map(resolve_many, range(8)))
        kernels = {id(k) for batch in batches for k in batch}
        assert len(kernels) == 1  # every thread saw the same cached kernel

    def test_real_pool_service_matches_sequential(self, ref):
        def stream():
            return pg.service.synthetic_workload(
                ref, num_jobs=16, num_patterns=2, small_n=24,
                mean_interarrival=1e-7, seed=7,
            )

        kwargs = dict(num_workers=4, coalesce=True, max_lane=8)
        sequential = pg.service.SolverService(**kwargs).run(stream())
        streams = [stream(), stream()]
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(
                pool.map(
                    lambda jobs: pg.service.SolverService(**kwargs).run(jobs),
                    streams,
                )
            )
        # Contract: byte-identical solutions and statuses; virtual
        # timings may differ in the last digits under true concurrency.
        for threaded in runs:
            assert [r.status for r in threaded] == [
                r.status for r in sequential
            ]
            for a, b in zip(sequential, threaded):
                np.testing.assert_array_equal(a.x, b.x)
