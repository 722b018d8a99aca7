"""Cache hit/miss counters through pg.profile and the resilient path."""

import numpy as np
import pytest

import repro as pg
from repro.bindings import dispatch
from repro.core.resilient import FallbackChain, RetryPolicy, resilient_solve
from repro.ginkgo import (
    CudaExecutor,
    FaultInjector,
    FaultyExecutor,
    cachestats,
)
from repro.ginkgo.matrix import Csr
from repro.suitesparse.generators import spd_random

N = 200


def _system(seed=3):
    A = spd_random(N, 0.03, seed=seed)
    b = np.random.default_rng(7).standard_normal((N, 1))
    return A, b


class TestProfileMetrics:
    def test_profile_receives_cache_counters(self):
        A, b_np = _system()
        dev = CudaExecutor.create(noisy=False)
        mtx = Csr.from_scipy(dev, A)
        b = pg.as_tensor(device=dev, data=b_np)
        metrics = pg.MetricsRegistry()
        with pg.profile(metrics=metrics):
            handle = pg.solver.cg(dev, mtx, max_iters=400)
            handle.apply(b, pg.as_tensor(device=dev, dim=(N, 1)))
            handle.apply(b, pg.as_tensor(device=dev, dim=(N, 1)))
        assert metrics.counter("cache_workspace_miss").value > 0
        assert metrics.counter("cache_workspace_hit").value > 0
        assert metrics.counter("cache_dispatch_miss").value > 0
        # The registry mirrors the module-global tallies for the region.
        hits, _ = cachestats.counts("workspace")
        assert metrics.counter("cache_workspace_hit").value <= hits

    def test_sink_detaches_after_region(self):
        metrics = pg.MetricsRegistry()
        with pg.profile(metrics=metrics):
            pass
        before = metrics.counter("cache_workspace_miss").value
        dev = CudaExecutor.create(noisy=False)
        ws_probe = pg.as_tensor(device=dev, dim=(4, 1))  # outside the region
        assert ws_probe is not None
        assert metrics.counter("cache_workspace_miss").value == before

    def test_snapshot_reports_all_kinds(self):
        cachestats.reset()
        cachestats.record("workspace", True)
        cachestats.record("format", False)
        snap = cachestats.snapshot()
        assert snap["cache_workspace_hit"] == 1
        assert snap["cache_format_miss"] == 1
        assert cachestats.counts("format") == (0, 1)


def _two_solves():
    """A fresh device, one handle, two solves: all three cache kinds."""
    A, b_np = _system()
    dev = CudaExecutor.create(noisy=False)
    mtx = Csr.from_scipy(dev, A)
    b = pg.as_tensor(device=dev, data=b_np)
    handle = pg.solver.cg(dev, mtx, max_iters=400)
    for _ in range(2):
        handle.apply(b, pg.as_tensor(device=dev, dim=(N, 1)))


class TestCountingOnlyPath:
    """With no sink and no traced clock, record() only counts."""

    def test_counts_identical_with_and_without_sink(self):
        _two_solves()
        plain = cachestats.snapshot()
        cachestats.reset()
        dispatch.clear()
        metrics = pg.MetricsRegistry()
        cachestats.register_sink(metrics)
        _two_solves()
        mirrored = cachestats.snapshot()
        assert mirrored == plain
        assert {"cache_workspace_hit", "cache_format_hit",
                "cache_dispatch_miss"} <= set(plain)
        for key, count in plain.items():
            assert metrics.counter(key).value == count

    def test_sink_registered_mid_run_sees_only_later_events(self):
        _two_solves()
        before = cachestats.snapshot()
        metrics = pg.MetricsRegistry()
        cachestats.register_sink(metrics)
        _two_solves()
        after = cachestats.snapshot()
        for key in after:
            assert metrics.counter(key).value == after[key] - before.get(key, 0)

    def test_unknown_kind_still_counted(self):
        cachestats.record("custom", True)
        cachestats.record("custom", False)
        assert cachestats.counts("custom") == (1, 1)


class TestNestedProfileMirroring:
    """Regression: registering the same registry from nested profile
    regions must not double-count events, and the inner region's exit
    must not detach the outer region's still-active sink."""

    def test_same_registry_nested_counts_once(self):
        metrics = pg.MetricsRegistry()
        with pg.profile(metrics=metrics):
            with pg.profile(metrics=metrics):
                cachestats.record("workspace", True)
            cachestats.record("workspace", True)  # outer still mirrors
        assert metrics.counter("cache_workspace_hit").value == 2

    def test_inner_exit_keeps_outer_sink_alive(self):
        metrics = pg.MetricsRegistry()
        with pg.profile(metrics=metrics):
            with pg.profile(metrics=metrics):
                pass
            assert cachestats.sink_count() == 1
            cachestats.record("format", False)
        assert cachestats.sink_count() == 0
        assert metrics.counter("cache_format_miss").value == 1
        cachestats.record("format", False)  # fully detached now
        assert metrics.counter("cache_format_miss").value == 1

    def test_distinct_registries_each_mirror(self):
        outer = pg.MetricsRegistry()
        inner = pg.MetricsRegistry()
        with pg.profile(metrics=outer):
            with pg.profile(metrics=inner):
                cachestats.record("dispatch", True)
        assert outer.counter("cache_dispatch_hit").value == 1
        assert inner.counter("cache_dispatch_hit").value == 1

    def test_unregister_is_refcounted_not_destructive(self):
        metrics = pg.MetricsRegistry()
        cachestats.register_sink(metrics)
        cachestats.register_sink(metrics)
        cachestats.unregister_sink(metrics)
        cachestats.record("workspace", False)
        assert metrics.counter("cache_workspace_miss").value == 1
        cachestats.unregister_sink(metrics)
        cachestats.record("workspace", False)
        assert metrics.counter("cache_workspace_miss").value == 1
        # extra unregisters are harmless no-ops
        cachestats.unregister_sink(metrics)
        assert cachestats.sink_count() == 0

    def test_profile_setup_failure_does_not_leak_sink(self):
        metrics = pg.MetricsRegistry()
        with pytest.raises(Exception):
            with pg.profile("no-such-device", metrics=metrics):
                pass  # pragma: no cover - profile() raises on entry
        assert cachestats.sink_count() == 0


class TestResilientInteraction:
    def test_retries_reuse_pool_and_match_fault_free(self):
        """Workspace pooling must survive retry loops unchanged."""
        A, b_np = _system()
        clean = CudaExecutor.create(noisy=False)
        mtx_c = Csr.from_scipy(clean, A)
        b_c = pg.as_tensor(device=clean, data=b_np)
        report0, x0 = resilient_solve(
            clean, mtx_c, b_c,
            solver="gmres", max_iters=600, reduction_factor=1e-9,
            fallback=FallbackChain(clean),
        )
        assert report0.converged

        injector = FaultInjector(seed=11, kernel_rate=0.002, copy_rate=0.002)
        faulty = FaultyExecutor.create(
            CudaExecutor.create(noisy=False), injector
        )
        with injector.paused():
            mtx_f = Csr.from_scipy(faulty, A)
            b_f = pg.as_tensor(device=faulty, data=b_np)
        report, x = resilient_solve(
            faulty, mtx_f, b_f,
            solver="gmres", max_iters=600, reduction_factor=1e-9,
            retry=RetryPolicy(max_retries=8),
            fallback=FallbackChain(faulty),
        )
        assert report.converged
        np.testing.assert_allclose(
            x.numpy(), x0.numpy(), rtol=1e-6, atol=1e-8
        )
