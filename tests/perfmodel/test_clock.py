"""Simulated-clock tests."""

import numpy as np
import pytest

from repro.perfmodel import (
    INTEL_XEON_8368,
    NVIDIA_A100,
    KernelCost,
    SimClock,
    spmv_cost,
)


def _clock(**kwargs) -> SimClock:
    kwargs.setdefault("noisy", False)
    return SimClock(NVIDIA_A100, **kwargs)


class TestSimClock:
    def test_record_advances_time(self):
        clock = _clock()
        cost = spmv_cost("csr", 1000, 1000, 10000, 4, 4)
        before = clock.now
        duration = clock.record(cost)
        assert clock.now == pytest.approx(before + duration)
        assert duration > 0

    def test_noiseless_is_deterministic(self):
        cost = spmv_cost("csr", 1000, 1000, 10000, 4, 4)
        a = _clock().record(cost)
        b = _clock().record(cost)
        assert a == b

    def test_noise_is_reproducible_per_seed(self):
        cost = spmv_cost("csr", 1000, 1000, 10000, 4, 4)
        a = SimClock(NVIDIA_A100, seed=7).record(cost)
        b = SimClock(NVIDIA_A100, seed=7).record(cost)
        c = SimClock(NVIDIA_A100, seed=8).record(cost)
        assert a == b
        assert a != c

    def test_launch_latency_dominates_tiny_kernels(self):
        clock = _clock()
        tiny = clock.kernel_time(KernelCost("k", flops=2, bytes=16, launches=1))
        assert tiny >= NVIDIA_A100.launch_latency

    def test_bandwidth_bound_scaling(self):
        # Doubling the bytes of a large kernel ~doubles its time.
        clock = _clock()
        t1 = clock.kernel_time(KernelCost("k", 0, 1e9, launches=1))
        t2 = clock.kernel_time(KernelCost("k", 0, 2e9, launches=1))
        assert t2 / t1 == pytest.approx(2.0, rel=0.05)

    def test_counters_accumulate(self):
        clock = _clock()
        cost = spmv_cost("csr", 100, 100, 1000, 4, 4)
        clock.record(cost)
        clock.record(cost)
        assert clock.flops_done == 2 * cost.flops
        assert clock.bytes_moved == 2 * cost.bytes
        assert clock.kernel_count == 2 * cost.launches

    def test_reset(self):
        clock = _clock()
        clock.record(spmv_cost("csr", 100, 100, 1000, 4, 4))
        clock.reset()
        assert clock.now == 0.0
        assert clock.kernel_count == 0
        assert not clock.events

    def test_event_log_disabled_by_default(self):
        clock = _clock()
        clock.record(spmv_cost("csr", 100, 100, 1000, 4, 4))
        assert clock.events == []

    def test_event_log_records_details(self):
        clock = _clock()
        clock.enable_event_log()
        cost = spmv_cost("csr", 100, 100, 1000, 4, 4)
        clock.record(cost)
        (event,) = clock.events
        assert event.name == "spmv_csr"
        assert event.end == pytest.approx(event.start + event.duration)
        assert event.gflops > 0

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            _clock().advance(-1.0)

    def test_region_measures_span(self):
        clock = _clock()
        with clock.region() as span:
            clock.record(spmv_cost("csr", 100, 100, 1000, 4, 4))
            clock.record(spmv_cost("csr", 100, 100, 1000, 4, 4))
        assert span.elapsed == pytest.approx(clock.now)

    def test_synchronize_uses_library_sync_overhead(self):
        clock = SimClock(NVIDIA_A100, library="cupy", noisy=False)
        before = clock.now
        clock.synchronize()
        assert clock.now - before == pytest.approx(
            clock.library.sync_overhead
        )

    def test_single_threaded_library_uses_one_core(self):
        cost = spmv_cost("csr", 100000, 100000, 1000000, 4, 4)
        scipy_clock = SimClock(
            INTEL_XEON_8368, library="scipy", num_threads=32, noisy=False
        )
        ginkgo_clock = SimClock(
            INTEL_XEON_8368, library="ginkgo", num_threads=32, noisy=False
        )
        # SciPy ignores the 32 threads; Ginkgo uses them.
        assert scipy_clock.kernel_time(cost) > 5 * ginkgo_clock.kernel_time(cost)


#: The (spec, library, num_threads) combinations the tests above build.
CLOCK_MODELS = [
    (NVIDIA_A100, "ginkgo", None),
    (NVIDIA_A100, "cupy", None),
    (INTEL_XEON_8368, "scipy", 32),
    (INTEL_XEON_8368, "ginkgo", 32),
]
MEMO_COSTS = [
    spmv_cost("csr", 1000, 1000, 10000, 4, 4),
    spmv_cost("csr", 100000, 100000, 1000000, 4, 4),
    KernelCost("k", flops=2, bytes=16, launches=1),
    KernelCost("k", 0, 1e9, launches=1),
    KernelCost("k", 0, 1e9, launches=4),
    KernelCost("half", 1e6, 1e6, launches=3, dtype_name="float16"),
    # Same flops/bytes/launches, different dtype: the key must tell them apart.
    KernelCost("k", 1e12, 8.0, dtype_name="float32"),
    KernelCost("k", 1e12, 8.0, dtype_name="float64"),
]


class TestKernelTimeMemo:
    @pytest.mark.parametrize(
        "spec, library, threads", CLOCK_MODELS,
        ids=[f"{s.name}-{lib}-{t}" for s, lib, t in CLOCK_MODELS],
    )
    def test_memo_equals_roofline_formula(self, spec, library, threads):
        clock = SimClock(spec, library=library, num_threads=threads, noisy=False)
        for cost in MEMO_COSTS:
            expected = clock._roofline_time(cost)
            assert clock.kernel_time(cost) == expected  # miss
            assert clock.kernel_time(cost) == expected  # hit
            renamed = KernelCost(
                "other", cost.flops, cost.bytes, cost.launches, cost.dtype_name
            )
            assert clock.kernel_time(renamed) == expected

    def test_memo_is_per_clock(self):
        cost = MEMO_COSTS[0]
        gpu = SimClock(NVIDIA_A100, noisy=False)
        cpu = SimClock(INTEL_XEON_8368, num_threads=32, noisy=False)
        assert gpu.kernel_time(cost) != cpu.kernel_time(cost)
        assert cpu.kernel_time(cost) == cpu._roofline_time(cost)

    def test_memo_stays_within_bound(self, monkeypatch):
        monkeypatch.setattr(SimClock, "KERNEL_TIME_MEMO_SIZE", 8)
        clock = _clock()
        for n in range(1, 50):
            cost = KernelCost("k", flops=n, bytes=8.0 * n)
            assert clock.record(cost) == clock._roofline_time(cost)
            assert len(clock._kernel_times) <= 8
