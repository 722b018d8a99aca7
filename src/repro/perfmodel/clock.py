"""Simulated device clock.

Each executor owns a :class:`SimClock` parameterised by a device spec and a
library profile.  Kernels report their abstract :class:`KernelCost`; the
clock converts the cost to seconds with the roofline formula, applies
deterministic measurement noise, advances virtual time, and logs the event.

Benchmark harnesses read time spans off the clock exactly like they would
call ``time.perf_counter()`` around a real kernel.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.perfmodel.kernels import KernelCost
from repro.perfmodel.libraries import LibraryProfile, get_library_profile
from repro.perfmodel.noise import NoiseModel
from repro.perfmodel.specs import DeviceSpec


@dataclass(frozen=True)
class KernelEvent:
    """One executed kernel as recorded by the clock."""

    name: str
    start: float
    duration: float
    flops: float
    bytes: float
    launches: int

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s of this event (0 for pure data movement).

        Zero-duration events that still performed work (fused/free
        kernels) report ``inf`` instead of silently returning 0, so
        aggregated tables can guard them rather than under-report.
        """
        if self.flops <= 0.0:
            return 0.0
        if self.duration <= 0.0:
            return float("inf")
        return self.flops / self.duration / 1e9


class SimClock:
    """Virtual clock that accumulates modeled kernel times.

    Args:
        spec: The device the kernels run on.
        library: Library profile name or instance; defaults to ``ginkgo``.
        num_threads: Modelled CPU thread count used for bandwidth and
            peak scaling (ignored for GPUs).
        seed: Seed for the deterministic noise model.
        noisy: Disable to make timings exactly reproducible analytic values
            (used by unit tests).

    Besides event logging, the clock supports *tracers*: observers
    (typically a :class:`~repro.ginkgo.log.ProfilerHook`) notified of
    every time advance, structural span push/pop, and annotation.
    Tracers implement any subset of ``on_clock_event(clock, category,
    name, start, duration, meta)``, ``on_span_push(clock, name, category,
    meta)``, ``on_span_pop(clock, meta)``, and ``on_clock_mark(clock,
    name, meta)``.  Tracers registered globally (on the class) observe
    every clock, including ones created after registration.
    """

    #: Tracers observing *all* clocks (see :meth:`add_global_tracer`).
    _global_tracers: list = []

    #: Entries kept in the per-clock :meth:`kernel_time` memo before it
    #: is cleared and refilled.
    KERNEL_TIME_MEMO_SIZE = 4096

    def __init__(
        self,
        spec: DeviceSpec,
        library: str | LibraryProfile = "ginkgo",
        num_threads: int | None = None,
        seed: int = 0,
        noisy: bool = True,
    ) -> None:
        self.spec = spec
        self.library = (
            library
            if isinstance(library, LibraryProfile)
            else get_library_profile(library)
        )
        self.num_threads = num_threads
        self.noise = NoiseModel(spec.noise_sigma if noisy else 0.0, seed=seed)
        self.now = 0.0
        self.events: list[KernelEvent] = []
        self.kernel_count = 0
        self.bytes_moved = 0.0
        self.flops_done = 0.0
        self._log_events = False
        self._tracers: list = []
        #: (flops, bytes, launches, dtype_name) -> noise-free seconds.
        #: ``spec``, ``library`` and ``num_threads`` are never reassigned
        #: after construction, so the roofline is a pure function of the
        #: cost signature for the lifetime of the clock.
        self._kernel_times: dict = {}

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def enable_event_log(self, enabled: bool = True) -> None:
        """Record individual :class:`KernelEvent` objects (off by default)."""
        self._log_events = enabled

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def add_tracer(self, tracer) -> None:
        """Attach a tracer observing this clock's events and spans."""
        self._tracers.append(tracer)

    def remove_tracer(self, tracer) -> None:
        self._tracers.remove(tracer)

    @classmethod
    def add_global_tracer(cls, tracer) -> None:
        """Attach a tracer observing every clock (existing and future)."""
        cls._global_tracers.append(tracer)

    @classmethod
    def remove_global_tracer(cls, tracer) -> None:
        cls._global_tracers.remove(tracer)

    @property
    def _traced(self) -> bool:
        return bool(self._tracers or SimClock._global_tracers)

    def is_traced_by(self, tracer) -> bool:
        """Whether ``tracer`` currently observes this clock."""
        return tracer in self._tracers or tracer in SimClock._global_tracers

    def _notify(self, method: str, *args) -> None:
        for tracer in self._tracers:
            handler = getattr(tracer, method, None)
            if handler is not None:
                handler(self, *args)
        for tracer in SimClock._global_tracers:
            handler = getattr(tracer, method, None)
            if handler is not None:
                handler(self, *args)

    def push_span(self, name: str, category: str = "region", **meta) -> None:
        """Open a structural span (no-op without tracers)."""
        if self._traced:
            self._notify("on_span_push", name, category, meta)

    def pop_span(self, **meta) -> None:
        """Close the innermost structural span (no-op without tracers)."""
        if self._traced:
            self._notify("on_span_pop", meta)

    def annotate(self, name: str, **meta) -> None:
        """Emit an instant marker at the current time (no-op untraced)."""
        if self._traced:
            self._notify("on_clock_mark", name, meta)

    def reset(self) -> None:
        """Zero the clock and counters and restart the noise sequence."""
        self.now = 0.0
        self.events.clear()
        self.kernel_count = 0
        self.bytes_moved = 0.0
        self.flops_done = 0.0
        self.noise.reset()

    # ------------------------------------------------------------------
    # modelling
    # ------------------------------------------------------------------
    def kernel_time(self, cost: KernelCost) -> float:
        """Noise-free modeled execution time of one kernel, in seconds.

        Memoised per cost signature (the kernel name does not enter the
        roofline); the memo is cleared when it reaches
        :attr:`KERNEL_TIME_MEMO_SIZE` entries.
        """
        key = (cost.flops, cost.bytes, cost.launches, cost.dtype_name)
        seconds = self._kernel_times.get(key)
        if seconds is None:
            seconds = self._roofline_time(cost)
            if len(self._kernel_times) >= self.KERNEL_TIME_MEMO_SIZE:
                self._kernel_times.clear()
            self._kernel_times[key] = seconds
        return seconds

    def _roofline_time(self, cost: KernelCost) -> float:
        """The unmemoised roofline formula behind :meth:`kernel_time`."""
        bandwidth = self.spec.effective_bandwidth(self.num_threads)
        bandwidth *= self.library.efficiency(self.spec.kind, cost.dtype_name)
        peak = self.spec.peak_flops_for(cost.dtype_name)
        region_factor = 1.0
        if self.spec.kind == "cpu" and self.library.parallel_cpu:
            threads = self.num_threads or self.spec.cores
            from repro.perfmodel.threads import (
                omp_region_factor,
                parallel_efficiency,
            )

            peak *= threads / self.spec.cores
            peak *= parallel_efficiency(
                threads, self.library.cpu_serial_fraction
            )
            # Each kernel launch opens a parallel region; waking and
            # joining the thread team costs more for larger teams.
            region_factor = omp_region_factor(threads)
        elif self.spec.kind == "cpu":
            # Single-threaded library: one core's share of the socket.
            peak /= self.spec.cores
            bandwidth = self.spec.effective_bandwidth(1) * self.library.efficiency(
                self.spec.kind, cost.dtype_name
            )
        launches = cost.launches * self.library.launch_multiplier
        fixed = launches * self.spec.launch_latency * region_factor
        fixed += self.library.host_overhead_per_op
        streaming = cost.bytes / bandwidth if bandwidth > 0 else 0.0
        compute = cost.flops / peak if peak > 0 else 0.0
        return fixed + max(streaming, compute)

    def record(self, cost: KernelCost) -> float:
        """Execute one kernel on the virtual timeline; return its duration."""
        duration = self.kernel_time(cost) * self.noise.sample()
        start = self.now
        if self._log_events:
            self.events.append(
                KernelEvent(
                    name=cost.name,
                    start=start,
                    duration=duration,
                    flops=cost.flops,
                    bytes=cost.bytes,
                    launches=cost.launches,
                )
            )
        self.now += duration
        self.kernel_count += cost.launches
        self.bytes_moved += cost.bytes
        self.flops_done += cost.flops
        # Inline rather than through ``_traced``: this runs once per kernel.
        if self._tracers or SimClock._global_tracers:
            self._notify(
                "on_clock_event",
                "kernel",
                cost.name,
                start,
                duration,
                {
                    "flops": cost.flops,
                    "bytes": cost.bytes,
                    "launches": cost.launches,
                },
            )
        return duration

    def advance(
        self,
        seconds: float,
        category: str = "host",
        label: str | None = None,
        **meta,
    ) -> None:
        """Advance virtual time by a raw amount (host-side overheads).

        Args:
            seconds: Simulated time to add.
            category: Attribution category of the elapsed time
                (``binding``/``stall``/``transfer``/``host``).
            label: Event name shown in traces; defaults to the category.
            **meta: Extra scalar metadata recorded on the trace event.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} s")
        start = self.now
        self.now += seconds
        if self._traced:
            self._notify(
                "on_clock_event", category, label or category, start,
                seconds, meta,
            )

    def synchronize(self) -> None:
        """Model a host-device synchronisation point."""
        self.advance(
            self.library.sync_overhead * self.noise.sample(),
            category="stall",
            label="synchronize",
        )

    # ------------------------------------------------------------------
    # measurement helpers
    # ------------------------------------------------------------------
    @contextmanager
    def region(self):
        """Context manager yielding a mutable holder of the elapsed time.

        Usage::

            with clock.region() as span:
                op.apply(b, x)
            print(span.elapsed)
        """

        class _Span:
            elapsed = 0.0

        span = _Span()
        start = self.now
        try:
            yield span
        finally:
            span.elapsed = self.now - start
