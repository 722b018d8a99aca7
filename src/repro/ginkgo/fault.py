"""Deterministic fault injection at executor boundaries.

Real heterogeneous deployments lose kernels to transient device errors,
fail allocations under memory pressure, corrupt data in flight, and stall
on contended links.  This module reproduces those failure modes inside the
simulated executor layer so the resilience machinery in
:mod:`repro.core.resilient` can be exercised — and benchmarked —
deterministically:

* :class:`FaultInjector` — a seedable policy deciding *when* a fault fires
  (per-site rates, an explicit call-indexed schedule, or both);
* :class:`FaultyExecutor` — an :class:`~repro.ginkgo.executor.Executor`
  wrapper with the same interface as any concrete executor that consults
  the injector at the three kernel/memory boundaries:

  ========  =====================  ====================================
  site      boundary               injected fault kinds
  ========  =====================  ====================================
  ``run``   kernel execution       ``transient`` (raises
                                   :class:`CudaError`), ``stall``
                                   (extra simulated clock time)
  ``alloc`` memory allocation      ``oom`` (raises
                                   :class:`AllocationError`)
  ``copy``  data movement          ``transient`` (raises
                                   :class:`CudaError`),
                                   ``corruption`` (silent NaN poke or
                                   bit-flip in the copied buffer)
  ========  =====================  ====================================

Four further sites cover the distributed and batched layers.  They are
consulted by the distributed
:class:`~repro.ginkgo.distributed.comm.Communicator` and the batched SpMV
rather than by the executor itself (the injector is discovered through
:func:`injector_of` on the operator's executor):

  =============  ==================  =====================================
  site           boundary            injected fault kinds
  =============  ==================  =====================================
  ``halo``       halo exchange       ``drop`` (raises
                                     :class:`CommunicationError`),
                                     ``duplicate`` (the exchange is
                                     charged twice), ``late`` (extra
                                     simulated delay, ``fault`` category)
  ``allreduce``  global reduction    ``corruption`` (poisons the reduced
                                     payload), ``straggler`` (extra
                                     simulated delay)
  ``rank``       any collective      ``failure`` (raises
                                     :class:`RankFailure` for a
                                     deterministically chosen rank)
  ``batch``      batched SpMV        ``corruption`` (poisons one active
                                     system's output block)
  =============  ==================  =====================================

Every injected fault is appended to :attr:`FaultInjector.injected` and
emitted as a structured ``fault_injected`` event on the executor's logger
chain, so tests and benchmarks can assert on exact fault sequences.  Two
runs with the same seed (and the same call pattern) produce identical
fault sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ginkgo.exceptions import AllocationError, CudaError, GinkgoError
from repro.ginkgo.executor import Executor, _nbytes_of

#: Boundaries faults can be injected at (executor, communicator, batch).
FAULT_SITES = ("run", "alloc", "copy", "halo", "allreduce", "rank", "batch")

#: Fault kinds valid at each site.
SITE_KINDS = {
    "run": ("transient", "stall"),
    "alloc": ("oom",),
    "copy": ("transient", "corruption"),
    "halo": ("drop", "duplicate", "late"),
    "allreduce": ("corruption", "straggler"),
    "rank": ("failure",),
    "batch": ("corruption",),
}

#: Default kind when a schedule entry names only a call index.
DEFAULT_KIND = {
    "run": "transient",
    "alloc": "oom",
    "copy": "transient",
    "halo": "drop",
    "allreduce": "corruption",
    "rank": "failure",
    "batch": "corruption",
}


@dataclass(frozen=True)
class InjectedFault:
    """One injected fault, in injection order.

    Attributes:
        index: Ordinal of this fault across all sites (0-based).
        site: Boundary the fault fired at (``run``/``alloc``/``copy``).
        kind: Fault kind (see :data:`SITE_KINDS`).
        call: 0-based index of the boundary call that triggered it.
        detail: Site-specific context (kernel name, allocation shape, ...).
    """

    index: int
    site: str
    kind: str
    call: int
    detail: str = ""


class FaultInjector:
    """Seedable policy deciding when and how faults fire.

    Args:
        seed: Seed of the decision stream; equal seeds (with equal call
            patterns) give identical fault sequences.
        kernel_rate: Probability of a transient :class:`CudaError` per
            kernel ``run``.
        stall_rate: Probability of a stall (extra simulated time) per
            kernel ``run``.
        alloc_rate: Probability of an :class:`AllocationError` per
            ``alloc``/``alloc_like``.
        copy_rate: Probability of a transient :class:`CudaError` per
            ``copy_from``.
        corruption_rate: Probability of silent data corruption per
            ``copy_from``.
        halo_drop_rate: Probability of a dropped halo exchange.
        halo_duplicate_rate: Probability of a duplicated halo exchange.
        halo_late_rate: Probability of a late halo exchange.
        allreduce_corruption_rate: Probability of a corrupted all-reduce
            payload.
        straggler_rate: Probability of a straggling rank delaying an
            all-reduce.
        rank_failure_rate: Probability of a rank failure per collective.
        batch_corruption_rate: Probability of corrupting one system's
            block per batched SpMV.
        stall_seconds: Simulated duration of one injected stall (also
            the straggler / late-halo delay).
        corruption_mode: ``"nan"`` pokes a NaN into one entry;
            ``"bitflip"`` flips one bit of one float64 entry.
        max_faults: Stop injecting after this many faults (None: no cap).
        schedule: Deterministic schedule, mapping a site name to an
            iterable of call indices (``{"run": (0, 3)}``) or of
            ``(call_index, kind)`` pairs (``{"run": [(2, "stall")]}``).
            Scheduled faults fire regardless of the rates.
    """

    def __init__(
        self,
        seed: int = 0,
        kernel_rate: float = 0.0,
        stall_rate: float = 0.0,
        alloc_rate: float = 0.0,
        copy_rate: float = 0.0,
        corruption_rate: float = 0.0,
        halo_drop_rate: float = 0.0,
        halo_duplicate_rate: float = 0.0,
        halo_late_rate: float = 0.0,
        allreduce_corruption_rate: float = 0.0,
        straggler_rate: float = 0.0,
        rank_failure_rate: float = 0.0,
        batch_corruption_rate: float = 0.0,
        stall_seconds: float = 1e-3,
        corruption_mode: str = "nan",
        max_faults: int | None = None,
        schedule: dict | None = None,
    ) -> None:
        rates = {
            ("run", "transient"): kernel_rate,
            ("run", "stall"): stall_rate,
            ("alloc", "oom"): alloc_rate,
            ("copy", "transient"): copy_rate,
            ("copy", "corruption"): corruption_rate,
            ("halo", "drop"): halo_drop_rate,
            ("halo", "duplicate"): halo_duplicate_rate,
            ("halo", "late"): halo_late_rate,
            ("allreduce", "corruption"): allreduce_corruption_rate,
            ("allreduce", "straggler"): straggler_rate,
            ("rank", "failure"): rank_failure_rate,
            ("batch", "corruption"): batch_corruption_rate,
        }
        for (site, kind), rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise GinkgoError(
                    f"{site}/{kind} fault rate must be in [0, 1], got {rate}"
                )
        for site in SITE_KINDS:
            total = sum(rates[(site, kind)] for kind in SITE_KINDS[site])
            if total > 1.0:
                raise GinkgoError(
                    f"combined fault rates at site {site!r} exceed 1 ({total})"
                )
        if corruption_mode not in ("nan", "bitflip"):
            raise GinkgoError(
                f"corruption_mode must be 'nan' or 'bitflip', "
                f"got {corruption_mode!r}"
            )
        self.seed = seed
        self.rates = rates
        self.stall_seconds = float(stall_seconds)
        self.corruption_mode = corruption_mode
        self.max_faults = max_faults
        self._schedule = self._normalise_schedule(schedule or {})
        self._rng = np.random.default_rng(seed)
        self._calls = {site: 0 for site in FAULT_SITES}
        self.injected: list[InjectedFault] = []
        self.enabled = True

    @staticmethod
    def _normalise_schedule(schedule: dict) -> dict:
        normalised: dict = {}
        for site, entries in schedule.items():
            if site not in FAULT_SITES:
                raise GinkgoError(
                    f"unknown fault site {site!r}; available: {FAULT_SITES}"
                )
            for entry in entries:
                if isinstance(entry, tuple):
                    call, kind = entry
                else:
                    call, kind = entry, DEFAULT_KIND[site]
                if kind not in SITE_KINDS[site]:
                    raise GinkgoError(
                        f"fault kind {kind!r} invalid at site {site!r}; "
                        f"available: {SITE_KINDS[site]}"
                    )
                normalised[(site, int(call))] = kind
        return normalised

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def decide(self, site: str, detail: str = "") -> InjectedFault | None:
        """Decide whether the current call at ``site`` faults.

        Advances the per-site call counter; returns the recorded
        :class:`InjectedFault` when a fault fires, else None.
        """
        if site not in FAULT_SITES:
            raise GinkgoError(
                f"unknown fault site {site!r}; available: {FAULT_SITES}"
            )
        if not self.enabled:
            # Paused injectors neither count calls nor consume random
            # draws, so the fault sequence only depends on armed activity.
            return None
        call = self._calls[site]
        self._calls[site] = call + 1
        kind = self._schedule.get((site, call))
        if kind is None:
            kind = self._draw(site)
        if kind is None:
            return None
        if self.max_faults is not None and len(self.injected) >= self.max_faults:
            return None
        fault = InjectedFault(
            index=len(self.injected),
            site=site,
            kind=kind,
            call=call,
            detail=detail,
        )
        self.injected.append(fault)
        return fault

    def _draw(self, site: str) -> str | None:
        """One uniform draw per boundary call, split across the site's kinds."""
        kinds = SITE_KINDS[site]
        if not any(self.rates[(site, kind)] for kind in kinds):
            return None
        u = self._rng.random()
        acc = 0.0
        for kind in kinds:
            acc += self.rates[(site, kind)]
            if u < acc:
                return kind
        return None

    # ------------------------------------------------------------------
    # corruption
    # ------------------------------------------------------------------
    def corrupt(self, buffer: np.ndarray) -> int:
        """Silently corrupt one entry of ``buffer`` in place.

        Returns the flat index of the poisoned entry.
        """
        if buffer.size == 0:
            return -1
        flat_index = int(self._rng.integers(buffer.size))
        flat = buffer.reshape(-1)
        if self.corruption_mode == "nan" or not np.issubdtype(
            buffer.dtype, np.floating
        ):
            flat[flat_index] = (
                np.nan if np.issubdtype(buffer.dtype, np.floating) else 0
            )
        else:
            bits = flat[flat_index : flat_index + 1].view(np.uint64)
            bits ^= np.uint64(1) << np.uint64(int(self._rng.integers(63)))
        return flat_index

    def choose(self, count: int) -> int:
        """Deterministically pick a victim index in ``[0, count)``.

        Used to select the failed rank or the corrupted batch system;
        draws from the same seeded stream as the rate decisions, so equal
        seeds pick equal victims.
        """
        if count < 1:
            raise GinkgoError(f"cannot choose from {count} candidates")
        return int(self._rng.integers(count))

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def paused(self):
        """Context manager suspending injection (e.g. while staging data).

        Usage::

            with injector.paused():
                mtx = Csr.from_scipy(faulty_exec, A)   # no faults here
        """
        from contextlib import contextmanager

        @contextmanager
        def _pause():
            previous = self.enabled
            self.enabled = False
            try:
                yield self
            finally:
                self.enabled = previous

        return _pause()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def fault_count(self) -> int:
        return len(self.injected)

    def calls(self, site: str) -> int:
        """How many boundary calls have been observed at ``site``."""
        return self._calls[site]

    def __repr__(self) -> str:
        active = {
            f"{site}:{kind}": rate
            for (site, kind), rate in self.rates.items()
            if rate
        }
        return (
            f"FaultInjector(seed={self.seed}, rates={active}, "
            f"scheduled={len(self._schedule)}, injected={self.fault_count})"
        )


def injector_of(exec_) -> FaultInjector | None:
    """The :class:`FaultInjector` behind ``exec_``, or None.

    Lets communicator- and batch-level code consult the injector of a
    wrapping :class:`FaultyExecutor` without knowing about the wrapper.
    """
    injector = getattr(exec_, "injector", None)
    return injector if isinstance(injector, FaultInjector) else None


class FaultyExecutor(Executor):
    """An executor wrapper that injects faults at kernel/memory boundaries.

    Wraps any concrete executor (``FaultyExecutor.create(inner, injector)``)
    and presents the same :class:`Executor` interface: allocation, copies,
    kernel runs, clocks, and memory accounting all delegate to the wrapped
    executor, with the injector consulted at each boundary first.  Injected
    faults are logged as ``fault_injected`` events to any attached loggers.
    """

    def __init__(self, inner: Executor, injector: FaultInjector) -> None:
        self._check_created()
        if isinstance(inner, FaultyExecutor):
            raise GinkgoError("refusing to wrap an already-faulty executor")
        if not isinstance(inner, Executor):
            raise GinkgoError(
                f"FaultyExecutor wraps an Executor, got {type(inner).__name__}"
            )
        self._inner = inner
        self._injector = injector
        self._loggers = []

    # ------------------------------------------------------------------
    # identity / delegation
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        # Transparent: callers (and error messages) see the device's name.
        return self._inner.name

    @property
    def inner(self) -> Executor:
        """The wrapped concrete executor."""
        return self._inner

    @property
    def injector(self) -> FaultInjector:
        return self._injector

    def get_master(self) -> Executor:
        return self if self.is_host else self._inner.get_master()

    def __getattr__(self, attr: str):
        # Anything not intercepted (spec, clock, counters, ...) is served
        # by the wrapped executor.  __getattr__ only fires after normal
        # lookup fails, so overridden methods stay in charge.
        try:
            inner = self.__dict__["_inner"]
        except KeyError:
            raise AttributeError(attr) from None
        return getattr(inner, attr)

    def __repr__(self) -> str:
        return f"<FaultyExecutor wrapping {self._inner!r}>"

    # ------------------------------------------------------------------
    # faulted boundaries
    # ------------------------------------------------------------------
    def _announce(self, fault: InjectedFault) -> None:
        self._log(
            "fault_injected",
            site=fault.site,
            kind=fault.kind,
            index=fault.index,
            call=fault.call,
            detail=fault.detail,
        )

    def alloc(self, shape, dtype) -> np.ndarray:
        nbytes = _nbytes_of(shape, dtype)
        fault = self._injector.decide("alloc", detail=f"alloc:{nbytes}B")
        if fault is not None:
            self._announce(fault)
            raise AllocationError(self.name, requested=nbytes, available=0)
        return self._inner.alloc(shape, dtype)

    def alloc_like(self, data: np.ndarray) -> np.ndarray:
        fault = self._injector.decide("alloc", detail=f"alloc:{data.nbytes}B")
        if fault is not None:
            self._announce(fault)
            raise AllocationError(
                self.name, requested=data.nbytes, available=0
            )
        return self._inner.alloc_like(data)

    def copy_from(self, src_exec: Executor, data: np.ndarray) -> np.ndarray:
        fault = self._injector.decide("copy", detail=f"copy:{data.nbytes}B")
        if fault is not None and fault.kind == "transient":
            self._announce(fault)
            raise CudaError(
                f"simulated transient fault copying {data.nbytes} bytes "
                f"to {self.name}"
            )
        if isinstance(src_exec, FaultyExecutor):
            src_exec = src_exec.inner
        elif src_exec is self:
            src_exec = self._inner
        out = self._inner.copy_from(src_exec, data)
        if fault is not None:  # kind == "corruption"
            poisoned = self._injector.corrupt(out)
            self._announce(fault)
            self._log(
                "data_corrupted", index=fault.index, flat_index=poisoned
            )
        return out

    def copy_into(
        self, src_exec: Executor, data: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        fault = self._injector.decide("copy", detail=f"copy:{data.nbytes}B")
        if fault is not None and fault.kind == "transient":
            self._announce(fault)
            raise CudaError(
                f"simulated transient fault copying {data.nbytes} bytes "
                f"to {self.name}"
            )
        if isinstance(src_exec, FaultyExecutor):
            src_exec = src_exec.inner
        elif src_exec is self:
            src_exec = self._inner
        self._inner.copy_into(src_exec, data, out)
        if fault is not None:  # kind == "corruption"
            poisoned = self._injector.corrupt(out)
            self._announce(fault)
            self._log(
                "data_corrupted", index=fault.index, flat_index=poisoned
            )
        return out

    def run(self, cost) -> float:
        fault = self._injector.decide("run", detail=cost.name)
        if fault is not None:
            self._announce(fault)
            if fault.kind == "stall":
                # The kernel completes, late: model link/SM contention.
                self.clock.advance(self._injector.stall_seconds)
            else:
                raise CudaError(
                    f"simulated transient fault in kernel {cost.name!r} "
                    f"on {self.name}"
                )
        return self._inner.run(cost)

    # Non-faulted boundaries delegate explicitly (they are defined on the
    # base class, so __getattr__ would not reroute them).
    def free(self, data: np.ndarray) -> None:
        self._inner.free(data)

    def synchronize(self) -> None:
        self._inner.synchronize()

    def _check_capacity(self, nbytes: int) -> None:
        self._inner._check_capacity(nbytes)

    def _track_alloc(self, nbytes: int) -> None:
        self._inner._track_alloc(nbytes)
