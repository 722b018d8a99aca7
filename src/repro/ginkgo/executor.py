"""Executors: where data lives and kernels run.

This mirrors Ginkgo's executor hierarchy (section 4.1 of the paper):

* :class:`ReferenceExecutor` — sequential host execution for verification;
* :class:`OmpExecutor` — multi-threaded host execution (threads modelled);
* :class:`CudaExecutor` — an NVIDIA GPU (simulated as an A100);
* :class:`HipExecutor` — an AMD GPU (simulated as an MI100).

As in Ginkgo, constructors are protected: concrete executors are built via
the static ``create`` factories, which return the (shared) instance — the
paper highlights this create-returns-smart-pointer design as the reason it
chose pybind11's smart-pointer holder types.

Device executors own a distinct *memory space*.  NumPy buffers tagged with a
device executor must be copied explicitly (``Array.copy_to`` /
``Dense.copy_to``) before host code may view them, emulating the
discrete-memory semantics of real GPUs.  All data movement and kernel
execution advances the executor's simulated :class:`~repro.perfmodel.SimClock`.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.exceptions import AllocationError, GinkgoError
from repro.perfmodel import (
    AMD_MI100,
    GENERIC_HOST,
    INTEL_XEON_8368,
    NVIDIA_A100,
    KernelCost,
    SimClock,
    memcpy_cost,
)
from repro.perfmodel.specs import DeviceSpec

#: Effective host<->device interconnect bandwidth (PCIe gen4 x16), bytes/s.
PCIE_BANDWIDTH = 25e9
#: One-way host<->device transfer latency, seconds.
PCIE_LATENCY = 8.0e-6


#: Stamped by :meth:`Executor.create` on the instance it constructs.
_CREATE_PERMIT = object()


def _nbytes_of(shape, dtype) -> int:
    """Size of an allocation request (int or sequence shape), unperformed."""
    count = 1
    for extent in (shape,) if isinstance(shape, (int, np.integer)) else shape:
        count *= int(extent)
    return count * np.dtype(dtype).itemsize


class Executor:
    """Base class of all executors.

    Use the subclasses' ``create`` factories; direct construction raises,
    matching Ginkgo's protected constructors.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        device_id: int = 0,
        library: str = "ginkgo",
        num_threads: int | None = None,
        seed: int = 0,
        noisy: bool = True,
    ) -> None:
        self._check_created()
        self.spec = spec
        self.device_id = device_id
        self.num_threads = num_threads
        self.clock = SimClock(
            spec, library=library, num_threads=num_threads, seed=seed, noisy=noisy
        )
        self._bytes_allocated = 0
        self._allocation_count = 0
        self._peak_bytes = 0
        self._live_buffers: dict[int, int] = {}
        self._loggers: list = []

    # ------------------------------------------------------------------
    # factory
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, *args, **kwargs) -> "Executor":
        """Create an executor instance (Ginkgo-style static factory).

        The permit to construct is stamped on the one new instance, so a
        ``create`` nested in a constructor, or running on another thread,
        cannot revoke it.
        """
        executor = cls.__new__(cls)
        executor.__dict__["_permit"] = _CREATE_PERMIT
        executor.__init__(*args, **kwargs)
        return executor

    def _check_created(self) -> None:
        """Raise unless :meth:`create` is constructing this instance."""
        if self.__dict__.pop("_permit", None) is not _CREATE_PERMIT:
            raise TypeError(
                f"{type(self).__name__} cannot be constructed directly; "
                f"use {type(self).__name__}.create()"
            )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return type(self).__name__.replace("Executor", "").lower()

    @property
    def is_host(self) -> bool:
        """True when host code may view this executor's buffers directly."""
        return self.spec.kind == "cpu"

    def get_master(self) -> "Executor":
        """The host executor associated with this device (Ginkgo API)."""
        return self if self.is_host else self._master

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def add_logger(self, logger) -> None:
        """Attach a logger receiving this executor's events.

        Executors emit ``fault_injected`` events (via
        :class:`~repro.ginkgo.fault.FaultyExecutor`); the handler protocol
        is the same ``on_<event>`` convention LinOps use.
        """
        self._loggers.append(logger)

    def remove_logger(self, logger) -> None:
        self._loggers.remove(logger)

    def _log(self, event: str, **kwargs) -> None:
        for logger in self._loggers:
            handler = getattr(logger, f"on_{event}", None)
            if handler is not None:
                handler(self, **kwargs)
        # Executor events carry only scalar payloads, so they double as
        # instant markers on the clock's trace (no-op when untraced).
        self.clock.annotate(event, **kwargs)

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    def alloc(self, shape, dtype) -> np.ndarray:
        """Allocate a zero-initialised buffer in this memory space."""
        nbytes = _nbytes_of(shape, dtype)
        self._check_capacity(nbytes)
        return self._adopt(np.zeros(shape, dtype=dtype), nbytes)

    def alloc_like(self, data: np.ndarray) -> np.ndarray:
        """Allocate an uninitialised buffer with ``data``'s shape/dtype."""
        nbytes = data.nbytes
        self._check_capacity(nbytes)
        return self._adopt(np.empty_like(data), nbytes)

    def _check_capacity(self, nbytes: int) -> None:
        """Fail a too-large request before touching host memory.

        Failed allocations leave ``allocation_count``/``peak`` untouched, so
        leak and fault tests can trust the counters.
        """
        if self._bytes_allocated + nbytes > self.spec.memory_capacity:
            raise AllocationError(
                self.name,
                requested=nbytes,
                available=int(self.spec.memory_capacity - self._bytes_allocated),
            )

    def _adopt(self, arr: np.ndarray, nbytes: int) -> np.ndarray:
        """Account ``arr`` (``nbytes``), whose size passed the capacity check."""
        self._live_buffers[id(arr)] = nbytes
        self._count_alloc(nbytes)
        if self.clock._traced:
            self.clock.annotate("alloc", nbytes=nbytes)
        return arr

    def _track_alloc(self, nbytes: int) -> None:
        self._check_capacity(nbytes)
        self._count_alloc(nbytes)

    def _count_alloc(self, nbytes: int) -> None:
        self._bytes_allocated += nbytes
        self._allocation_count += 1
        self._peak_bytes = max(self._peak_bytes, self._bytes_allocated)

    def free(self, data: np.ndarray) -> None:
        """Return a buffer to the memory space (bookkeeping only).

        Raises:
            GinkgoError: When ``data`` was not allocated by this executor
                or was already freed — a double-free would otherwise
                silently corrupt the ``bytes_allocated`` accounting.
        """
        nbytes = self._live_buffers.pop(id(data), None)
        if nbytes is None:
            raise GinkgoError(
                f"{self.name}: free of a buffer this executor does not own "
                "(double-free, or not allocated here)"
            )
        self._bytes_allocated -= nbytes

    @property
    def bytes_allocated(self) -> int:
        return self._bytes_allocated

    @property
    def allocation_count(self) -> int:
        return self._allocation_count

    @property
    def peak_bytes_allocated(self) -> int:
        return self._peak_bytes

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def copy_from(self, src_exec: "Executor", data: np.ndarray) -> np.ndarray:
        """Copy ``data`` (resident on ``src_exec``) into this memory space.

        Models the transfer time: PCIe for host<->device and device<->device
        hops, DRAM streaming for host<->host.
        """
        out = self.alloc_like(np.ascontiguousarray(data))
        np.copyto(out, data)
        self._charge_copy(src_exec, data.nbytes)
        return out

    def copy_into(
        self, src_exec: "Executor", data: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Copy ``data`` (resident on ``src_exec``) into existing buffer ``out``.

        Charges exactly what :meth:`copy_from` charges for the transfer
        itself, minus the allocation: workspace pools use this so a reused
        buffer costs the same simulated time as a fresh ``clone()``.
        """
        if out.shape != data.shape or out.dtype != data.dtype:
            raise GinkgoError(
                f"{self.name}: copy_into target mismatch "
                f"({out.shape}/{out.dtype} vs {data.shape}/{data.dtype})"
            )
        np.copyto(out, data)
        self._charge_copy(src_exec, data.nbytes)
        return out

    def _charge_copy(self, src_exec: "Executor", nbytes: int) -> None:
        """Advance the clock(s) for one ``nbytes`` transfer from ``src_exec``."""
        if src_exec is self:
            self.clock.record(memcpy_cost(nbytes))
        elif self.is_host and src_exec.is_host:
            self.clock.advance(
                nbytes / self.spec.memory_bandwidth,
                category="transfer",
                label="host_memcpy",
                bytes=nbytes,
            )
        else:
            transfer = PCIE_LATENCY + nbytes / PCIE_BANDWIDTH
            self.clock.advance(
                transfer, category="transfer", label="pcie_transfer",
                bytes=nbytes,
            )
            src_exec.clock.advance(
                transfer, category="transfer", label="pcie_transfer",
                bytes=nbytes,
            )

    def synchronize(self) -> None:
        """Wait for all outstanding device work (models stream sync)."""
        self.clock.synchronize()

    # ------------------------------------------------------------------
    # kernel execution
    # ------------------------------------------------------------------
    def run(self, cost: KernelCost) -> float:
        """Execute one modeled kernel; returns its simulated duration."""
        return self.clock.record(cost)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} id={self.device_id}>"


class ReferenceExecutor(Executor):
    """Sequential host executor used for verification (Ginkgo `reference`)."""

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("library", "ginkgo")
        super().__init__(GENERIC_HOST, device_id=0, num_threads=1, **{
            k: v for k, v in kwargs.items() if k != "num_threads"
        })


class OmpExecutor(Executor):
    """Multi-threaded host executor (Ginkgo `omp`).

    ``num_threads`` is a *modelled* quantity only: it sets the simulated
    clock's bandwidth saturation point, peak-flop share and per-region
    team cost (:mod:`repro.perfmodel.threads`), the way Ginkgo's executor
    carries its thread count.  Host kernels run on the calling thread
    whatever the count, so results, simulated timings and traces never
    depend on it beyond the model.
    """

    def __init__(self, num_threads: int | None = None, **kwargs) -> None:
        spec = kwargs.pop("spec", INTEL_XEON_8368)
        if num_threads is not None and num_threads < 1:
            raise GinkgoError(
                f"OmpExecutor needs >= 1 thread, got {num_threads}"
            )
        threads = num_threads or spec.cores
        super().__init__(spec, device_id=0, num_threads=threads, **kwargs)


class _DeviceExecutor(Executor):
    """Shared behaviour of discrete-memory device executors."""

    def __init__(self, device_id: int = 0, master: Executor | None = None, **kwargs):
        spec = kwargs.pop("spec", self._default_spec())
        super().__init__(spec, device_id=device_id, **kwargs)
        self._master = master or OmpExecutor.create(
            seed=kwargs.get("seed", 0), noisy=kwargs.get("noisy", True)
        )

    @classmethod
    def _default_spec(cls) -> DeviceSpec:
        raise NotImplementedError


class CudaExecutor(_DeviceExecutor):
    """An NVIDIA GPU executor, simulated as an A100 (Ginkgo `cuda`)."""

    @classmethod
    def _default_spec(cls) -> DeviceSpec:
        return NVIDIA_A100


class HipExecutor(_DeviceExecutor):
    """An AMD GPU executor, simulated as an MI100 (Ginkgo `hip`)."""

    @classmethod
    def _default_spec(cls) -> DeviceSpec:
        return AMD_MI100
