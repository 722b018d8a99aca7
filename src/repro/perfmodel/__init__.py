"""Hardware performance model for the pyGinkgo reproduction.

The original paper benchmarks on NVIDIA A100 and AMD Instinct MI100 GPUs and
Intel Xeon Platinum 8368 CPUs.  None of that hardware is available in this
environment, so every executor in :mod:`repro.ginkgo` carries a *simulated
clock* driven by the roofline model defined here.  Numerical results are
always computed for real with NumPy/SciPy; only the *reported execution time*
comes from this model.

The model has four ingredients:

* :class:`~repro.perfmodel.specs.DeviceSpec` — peak memory bandwidth, peak
  FLOP rates per precision, and kernel-launch latency for each device.
* :class:`~repro.perfmodel.kernels.KernelCost` — per-kernel byte/flop counts
  (CSR/COO/ELL/SELL-P SpMV, BLAS-1 ops, triangular solves, ...).
* :class:`~repro.perfmodel.libraries.LibraryProfile` — per-library efficiency
  factors calibrated against the paper's own measurements (pyGinkgo reaches
  ~150 GFLOP/s fp32 SpMV on the A100, PyTorch ~110, CuPy ~85, TF ~50).
* :class:`~repro.perfmodel.clock.SimClock` — an event-logging virtual clock
  with deterministic measurement noise.

Calibration targets are listed in DESIGN.md; the invariants the model must
satisfy (speedup grows with NNZ, launch latency dominates small problems,
binding overhead amortises to <10% above 1e7 nonzeros, ...) are covered by
``tests/perfmodel``.
"""

from repro.perfmodel.clock import KernelEvent, SimClock
from repro.perfmodel.comm import (
    DEFAULT_NETWORK,
    ETHERNET_CLUSTER,
    INFINIBAND_HDR,
    INTRA_NODE,
    CommRequest,
    NetworkSpec,
    allreduce_time,
    halo_exchange_time,
    p2p_time,
)
from repro.perfmodel.kernels import (
    KernelCost,
    blas1_cost,
    conversion_cost,
    dot_cost,
    factorization_cost,
    fused_axpby_cost,
    fused_spmv_axpby_cost,
    memcpy_cost,
    spmv_cost,
    trsv_cost,
)
from repro.perfmodel.libraries import (
    LIBRARY_PROFILES,
    LibraryProfile,
    get_library_profile,
)
from repro.perfmodel.noise import NoiseModel
from repro.perfmodel.overhead import BindingOverheadModel
from repro.perfmodel.specs import (
    AMD_MI100,
    DEVICE_SPECS,
    GENERIC_HOST,
    INTEL_XEON_8368,
    NVIDIA_A100,
    DeviceSpec,
    get_device_spec,
)
from repro.perfmodel.threads import thread_scaling
from repro.perfmodel.trace import AttributionTable, Span, Trace

__all__ = [
    "AMD_MI100",
    "AttributionTable",
    "BindingOverheadModel",
    "DEFAULT_NETWORK",
    "DEVICE_SPECS",
    "DeviceSpec",
    "GENERIC_HOST",
    "INFINIBAND_HDR",
    "INTEL_XEON_8368",
    "INTRA_NODE",
    "CommRequest",
    "ETHERNET_CLUSTER",
    "KernelCost",
    "KernelEvent",
    "LIBRARY_PROFILES",
    "LibraryProfile",
    "NVIDIA_A100",
    "NetworkSpec",
    "NoiseModel",
    "SimClock",
    "Span",
    "Trace",
    "allreduce_time",
    "blas1_cost",
    "conversion_cost",
    "dot_cost",
    "factorization_cost",
    "fused_axpby_cost",
    "fused_spmv_axpby_cost",
    "get_device_spec",
    "get_library_profile",
    "halo_exchange_time",
    "memcpy_cost",
    "p2p_time",
    "spmv_cost",
    "thread_scaling",
    "trsv_cost",
]
