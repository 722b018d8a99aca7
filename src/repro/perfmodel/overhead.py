"""Model of the pybind11 binding overhead (paper section 6.3).

The paper's key overhead result is that calling Ginkgo kernels through the
Python bindings costs a fixed per-call amount (argument conversion, GIL
handling, smart-pointer marshalling) that is 25-35% of the total for small
matrices and amortises to below 10% once the kernel itself takes long enough
(NNZ > 1e7), with absolute differences of 1e-7 to 1e-5 seconds on NVIDIA and
1e-6 to 1e-4 seconds on AMD hardware.

We reproduce this with a per-call overhead drawn around a device-dependent
mean; the comparison harness subtracts noisy "native" and "bound" timings,
so the measured difference can come out negative exactly as in Fig. 5c.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.noise import BLOCK_SIZE


class BindingOverheadModel:
    """Per-call Python binding overhead.

    Args:
        base_overhead: Mean per-call overhead in seconds.  Calibrated to
            ~2.5 microseconds against an A100-sized launch latency so the
            relative overhead lands at 25-35% for small matrices.
        per_argument: Additional cost per converted argument.
        jitter_sigma: Relative spread of the per-call overhead.
        seed: RNG seed for deterministic sampling.
    """

    #: Default mean overheads per device family (seconds).
    DEFAULTS = {"gpu-nvidia": 4.0e-6, "gpu-amd": 10.0e-6, "cpu": 1.2e-6}

    def __init__(
        self,
        base_overhead: float = 4.0e-6,
        per_argument: float = 1.5e-7,
        jitter_sigma: float = 0.25,
        seed: int = 1234,
    ) -> None:
        if base_overhead < 0 or per_argument < 0:
            raise ValueError("overheads must be non-negative")
        self.base_overhead = base_overhead
        self.per_argument = per_argument
        self.jitter_sigma = jitter_sigma
        self._rng = np.random.default_rng(seed)
        self._normals = iter(())

    @classmethod
    def for_device(cls, family: str, **kwargs) -> "BindingOverheadModel":
        """Create a model with the default mean for a device family."""
        if family not in cls.DEFAULTS:
            raise KeyError(
                f"unknown device family {family!r}; "
                f"available: {sorted(cls.DEFAULTS)}"
            )
        return cls(base_overhead=cls.DEFAULTS[family], **kwargs)

    def sample(self, num_arguments: int = 2) -> float:
        """Draw the binding overhead of one Python-to-C++ call."""
        if num_arguments < 0:
            raise ValueError("num_arguments must be non-negative")
        mean = self.base_overhead + num_arguments * self.per_argument
        normal = next(self._normals, None)
        if normal is None:
            self._normals = iter(self._rng.standard_normal(BLOCK_SIZE).tolist())
            normal = next(self._normals)
        jitter = 1.0 + self.jitter_sigma * normal
        return max(mean * jitter, 0.1 * mean)

    def relative_overhead(self, kernel_time: float, num_arguments: int = 2) -> float:
        """Expected overhead fraction for a kernel of the given duration."""
        if kernel_time < 0:
            raise ValueError("kernel_time must be non-negative")
        mean = self.base_overhead + num_arguments * self.per_argument
        total = kernel_time + mean
        return mean / total if total > 0 else 0.0
