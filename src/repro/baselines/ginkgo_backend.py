"""pyGinkgo and native-Ginkgo backends for the benchmark harness.

Both run the same engine; the difference is whether calls cross the
(simulated) pybind11 boundary.  :class:`PyGinkgoBackend` charges the
binding overhead per crossing; :class:`GinkgoNativeBackend` does not —
their timing difference is precisely what Figs. 5b/5c measure.

Unlike CuPy, the solver loop lives *inside* the engine (C++ in the real
system), so one ``apply`` is one binding crossing regardless of iteration
count — which is why pyGinkgo's solver overhead is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.baselines.base import Backend, MatrixHandle
from repro.bindings.overhead import charge_binding
from repro.ginkgo.exceptions import NotSupported
from repro.ginkgo.executor import (
    CudaExecutor,
    HipExecutor,
    OmpExecutor,
)
from repro.ginkgo.matrix import Coo, Csr, Dense, Ell, Hybrid, Sellp
from repro.ginkgo.solver import SOLVERS
from repro.ginkgo.stop import Iteration
from repro.perfmodel.specs import NVIDIA_A100, DeviceSpec

_FORMAT_CLASSES = {
    "csr": Csr,
    "coo": Coo,
    "ell": Ell,
    "sellp": Sellp,
    "hybrid": Hybrid,
}

@dataclass
class GinkgoHandle(MatrixHandle):
    """Handle carrying the engine matrix and pre-staged device vectors."""

    engine_matrix: object = None
    x_dense: Dense = None
    y_dense: Dense = None


class PyGinkgoBackend(Backend):
    """The paper's library: engine kernels called through the bindings."""

    library = "ginkgo"
    display_name = "pyGinkgo"
    supported_formats = ("csr", "coo", "ell", "sellp", "hybrid")
    supported_solvers = ("cg", "fcg", "cgs", "bicgstab", "gmres", "minres")
    #: Whether calls cross the simulated pybind11 boundary.
    binding_overhead = True

    def __init__(
        self,
        spec: DeviceSpec = NVIDIA_A100,
        num_threads: int | None = None,
        seed: int = 0,
        noisy: bool = True,
    ) -> None:
        super().__init__(spec, num_threads=num_threads, seed=seed, noisy=noisy)
        # Dispatch on the spec's vendor tag, not its display name: custom
        # AMD specs need not spell out "AMD" (e.g. "Instinct MI250X").
        if spec.kind == "gpu" and spec.vendor == "amd":
            self.executor = HipExecutor.create(seed=seed, noisy=noisy, spec=spec)
        elif spec.kind == "gpu":
            self.executor = CudaExecutor.create(seed=seed, noisy=noisy, spec=spec)
        else:
            self.executor = OmpExecutor.create(
                num_threads=num_threads, seed=seed, noisy=noisy, spec=spec
            )
        # The backend clock *is* the executor clock: all engine work lands
        # on the same timeline as the binding-overhead charges.
        self.clock = self.executor.clock

    # ------------------------------------------------------------------
    def _charge_crossing(
        self, num_arguments: int = 2, tag: str | None = None
    ) -> None:
        if self.binding_overhead:
            charge_binding(self.executor, num_arguments, tag=tag)

    def prepare(self, matrix: sp.spmatrix, fmt: str = "csr", dtype=np.float32):
        fmt = fmt.lower()
        if fmt not in self.supported_formats:
            raise NotSupported(
                f"{self.display_name} does not support the {fmt!r} format"
            )
        dtype = np.dtype(dtype)
        csr = sp.csr_matrix(matrix)
        cls = _FORMAT_CLASSES[fmt]
        self._charge_crossing(3, tag=f"{fmt}_from_scipy")
        engine_matrix = cls.from_scipy(self.executor, csr, value_dtype=dtype)
        rows, cols = csr.shape
        handle = GinkgoHandle(
            matrix=csr.astype(np.float32 if dtype == np.float16 else dtype),
            fmt=fmt,
            dtype=dtype,
            engine_matrix=engine_matrix,
            x_dense=Dense.zeros(self.executor, (cols, 1), dtype),
            y_dense=Dense.zeros(self.executor, (rows, 1), dtype),
        )
        return handle

    def spmv(self, handle: GinkgoHandle, x: np.ndarray) -> np.ndarray:
        np.copyto(handle.x_dense._data, x.reshape(-1, 1).astype(handle.dtype))
        self._charge_crossing(2, tag="spmv_apply")
        handle.engine_matrix.apply(handle.x_dense, handle.y_dense)
        return handle.y_dense._data.reshape(x.shape).astype(
            handle.matrix.dtype, copy=False
        )

    def run_solver(
        self, handle: GinkgoHandle, solver: str, b: np.ndarray,
        iterations: int, **kwargs,
    ) -> dict:
        solver = solver.lower()
        if solver not in self.supported_solvers:
            raise NotSupported(
                f"{self.display_name} does not provide the {solver!r} solver"
            )
        params = {}
        if solver == "gmres":
            params["krylov_dim"] = kwargs.get("restart", 30)
        self._charge_crossing(3, tag=f"{solver}_factory")
        factory = SOLVERS[solver](
            self.executor, criteria=Iteration(iterations), **params
        )
        engine_solver = factory.generate(handle.engine_matrix)
        x = Dense.zeros(self.executor, (b.shape[0], 1), handle.dtype)
        rhs = Dense(self.executor, b.reshape(-1, 1).astype(handle.dtype))
        start = self.clock.now
        self._charge_crossing(2, tag="solver_apply")  # one crossing per solve
        engine_solver.apply(rhs, x)
        elapsed = self.clock.now - start
        return {
            "x": x._data.reshape(b.shape),
            "iterations": iterations,
            "elapsed": elapsed,
            "time_per_iteration": elapsed / max(iterations, 1),
        }


class GinkgoNativeBackend(PyGinkgoBackend):
    """Native Ginkgo: identical kernels, no binding crossings."""

    display_name = "Ginkgo (native)"
    binding_overhead = False
