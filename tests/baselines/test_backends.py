"""Backend tests: numerics identical across libraries, timing profiles
reproduce the paper's relationships."""

import numpy as np
import pytest

from repro.baselines import (
    CupyBackend,
    GinkgoNativeBackend,
    PyGinkgoBackend,
    PyTorchBackend,
    ScipyBackend,
    TensorFlowBackend,
)
from repro.bench.timing import measure_spmv, spmv_gflops
from repro.ginkgo.exceptions import NotSupported
from repro.perfmodel.specs import AMD_MI100, INTEL_XEON_8368, NVIDIA_A100
from repro.suitesparse import generators as gen

ALL_BACKENDS = [
    ScipyBackend,
    CupyBackend,
    PyTorchBackend,
    TensorFlowBackend,
    PyGinkgoBackend,
    GinkgoNativeBackend,
]


@pytest.fixture
def medium_matrix():
    return gen.mesh_delaunay(3000, seed=11)


class TestNumericalAgreement:
    @pytest.mark.parametrize("backend_cls", ALL_BACKENDS)
    def test_spmv_values_identical(self, backend_cls, medium_matrix, rng):
        backend = backend_cls(noisy=False)
        fmt = "coo" if backend_cls is TensorFlowBackend else "csr"
        handle = backend.prepare(medium_matrix, fmt, np.float64)
        x = rng.standard_normal(medium_matrix.shape[1])
        np.testing.assert_allclose(
            backend.spmv(handle, x), medium_matrix @ x, rtol=1e-12
        )

    @pytest.mark.parametrize(
        "solver,backend_cls",
        [
            (solver, backend_cls)
            for solver in ("cg", "cgs", "gmres")
            for backend_cls in (ScipyBackend, CupyBackend, PyGinkgoBackend)
        ]
        # CuPy has no BiCGSTAB (test_cupy_has_no_bicgstab).
        + [("bicgstab", ScipyBackend), ("bicgstab", PyGinkgoBackend)],
    )
    def test_solvers_reduce_residual(
        self, backend_cls, solver, spd_small
    ):
        backend = backend_cls(noisy=False)
        handle = backend.prepare(spd_small, "csr", np.float64)
        b = np.ones(spd_small.shape[0])
        result = backend.run_solver(handle, solver, b, 25)
        x = np.asarray(result["x"]).reshape(-1)
        res = np.linalg.norm(b - spd_small @ x)
        assert res < 1e-6 * np.linalg.norm(b)

    def test_cupy_and_ginkgo_cg_agree(self, spd_small):
        cp = CupyBackend(noisy=False)
        gk = PyGinkgoBackend(noisy=False)
        b = np.ones(spd_small.shape[0])
        x_cp = cp.run_solver(
            cp.prepare(spd_small, "csr", np.float64), "cg", b, 10
        )["x"].reshape(-1)
        x_gk = gk.run_solver(
            gk.prepare(spd_small, "csr", np.float64), "cg", b, 10
        )["x"].reshape(-1)
        np.testing.assert_allclose(x_cp, x_gk, rtol=1e-8)


class TestFormatAndSolverSupport:
    def test_tensorflow_rejects_csr(self, medium_matrix):
        backend = TensorFlowBackend(noisy=False)
        with pytest.raises(NotSupported, match="format"):
            backend.prepare(medium_matrix, "csr")

    def test_pytorch_has_no_solvers(self, medium_matrix):
        backend = PyTorchBackend(noisy=False)
        handle = backend.prepare(medium_matrix, "csr", np.float64)
        with pytest.raises(NotSupported, match="solver"):
            backend.run_solver(handle, "cg", np.ones(3000), 5)

    def test_cupy_has_no_bicgstab(self, medium_matrix):
        backend = CupyBackend(noisy=False)
        handle = backend.prepare(medium_matrix, "csr", np.float64)
        with pytest.raises(NotSupported):
            backend.run_solver(handle, "bicgstab", np.ones(3000), 5)

    def test_pyginkgo_supports_all_ginkgo_formats(self):
        assert set(PyGinkgoBackend.supported_formats) == {
            "csr", "coo", "ell", "sellp", "hybrid",
        }


class TestPaperRelationships:
    def test_gpu_spmv_ordering(self, rng):
        # Fig 3a ordering at large NNZ: pyGinkgo > PyTorch > CuPy > TF.
        matrix = gen.random_general(40000, 0.001, seed=21)
        x = rng.standard_normal(matrix.shape[1]).astype(np.float32)
        times = {}
        for cls, fmt in [
            (PyGinkgoBackend, "csr"),
            (PyTorchBackend, "csr"),
            (CupyBackend, "csr"),
            (TensorFlowBackend, "coo"),
        ]:
            backend = cls(spec=NVIDIA_A100, noisy=False)
            handle = backend.prepare(matrix, fmt, np.float32)
            times[cls.__name__] = measure_spmv(backend, handle, x, 3)
        assert (
            times["PyGinkgoBackend"]
            < times["PyTorchBackend"]
            < times["CupyBackend"]
            < times["TensorFlowBackend"]
        )

    def test_scipy_wins_single_threaded_cpu(self, rng):
        # Paper 6.1.2: SciPy is the fastest on one CPU thread.
        matrix = gen.mesh_delaunay(20000, seed=22)
        x = rng.standard_normal(matrix.shape[1]).astype(np.float32)
        sc = ScipyBackend(noisy=False)
        gk = PyGinkgoBackend(
            spec=INTEL_XEON_8368, num_threads=1, noisy=False
        )
        t_sc = measure_spmv(sc, sc.prepare(matrix, "csr", np.float32), x, 3)
        t_gk = measure_spmv(gk, gk.prepare(matrix, "csr", np.float32), x, 3)
        assert t_sc < t_gk * 1.3  # at worst comparable; typically faster

    def test_pyginkgo_scales_with_threads(self, rng):
        matrix = gen.mesh_delaunay(20000, seed=23)
        x = rng.standard_normal(matrix.shape[1]).astype(np.float32)
        times = []
        for threads in (1, 8, 32):
            backend = PyGinkgoBackend(
                spec=INTEL_XEON_8368, num_threads=threads, noisy=False
            )
            handle = backend.prepare(matrix, "csr", np.float32)
            times.append(measure_spmv(backend, handle, x, 3))
        assert times[0] > times[1] > times[2]

    def test_a100_faster_than_mi100(self, rng):
        # Fig 5a: A100 slightly ahead, especially at large NNZ.
        matrix = gen.random_general(60000, 0.001, seed=24)
        x = rng.standard_normal(matrix.shape[1]).astype(np.float32)
        a100 = PyGinkgoBackend(spec=NVIDIA_A100, noisy=False)
        mi100 = PyGinkgoBackend(spec=AMD_MI100, noisy=False)
        t_a = measure_spmv(a100, a100.prepare(matrix, "csr", np.float32), x, 3)
        t_m = measure_spmv(mi100, mi100.prepare(matrix, "csr", np.float32), x, 3)
        assert t_a < t_m

    def test_binding_overhead_only_on_pyginkgo(self, medium_matrix, rng):
        x = rng.standard_normal(medium_matrix.shape[1]).astype(np.float32)
        py = PyGinkgoBackend(noisy=False, seed=1)
        native = GinkgoNativeBackend(noisy=False, seed=1)
        t_py = measure_spmv(
            py, py.prepare(medium_matrix, "csr", np.float32), x, 10
        )
        t_native = measure_spmv(
            native, native.prepare(medium_matrix, "csr", np.float32), x, 10
        )
        assert t_py > t_native

    def test_solver_speedup_ordering_cgs_over_cg(self, spd_small):
        # Fig 3c: CGS shows the largest pyGinkgo advantage over CuPy.
        b = np.ones(spd_small.shape[0])
        ratios = {}
        for solver in ("cg", "cgs", "gmres"):
            gk = PyGinkgoBackend(noisy=False)
            cp = CupyBackend(noisy=False)
            r_gk = gk.run_solver(
                gk.prepare(spd_small, "csr", np.float64), solver, b, 20
            )
            r_cp = cp.run_solver(
                cp.prepare(spd_small, "csr", np.float64), solver, b, 20
            )
            ratios[solver] = (
                r_cp["time_per_iteration"] / r_gk["time_per_iteration"]
            )
        assert ratios["cgs"] > ratios["cg"] > 1.5
        assert ratios["gmres"] < 1.1  # CuPy slightly faster for GMRES

    def test_gflops_helper(self):
        assert spmv_gflops(1_000_000, 1e-3) == pytest.approx(2.0)
        assert spmv_gflops(100, 0.0) == 0.0
