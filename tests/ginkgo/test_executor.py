"""Executor tests: creation, memory spaces, copies, clocks."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.ginkgo import (
    AllocationError,
    CudaExecutor,
    HipExecutor,
    OmpExecutor,
    ReferenceExecutor,
)
from repro.ginkgo.exceptions import GinkgoError


class TestCreation:
    def test_direct_construction_forbidden(self):
        # Mirrors Ginkgo's protected constructors (paper section 4.1).
        with pytest.raises(TypeError, match="create"):
            ReferenceExecutor()

    def test_create_nested_in_a_constructor(self):
        class Nesting(ReferenceExecutor):
            def __init__(self, **kwargs):
                # A create() finishing before this constructor's own
                # check must not revoke this constructor's permit.
                self.helper = ReferenceExecutor.create(noisy=False)
                super().__init__(**kwargs)

        nesting = Nesting.create(noisy=False)
        assert isinstance(nesting.helper, ReferenceExecutor)
        with pytest.raises(TypeError, match="create"):
            Nesting()

    def test_concurrent_creates_never_refuse(self):
        # A GPU executor's constructor nests OmpExecutor.create() for its
        # master; a tiny switch interval interleaves the threads' creates.
        threads, rounds = 4, 200
        barrier = threading.Barrier(threads, timeout=60)

        def worker():
            barrier.wait()
            made = [CudaExecutor.create(noisy=False) for _ in range(rounds)]
            with pytest.raises(TypeError):
                CudaExecutor()
            return len(made)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(worker) for _ in range(threads)]
                done = [f.result(timeout=60) for f in futures]
            assert done == [rounds] * threads
        finally:
            sys.setswitchinterval(interval)

    def test_create_factory_works_for_all(self):
        for cls in (ReferenceExecutor, OmpExecutor, CudaExecutor, HipExecutor):
            assert isinstance(cls.create(noisy=False), cls)

    def test_names(self):
        assert ReferenceExecutor.create().name == "reference"
        assert OmpExecutor.create().name == "omp"
        assert CudaExecutor.create().name == "cuda"
        assert HipExecutor.create().name == "hip"

    def test_host_flags(self):
        assert ReferenceExecutor.create().is_host
        assert OmpExecutor.create().is_host
        assert not CudaExecutor.create().is_host
        assert not HipExecutor.create().is_host

    def test_gpu_has_master_host_executor(self):
        cuda = CudaExecutor.create()
        assert cuda.get_master().is_host
        ref = ReferenceExecutor.create()
        assert ref.get_master() is ref

    def test_omp_thread_validation(self):
        with pytest.raises(GinkgoError):
            OmpExecutor.create(num_threads=0)

    def test_device_specs(self):
        assert "A100" in CudaExecutor.create().spec.name
        assert "MI100" in HipExecutor.create().spec.name


class TestModelledThreads:
    """``num_threads`` is a perf-model quantity: no host thread is run."""

    def test_omp_kernels_start_no_threads(self):
        import repro as pg
        from repro.ginkgo.batch import BatchCg, BatchCsr, BatchDense
        from repro.ginkgo.matrix import Csr, Dense
        from repro.ginkgo.stop import Iteration
        from repro.suitesparse.generators import poisson_2d

        threads = threading.active_count()
        dev = pg.device("omp", fresh=True)  # default: one thread per core
        assert dev.num_threads > 1
        mat = poisson_2d(64)  # 4096 rows
        mtx = Csr.from_scipy(dev, mat)
        b = Dense.create(dev, np.ones((mat.shape[0], 2)))
        x = Dense.zeros(dev, (mat.shape[0], 2), np.float64)
        mtx.apply(b, x)
        np.testing.assert_array_equal(x.view(), mat @ np.ones((4096, 2)))

        omp = OmpExecutor.create(num_threads=8, noisy=False)
        small = poisson_2d(4).tocsr()
        A = BatchCsr.from_scipy_list(omp, [small * (1 + k) for k in range(16)])
        rhs = BatchDense.from_dense_list(omp, [np.ones((16, 1))] * 16)
        sol = BatchDense.zeros(omp, 16, (16, 1), np.float64)
        BatchCg(omp, criteria=Iteration(50)).generate(A).apply(rhs, sol)
        assert threading.active_count() == threads

    def test_no_concurrent_futures_under_src(self):
        import ast
        from pathlib import Path

        import repro

        offenders = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n.split(".")[0] == "concurrent" for n in names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


class TestMemory:
    def test_alloc_tracks_bytes(self, ref):
        before = ref.bytes_allocated
        buf = ref.alloc((100,), np.float64)
        assert ref.bytes_allocated == before + buf.nbytes
        assert ref.allocation_count >= 1

    def test_alloc_zero_initialised(self, ref):
        assert not ref.alloc((50,), np.float64).any()

    def test_free_returns_bytes(self, ref):
        buf = ref.alloc((100,), np.float64)
        used = ref.bytes_allocated
        ref.free(buf)
        assert ref.bytes_allocated == used - buf.nbytes

    def test_peak_tracking(self, ref):
        buf = ref.alloc((1000,), np.float64)
        ref.free(buf)
        assert ref.peak_bytes_allocated >= buf.nbytes

    def test_out_of_memory_raises(self, cuda):
        # The A100 spec has 40 GB; a 50 GB request must fail without
        # actually allocating host RAM.
        with pytest.raises(AllocationError, match="failed to allocate"):
            cuda._track_alloc(int(50e9))


class TestDataMovement:
    def test_host_to_device_roundtrip(self, ref, cuda):
        data = np.arange(10, dtype=np.float64)
        on_device = cuda.copy_from(ref, data)
        back = ref.copy_from(cuda, on_device)
        np.testing.assert_array_equal(back, data)

    def test_copy_is_a_copy(self, ref):
        data = np.arange(10, dtype=np.float64)
        copied = ref.copy_from(ref, data)
        copied[0] = 99
        assert data[0] == 0

    def test_pcie_transfer_advances_both_clocks(self, ref, cuda):
        data = np.zeros(1 << 20)
        t_ref, t_cuda = ref.clock.now, cuda.clock.now
        cuda.copy_from(ref, data)
        assert cuda.clock.now > t_cuda
        assert ref.clock.now > t_ref

    def test_larger_transfers_take_longer(self, ref, cuda):
        t0 = cuda.clock.now
        cuda.copy_from(ref, np.zeros(1 << 10))
        small = cuda.clock.now - t0
        t0 = cuda.clock.now
        cuda.copy_from(ref, np.zeros(1 << 24))
        large = cuda.clock.now - t0
        assert large > 10 * small

    def test_synchronize_advances_clock(self, cuda):
        before = cuda.clock.now
        cuda.synchronize()
        assert cuda.clock.now > before
