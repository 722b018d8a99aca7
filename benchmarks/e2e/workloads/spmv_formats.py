"""SpMV across every storage format, then the write side of the caches.

Read phase: repeated applies of each format (CSR under both strategies,
COO, ELL, SELL-P, Hybrid), float32 CSR and an 8-column SpMM on a
Poisson-2D matrix large enough that the NumPy kernels, not the per-call
dispatch, set the time (Fig. 3a/3b/5a).

Write phase, on a smaller irregular Kronecker-graph matrix: format
conversions cold then warm, an in-place value update through
``writable_values()`` + ``mark_modified()`` followed by a re-apply, and
a ``pg.write``/``pg.read`` round trip.  It drives the memoised
derived-object layer in the invalidating direction, so a read-side gain
bought with a dearer invalidation shows up here.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import repro as pg
from repro.ginkgo.matrix import Csr, Dense
from repro.suitesparse.generators import kronecker_graph, poisson_2d

from benchmarks.e2e.catalog import FORMATS
from benchmarks.e2e.harness import hash_arrays, hash_sparse
from benchmarks.e2e.workloads.base import Inputs, Outcome, Workload

#: Oracle: max-norm relative error of an SpMV against SciPy's.
DOUBLE_TOL = 1e-12
FLOAT_TOL = 1e-5
#: In-place value update of the write phase.
UPDATE = 1.0001
CONVERSIONS = ("coo", "ell", "sellp", "hybrid")


def _max_rel(got, want) -> float:
    want = np.asarray(want, dtype=np.float64)
    scale = float(np.abs(want).max()) or 1.0
    return float(np.abs(np.asarray(got, dtype=np.float64) - want).max()) / scale


class SpmvFormats(Workload):
    name = "spmv_formats"
    why = (
        "10 applies each of 6 sparse formats + float32 + 8-column SpMM on "
        "Poisson-2D nx=384 (n=147456, nnz=0.74M), then convert/invalidate/"
        "write on a Kronecker graph; NumPy kernels dominate, solvers bypassed"
    )
    sizes = {
        "full": {"nx": 384, "applies": 10, "kron_scale": 11},
        "quick": {"nx": 40, "applies": 3, "kron_scale": 7},
    }
    dominant = (("ginkgo.matrix",), 0.75)
    bypassed = (("core", "ginkgo.mtx_io"), 0.25)

    def make_inputs(self, seed, size, workdir):
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        mat = poisson_2d(size["nx"])
        kron = kronecker_graph(size["kron_scale"], seed=seed)
        generate_s = time.perf_counter() - t0
        n, nk = mat.shape[0], kron.shape[0]
        x = rng.standard_normal((n, 1))
        x8 = rng.standard_normal((n, 8))
        kx = rng.standard_normal((nk, 1))
        mat32, x32 = mat.astype(np.float32), x.astype(np.float32)
        updated = kron.copy()
        updated.data *= UPDATE
        return Inputs(
            data={
                "mat": mat, "mat32": mat32, "kron": kron,
                "x": x, "x32": x32, "x8": x8, "kx": kx,
                "path": str(Path(workdir) / "kron.mtx"),
                "applies": size["applies"],
            },
            refs={
                "y": mat @ x, "y32": mat32 @ x32, "y8": mat @ x8,
                "ky": updated @ kx, "kron_values": updated.data,
            },
            digest=hash_arrays(*hash_sparse(mat), *hash_sparse(kron), x, x8, kx),
            generate_s=generate_s,
        )

    def start(self, inputs, tracer):
        dev = pg.device("cuda")
        data = inputs.data
        mat = data["mat"]
        ops = {}
        with tracer.span("core.matrix_build", "core"):
            ops["csr"] = pg.matrix(device=dev, data=mat, format="Csr")
        with tracer.span("matrix.build.csr", "ginkgo.matrix"):
            Csr.from_scipy(dev, mat)
        ops["csr_classical"] = pg.matrix(
            device=dev, data=mat, format="Csr", strategy="classical"
        )
        for fmt in ("coo", "ell", "sellp"):
            ops[fmt] = pg.matrix(device=dev, data=mat, format=fmt)
        with tracer.span("matrix.build.hybrid", "ginkgo.matrix"):
            ops["hybrid"] = pg.matrix(device=dev, data=mat, format="Hybrid")
        n = mat.shape[0]
        return {
            "inputs": inputs,
            "dev": dev,
            "ops": ops,
            "csr32": pg.matrix(
                device=dev, data=data["mat32"], dtype="float", format="Csr"
            ),
            "x": Dense(dev, data["x"]),
            "x32": Dense(dev, data["x32"]),
            "x8": Dense(dev, data["x8"]),
            "kx": Dense(dev, data["kx"]),
            "y": Dense(dev, np.zeros((n, 1))),
            "y32": Dense(dev, np.zeros((n, 1), dtype=np.float32)),
            "y8": Dense(dev, np.zeros((n, 8))),
            "ky": Dense(dev, np.zeros_like(data["kx"])),
        }

    def request(self, state, tracer):
        data = state["inputs"].data
        dev, applies = state["dev"], data["applies"]
        clock = dev.clock
        outcome = Outcome()
        x, y = state["x"], state["y"]
        for fmt in FORMATS:
            op = state["ops"][fmt]
            bytes0, flops0 = clock.bytes_moved, clock.flops_done
            with tracer.span(f"matrix.spmv.{fmt}", "ginkgo.matrix"):
                for _ in range(applies):
                    op.apply(x, y)
            if fmt == "csr":
                state.setdefault("facts", {
                    "bytes_per_spmv": (clock.bytes_moved - bytes0) / applies,
                    "flops_per_spmv": (clock.flops_done - flops0) / applies,
                })
            outcome.answers[fmt] = y.to_numpy().copy()
        with tracer.span("matrix.spmv_f32.csr", "ginkgo.matrix"):
            for _ in range(applies):
                state["csr32"].apply(state["x32"], state["y32"])
        outcome.answers["f32"] = state["y32"].to_numpy().copy()
        with tracer.span("matrix.spmm8.csr", "ginkgo.matrix"):
            for _ in range(applies):
                state["ops"]["csr"].apply(state["x8"], state["y8"])
        outcome.answers["spmm8"] = state["y8"].to_numpy().copy()

        # -- write phase -------------------------------------------------
        with tracer.span("core.matrix", "core"):
            kron = pg.matrix(device=dev, data=data["kron"], format="Csr")
        with tracer.span("matrix.convert_cold", "ginkgo.matrix"):
            for fmt in CONVERSIONS:
                getattr(kron, f"convert_to_{fmt}")()
        with tracer.span("matrix.convert_warm", "ginkgo.matrix"):
            for fmt in CONVERSIONS:
                getattr(kron, f"convert_to_{fmt}")()
        kron.apply(state["kx"], state["ky"])
        with tracer.span("matrix.invalidate_reapply", "ginkgo.matrix"):
            values = kron.writable_values()
            values *= UPDATE
            kron.mark_modified()
            kron.apply(state["kx"], state["ky"])
        outcome.answers["reapply"] = state["ky"].to_numpy().copy()
        with tracer.span("mtx_io.write", "ginkgo.mtx_io"):
            pg.write(data["path"], kron)
        with tracer.span("core.read", "core"):
            back = pg.read(device=dev, path=data["path"], format="Csr")
        outcome.answers["roundtrip"] = np.array(back.values)
        return outcome

    def verify(self, state, outcome):
        refs = state["inputs"].refs
        checks = [(fmt, "y", DOUBLE_TOL) for fmt in FORMATS] + [
            ("f32", "y32", FLOAT_TOL),
            ("spmm8", "y8", DOUBLE_TOL),
            ("reapply", "ky", DOUBLE_TOL),
            ("roundtrip", "kron_values", DOUBLE_TOL),
        ]
        problems = list(outcome.problems)
        for answer, ref, tol in checks:
            got = outcome.answers[answer]
            if got.shape != refs[ref].shape:
                problems.append(f"{answer} has shape {got.shape}")
                continue
            err = _max_rel(got, refs[ref])
            if not err <= tol:
                problems.append(f"{answer} max rel err {err:.2e} > {tol:.0e}")
        return problems

    def sim_seconds(self, state):
        return state["dev"].clock.now

    def probes(self, state, tracer):
        data = state["inputs"].data
        mat, x = data["mat"], data["x"]
        for _ in range(3):
            with tracer.span("probe.scipy_spmv", "baselines"):
                for _ in range(data["applies"]):
                    mat @ x

    def layer_metrics(self, state, tracer):
        applies = state["inputs"].data["applies"]
        facts = state["facts"]

        def per_apply_us(name):
            return tracer.median(name) / applies * 1e6

        scipy_us = per_apply_us("probe.scipy_spmv")
        out = {
            f"matrix.spmv_us.{fmt}": per_apply_us(f"matrix.spmv.{fmt}")
            for fmt in FORMATS
        }
        out.update({
            "matrix.spmv_f32_us.csr": per_apply_us("matrix.spmv_f32.csr"),
            "matrix.spmm8_us.csr": per_apply_us("matrix.spmm8.csr"),
            "matrix.build_s.csr": tracer.median("matrix.build.csr"),
            "matrix.build_s.hybrid": tracer.median("matrix.build.hybrid"),
            "matrix.convert_cold_s": tracer.median("matrix.convert_cold"),
            "matrix.convert_warm_us": tracer.median("matrix.convert_warm") * 1e6,
            "matrix.invalidate_reapply_us": (
                tracer.median("matrix.invalidate_reapply") * 1e6
            ),
            "matrix.spmv_vs_scipy_x": out["matrix.spmv_us.csr"] / scipy_us,
            "matrix.computed_bytes_per_spmv": facts["bytes_per_spmv"],
            "matrix.computed_flops_per_byte": (
                facts["flops_per_spmv"] / facts["bytes_per_spmv"]
            ),
            "mtx_io.write_s": tracer.median("mtx_io.write"),
            "core.matrix_build_s": tracer.median("core.matrix_build"),
            "baselines.scipy_spmv_us": scipy_us,
            "suitesparse.generate_s": state["inputs"].generate_s,
        })
        return out
