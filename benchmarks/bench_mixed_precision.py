"""Mixed-precision preconditioning benchmark: reduced storage vs uniform.

Runs float64 Krylov solves (CG, GMRES) whose preconditioners store their
data (inverted Jacobi blocks, ILU factors) in float32 through the
accessor layer (:mod:`repro.ginkgo.accessor`), against the same solves
with uniform float64 storage, on the bandwidth-bound suite:

* **cg+jacobi16 / cg+jacobi32** — block-Jacobi on a shifted 2D Poisson
  stencil.  Block storage moves ``rows * block_size`` values per apply,
  several times the matrix's own nnz, so the apply is pure bandwidth.
* **gmres+parilu** — ParILU on a dense-banded (av41092-style) matrix.
  The triangular solves stream the factors; level scheduling caps their
  parallelism, so the band is kept wide enough that bytes, not launches,
  dominate.

All cases run on the OpenMP executor with a fixed thread count in the
linear region of the bandwidth-saturation curve (the paper's Fig. 3b
thread-sweep regime): per-thread bandwidth is the bottleneck and every
kernel in the suite is bytes-bound, which is exactly the regime where
halving storage width is an honest, model-backed win.

The acceptance gate is the **preconditioner-phase simulated time**: the
float32-storage preconditioner applies (including their mixed binding
crossings) must be >= 1.2x faster than uniform float64.  Whole-solve
simulated speedups are reported alongside and gated only against
regression — the solver's own float64 SpMV and BLAS-1 traffic is
unchanged by design, which caps the whole-solve ratio below the
preconditioner-phase ratio (for ILU at 24/20 asymptotically, since SpMV
reads value+index bytes the storage reduction cannot touch).

Invariants checked besides the speedup gate:

* iteration counts of the mixed solves stay within ``ITER_TOLERANCE`` of
  the uniform solves (reduced storage must not degrade convergence);
* explicitly requesting ``storage_precision="double"`` on a float64
  system produces byte-identical solutions to the default — the accessor
  pass-through contract (the uniform path byte-identity against pre-PR
  histories is pinned separately in ``tests/ginkgo/test_mixed_precision``);
* mixed runs route through the mixed-suffix binding symbols
  (``jacobi_apply_double_float``, ``trsv_apply_double_float``) and
  uniform runs never do — checked on the recorded trace, so dispatch
  attribution sees mixed kernels as first-class.

Standalone::

    python benchmarks/bench_mixed_precision.py            # full run
    python benchmarks/bench_mixed_precision.py --smoke    # CI gate (fast)

Writes ``BENCH_mixed.json`` next to the repo root.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import repro as pg
from repro.bindings import dispatch, reset_models
from repro.ginkgo import cachestats
from repro.ginkgo.matrix import Csr, Dense
from repro.suitesparse.generators import banded, poisson_2d

#: Acceptance threshold on the preconditioner-phase simulated time.
MIN_PRECOND_SPEEDUP = 1.2

#: Mixed storage must never slow the whole solve down.
MIN_SOLVE_RATIO = 1.0

#: Allowed drift in iteration count between uniform and mixed solves.
ITER_TOLERANCE = 2

#: OpenMP threads: linear region of the bandwidth-saturation curve.
NUM_THREADS = 4

#: Shift added to the Poisson stencil so CG converges in O(100) steps.
POISSON_SHIFT = 0.05

CRITERIA = [
    {"type": "stop::Iteration", "max_iters": 300},
    {"type": "stop::ResidualNorm", "reduction_factor": 1e-8},
]


def _shifted_poisson(nx):
    n = nx * nx
    return poisson_2d(nx) + POISSON_SHIFT * sp.eye(n, format="csr")


def _cases(smoke):
    """The bandwidth-bound suite; smoke shrinks sizes, not structure."""
    poisson_nx = 96 if smoke else 128
    banded_n, banded_bw = (4096, 24) if smoke else (8192, 24)
    return [
        {
            "name": "cg+jacobi16",
            "matrix": lambda: _shifted_poisson(poisson_nx),
            "config": {
                "type": "cg",
                "preconditioner": {"type": "jacobi", "max_block_size": 16},
            },
            "mixed_symbol": "jacobi_apply_double_float",
        },
        {
            "name": "cg+jacobi32",
            "matrix": lambda: _shifted_poisson(poisson_nx),
            "config": {
                "type": "cg",
                "preconditioner": {"type": "jacobi", "max_block_size": 32},
            },
            "mixed_symbol": "jacobi_apply_double_float",
        },
        {
            "name": "gmres+parilu",
            "matrix": lambda: banded(banded_n, banded_bw, seed=3),
            "config": {
                "type": "gmres",
                "preconditioner": {
                    "type": "ilu", "algorithm": "parilu", "sweeps": 2
                },
            },
            "mixed_symbol": "trsv_apply_double_float",
        },
    ]


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _fresh_state():
    """Reset every process-global cache so variants start identically."""
    pg.clear_device_cache()
    reset_models()
    dispatch.clear()
    cachestats.reset()
    pg.lazy.reset()


def _precond_time(trace):
    """Simulated seconds inside top-level preconditioner apply spans."""
    total = 0.0

    def walk(span, inside):
        nonlocal total
        mine = span.category == "precond" and not inside
        if mine:
            total += span.duration
        for child in span.children:
            walk(child, inside or mine)

    for root in trace.roots:
        walk(root, False)
    return total


def _binding_labels(trace):
    """Names of every binding crossing recorded in the trace."""
    labels = set()

    def walk(span):
        if span.category == "binding":
            labels.add(span.name)
        for child in span.children:
            walk(child)

    for root in trace.roots:
        walk(root)
    return labels


def _run_variant(case, storage_precision, repeats):
    """Solve one case at one storage precision; return the measurements.

    The device is created noise-free: the gate is an analytic regression
    check on the cost model, and determinism keeps the CI signal clean.
    """
    _fresh_state()
    dev = pg.device(
        "omp", fresh=True, num_threads=NUM_THREADS, noisy=False
    )
    mtx = Csr.from_scipy(dev, case["matrix"]())
    n = mtx.size[0]
    config = dict(case["config"])
    config["criteria"] = CRITERIA
    if storage_precision is not None:
        config["preconditioner"] = dict(
            config["preconditioner"], storage_precision=storage_precision
        )
    b = Dense(dev, np.ones((n, 1)))
    gen_start = time.perf_counter()
    solver = pg.config_solver(dev, mtx, config)
    gen_wall = time.perf_counter() - gen_start

    sims, preconds, walls = [], [], []
    iterations = None
    solution = None
    bindings = set()
    for _ in range(repeats):
        x = Dense(dev, np.zeros((n, 1)))
        sim_start = dev.clock.now
        wall_start = time.perf_counter()
        with pg.profile(dev) as prof:
            solver.apply(b, x)
        walls.append(time.perf_counter() - wall_start)
        sims.append(dev.clock.now - sim_start)
        prof.close()
        preconds.append(_precond_time(prof.trace))
        bindings |= _binding_labels(prof.trace)
        iterations = solver.num_iterations
        solution = x.to_numpy().tobytes()
    return {
        "sim": _median(sims),
        "precond_sim": _median(preconds),
        "wall": _median(walls),
        "generate_wall": gen_wall,
        "iterations": iterations,
        "solution": solution,
        "binding_labels": bindings,
    }


def _check_case(case, uniform, explicit, mixed, failures):
    """Apply every per-case invariant; returns the case report entry."""
    name = case["name"]
    symbol = case["mixed_symbol"]
    precond_speedup = (
        uniform["precond_sim"] / mixed["precond_sim"]
        if mixed["precond_sim"] > 0
        else float("inf")
    )
    solve_speedup = (
        uniform["sim"] / mixed["sim"] if mixed["sim"] > 0 else float("inf")
    )
    if precond_speedup < MIN_PRECOND_SPEEDUP:
        failures.append(
            f"{name}: float32-storage preconditioner phase "
            f"{precond_speedup:.3f}x below the "
            f"{MIN_PRECOND_SPEEDUP:.2f}x gate"
        )
    if solve_speedup < MIN_SOLVE_RATIO:
        failures.append(
            f"{name}: mixed solve regressed to {solve_speedup:.3f}x "
            f"of uniform simulated time"
        )
    iter_drift = abs(mixed["iterations"] - uniform["iterations"])
    if iter_drift > ITER_TOLERANCE:
        failures.append(
            f"{name}: iteration count drifted by {iter_drift} "
            f"({uniform['iterations']} -> {mixed['iterations']}, "
            f"tolerance {ITER_TOLERANCE})"
        )
    if explicit["solution"] != uniform["solution"]:
        failures.append(
            f"{name}: storage_precision='double' is not byte-identical "
            "to the default uniform path"
        )
    if symbol not in mixed["binding_labels"]:
        failures.append(
            f"{name}: mixed run never crossed the {symbol} binding symbol"
        )
    leaked = {
        label
        for label in uniform["binding_labels"] | explicit["binding_labels"]
        if "_double_float" in label or "_double_half" in label
    }
    if leaked:
        failures.append(
            f"{name}: uniform run crossed mixed binding symbols {sorted(leaked)}"
        )
    return {
        "case": name,
        "uniform_sim_s": uniform["sim"],
        "mixed_sim_s": mixed["sim"],
        "uniform_precond_sim_s": uniform["precond_sim"],
        "mixed_precond_sim_s": mixed["precond_sim"],
        "precond_speedup": precond_speedup,
        "solve_speedup": solve_speedup,
        "uniform_iterations": uniform["iterations"],
        "mixed_iterations": mixed["iterations"],
        "uniform_wall_s": uniform["wall"],
        "mixed_wall_s": mixed["wall"],
        "generate_wall_s": mixed["generate_wall"],
    }


def run(smoke=False, repeats=None, out_path="BENCH_mixed.json"):
    """Run the suite, check the invariants, write the JSON report."""
    if repeats is None:
        repeats = 2 if smoke else 3
    failures = []
    entries = []
    for case in _cases(smoke):
        uniform = _run_variant(case, None, repeats)
        explicit = _run_variant(case, "double", repeats)
        mixed = _run_variant(case, "float", repeats)
        entry = _check_case(case, uniform, explicit, mixed, failures)
        entries.append(entry)
        print(
            f"{entry['case']:14s} precond {entry['precond_speedup']:5.2f}x "
            f"(gate {MIN_PRECOND_SPEEDUP:.2f}x) | "
            f"solve {entry['solve_speedup']:5.2f}x | "
            f"iters {entry['uniform_iterations']}/{entry['mixed_iterations']}"
        )

    # Half storage on the widest-block case, reported but not gated: the
    # ISSUE gate is float32, float16 shows the accessor's full range.
    half_case = _cases(smoke)[1]
    half = _run_variant(half_case, "half", repeats)
    half_uniform = next(e for e in entries if e["case"] == half_case["name"])
    half_speedup = (
        half_uniform["uniform_precond_sim_s"] / half["precond_sim"]
        if half["precond_sim"] > 0
        else float("inf")
    )
    print(
        f"{half_case['name'] + ' (half)':14s} precond {half_speedup:5.2f}x "
        f"(informational) | iters {half_uniform['uniform_iterations']}"
        f"/{half['iterations']}"
    )

    speedups = [entry["precond_speedup"] for entry in entries]
    geomean = float(np.exp(np.mean(np.log(speedups)))) if speedups else 0.0
    report = {
        "benchmark": "mixed_precision_preconditioning",
        "num_threads": NUM_THREADS,
        "repeats": repeats,
        "smoke": smoke,
        "cases": entries,
        "half_storage_precond_speedup": half_speedup,
        "half_storage_iterations": half["iterations"],
        "simulated_speedup_x": geomean,
        "min_simulated_speedup_x": MIN_PRECOND_SPEEDUP,
        "min_solve_ratio": MIN_SOLVE_RATIO,
        "iteration_tolerance": ITER_TOLERANCE,
        "failures": failures,
    }
    Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    print(f"geomean precond speedup {geomean:.2f}x; wrote {out_path}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI gate: smaller suite, same acceptance criteria",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--out", default="BENCH_mixed.json")
    args = parser.parse_args()
    report = run(smoke=args.smoke, repeats=args.repeats, out_path=args.out)
    if report["failures"]:
        for failure in report["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("mixed-smoke OK" if args.smoke else "mixed-precision bench OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
