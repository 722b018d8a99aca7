"""Batched vs sequential solver benchmark (K small SPD systems, CG).

The paper's overhead analysis shows Python dispatch dominating small
solves.  The batched solver subsystem amortizes that dispatch: one
lockstep kernel call advances all ``K`` systems, so the per-iteration
Python cost is paid once per batch instead of once per system.

This gate solves ``K = 64`` small tridiagonal SPD systems twice:

* **sequential** — one scalar CG handle per system, solved in a loop
  (each solve pays its own binding resolution, solver generation, and
  per-iteration dispatch);
* **batched** — one ``pg.batch.cg`` handle over a ``BatchCsr`` holding
  all systems, with per-system stopping.

Every gate is exact, so none depends on the host:

* numerics must not drift: every system's batched residual history is
  compared byte-for-byte against its sequential counterpart;
* the batched solve crosses the factory binding once, the sequential
  loop ``K`` times;
* the batched solve is no slower on the simulated clock;
* an ``omp(8)`` batched solve (threads are modelled only) reproduces
  the reference executor's histories byte for byte.

The wall-clock ratio is reported as ``wall_speedup_x`` beside
``cpu_count``, not gated.

Standalone::

    python benchmarks/bench_batch.py            # full run
    python benchmarks/bench_batch.py --smoke    # CI gate (fast)

Writes ``BENCH_batch.json`` next to the repo root with the timings.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import repro as pg
from repro.bindings import dispatch, reset_models
from repro.ginkgo import cachestats
from repro.ginkgo.matrix import Csr

def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _fresh_state():
    pg.clear_device_cache()
    reset_models()
    dispatch.clear()
    cachestats.reset()


class FactoryCrossings:
    """Clock tracer counting factory-binding crossings (``*_factory_*``)."""

    def __init__(self) -> None:
        self.count = 0

    def on_clock_event(self, clock, category, name, start, duration, meta):
        if category == "binding" and "_factory_" in name:
            self.count += 1


def count_factory_crossings(solve, mats, rhs, max_iters, tol):
    """Factory-binding crossings of one ``solve`` on a fresh device."""
    _fresh_state()
    dev = pg.device("reference", fresh=True)
    crossings = FactoryCrossings()
    dev.clock.add_tracer(crossings)
    solve(dev, mats, rhs, max_iters, tol)
    return crossings.count


def make_systems(n, num_systems, seed=1234):
    """K tridiagonal SPD systems sharing one pattern, varied diagonals."""
    rng = np.random.default_rng(seed)
    base = sp.diags(
        [-1.0 * np.ones(n - 1), 4.0 * np.ones(n), -1.0 * np.ones(n - 1)],
        [-1, 0, 1],
    ).tocsr()
    mats, rhs = [], []
    for k in range(num_systems):
        mat = base.copy()
        mat.setdiag(4.0 + (0.2 + 0.8 * k / num_systems) * rng.random(n))
        mat.sort_indices()
        mats.append(mat.tocsr())
        rhs.append(rng.standard_normal((n, 1)))
    return mats, rhs


def run_sequential(dev, mats, rhs, max_iters, tol):
    """One scalar CG handle per system, solved in a loop."""
    n = mats[0].shape[0]
    t0 = time.perf_counter()
    sim0 = dev.clock.now
    histories = []
    for mat, b_np in zip(mats, rhs):
        mtx = Csr.from_scipy(dev, mat)
        handle = pg.solver.cg(
            dev, mtx, max_iters=max_iters, reduction_factor=tol
        )
        b = pg.as_tensor(device=dev, data=b_np, dtype="double")
        x = pg.as_tensor(device=dev, dim=(n, 1), dtype="double")
        logger, _ = handle.apply(b, x)
        if not logger.converged:
            raise RuntimeError("sequential benchmark solve did not converge")
        histories.append(list(logger.residual_norms))
    elapsed = time.perf_counter() - t0
    return histories, elapsed, dev.clock.now - sim0


def run_batched(dev, mats, rhs, max_iters, tol):
    """One batched CG handle over all systems."""
    t0 = time.perf_counter()
    sim0 = dev.clock.now
    batch_mtx = pg.batch.matrices(dev, mats)
    b = pg.batch.vectors(dev, rhs)
    x = pg.batch.zeros_like(b)
    handle = pg.batch.cg(
        dev, batch_mtx, max_iters=max_iters, reduction_factor=tol
    )
    loggers, _ = handle.apply(b, x)
    if not handle.status.all_converged:
        raise RuntimeError("batched benchmark solve did not converge")
    histories = [list(logger.residual_norms) for logger in loggers]
    elapsed = time.perf_counter() - t0
    return histories, elapsed, dev.clock.now - sim0


def run(
    n=24,
    num_systems=64,
    repeats=5,
    max_iters=200,
    tol=1e-9,
    out_path="BENCH_batch.json",
):
    """Run both paths, check the invariants, write the JSON report."""
    failures = []
    mats, rhs = make_systems(n, num_systems)

    _fresh_state()
    dev = pg.device("reference", fresh=True)
    seq_times, seq_hists = [], None
    seq_sim = None
    for _ in range(repeats):
        hists, elapsed, sim = run_sequential(dev, mats, rhs, max_iters, tol)
        seq_times.append(elapsed)
        seq_sim = sim
        if seq_hists is None:
            seq_hists = hists
        elif hists != seq_hists:
            failures.append("sequential histories drift across repeats")

    _fresh_state()
    dev = pg.device("reference", fresh=True)
    batch_times, batch_hists = [], None
    batch_sim = None
    for _ in range(repeats):
        hists, elapsed, sim = run_batched(dev, mats, rhs, max_iters, tol)
        batch_times.append(elapsed)
        batch_sim = sim
        if batch_hists is None:
            batch_hists = hists
        elif hists != batch_hists:
            failures.append("batched histories drift across repeats")

    # Numerics: per-system histories must be byte-identical to the
    # sequential solves (masked per-system stopping, no lockstep drift).
    identical = all(
        np.array(a).tobytes() == np.array(b).tobytes()
        for a, b in zip(seq_hists, batch_hists)
    ) and len(seq_hists) == len(batch_hists)
    if not identical:
        failures.append(
            "batched residual histories differ from sequential solves"
        )

    # Modelled threads: an 8-thread omp batch is bytewise the reference.
    _fresh_state()
    omp = pg.device("omp", fresh=True, num_threads=8)
    omp_hists, omp_elapsed, _ = run_batched(omp, mats, rhs, max_iters, tol)
    if omp_hists != batch_hists:
        failures.append("omp(8) batched histories differ from reference")

    # Exact, host-independent gates: one factory crossing per batch, and
    # no simulated-time loss against the sequential loop.
    seq_crossings = count_factory_crossings(
        run_sequential, mats, rhs, max_iters, tol
    )
    batch_crossings = count_factory_crossings(
        run_batched, mats, rhs, max_iters, tol
    )
    if batch_crossings != 1 or seq_crossings != num_systems:
        failures.append(
            f"factory-binding crossings: batched {batch_crossings} "
            f"(want 1), sequential {seq_crossings} (want {num_systems})"
        )
    if batch_sim > seq_sim:
        failures.append(
            f"batched solve slower on the simulated clock ({batch_sim:.6e} s) "
            f"than the sequential loop ({seq_sim:.6e} s)"
        )

    seq_median = _median(seq_times)
    batch_median = _median(batch_times)
    speedup = seq_median / batch_median if batch_median > 0 else float("inf")

    report = {
        "benchmark": "batch_cg_vs_sequential",
        "system_size": n,
        "num_systems": num_systems,
        "repeats": repeats,
        "sequential_median_s": seq_median,
        "batched_median_s": batch_median,
        "sequential_times_s": seq_times,
        "batched_times_s": batch_times,
        "omp_batched_s": omp_elapsed,
        "wall_speedup_x": speedup,
        "cpu_count": os.cpu_count(),
        "residual_histories_identical": identical,
        "factory_crossings_batched": batch_crossings,
        "factory_crossings_sequential": seq_crossings,
        "batched_simulated_s": batch_sim,
        "sequential_simulated_s": seq_sim,
        "iterations_per_system": [len(h) for h in batch_hists[:8]],
        "failures": failures,
    }
    Path(out_path).write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"factory crossings batched {batch_crossings} | sequential "
        f"{seq_crossings}; simulated batched {batch_sim * 1e3:.3f} ms | "
        f"sequential {seq_sim * 1e3:.3f} ms"
    )
    print(
        f"wall (information only, {os.cpu_count()} cores): sequential "
        f"{seq_median * 1e3:8.2f} ms/{num_systems} systems | batched "
        f"{batch_median * 1e3:8.2f} ms | {speedup:5.2f}x"
    )
    print(f"omp(8) batched {omp_elapsed * 1e3:8.2f} ms, bytewise reference")
    print(f"wrote {out_path}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI gate: fewer repeats, assert the acceptance criteria",
    )
    parser.add_argument("--n", type=int, default=None, help="system size")
    parser.add_argument("--num-systems", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--out", default="BENCH_batch.json")
    args = parser.parse_args()
    report = run(
        n=args.n or 24,
        num_systems=args.num_systems or 64,
        repeats=args.repeats or (3 if args.smoke else 5),
        out_path=args.out,
    )
    if report["failures"]:
        for failure in report["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf-smoke OK" if args.smoke else "batch bench OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
