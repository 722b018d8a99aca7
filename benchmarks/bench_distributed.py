"""Distributed CG benchmark: bit-identity + fused-region dispatch gates.

Four invariants gate the ``pg.distributed`` subsystem, each on a
quantity that repeats exactly on any host:

* **Bit-identity** — the 4-rank distributed CG on ``OmpExecutor`` must
  reproduce the single-rank residual history (and the scalar ``pg.solver``
  CG history) byte for byte.  Reductions are evaluated in global element
  order and the rank-local SpMV applies full-width CSR row slices, so the
  distribution is a pure execution detail, never a numerical one.

* **One dispatch per fused region** — each solver operation dispatches
  the rank loop as ONE modeled kernel (a single collapsed whole-arena
  kernel, or one region over the per-rank tasks).  The baseline is ``sequential_ranks`` execution: every rank
  dispatches its kernels independently — one clock record per rank per
  operation, per-rank partial reductions combined in rank order — the
  overhead profile of K rank processes time-sharing the machine.  Over a
  fixed-length solve, every kernel the fused path records once must be
  recorded exactly ``NUM_RANKS`` times by the baseline.

* **Simulated time** — the fused solve is no slower than the baseline on
  the simulated clock.

* **Modelled threads** — the same solve on a 4-thread ``OmpExecutor``
  (the thread count is a perf-model quantity; kernels run on the calling
  thread) reproduces the reference history byte for byte.

The wall-clock ratio of the two paths is reported beside
``os.cpu_count()`` as information only: it depends on the host (2.1-2.2x
on a 2-core host), so it cannot gate.

Standalone::

    python benchmarks/bench_distributed.py            # full run
    python benchmarks/bench_distributed.py --smoke    # CI gate (fast)

Writes ``BENCH_distributed.json`` next to the repo root.
"""

import argparse
import gc
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import repro as pg
from repro.bindings import dispatch, reset_models
from repro.ginkgo import cachestats
from repro.ginkgo.log import ConvergenceLogger
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.solver import Cg
from repro.ginkgo.stop import Iteration, ResidualNorm

NUM_RANKS = 4

#: Length of the fixed-iteration solve whose kernel records are counted.
DISPATCH_ITERATIONS = 20

#: Modelled threads of the compared solves.  Pinned, so no simulated
#: number depends on the host; the modelled 4-thread solve is checked apart.
THREADS = 1


def _best(values):
    """Minimum over repeats: the least-noise wall-clock estimator on a
    machine where any single run can be inflated by scheduler jitter."""
    return min(values)


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


def make_system(n, band=10, seed=1234):
    """A banded SPD diagonally dominant system, ~2*band+1 nnz per row."""
    offsets = list(range(-band, 0)) + list(range(1, band + 1))
    mat = sp.diags(
        [-1.0 * np.ones(n - abs(o)) for o in offsets], offsets
    ).tocsr()
    mat.setdiag(2.0 * band + 1.5)
    rng = np.random.default_rng(seed)
    return mat.tocsr(), rng.standard_normal(n)


def run_scalar(mat, rhs, max_iters, tol):
    """Single-rank reference: the scalar CG the histories must match."""
    dev = pg.device("reference", fresh=True)
    solver = Cg(
        dev,
        criteria=Iteration(max_iters) | ResidualNorm(tol, baseline="rhs_norm"),
    ).generate(Csr.from_scipy(dev, mat))
    logger = ConvergenceLogger()
    solver.add_logger(logger)
    n = mat.shape[0]
    b = Dense.create(dev, rhs.reshape(-1, 1))
    x = Dense.create(dev, np.zeros((n, 1)))
    solver.apply(b, x)
    if not solver.converged:
        raise RuntimeError("scalar reference solve did not converge")
    return np.asarray(logger.residual_norms, dtype=np.float64)


def run_distributed(
    mat, rhs, max_iters, tol, num_ranks, num_threads, sequential=False
):
    """One distributed CG solve; returns (elapsed, history, device, stats).

    ``stats`` carries the solve's communication profile from the handle:
    simulated seconds total/comm/hidden and the reduction count.
    """
    dev = pg.device("omp", fresh=True, num_threads=num_threads)
    part = pg.distributed.partition(mat.shape[0], num_ranks)
    dist = pg.distributed.matrix(dev, part, mat)
    b = pg.distributed.vector(dev, part, rhs, comm=dist.comm)
    x = pg.distributed.zeros_like(b)
    handle = pg.distributed.cg(
        dev, dist, max_iters=max_iters, reduction_factor=tol
    )
    sim0 = dev.clock.now
    t0 = time.perf_counter()
    if sequential:
        with pg.distributed.sequential_ranks():
            logger, _ = handle.apply(b, x)
    else:
        logger, _ = handle.apply(b, x)
    elapsed = time.perf_counter() - t0
    if not handle.converged:
        raise RuntimeError("distributed benchmark solve did not converge")
    simulated = dev.clock.now - sim0
    stats = {
        "simulated_s": simulated,
        "comm_time_s": handle.comm_time,
        "comm_hidden_time_s": handle.comm_hidden_time,
        "num_reductions": handle.num_reductions,
        "comm_fraction": handle.comm_time / simulated if simulated else 0.0,
    }
    history = np.asarray(logger.residual_norms, dtype=np.float64)
    return elapsed, history, dev, stats


def dispatch_profile(mat, rhs, num_threads, sequential):
    """Kernel records by name and simulated seconds of a fixed-length solve.

    Both paths run exactly ``DISPATCH_ITERATIONS`` iterations (no residual
    stop), so their records compare one to one.
    """
    dev = pg.device("omp", fresh=True, num_threads=num_threads)
    part = pg.distributed.partition(mat.shape[0], NUM_RANKS)
    dist = pg.distributed.matrix(dev, part, mat)
    b = pg.distributed.vector(dev, part, rhs, comm=dist.comm)
    x = pg.distributed.zeros_like(b)
    handle = pg.distributed.cg(
        dev, dist, max_iters=DISPATCH_ITERATIONS, reduction_factor=0.0
    )
    dev.clock.enable_event_log()
    sim0 = dev.clock.now
    if sequential:
        with pg.distributed.sequential_ranks():
            handle.apply(b, x)
    else:
        handle.apply(b, x)
    return Counter(e.name for e in dev.clock.events), dev.clock.now - sim0


def run(
    n=2000,
    repeats=5,
    max_iters=500,
    tol=1e-9,
    out_path="BENCH_distributed.json",
):
    """Run the gates and write the JSON report."""
    failures = []
    mat, rhs = make_system(n)

    # Bit-identity chain: scalar == 1-rank distributed == 4-rank
    # distributed, byte for byte.
    _fresh_state()
    scalar_hist = run_scalar(mat, rhs, max_iters, tol)

    _fresh_state()
    _, single_hist, _, _ = run_distributed(
        mat, rhs, max_iters, tol, num_ranks=1, num_threads=THREADS
    )
    if single_hist.tobytes() != scalar_hist.tobytes():
        failures.append(
            "single-rank distributed history differs from scalar CG"
        )

    # Dispatch count and simulated time: exact, host-independent.
    _fresh_state()
    fused_records, fused_sim = dispatch_profile(mat, rhs, THREADS, False)
    _fresh_state()
    seq_records, seq_sim = dispatch_profile(mat, rhs, THREADS, True)
    off_count = sorted(
        name for name in set(fused_records) | set(seq_records)
        if seq_records[name] != NUM_RANKS * fused_records[name]
    )
    if off_count:
        failures.append(
            "kernels not dispatched once per fused region and once per "
            f"rank under sequential_ranks(): {off_count}"
        )
    if fused_sim > seq_sim:
        failures.append(
            f"fused solve slower on the simulated clock ({fused_sim:.6e} s) "
            f"than sequential-rank dispatch ({seq_sim:.6e} s)"
        )

    # Wall clock, reported only.  Fused and sequential-rank solves are
    # interleaved in pairs so both sides of every ratio see the same
    # machine load; the headline is the median per-pair ratio.
    _fresh_state()
    run_distributed(  # untimed warmup: caches, allocator
        mat, rhs, max_iters, tol, NUM_RANKS, num_threads=THREADS
    )
    run_distributed(
        mat, rhs, max_iters, tol, NUM_RANKS,
        num_threads=THREADS, sequential=True,
    )
    fused_times = []
    seq_times = []
    ratios = []
    fused_hist = None
    seq_hist = None
    fused_stats = None
    # Keep collector pauses out of the timed windows: collect at pair
    # boundaries, collector off while the clock runs.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            gc.collect()
            elapsed, hist, _, fused_stats = run_distributed(
                mat, rhs, max_iters, tol, NUM_RANKS, num_threads=THREADS
            )
            fused_times.append(elapsed)
            if fused_hist is None:
                fused_hist = hist
            elif hist.tobytes() != fused_hist.tobytes():
                failures.append("fused histories drift across repeats")
            seq_elapsed, seq_hist, _, _ = run_distributed(
                mat, rhs, max_iters, tol, NUM_RANKS,
                num_threads=THREADS, sequential=True,
            )
            seq_times.append(seq_elapsed)
            ratios.append(
                seq_elapsed / elapsed if elapsed > 0 else float("inf")
            )
    finally:
        if gc_was_enabled:
            gc.enable()
    if fused_hist.tobytes() != scalar_hist.tobytes():
        failures.append(
            f"{NUM_RANKS}-rank distributed history differs from the "
            "single-rank history"
        )

    # Modelled threads: a 4-thread omp solve is bytewise the reference.
    _fresh_state()
    _, omp_hist, _, _ = run_distributed(
        mat, rhs, max_iters, tol, NUM_RANKS, num_threads=NUM_RANKS
    )
    if omp_hist.tobytes() != scalar_hist.tobytes():
        failures.append(
            f"omp({NUM_RANKS}) distributed history differs from reference"
        )

    # Rank-ordered partial reductions round differently — that is the
    # point of the baseline — so compare loosely, not bytewise.
    m = min(seq_hist.size, scalar_hist.size)
    if not np.allclose(seq_hist[:m], scalar_hist[:m], rtol=1e-6):
        failures.append("sequential-rank baseline diverged numerically")

    fused_best = _best(fused_times)
    seq_best = _best(seq_times)
    wall_speedup = _median(ratios)

    report = {
        "benchmark": "distributed_cg_fused_vs_sequential_ranks",
        "system_size": n,
        "nnz": int(mat.nnz),
        "num_ranks": NUM_RANKS,
        "num_threads": THREADS,
        "repeats": repeats,
        "iterations": int(fused_hist.size - 1),
        "fused_best_s": fused_best,
        "sequential_ranks_best_s": seq_best,
        "fused_times_s": fused_times,
        "sequential_ranks_times_s": seq_times,
        "pair_ratios": ratios,
        "wall_speedup_x": wall_speedup,
        "cpu_count": os.cpu_count(),
        "dispatch_iterations": DISPATCH_ITERATIONS,
        "dispatches_fused": sum(fused_records.values()),
        "dispatches_sequential_ranks": sum(seq_records.values()),
        "simulated_fused_s": fused_sim,
        "simulated_sequential_ranks_s": seq_sim,
        "history_matches_scalar": fused_hist.tobytes()
        == scalar_hist.tobytes(),
        "history_matches_single_rank": fused_hist.tobytes()
        == single_hist.tobytes(),
        "simulated_s": fused_stats["simulated_s"],
        "comm_time_s": fused_stats["comm_time_s"],
        "comm_hidden_time_s": fused_stats["comm_hidden_time_s"],
        "num_reductions": fused_stats["num_reductions"],
        "comm_fraction": fused_stats["comm_fraction"],
        "failures": failures,
    }
    Path(out_path).write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"distributed CG n={n} ranks={NUM_RANKS}, "
        f"{DISPATCH_ITERATIONS} iterations: kernel records fused "
        f"{sum(fused_records.values())} | sequential-rank "
        f"{sum(seq_records.values())}; simulated fused "
        f"{fused_sim * 1e3:.3f} ms | sequential-rank {seq_sim * 1e3:.3f} ms"
    )
    print(
        f"wall (information only, {os.cpu_count()} cores): "
        f"fused {fused_best * 1e3:7.2f} ms | "
        f"sequential-rank {seq_best * 1e3:7.2f} ms | "
        f"median pair ratio {wall_speedup:5.2f}x"
    )
    print(
        f"residual history: {fused_hist.size - 1} iterations, "
        f"scalar/single-rank/omp({NUM_RANKS}) byte-identical="
        f"{not any('histor' in f for f in failures)}"
    )
    print(
        f"comm profile: {fused_stats['comm_fraction']:.1%} of "
        f"{fused_stats['simulated_s'] * 1e3:.2f} ms simulated time "
        f"({fused_stats['num_reductions']} reductions, "
        f"{fused_stats['comm_hidden_time_s'] * 1e3:.2f} ms hidden)"
    )
    print(f"wrote {out_path}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI gate: fewer repeats, assert the acceptance criteria",
    )
    parser.add_argument("--n", type=int, default=None, help="system size")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--out", default="BENCH_distributed.json")
    args = parser.parse_args()
    report = run(
        n=args.n or 2000,
        repeats=args.repeats or (5 if args.smoke else 7),
        out_path=args.out,
    )
    if report["failures"]:
        for failure in report["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf-smoke OK" if args.smoke else "distributed bench OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
