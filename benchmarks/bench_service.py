"""Solver-service throughput benchmark (coalesced vs naive FIFO).

The service layer's headline claim: scheduling a multi-tenant stream of
small solves with batch-lane coalescing (same-pattern jobs fused into
one PR-4 lockstep solve) over a worker pool beats the naive baseline —
one worker, FIFO, one job at a time — by at least ``MIN_SPEEDUP`` in
simulated-clock throughput, while every job's solution stays
byte-identical to solving it alone.

The gate runs the same seeded workload (64 jobs, 4 shared sparsity
patterns, bursty arrivals) through both configurations on virtual time,
then solo-solves every job on a fresh device and compares bytes.  The
SLO snapshot (latency percentiles, throughput, queue depth, coalesce
ratio, deadline misses) of both runs lands in the report under
``"slo"`` for ``bench_report.py`` to render.

Standalone::

    python benchmarks/bench_service.py            # full run
    python benchmarks/bench_service.py --smoke    # CI gate (fast)

Writes ``BENCH_service.json`` next to the repo root.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import repro as pg
from repro.bindings import dispatch, reset_models
from repro.core.resilient import FallbackChain, resilient_solve
from repro.ginkgo import cachestats
from repro.ginkgo.matrix.dense import Dense

#: Acceptance threshold: coalesced scheduling must deliver at least this
#: multiple of the naive baseline's simulated-clock throughput.
MIN_SPEEDUP = 3.0


def _fresh_state():
    pg.clear_device_cache()
    reset_models()
    dispatch.clear()
    cachestats.reset()


def make_workload(num_jobs, num_patterns, small_n, seed):
    """The seeded tenant stream (rebuilt identically for every run)."""
    dev = pg.device("reference")
    return pg.service.synthetic_workload(
        dev,
        num_jobs=num_jobs,
        num_patterns=num_patterns,
        small_n=small_n,
        mean_interarrival=1e-6,
        seed=seed,
    )


def run_service(jobs, **kwargs):
    """One service run; returns (results, slo snapshot, wall seconds)."""
    _fresh_state()
    service = pg.service.SolverService(**kwargs)
    t0 = time.perf_counter()
    results = service.run(jobs)
    elapsed = time.perf_counter() - t0
    return results, service.slo_report(), elapsed


def solo_solutions(jobs):
    """Each job solved alone on a fresh device (the identity oracle)."""
    solutions = []
    for job in jobs:
        dev = pg.device("reference", fresh=True)
        mtx = job.matrix.copy_to(dev)
        b = Dense.create(dev, job.rhs)
        _, x = resilient_solve(
            dev,
            mtx,
            b,
            solver=job.solver,
            max_iters=job.max_iters,
            reduction_factor=job.reduction_factor,
            fallback=FallbackChain(dev),
        )
        solutions.append(np.array(pg.to_numpy(x), copy=True))
    return solutions


def run(
    num_jobs=64,
    num_patterns=4,
    small_n=40,
    num_workers=4,
    max_lane=16,
    seed=1234,
    out_path="BENCH_service.json",
):
    """Run both configurations, check the invariants, write the report."""
    failures = []

    coalesced, slo_co, wall_co = run_service(
        make_workload(num_jobs, num_patterns, small_n, seed),
        num_workers=num_workers,
        coalesce=True,
        max_lane=max_lane,
        policy="edf",
    )
    # Same-seed determinism: a repeat must reproduce the schedule.
    repeat, slo_repeat, _ = run_service(
        make_workload(num_jobs, num_patterns, small_n, seed),
        num_workers=num_workers,
        coalesce=True,
        max_lane=max_lane,
        policy="edf",
    )
    if slo_repeat["makespan"] != slo_co["makespan"]:
        failures.append("coalesced makespan drifts across same-seed repeats")
    if not all(np.array_equal(a.x, b.x) for a, b in zip(coalesced, repeat)):
        failures.append("coalesced solutions drift across same-seed repeats")

    baseline, slo_base, wall_base = run_service(
        make_workload(num_jobs, num_patterns, small_n, seed),
        num_workers=1,
        coalesce=False,
        policy="fifo",
    )

    for results, label in ((coalesced, "coalesced"), (baseline, "baseline")):
        if any(r.status != "completed" for r in results):
            failures.append(f"{label} run left jobs unanswered or timed out")
        if any(not r.converged for r in results):
            failures.append(f"{label} run has unconverged jobs")

    # Byte identity: every job's solution — whether it ran solo, in a
    # coalesced lane, or on the baseline — must match the solo oracle.
    _fresh_state()
    oracle = solo_solutions(make_workload(num_jobs, num_patterns, small_n, seed))
    identical_co = all(
        np.array_equal(r.x, x) for r, x in zip(coalesced, oracle)
    )
    identical_base = all(
        np.array_equal(r.x, x) for r, x in zip(baseline, oracle)
    )
    if not identical_co:
        failures.append("coalesced solutions differ from solo solves")
    if not identical_base:
        failures.append("baseline solutions differ from solo solves")

    if slo_co["coalesced_jobs"] == 0:
        failures.append("coalesced run never formed a batch lane")

    speedup = (
        slo_co["throughput"] / slo_base["throughput"]
        if slo_base["throughput"] > 0
        else float("inf")
    )
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"service throughput speedup {speedup:.2f}x below the "
            f"{MIN_SPEEDUP:.2f}x gate"
        )

    report = {
        "benchmark": "service_coalesced_vs_fifo",
        "num_jobs": num_jobs,
        "num_patterns": num_patterns,
        "system_size": small_n,
        "num_workers": num_workers,
        "max_lane": max_lane,
        "simulated_speedup_x": speedup,
        "min_simulated_speedup_x": MIN_SPEEDUP,
        "solutions_byte_identical": identical_co and identical_base,
        "wall_coalesced_s": wall_co,
        "wall_baseline_s": wall_base,
        "slo": {"coalesced": slo_co, "baseline": slo_base},
        "failures": failures,
    }
    Path(out_path).write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"coalesced {slo_co['throughput']:10.1f} jobs/sim-s "
        f"(lanes: {slo_co['coalesced_jobs']}/{num_jobs} jobs, "
        f"p99 {slo_co['p99_latency']:.3e} s) | "
        f"baseline {slo_base['throughput']:10.1f} jobs/sim-s | "
        f"speedup {speedup:5.2f}x (gate {MIN_SPEEDUP:.2f}x)"
    )
    print(f"wrote {out_path}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI gate: smaller stream, assert the acceptance criteria",
    )
    parser.add_argument("--num-jobs", type=int, default=None)
    parser.add_argument("--num-workers", type=int, default=None)
    parser.add_argument("--out", default="BENCH_service.json")
    args = parser.parse_args()
    report = run(
        num_jobs=args.num_jobs or (48 if args.smoke else 64),
        num_workers=args.num_workers or 4,
        out_path=args.out,
    )
    if report["failures"]:
        for failure in report["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("service-smoke OK" if args.smoke else "service bench OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
