"""Cold vs warm hot-path benchmark (GMRES+ILU on a 2D Poisson stencil).

Compares the two ways of running the same solve:

* **cold** — every solve rebuilds the ILU preconditioner and the GMRES
  handle, so binding dispatch, preconditioner generation, and every
  scratch allocation happen from scratch;
* **warm** — one handle solves repeatedly, reusing the solver workspace
  pool, the matrix-side conversion caches, and the pre-resolved binding
  dispatch entries.

Every gate is exact, so none depends on the host:

* reuse is complete: after the first warm solve, further warm solves
  record zero workspace-pool misses and zero dispatch-cache misses;
* numerics must not drift: every warm solve's residual history is
  compared byte-for-byte against its cold counterpart;
* two same-seed warm runs produce byte-identical Chrome traces;
* tracing never perturbs the simulated clock: an untraced warm solve and
  a ``pg.profile()``-traced one, each on a fresh same-seed executor, end
  at the same ``clock.now`` and ``kernel_count``.

The cold/warm wall-clock ratio is reported as ``wall_speedup_x`` beside
``cpu_count``, not gated.

Standalone::

    python benchmarks/bench_hot_path.py            # full run
    python benchmarks/bench_hot_path.py --smoke    # CI gate (fast)

Writes ``BENCH_hot_path.json`` next to the repo root with the timings.
"""

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

import repro as pg
from repro.bindings import dispatch, reset_models
from repro.ginkgo import cachestats
from repro.ginkgo.matrix import Csr
from repro.suitesparse.generators import poisson_2d

#: Cache families whose misses must stop after the first warm solve.
WARM_CACHES = ("workspace", "dispatch")


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _fresh_state():
    """Reset every process-global cache so paths start identically."""
    pg.clear_device_cache()
    reset_models()
    dispatch.clear()
    cachestats.reset()


def _setup(nx):
    dev = pg.device("cuda", fresh=True)
    mtx = Csr.from_scipy(dev, poisson_2d(nx))
    n = mtx.size[0]
    b = pg.as_tensor(device=dev, dim=(n, 1), dtype="double", fill=1.0)
    return dev, mtx, b, n


def _one_solve(dev, mtx, b, n, handle=None, max_iters=400):
    """Run one GMRES+ILU solve; returns (handle, history, seconds)."""
    t0 = time.perf_counter()
    if handle is None:
        precond = pg.preconditioner.Ilu(dev, mtx)
        handle = pg.solver.gmres(
            dev, mtx, preconditioner=precond,
            max_iters=max_iters, reduction_factor=1e-5,
        )
    x = pg.as_tensor(device=dev, dim=(n, 1), dtype="double")
    logger, _ = handle.apply(b, x)
    elapsed = time.perf_counter() - t0
    if not logger.converged:
        raise RuntimeError("benchmark solve did not converge")
    return handle, list(logger.residual_norms), elapsed


def run_pairs(nx, repeats, max_iters):
    """Interleaved cold/warm timing.

    Each repeat times one cold solve (fresh ILU + handle + workspace)
    back-to-back with one warm solve on a persistent handle, so both
    sides of every ratio see the same machine load.  The gate uses the
    median per-pair ratio, which is immune to the multi-second load
    swings that skew separately-timed blocks.
    """
    _fresh_state()
    dev, mtx, b, n = _setup(nx)
    # Untimed warmup pays one-time import/lazy-init costs and builds the
    # persistent warm handle.
    handle, _, _ = _one_solve(dev, mtx, b, n, max_iters=max_iters)
    cold_times, warm_times, ratios = [], [], []
    cold_hists, warm_hists = [], []
    # Collector pauses from cold-solve garbage (discarded handles, ILU
    # factors) must not land inside a timed window: collect at pair
    # boundaries, keep the collector off while the clock runs.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            gc.collect()
            _, cold_hist, cold_dt = _one_solve(
                dev, mtx, b, n, max_iters=max_iters
            )
            # First warm solve re-warms the CPU caches the cold solve
            # just evicted (untimed); the second one is the steady-state
            # measurement the ratio uses.
            handle, _, _ = _one_solve(
                dev, mtx, b, n, handle=handle, max_iters=max_iters
            )
            handle, warm_hist, warm_dt = _one_solve(
                dev, mtx, b, n, handle=handle, max_iters=max_iters
            )
            cold_times.append(cold_dt)
            warm_times.append(warm_dt)
            ratios.append(
                cold_dt / warm_dt if warm_dt > 0 else float("inf")
            )
            cold_hists.append(cold_hist)
            warm_hists.append(warm_hist)
    finally:
        if gc_was_enabled:
            gc.enable()
    stats = cachestats.snapshot()
    return cold_times, warm_times, ratios, cold_hists, warm_hists, stats


def run_warm(nx, repeats, max_iters, trace=False):
    """One handle, ``repeats`` solves.

    With ``trace=True`` the whole run is profiled (for the same-seed
    determinism check); timings from a traced run carry profiler overhead
    and must not be compared against an untraced cold run.
    """
    _fresh_state()
    dev, mtx, b, n = _setup(nx)
    times, histories = [], []
    handle = None

    def body():
        nonlocal handle
        for _ in range(repeats):
            handle, hist, dt = _one_solve(
                dev, mtx, b, n, handle=handle, max_iters=max_iters
            )
            times.append(dt)
            histories.append(hist)

    trace_json = None
    if trace:
        with pg.profile(dev, name="warm_hot_path") as prof:
            body()
        trace_json = prof.to_chrome_trace()
    else:
        body()
    stats = cachestats.snapshot()
    return times, histories, trace_json, stats


def warm_misses(nx, repeats, max_iters):
    """Cache misses of ``repeats - 1`` warm solves after the first one."""
    _fresh_state()
    dev, mtx, b, n = _setup(nx)
    handle, _, _ = _one_solve(dev, mtx, b, n, max_iters=max_iters)
    before = {kind: cachestats.counts(kind) for kind in WARM_CACHES}
    for _ in range(repeats - 1):
        handle, _, _ = _one_solve(
            dev, mtx, b, n, handle=handle, max_iters=max_iters
        )
    return {
        kind: cachestats.counts(kind)[1] - before[kind][1]
        for kind in WARM_CACHES
    }


def warm_clock_ends(nx, max_iters):
    """``(clock.now, kernel_count)`` after one cold and one warm solve on
    fresh same-seed executors: ``"untraced"``, and with the warm solve
    under ``pg.profile()`` (``"traced"``)."""
    ends = {}
    for label in ("untraced", "traced"):
        _fresh_state()
        dev, mtx, b, n = _setup(nx)
        handle, _, _ = _one_solve(dev, mtx, b, n, max_iters=max_iters)
        if label == "traced":
            with pg.profile(dev, name="warm_hot_path"):
                _one_solve(dev, mtx, b, n, handle=handle, max_iters=max_iters)
        else:
            _one_solve(dev, mtx, b, n, handle=handle, max_iters=max_iters)
        ends[label] = [dev.clock.now, dev.clock.kernel_count]
    return ends


def run(nx=48, repeats=8, max_iters=400, out_path="BENCH_hot_path.json"):
    """Run both paths, check the invariants, write the JSON report."""
    failures = []

    cold_times, warm_times, ratios, cold_hists, warm_hists, stats = (
        run_pairs(nx, repeats, max_iters)
    )
    _, _, trace1, _ = run_warm(nx, repeats, max_iters, trace=True)
    _, _, trace2, _ = run_warm(nx, repeats, max_iters, trace=True)
    misses = warm_misses(nx, repeats, max_iters)
    clock_ends = warm_clock_ends(nx, max_iters)

    # Numerics: every warm history byte-identical to its cold twin.
    if warm_hists != cold_hists:
        failures.append("warm residual histories differ from cold")
    if any(h != cold_hists[0] for h in cold_hists):
        failures.append("cold residual histories drift across repeats")
    # Determinism: same-seed warm runs trace identically.
    if trace1 != trace2:
        failures.append("same-seed warm traces are not byte-identical")
    # The untraced fast path charges the clock exactly what tracing sees.
    if clock_ends["traced"] != clock_ends["untraced"]:
        failures.append(
            f"traced warm solve ends at {clock_ends['traced']}, "
            f"untraced at {clock_ends['untraced']}"
        )

    # Reuse, counted exactly: warm solves after the first miss nothing.
    for kind, count in misses.items():
        if count:
            failures.append(
                f"{count} {kind} misses in warm solves after the first"
            )
    if stats.get("cache_workspace_hit", 0) == 0:
        failures.append("warm path recorded no workspace hits")

    cold_mean = _median(cold_times)
    warm_mean = _median(warm_times)
    # Reported only: the median per-pair ratio (load-paired).
    speedup = _median(ratios)

    report = {
        "benchmark": "hot_path_gmres_ilu",
        "nx": nx,
        "unknowns": nx * nx,
        "repeats": repeats,
        "cold_median_s": cold_mean,
        "warm_median_s": warm_mean,
        "cold_times_s": cold_times,
        "warm_times_s": warm_times,
        "pair_ratios": ratios,
        "wall_speedup_x": speedup,
        "cpu_count": os.cpu_count(),
        "warm_misses_after_first": misses,
        "residual_histories_identical": warm_hists == cold_hists,
        "same_seed_traces_identical": trace1 == trace2,
        "warm_clock_end": clock_ends,
        "iterations_per_solve": len(cold_hists[0]),
        "cache_stats_warm": stats,
        "failures": failures,
    }
    Path(out_path).write_text(json.dumps(report, indent=2) + "\n")

    print(
        "warm solves after the first: "
        + ", ".join(f"{misses[k]} {k} misses" for k in WARM_CACHES)
    )
    print(
        "warm clock end (now, kernels): "
        f"untraced {tuple(clock_ends['untraced'])} | "
        f"traced {tuple(clock_ends['traced'])}"
    )
    print(
        f"wall (information only, {os.cpu_count()} cores): "
        f"cold {cold_mean * 1e3:8.2f} ms/solve | "
        f"warm {warm_mean * 1e3:8.2f} ms/solve | "
        f"median pair ratio {speedup:5.2f}x"
    )
    hits = stats.get("cache_workspace_hit", 0)
    misses = stats.get("cache_workspace_miss", 0)
    print(
        f"workspace {hits} hits / {misses} misses, "
        f"dispatch {stats.get('cache_dispatch_hit', 0)} hits, "
        f"format {stats.get('cache_format_hit', 0)} hits"
    )
    print(f"wrote {out_path}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI gate: small stencil, assert the acceptance criteria",
    )
    parser.add_argument("--nx", type=int, default=None, help="stencil size")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--out", default="BENCH_hot_path.json")
    args = parser.parse_args()
    nx = args.nx or 48
    repeats = args.repeats or (6 if args.smoke else 10)
    report = run(nx=nx, repeats=repeats, out_path=args.out)
    if report["failures"]:
        for failure in report["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf-smoke OK" if args.smoke else "hot-path bench OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
