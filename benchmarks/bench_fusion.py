"""Lazy-fusion benchmark: ``pg.deferred()`` vs eager operator expressions.

Runs an axpy-heavy second-order Richardson/Chebyshev-style Krylov loop on
a 2D Poisson stencil twice:

* **eager** — every ``A @ p``, ``alpha * p``, ``x + t`` crosses the
  binding layer on its own, cloning operands and launching one kernel
  per operation (the per-call overhead the paper measures);
* **fused** — the same expressions inside ``pg.deferred()``, flushed
  once per iteration: three fused regions replace seven binding
  crossings, the SpMV folds into its consuming axpy chain, and the
  intermediates come from pooled workspace buffers.

The numerics must not move at all: the per-iteration residual-norm
histories are compared **byte-for-byte** between the two paths, and two
same-seed fused runs must produce byte-identical Chrome traces.

The acceptance gate is the **simulated-clock** speedup: binding
crossings, operand clones, and kernel launches are modeled costs in
this framework, and fusion's claim is that it removes them.  The
wall-clock of the pure-Python harness is also measured (interleaved
pairs, gc off) and reported as ``wall_speedup_x`` beside ``cpu_count``,
not gated — both paths run the same numpy operations in the same order,
so wall time mostly tracks interpreter overhead, not the modeled
machine.

Standalone::

    python benchmarks/bench_fusion.py            # full run
    python benchmarks/bench_fusion.py --smoke    # CI gate (fast)

Writes ``BENCH_fusion.json`` next to the repo root with the timings.
"""

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import repro as pg
from repro.bindings import dispatch, reset_models
from repro.ginkgo import cachestats
from repro.ginkgo.matrix import Csr, Dense
from repro.suitesparse.generators import poisson_2d

#: Acceptance threshold on the simulated clock (the modeled machine).
MIN_SPEEDUP = 1.5


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
    pg.lazy.reset()


def _setup(nx):
    dev = pg.device("cuda", fresh=True)
    mtx = Csr.from_scipy(dev, poisson_2d(nx))
    return dev, mtx, mtx.size[0]


def _coeffs(k):
    """Deterministic, never 0/1 step coefficients for iteration ``k``."""
    a = 0.11 + 0.015 * ((k * 7) % 13)
    b = 0.42 + 0.01 * ((k * 5) % 7)
    c = 0.03 + 0.005 * ((k * 3) % 5)
    return a, b, c


def _initial_vectors(dev, n):
    idx = np.arange(n, dtype=np.float64).reshape(-1, 1)
    x = Dense(dev, np.sin(0.01 * idx))
    r = Dense(dev, np.cos(0.02 * idx))
    p = Dense(dev, np.cos(0.02 * idx))
    return x, r, p


def _eager_loop(dev, mtx, n, iters):
    """One eager run; returns (history, wall seconds, simulated seconds)."""
    x, r, p = _initial_vectors(dev, n)
    hist = []
    sim0 = dev.clock.now
    t0 = time.perf_counter()
    for k in range(iters):
        a, b, c = _coeffs(k)
        q = mtx @ p
        x = x + a * p
        r = r - a * q
        p = (r + b * p) + c * q
        hist.append(float(r.compute_norm2()[0]))
    wall = time.perf_counter() - t0
    return hist, wall, dev.clock.now - sim0


def _fused_loop(dev, mtx, n, iters):
    """The same loop inside ``pg.deferred()``, flushed once per iteration."""
    x, r, p = _initial_vectors(dev, n)
    hist = []
    sim0 = dev.clock.now
    t0 = time.perf_counter()
    with pg.deferred() as trace:
        for k in range(iters):
            a, b, c = _coeffs(k)
            q = mtx @ p
            (x + a * p).into(x)
            (r - a * q).into(r)
            ((r + b * p) + c * q).into(p)
            trace.flush()
            hist.append(float(r.compute_norm2()[0]))
    wall = time.perf_counter() - t0
    return hist, wall, dev.clock.now - sim0, trace


def run_pairs(nx, iters, repeats):
    """Interleaved eager/fused timing (one machine-load regime per ratio)."""
    _fresh_state()
    dev, mtx, n = _setup(nx)
    # Untimed warmup pays lazy-init costs (dispatch resolution, pool
    # allocation, scipy view) for both paths.
    _eager_loop(dev, mtx, n, 2)
    _fused_loop(dev, mtx, n, 2)
    eager_times, fused_times, ratios = [], [], []
    eager_hists, fused_hists = [], []
    traces_meta = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            gc.collect()
            e_hist, e_wall, e_sim = _eager_loop(dev, mtx, n, iters)
            f_hist, f_wall, f_sim, trace = _fused_loop(dev, mtx, n, iters)
            eager_times.append(e_wall)
            fused_times.append(f_wall)
            ratios.append(e_wall / f_wall if f_wall > 0 else float("inf"))
            eager_hists.append(e_hist)
            fused_hists.append(f_hist)
            traces_meta.append(
                (trace.regions, trace.ops_replaced, trace.recomputed)
            )
    finally:
        if gc_was_enabled:
            gc.enable()
    # Simulated time is deterministic: one measurement suffices.
    _, _, eager_sim = _eager_loop(dev, mtx, n, iters)
    _, _, fused_sim, _ = _fused_loop(dev, mtx, n, iters)
    stats = cachestats.snapshot()
    return {
        "eager_times": eager_times,
        "fused_times": fused_times,
        "ratios": ratios,
        "eager_hists": eager_hists,
        "fused_hists": fused_hists,
        "traces_meta": traces_meta,
        "eager_sim": eager_sim,
        "fused_sim": fused_sim,
        "stats": stats,
    }


def run_traced(nx, iters):
    """One profiled fused run (for the same-seed determinism check)."""
    _fresh_state()
    dev, mtx, n = _setup(nx)
    with pg.profile(dev, name="fused_loop") as prof:
        hist, _, _, trace = _fused_loop(dev, mtx, n, iters)
    table = prof.attribution()
    return (
        prof.to_chrome_trace(),
        hist,
        trace,
        table.fused_regions,
        table.fused_ops_replaced,
    )


def run(nx=96, iters=50, repeats=8, out_path="BENCH_fusion.json"):
    """Run both paths, check the invariants, write the JSON report."""
    failures = []

    data = run_pairs(nx, iters, repeats)
    trace1, hist1, dtrace, fused_regions, fused_ops = run_traced(nx, iters)
    trace2, hist2, _, _, _ = run_traced(nx, iters)

    # Numerics: fused histories byte-identical to eager, repeat over repeat.
    identical = all(
        np.asarray(f).tobytes() == np.asarray(e).tobytes()
        for f, e in zip(data["fused_hists"], data["eager_hists"])
    )
    if not identical:
        failures.append("fused residual histories differ from eager")
    if np.asarray(hist1).tobytes() != np.asarray(data["eager_hists"][0]).tobytes():
        failures.append("traced fused history differs from eager")
    if trace1 != trace2:
        failures.append("same-seed fused traces are not byte-identical")

    # Fusion actually happened: 3 regions per iteration, each replacing
    # the recorded ops, visible both on the trace objects and in the
    # profiler's attribution.
    regions, ops_replaced, recomputed = data["traces_meta"][0]
    if regions != 3 * iters:
        failures.append(
            f"expected {3 * iters} fused regions per run, saw {regions}"
        )
    if ops_replaced < 7 * iters:
        failures.append(
            f"fused regions replaced only {ops_replaced} ops "
            f"(expected >= {7 * iters})"
        )
    if fused_regions != 3 * iters or fused_ops != ops_replaced:
        failures.append(
            "attribution fused_region accounting disagrees with the trace"
        )
    stats = data["stats"]
    if stats.get("cache_workspace_hit", 0) == 0:
        failures.append("fused flushes recorded no workspace-pool hits")
    if stats.get("cache_dispatch_hit", 0) == 0:
        failures.append("fused flushes recorded no dispatch hits")

    # Reported only: the median per-pair ratio (load-paired).
    wall_speedup = _median(data["ratios"])
    sim_speedup = (
        data["eager_sim"] / data["fused_sim"]
        if data["fused_sim"] > 0
        else float("inf")
    )
    if sim_speedup < MIN_SPEEDUP:
        failures.append(
            f"simulated speedup {sim_speedup:.2f}x below the "
            f"{MIN_SPEEDUP:.2f}x gate"
        )

    report = {
        "benchmark": "lazy_fusion_richardson",
        "nx": nx,
        "unknowns": nx * nx,
        "iterations": iters,
        "repeats": repeats,
        "eager_median_s": _median(data["eager_times"]),
        "fused_median_s": _median(data["fused_times"]),
        "eager_times_s": data["eager_times"],
        "fused_times_s": data["fused_times"],
        "pair_ratios": data["ratios"],
        "eager_simulated_s": data["eager_sim"],
        "fused_simulated_s": data["fused_sim"],
        "simulated_speedup_x": sim_speedup,
        "min_simulated_speedup_x": MIN_SPEEDUP,
        "wall_speedup_x": wall_speedup,
        "cpu_count": os.cpu_count(),
        "residual_histories_identical": identical,
        "same_seed_traces_identical": trace1 == trace2,
        "fused_regions_per_run": regions,
        "ops_replaced_per_run": ops_replaced,
        "recomputed_nodes": recomputed,
        "cache_stats": stats,
        "failures": failures,
    }
    Path(out_path).write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"eager {_median(data['eager_times']) * 1e3:8.2f} ms/loop | "
        f"fused {_median(data['fused_times']) * 1e3:8.2f} ms/loop | "
        f"sim speedup {sim_speedup:5.2f}x (gate {MIN_SPEEDUP:.2f}x) | "
        f"wall ratio {wall_speedup:5.2f}x (information only, "
        f"{os.cpu_count()} cores)"
    )
    print(
        f"{regions} fused regions replaced {ops_replaced} ops; "
        f"workspace {stats.get('cache_workspace_hit', 0)} hits, "
        f"dispatch {stats.get('cache_dispatch_hit', 0)} hits"
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
    parser.add_argument("--iters", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--out", default="BENCH_fusion.json")
    args = parser.parse_args()
    nx = args.nx or (48 if args.smoke else 96)
    iters = args.iters or (20 if args.smoke else 50)
    repeats = args.repeats or (4 if args.smoke else 8)
    report = run(nx=nx, iters=iters, repeats=repeats, out_path=args.out)
    if report["failures"]:
        for failure in report["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf-smoke OK" if args.smoke else "fusion bench OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
