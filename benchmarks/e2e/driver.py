"""The closed-loop driver: one client, one workload, one process.

Two kinds of run, matching the two values of ``--trace``:

* :func:`run_end_to_end` — set-up (timed, repeated), warm-up, then an
  untraced closed loop for ``seconds``; reports the end-to-end metrics.
* :func:`run_per_layer` — the same requests with spans on, the direct
  lower-layer probes, a ``pg.profile()`` pass for the simulated clock,
  and one quick-size pass of every *other* workload so that each
  per-layer name carries a measured value; reports the per-layer metrics
  and asserts the workload's dominance/coverage self-check.

Every request is checked against the SciPy references outside the timed
region; a wrong answer or an exception counts in ``failed`` and never
aborts the run.
"""

from __future__ import annotations

import gc
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import repro as pg
from repro.bindings import dispatch, reset_models
from repro.ginkgo import cachestats
from repro.ginkgo.log import MetricsRegistry

from benchmarks.e2e import catalog
from benchmarks.e2e.harness import (
    Tracer,
    median,
    percentile,
    span_coverage,
    tail_percentile,
    write_chrome_trace,
)
from benchmarks.e2e.workloads import WORKLOADS

#: Requests run (and discarded) before anything is timed.
WARMUP_REQUESTS = 2
#: Set-up repetitions; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Fewest measured requests of a run, however short ``--seconds`` is.
MIN_REQUESTS = 3
#: ROADMAP item 1's attribution gate on the traced pass.
MIN_SPAN_COVERAGE = 0.95


def fresh_state() -> None:
    """Reset every process-global cache so simulated time is a function
    of the seed alone (jitter streams restart, dispatch cache empties)."""
    pg.clear_device_cache()
    reset_models()
    dispatch.clear()
    cachestats.reset()
    pg.lazy.reset()


def _one_request(workload, state, tracer, request_id):
    """Run and check one request; returns ``(seconds, problems)``.

    The ``except Exception`` is the boundary that must keep running: a
    crashed request is a failed request, with its traceback on stderr.
    """
    try:
        with tracer.request(request_id):
            t0 = time.perf_counter()
            outcome = workload.request(state, tracer)
            elapsed = time.perf_counter() - t0
        problems = workload.verify(state, outcome)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return float("nan"), ["request raised"]
    return elapsed, problems


def _closed_loop(workload, state, tracer, seconds):
    """One client issuing requests back to back until ``seconds`` elapse.

    Returns the wall of every correct request and the failed count.
    """
    walls, failed = [], 0
    deadline = time.perf_counter() + seconds
    request_id = 0
    while len(walls) + failed < MIN_REQUESTS or time.perf_counter() < deadline:
        elapsed, problems = _one_request(workload, state, tracer, request_id)
        request_id += 1
        if problems:
            failed += 1
            print(f"request {request_id - 1} failed: {problems}", file=sys.stderr)
        else:
            walls.append(elapsed)
    return walls, failed


def _warm_up(workload, state):
    """Cold request plus warm-ups, untraced; returns the cold wall and
    the simulated seconds of that first request after fresh state."""
    quiet = Tracer(enabled=False)
    sim0 = workload.sim_seconds(state)
    cold_s, problems = _one_request(workload, state, quiet, -1)
    sim_s = workload.sim_seconds(state) - sim0
    if problems:
        raise SystemExit(f"{workload.name}: cold request failed: {problems}")
    for _ in range(WARMUP_REQUESTS - 1):
        _one_request(workload, state, quiet, -1)
    return cold_s, sim_s


def _result(attempted, failed, values, metrics) -> dict:
    units = {m.name: m.unit for m in metrics}
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise SystemExit(f"metric names off catalog: missing {missing}, extra {extra}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]}
            for name in units
        },
    }


def run_end_to_end(workload, seed, size_name, seconds, out_dir, import_s):
    """``--trace 0``: the metrics a user of the system would see."""
    size = workload.sizes[size_name]
    setups = []
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.make_inputs(seed, size, workdir)
            setups.append(time.perf_counter() - t0)
        fresh_state()
        quiet = Tracer(enabled=False)
        state = workload.start(inputs, quiet)
        _warm_up(workload, state)
        gc.collect()
        walls, failed = _closed_loop(workload, state, quiet, seconds)
    if not walls:
        raise SystemExit(f"{workload.name}: no request succeeded")
    values = {
        "setup_s": import_s + median(setups),
        "req_p50_s": median(walls),
        "throughput_rps": len(walls) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return _result(len(walls) + failed, failed, values, catalog.END_TO_END)


# ----------------------------------------------------------------------
# per-layer run
# ----------------------------------------------------------------------
def _profiled_request(workload, state, out_dir, label):
    """One request under ``pg.profile()``: the simulated-clock ledger."""
    registry = MetricsRegistry()
    quiet = Tracer(enabled=False)
    with pg.profile(metrics=registry) as prof:
        elapsed, problems = _one_request(workload, state, quiet, -1)
    if problems:
        raise SystemExit(f"{workload.name}: profiled request failed: {problems}")
    table = prof.attribution()
    t0 = time.perf_counter()
    prof.save_chrome_trace(Path(out_dir) / f"{label}.sim.trace.json")
    write_s = time.perf_counter() - t0
    rows = table.kernels.values()
    return {
        "wall": elapsed,
        "perfmodel.kernel_count": sum(r.launches for r in rows),
        "perfmodel.computed_bytes": sum(r.bytes for r in rows),
        "perfmodel.computed_flops": sum(r.flops for r in rows),
        "perfmodel.sim_kernel_s": table.kernel_time,
        "perfmodel.sim_stall_s": table.stall_time,
        "perfmodel.sim_comm_s": table.categories.get("comm", 0.0),
        "perfmodel.attribution_coverage": table.coverage,
        "bindings.sim_binding_s": table.binding_time,
        "bindings.sim_binding_frac": table.binding_fraction,
        "log.spans": prof.trace.num_spans,
        "log.chrome_trace_write_s": write_s,
    }


def _self_check(workload, state, tracer, coverage) -> list:
    shares = workload.shares(state, tracer)
    problems = []
    layers, floor = workload.dominant
    got = sum(shares.get(layer, 0.0) for layer in layers)
    if got < floor:
        problems.append(
            f"dominant layers {layers} reach {got:.2f} of request wall, "
            f"declared >= {floor:.2f}"
        )
    layers, ceiling = workload.bypassed
    got = sum(shares.get(layer, 0.0) for layer in layers)
    if got > ceiling:
        problems.append(
            f"bypassed layers {layers} take {got:.2f} of request wall, "
            f"declared <= {ceiling:.2f}"
        )
    if coverage < MIN_SPAN_COVERAGE:
        problems.append(
            f"spans cover {coverage:.3f} of request wall, gate "
            f">= {MIN_SPAN_COVERAGE:.2f}"
        )
    return problems


def layer_pass(workload, seed, size_name, seconds, workdir):
    """Traced requests plus probes of one workload.

    Returns ``(state, tracer, walls, failed)``; with ``seconds == 0`` it
    is the short fill-in pass (``MIN_REQUESTS`` requests).
    """
    inputs = workload.make_inputs(seed, workload.sizes[size_name], workdir)
    tracer = Tracer()
    state = workload.start(inputs, tracer)
    _one_request(workload, state, Tracer(enabled=False), -1)
    walls, failed = _closed_loop(workload, state, tracer, seconds)
    workload.probes(state, tracer)
    return state, tracer, walls, failed


def run_per_layer(workload, seed, size_name, seconds, out_dir):
    """``--trace 1``: every per-layer metric, plus the self-check."""
    size = workload.sizes[size_name]
    values: dict = {}
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        # Every other workload, quick size: measured values for the
        # layers this workload bypasses.  Run first so the measured
        # workload starts from fresh state right after.
        for other in WORKLOADS.values():
            if other is workload:
                continue
            state, tracer, _, failed = layer_pass(other, seed, "quick", 0.0, workdir)
            if failed:
                raise SystemExit(f"{other.name}: quick fill-in pass failed")
            values.update(other.layer_metrics(state, tracer))

        inputs = workload.make_inputs(seed, size, workdir)
        fresh_state()
        tracer = Tracer()
        state = workload.start(inputs, tracer)
        cold_s, sim_s = _warm_up(workload, state)
        # Fixed position (requests 3 and 4 after fresh state), so the
        # simulated numbers do not depend on how many requests the
        # time-bounded passes below fit in.
        label = f"{workload.name}-{size_name}"
        profiled = [
            _profiled_request(workload, state, out_dir, label) for _ in range(2)
        ]
        gc.collect()
        quiet = Tracer(enabled=False)
        plain, failed_plain = _closed_loop(workload, state, quiet, 0.35 * seconds)
        before = cachestats.snapshot()
        walls, failed = _closed_loop(workload, state, tracer, 0.65 * seconds)
        after = cachestats.snapshot()
        workload.probes(state, tracer)
        values.update(workload.layer_metrics(state, tracer))
    if not walls or not plain:
        raise SystemExit(f"{workload.name}: no traced request succeeded")
    write_chrome_trace(tracer.spans, Path(out_dir) / f"{label}.wall.trace.json")

    requests = len(walls) + failed

    def per_request(key):
        return (after.get(key, 0) - before.get(key, 0)) / requests

    sim = profiled[0]
    values.update({k: v for k, v in sim.items() if k != "wall"})
    tail = tail_percentile(len(walls))
    coverage = span_coverage(tracer.spans)
    values.update({
        "sim_s": sim_s,
        "bindings.dispatch_hits": per_request("cache_dispatch_hit"),
        "bindings.dispatch_misses": per_request("cache_dispatch_miss"),
        "matrix.format_hits": per_request("cache_format_hit"),
        "matrix.format_misses": per_request("cache_format_miss"),
        "solver.workspace_hits": per_request("cache_workspace_hit"),
        "solver.workspace_misses": per_request("cache_workspace_miss"),
        "perfmodel.host_us_per_kernel": (
            median(walls) / max(sim["perfmodel.kernel_count"], 1) * 1e6
        ),
        "log.profile_overhead_frac": (
            median([p["wall"] for p in profiled]) / median(plain) - 1.0
        ),
        "harness.req_tail_s": percentile(walls, tail),
        "harness.req_tail_pct": tail,
        "harness.req_max_s": max(walls),
        "harness.samples": len(walls),
        "harness.cold_first_req_s": cold_s,
        "harness.trace_overhead_frac": median(walls) / median(plain) - 1.0,
        "harness.span_coverage_frac": coverage,
    })
    if size_name == "full":
        problems = _self_check(workload, state, tracer, coverage)
        if problems:
            raise SystemExit(
                f"{workload.name} is mis-sized: " + "; ".join(problems)
            )
    failed += failed_plain
    return _result(requests + len(plain) + failed_plain, failed, values,
                   catalog.PER_LAYER)
