"""Every metric the benchmark emits: name, unit, direction, clock, owner.

``BENCHMARK.json`` carries only name/unit/better(/bound) — the contract
allows no further keys — so the clock of each name, the workload that
measures it and the end-to-end metric it is expected to move live here
(and are rendered into ``README.md``).  ``tests/test_catalog.py`` holds
the two in lockstep.

Naming rule: a name containing ``sim_`` is on the roofline ``SimClock``
and repeats exactly for a fixed seed; a ``count`` repeats exactly too;
every other time is host wall-clock (``perf_counter``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

#: Measured seconds of one run (``run_seconds`` in ``BENCHMARK.json``).
RUN_SECONDS = 15

#: Owner of the metrics the driver measures on whichever workload runs.
DRIVER = "driver"

SOLVERS = ("cg", "bicgstab", "gmres")
FORMATS = ("csr", "csr_classical", "coo", "ell", "sellp", "hybrid")
PRECONDS = ("ilu", "parilu", "ic", "isai", "block_jacobi", "amg")
DIST_SOLVERS = ("cg", "pipelined_cg", "gmres")
ROUTES = ("scalar", "batch", "distributed")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: ``wall`` (perf_counter), ``sim`` (SimClock) or ``count``.
    clock: str
    #: Workload whose traced pass measures it, or :data:`DRIVER`.
    owner: str
    #: "end-to-end metric @ workload" it should move.
    moves: str
    #: Regression bound (end-to-end metrics only).
    bound: float | None = None


def _clock(name: str, unit: str) -> str:
    if "sim_" in name:
        return "sim"
    return "count" if unit == "count" else "wall"


END_TO_END = (
    Metric("setup_s", "s", "lower", "wall", DRIVER,
           "import + seeded inputs + .mtx files + SciPy references", 0.25),
    Metric("req_p50_s", "s", "lower", "wall", DRIVER,
           "median wall per request, untraced, after 2 warm-ups", 0.20),
    Metric("throughput_rps", "req/s", "higher", "wall", DRIVER,
           "correct requests / summed request wall, untraced", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", "wall", DRIVER,
           "ru_maxrss of the workload process", 0.15),
)


def _build_per_layer() -> tuple:
    out: list = []

    def add(owner, moves, name, unit, better="lower"):
        out.append(
            Metric(name, unit, better, _clock(name, unit), owner, moves)
        )

    # -- the driver: measured on whichever workload runs ---------------
    mv = "sim clock of the whole request; must not move on host-only changes"
    add(DRIVER, mv, "sim_s", "s")
    mv = "req_p50_s, sim_s @ call_storm; sim_s only @ listing1_krylov"
    add(DRIVER, mv, "bindings.dispatch_hits", "count", "higher")
    add(DRIVER, mv, "bindings.dispatch_misses", "count")
    add(DRIVER, mv, "bindings.sim_binding_s", "s")
    add(DRIVER, mv, "bindings.sim_binding_frac", "ratio")
    mv = "req_p50_s @ spmv_formats (write phase taxes invalidation)"
    add(DRIVER, mv, "matrix.format_hits", "count", "higher")
    add(DRIVER, mv, "matrix.format_misses", "count")
    mv = "req_p50_s @ listing1_krylov"
    add(DRIVER, mv, "solver.workspace_hits", "count", "higher")
    add(DRIVER, mv, "solver.workspace_misses", "count")
    mv = "sim_s everywhere; req_p50_s @ call_storm"
    add(DRIVER, mv, "perfmodel.kernel_count", "count")
    add(DRIVER, mv, "perfmodel.computed_bytes", "bytes")
    add(DRIVER, mv, "perfmodel.computed_flops", "flops")
    add(DRIVER, mv, "perfmodel.sim_kernel_s", "s")
    add(DRIVER, mv, "perfmodel.sim_stall_s", "s")
    add(DRIVER, mv, "perfmodel.sim_comm_s", "s")
    add(DRIVER, mv, "perfmodel.attribution_coverage", "ratio", "higher")
    add(DRIVER, mv, "perfmodel.host_us_per_kernel", "us")
    mv = "none (tracing is off in the untraced pass); ROADMAP 1(b)"
    add(DRIVER, mv, "log.profile_overhead_frac", "ratio")
    add(DRIVER, mv, "log.spans", "count")
    add(DRIVER, mv, "log.chrome_trace_write_s", "s")
    mv = "describes the measurement itself"
    add(DRIVER, mv, "harness.req_tail_s", "s")
    add(DRIVER, mv, "harness.req_tail_pct", "%", "higher")
    add(DRIVER, mv, "harness.req_max_s", "s")
    # Not a ``count``: how many requests fit a time-bounded pass varies.
    add(DRIVER, mv, "harness.samples", "requests", "higher")
    add(DRIVER, mv, "harness.cold_first_req_s", "s")
    add(DRIVER, mv, "harness.trace_overhead_frac", "ratio")
    add(DRIVER, mv, "harness.span_coverage_frac", "ratio", "higher")

    # -- listing1_krylov ------------------------------------------------
    own = "listing1_krylov"
    mv = "req_p50_s @ listing1_krylov (read share)"
    add(own, mv, "core.read_s", "s")
    add(own, mv, "mtx_io.read_s", "s")
    add(own, mv, "mtx_io.read_mnnz_per_s", "Mnnz/s", "higher")
    mv = "req_p50_s @ listing1_krylov"
    add(own, mv, "solver.generate_us", "us")
    for s in SOLVERS:
        add(own, mv, f"solver.apply_s.{s}", "s")
    for s in SOLVERS:
        add(own, "must stay exactly equal between commits",
            f"solver.iterations.{s}", "count")
    for s in SOLVERS:
        add(own, mv, f"solver.us_per_iter.{s}", "us")
    add(own, "correctness margin against spsolve", "solver.max_rel_err",
        "ratio")
    add(own, mv, "solver.vs_scipy_cg_x", "x")
    add(own, "plain single-threaded baseline, same problem and tolerance",
        "baselines.scipy_cg_s", "s")

    # -- precond_setup --------------------------------------------------
    own = "precond_setup"
    mv = "req_p50_s @ precond_setup"
    for p in PRECONDS:
        add(own, mv, f"precond.generate_s.{p}", "s")
    for p in PRECONDS:
        add(own, mv, f"precond.apply_us.{p}", "us")
    for p in PRECONDS:
        add(own, "must stay exactly equal between commits",
            f"precond.solve_iterations.{p}", "count")
    add(own, "sim_s @ precond_setup; must not move on host-only changes",
        "precond.sim_generate_s", "s")

    # -- spmv_formats ---------------------------------------------------
    own = "spmv_formats"
    mv = "req_p50_s, throughput_rps @ spmv_formats"
    for f in FORMATS:
        add(own, mv, f"matrix.spmv_us.{f}", "us")
    add(own, mv, "matrix.spmv_f32_us.csr", "us")
    add(own, mv, "matrix.spmm8_us.csr", "us")
    add(own, "setup of spmv_formats (staging, outside requests)",
        "matrix.build_s.csr", "s")
    add(own, "setup of spmv_formats (staging, outside requests)",
        "matrix.build_s.hybrid", "s")
    mv = "req_p50_s @ spmv_formats (write phase)"
    add(own, mv, "matrix.convert_cold_s", "s")
    add(own, mv, "matrix.convert_warm_us", "us")
    add(own, mv, "matrix.invalidate_reapply_us", "us")
    add(own, "ours / SciPy on the same operands", "matrix.spmv_vs_scipy_x",
        "x")
    add(own, "sim_s @ spmv_formats (computed, ignores cache misses)",
        "matrix.computed_bytes_per_spmv", "bytes")
    add(own, "sim_s @ spmv_formats (computed)",
        "matrix.computed_flops_per_byte", "flops/byte", "higher")
    add(own, mv, "mtx_io.write_s", "s")
    add(own, "staging of spmv_formats; < 2 % of its request",
        "core.matrix_build_s", "s")
    add(own, "plain single-threaded baseline, same operands",
        "baselines.scipy_spmv_us", "us")
    add(own, "setup_s", "suitesparse.generate_s", "s")

    # -- call_storm -----------------------------------------------------
    own = "call_storm"
    mv = "req_p50_s @ call_storm; < 2 % @ spmv_formats"
    add(own, mv, "core.as_tensor_us", "us")
    add(own, mv, "core.device_lookup_us", "us")
    add(own, mv, "core.solve_config_self_us", "us")
    add(own, mv, "core.tensor_op_self_us", "us")
    mv = "req_p50_s @ call_storm"
    add(own, mv, "bindings.resolve_hit_us", "us")
    add(own, mv, "bindings.resolve_miss_us", "us")
    add(own, mv, "bindings.charge_us", "us")
    add(own, mv, "perfmodel.record_us", "us")
    mv = "req_p50_s and sim_s @ call_storm"
    add(own, mv, "lazy.eager_expr_us", "us")
    add(own, mv, "lazy.deferred_expr_us", "us")
    add(own, mv, "lazy.regions", "count")
    add(own, mv, "lazy.ops_replaced", "count", "higher")
    add(own, mv, "lazy.recomputed", "count")

    # -- lockstep_ranks -------------------------------------------------
    own = "lockstep_ranks"
    mv = "req_p50_s @ lockstep_ranks; service.run_s @ service_stream"
    add(own, "staging of lockstep_ranks", "batch.build_s", "s")
    for s in SOLVERS:
        add(own, mv, f"batch.apply_s.{s}", "s")
    add(own, "must stay exactly equal between commits",
        "batch.iterations_total", "count")
    add(own, mv, "batch.systems_per_host_s", "1/s", "higher")
    add(own, "K scalar solves / one batched solve, host wall",
        "batch.vs_sequential_x", "x", "higher")
    mv = "req_p50_s, sim_s @ lockstep_ranks"
    add(own, "staging of lockstep_ranks", "distributed.build_s", "s")
    for s in DIST_SOLVERS:
        add(own, mv, f"distributed.apply_s.{s}", "s")
    for s in DIST_SOLVERS:
        add(own, "must stay exactly equal between commits",
            f"distributed.iterations.{s}", "count")
    for s in DIST_SOLVERS:
        add(own, "sim_s @ lockstep_ranks", f"distributed.reductions.{s}",
            "count")
    add(own, "sim_s @ lockstep_ranks", "distributed.sim_comm_s", "s")
    add(own, "sim_s @ lockstep_ranks", "distributed.sim_comm_hidden_s", "s",
        "higher")
    add(own, "4-rank / 1-rank blocking CG, host wall",
        "distributed.vs_single_rank_x", "x")

    # -- service_stream -------------------------------------------------
    own = "service_stream"
    mv = "req_p50_s, sim_s @ service_stream; no change elsewhere"
    add(own, mv, "service.run_s", "s")
    add(own, mv, "service.jobs_per_host_s", "jobs/s", "higher")
    add(own, mv, "service.sched_self_s", "s")
    add(own, mv, "service.sim_p50_latency_s", "s")
    add(own, mv, "service.sim_p99_latency_s", "s")
    add(own, mv, "service.sim_throughput_jps", "jobs/s", "higher")
    add(own, mv, "service.coalesce_ratio", "ratio", "higher")
    add(own, "failed requests @ service_stream",
        "service.deadline_miss_rate", "ratio")
    add(own, mv, "service.max_queue_depth", "count")
    add(own, "failed requests @ service_stream", "service.jobs_rejected",
        "count")
    add(own, mv, "service.route_scalar", "count")
    add(own, mv, "service.route_batch", "count", "higher")
    add(own, mv, "service.route_distributed", "count")
    return tuple(out)


PER_LAYER = _build_per_layer()

#: Per-layer metric names that must agree exactly between two runs of
#: the same seed (``repeat.py``): simulated times and counts.
EXACT = tuple(m.name for m in PER_LAYER if m.clock in ("sim", "count"))


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json`` (regenerate with
    ``PYTHONPATH=src python -m benchmarks.e2e.catalog > BENCHMARK.json``)."""
    from benchmarks.e2e.workloads import WORKLOADS

    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
