# Single entry point shared by CI and local development.

PYTHON ?= python
export PYTHONPATH := src
# Where the smoke gates write their BENCH_*.json reports (gitignored), so
# a verify run leaves the tracked reports as they are.
SMOKE_OUT := .bench_build

.PHONY: verify unit profile-smoke perf-smoke mixed-smoke service-smoke chaos-smoke e2e-smoke e2e test bench bench-report

# Tier-1 gate: the full test suite plus the profiler, perf, mixed-precision,
# service, chaos, and end-to-end-benchmark smoke checks.
verify: unit profile-smoke perf-smoke mixed-smoke service-smoke chaos-smoke e2e-smoke

# The full unit/integration/property suite, fail-fast.
unit:
	$(PYTHON) -m pytest -x -q

# End-to-end profiler acceptance: attribution coverage, Chrome-trace
# validity, and same-seed trace determinism on a small profiled solve.
profile-smoke:
	$(PYTHON) benchmarks/bench_profile_attribution.py --smoke

# Hot-path acceptance: warm (pooled) solves after the first must miss no
# workspace-pool or dispatch-cache entry, with byte-identical residual
# histories and same-seed traces, and an untraced warm solve must end at
# the same simulated clock.now and kernel count as a pg.profile()-traced
# one (the cold/warm wall ratio is reported with the core count, not gated).
# Step plans: every scalar, batched and distributed method's unlistened,
# listened and traced solves give the same bytes, histories and clock,
# with apply's logger events; the CSR and batched-head column kernels are
# SciPy's matmul byte for byte; validation runs per solve and batched
# kernels are priced per active count, not per iteration; run faults
# fire at the same kernels; sequential-rank and rank-failure solves keep
# their pinned results and charges; halo buffers do not leak, also across
# a rank-failure repartition.  One vector protocol: no instance class
# (Dense, BatchDense, the batched head, distributed.Vector) re-defines a
# protocol method, and every instance's scale/add_scaled/sub_scaled over
# NaN and Inf data equals Dense's in bytes, clock and kernel count.
# Batch acceptance: one batched solve of 64 small systems must match 64
# sequential scalar solves byte for byte, cross the factory binding once
# where they cross it 64 times, and be no slower on the simulated clock;
# an omp(8) batch must match the reference byte for byte (the wall-clock
# ratio is reported with the core count, not gated).
# Distributed acceptance: 4-rank CG histories byte-identical to the
# single-rank solve, one kernel record per fused rank region where
# sequential-rank dispatch issues one per rank, simulated time no worse,
# an omp(4) solve byte-identical to the reference (the wall-clock ratio
# is reported with the core count, not gated).
# Fusion acceptance: pg.deferred() must beat the eager operator path by
# >= 1.5x on the simulated clock with byte-identical residual histories
# and same-seed traces (the wall-clock ratio is reported, not gated).
perf-smoke: mixed-smoke | $(SMOKE_OUT)
	$(PYTHON) benchmarks/bench_hot_path.py --smoke --out $(SMOKE_OUT)/BENCH_hot_path.json
	$(PYTHON) -m pytest -x -q tests/ginkgo/test_step_plans.py tests/ginkgo/test_krylov_core.py
	$(PYTHON) benchmarks/bench_batch.py --smoke --out $(SMOKE_OUT)/BENCH_batch.json
	$(PYTHON) benchmarks/bench_overlap.py --smoke --out $(SMOKE_OUT)/BENCH_overlap.json
	$(PYTHON) benchmarks/bench_fusion.py --smoke --out $(SMOKE_OUT)/BENCH_fusion.json
	$(PYTHON) benchmarks/bench_distributed.py --smoke --out $(SMOKE_OUT)/BENCH_distributed.json

# Mixed-precision acceptance: float32-storage Jacobi/ILU inside float64
# CG/GMRES must beat uniform float64 by >= 1.2x preconditioner-phase
# simulated time on the bandwidth-bound suite, with iteration counts
# pinned, the default uniform path byte-identical, and mixed applies
# routed through the mixed-suffix binding symbols.
mixed-smoke: | $(SMOKE_OUT)
	$(PYTHON) benchmarks/bench_mixed_precision.py --smoke --out $(SMOKE_OUT)/BENCH_mixed.json

# Service acceptance: coalesced multi-tenant scheduling must beat the
# naive one-at-a-time FIFO baseline by >= 3x simulated-clock throughput
# with every job's solution byte-identical to its solo solve, and the
# SLO snapshot (latency percentiles, throughput, coalesce ratio) must
# land in its BENCH_service.json report.  The route-equivalence
# suite checks every route gives a job the same answer.
service-smoke: | $(SMOKE_OUT)
	$(PYTHON) -m pytest -x -q tests/integration/test_route_equivalence.py
	$(PYTHON) benchmarks/bench_service.py --smoke --out $(SMOKE_OUT)/BENCH_service.json

# Chaos acceptance: the seeded fault-schedule suite, then the recovery
# sweep — every injectable site across scalar/batch/distributed solves
# must recover bit-identically or report a truthful degraded outcome,
# with recovered distributed solves within 2x fault-free simulated time.
chaos-smoke: | $(SMOKE_OUT)
	$(PYTHON) -m pytest -x -q tests/ginkgo/test_chaos.py
	$(PYTHON) benchmarks/bench_chaos.py --smoke --out $(SMOKE_OUT)/BENCH_chaos.json

$(SMOKE_OUT):
	mkdir -p $@

# The end-to-end benchmark's own tests (harness, workloads, catalog) —
# `unit` only collects tests/, so CI runs these here (~15 s).
e2e-smoke:
	$(PYTHON) -m pytest -q benchmarks/e2e/tests

# All six end-to-end workloads at quick size, with tables (not in verify:
# wall-clock numbers belong to a quiet machine, not a CI gate).
e2e:
	$(PYTHON) -m benchmarks.e2e.run --quick

test: verify

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Aggregate every BENCH_*.json acceptance report into one summary table.
bench-report:
	$(PYTHON) benchmarks/bench_report.py
