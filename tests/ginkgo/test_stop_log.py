"""Stopping-criterion and logger unit tests."""

import ast
import io
import pathlib

import numpy as np
import pytest

from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.log import ConvergenceLogger, RecordLogger, StreamLogger
from repro.ginkgo.stop import (
    Combined,
    CriterionContext,
    Deadline,
    Divergence,
    Iteration,
    ResidualNorm,
    Time,
)
from repro.ginkgo.stop.criterion import CriterionFactory
from repro.perfmodel import NVIDIA_A100, SimClock


class TestIteration:
    def test_stops_at_limit(self):
        crit = Iteration(5).generate(CriterionContext())
        assert not crit.check(4, 1.0)
        assert crit.check(5, 1.0)
        assert crit.check(6, 1.0)

    def test_not_marked_converged(self):
        crit = Iteration(1).generate(CriterionContext())
        crit.check(1, 1.0)
        assert not crit.converged

    def test_negative_rejected(self):
        with pytest.raises(GinkgoError):
            Iteration(-1)


class TestResidualNorm:
    def test_rhs_norm_baseline(self):
        context = CriterionContext(rhs_norm=10.0, initial_resnorm=100.0)
        crit = ResidualNorm(1e-2, baseline="rhs_norm").generate(context)
        assert not crit.check(1, 0.2)
        assert crit.check(2, 0.05)
        assert crit.converged

    def test_initial_resnorm_baseline(self):
        context = CriterionContext(rhs_norm=10.0, initial_resnorm=100.0)
        crit = ResidualNorm(1e-2, baseline="initial_resnorm").generate(context)
        assert not crit.check(1, 1.5)
        assert crit.check(2, 0.5)

    def test_absolute_baseline(self):
        crit = ResidualNorm(1e-3, baseline="absolute").generate(
            CriterionContext(rhs_norm=1e6)
        )
        assert not crit.check(1, 1e-2)
        assert crit.check(2, 1e-4)

    def test_vector_norms_require_all_columns(self):
        context = CriterionContext(rhs_norm=np.array([1.0, 1.0]))
        crit = ResidualNorm(1e-2).generate(context)
        assert not crit.check(1, np.array([1e-3, 1e-1]))
        assert crit.check(2, np.array([1e-3, 1e-3]))

    def test_unknown_baseline(self):
        with pytest.raises(GinkgoError):
            ResidualNorm(1e-2, baseline="energy_norm")

    def test_negative_factor(self):
        with pytest.raises(GinkgoError):
            ResidualNorm(-1.0)

    # Regression: a zero baseline (b = 0, or an exact initial guess)
    # used to make the threshold 0.0, so the criterion could never fire
    # and zero-RHS solves span until the iteration limit.  The criterion
    # now falls back to absolute semantics (reference 1.0).
    def test_zero_rhs_baseline_is_absolute(self):
        crit = ResidualNorm(1e-6, baseline="rhs_norm").generate(
            CriterionContext(rhs_norm=0.0)
        )
        assert not crit.check(1, 1e-3)
        assert crit.check(2, 1e-7)
        assert crit.converged

    def test_zero_initial_resnorm_baseline_is_absolute(self):
        crit = ResidualNorm(1e-6, baseline="initial_resnorm").generate(
            CriterionContext(initial_resnorm=0.0)
        )
        assert crit.check(1, 0.0)

    def test_mixed_zero_columns_fall_back_per_column(self):
        crit = ResidualNorm(1e-2, baseline="rhs_norm").generate(
            CriterionContext(rhs_norm=np.array([10.0, 0.0]))
        )
        # Column 0 is relative (threshold 0.1); column 1 absolute (1e-2).
        assert not crit.check(1, np.array([0.05, 0.5]))
        assert crit.check(2, np.array([0.05, 1e-3]))

    def test_zero_rhs_solve_converges(self, ref, spd_small):
        from repro.ginkgo.matrix import Csr, Dense
        from repro.ginkgo.solver import Cg

        mtx = Csr.from_scipy(ref, spd_small)
        n = mtx.size.rows
        b = Dense.zeros(ref, (n, 1), np.float64)
        x = Dense.zeros(ref, (n, 1), np.float64)
        solver = Cg(
            ref, criteria=Iteration(200) | ResidualNorm(1e-8)
        ).generate(mtx)
        solver.apply(b, x)
        assert solver.converged
        assert solver.num_iterations == 0
        np.testing.assert_array_equal(x.to_numpy(), 0.0)


class TestTime:
    def test_stops_after_simulated_time(self):
        clock = SimClock(NVIDIA_A100, noisy=False)
        context = CriterionContext(clock=clock, start_time=clock.now)
        crit = Time(1e-3).generate(context)
        assert not crit.check(1, 1.0)
        clock.advance(2e-3)
        assert crit.check(2, 1.0)
        assert not crit.converged

    def test_no_clock_never_stops(self):
        crit = Time(1e-9).generate(CriterionContext(clock=None))
        assert not crit.check(100, 1.0)

    def test_invalid_limit(self):
        with pytest.raises(GinkgoError):
            Time(0.0)


class TestCombined:
    def test_or_semantics(self):
        context = CriterionContext(rhs_norm=1.0)
        combined = (Iteration(10) | ResidualNorm(1e-3)).generate(context)
        assert not combined.check(1, 1.0)
        assert combined.check(2, 1e-4)  # residual criterion fires
        assert combined.converged

    def test_iteration_side_does_not_set_converged(self):
        context = CriterionContext(rhs_norm=1.0)
        combined = (Iteration(2) | ResidualNorm(1e-12)).generate(context)
        assert combined.check(2, 1.0)
        assert not combined.converged

    def test_pipe_flattens(self):
        combined = Iteration(1) | ResidualNorm(1e-3) | Time(1.0)
        assert isinstance(combined, Combined)
        assert len(combined.factories) == 3

    def test_empty_rejected(self):
        with pytest.raises(GinkgoError):
            Combined([])


def test_generate_builds_no_class_per_call():
    clock = SimClock(NVIDIA_A100)
    context = CriterionContext(
        rhs_norm=1.0, initial_resnorm=2.0, clock=clock, start_time=0.0
    )
    factory = (
        Iteration(3) | ResidualNorm(1e-2) | Divergence(10.0) | Time(1e-3)
        | Deadline(2e-3)
    )
    first, second = factory.generate(context), factory.generate(context)
    assert type(first) is type(second)
    assert [type(c) for c in first.bound] == [type(c) for c in second.bound]
    assert not first.check(1, 0.5)
    assert first.check(1, 5e-3) and first.converged
    assert second.check(3, 0.5) and not second.converged
    assert factory.generate(context).check(1, 25.0)  # diverged
    clock.advance(2e-3)
    assert second.check(1, 0.5) and second.timed_out


SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
FACTORIES = {cls.__name__ for cls in CriterionFactory.__subclasses__()}


def _stop_decisions(source: str) -> list:
    """Lines testing for a stop factory class or defining a criterion check."""
    def decides(node) -> bool:
        if isinstance(node, ast.FunctionDef) and node.name == "check":
            return ast.unparse(node.args).startswith("self, iteration")
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
            classes = getattr(node.args[-1], "elts", node.args[-1:])
            return bool({ast.unparse(c).split(".")[-1] for c in classes} & FACTORIES)
        return False
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if decides(n))


def test_the_stopping_decision_lives_in_stop():
    stop = SRC / "ginkgo" / "stop"
    assert [f"{p.relative_to(SRC)}:{line}" for p in sorted(SRC.rglob("*.py"))
            if stop not in p.parents for line in _stop_decisions(p.read_text())] == []
    assert _stop_decisions(  # the lint's self-check
        "class Mine:\n    def check(self, iterations, norms):\n"
        "        return isinstance(self.leaf, (int, stop.Deadline))\n"
        "isinstance(leaf, Iteration) or isinstance(leaf, Dense)\n"
    ) == [2, 3, 4]


class TestConvergenceLogger:
    def test_reset_on_new_apply(self):
        logger = ConvergenceLogger()
        logger.on_iteration_complete(None, iteration=3, residual_norm=0.5)
        logger.on_apply_started(None)
        assert logger.num_iterations == 0
        assert logger.residual_norms == []

    def test_reduction(self):
        logger = ConvergenceLogger()
        logger.on_iteration_complete(None, iteration=1, residual_norm=10.0)
        logger.on_iteration_complete(None, iteration=2, residual_norm=1.0)
        assert logger.reduction == pytest.approx(0.1)

    def test_repr_mentions_state(self):
        logger = ConvergenceLogger()
        logger.on_converged(None, iteration=7, residual_norm=1e-9)
        assert "iterations=7" in repr(logger)
        assert "converged=True" in repr(logger)


class TestRecordLogger:
    def test_counts(self):
        logger = RecordLogger()
        logger.on_iteration_complete(None, iteration=1)
        logger.on_iteration_complete(None, iteration=2)
        logger.on_converged(None, iteration=2)
        assert logger.count("iteration_complete") == 2
        assert logger.count("converged") == 1
        assert logger.count("apply_started") == 0


class TestStreamLogger:
    def test_writes_iterations(self):
        stream = io.StringIO()
        logger = StreamLogger(stream=stream)
        logger.on_iteration_complete(None, iteration=2, residual_norm=0.25)
        assert "iteration 2" in stream.getvalue()
        assert "2.5" in stream.getvalue()

    def test_every_filter(self):
        stream = io.StringIO()
        logger = StreamLogger(stream=stream, every=10)
        for i in range(1, 21):
            logger.on_iteration_complete(None, iteration=i)
        assert stream.getvalue().count("iteration") == 2

    def test_invalid_every(self):
        with pytest.raises(ValueError):
            StreamLogger(every=0)
