"""Lazy expression recording, fusion accounting, and bit-identity."""

from contextlib import ExitStack

import numpy as np
import pytest
import scipy.sparse as sp

import repro as pg
from repro.bindings import dispatch
from repro.bindings.overhead import reset_models
from repro.ginkgo import cachestats, lazy
from repro.ginkgo.executor import ReferenceExecutor
from repro.ginkgo.exceptions import DimensionMismatch, ExecutorMismatch
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.preconditioner import Jacobi


@pytest.fixture
def small_sp(rng):
    mat = sp.random(16, 16, density=0.35, format="csr", random_state=rng)
    mat.setdiag(5.0)
    return mat.tocsr()


def _vec(dev, rng, rows, cols=1):
    return Dense(dev, rng.standard_normal((rows, cols)))


class TestRecording:
    def test_matmul_is_eager_outside_deferred(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        out = mtx @ x
        assert isinstance(out, Dense)
        np.testing.assert_array_equal(
            np.asarray(out), small_sp @ np.asarray(x)
        )

    def test_matmul_records_inside_deferred(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        with pg.deferred() as trace:
            expr = mtx @ x
            assert isinstance(expr, lazy.LazyExpr)
            assert lazy.is_recording()
            assert expr.shape == (16, 1)
            # nothing executed yet, and no root registered either
            assert trace.pending == 0
        assert not lazy.is_recording()

    def test_operator_expressions_build_a_dag(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        y = _vec(ref, rng, 16)
        with pg.deferred():
            expr = 2.0 * (mtx @ x) + 0.5 * y
            # apply + 2 scales + add + 2 leaves
            assert expr.num_nodes == 6
            assert expr.kind == "add"

    def test_shape_and_executor_validation(self, ref, omp, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        bad = _vec(ref, rng, 7)
        other_exec = _vec(omp, rng, 16)
        with pg.deferred():
            with pytest.raises(DimensionMismatch):
                mtx @ bad
            with pytest.raises(ExecutorMismatch):
                mtx @ other_exec
            with pytest.raises(DimensionMismatch):
                _vec(ref, rng, 16) + _vec(ref, rng, 7)

    def test_exception_discards_pending_roots(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        out = Dense.zeros(ref, (16, 1), np.float64)
        with pytest.raises(RuntimeError):
            with pg.deferred() as trace:
                (mtx @ x).into(out)
                raise RuntimeError("abort")
        assert trace.regions == 0
        np.testing.assert_array_equal(np.asarray(out), 0.0)


class TestEquivalence:
    """Flushed results must be bit-identical to the eager operators."""

    def test_spmv(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        eager = (mtx @ x).to_numpy()
        with pg.deferred():
            fused = (mtx @ x).to_numpy()
        assert eager.tobytes() == fused.tobytes()

    def test_axpby_expression(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        y = _vec(ref, rng, 16)
        eager = (2.0 * (mtx @ x) + 0.5 * y).to_numpy()
        with pg.deferred():
            fused = (2.0 * (mtx @ x) + 0.5 * y).to_numpy()
        assert eager.tobytes() == fused.tobytes()

    def test_sub_and_neg(self, ref, rng):
        a = _vec(ref, rng, 12)
        b = _vec(ref, rng, 12)
        eager = (a - 3.0 * b).to_numpy()
        with pg.deferred():
            fused = (a - 3.0 * b).to_numpy()
        assert eager.tobytes() == fused.tobytes()
        with pg.deferred():
            neg = (-a).to_numpy()
        assert neg.tobytes() == (-a.to_numpy()).tobytes()

    def test_scale_special_cases(self, ref, rng):
        """0.0 and 1.0 take Dense.scale's special paths — bits must match."""
        a = _vec(ref, rng, 12)
        b = _vec(ref, rng, 12)
        for coef in (0.0, 1.0, -1.0, 2.5):
            eager = (coef * a + b).to_numpy()
            with pg.deferred():
                fused = (coef * a + b).to_numpy()
            assert eager.tobytes() == fused.tobytes(), coef

    def test_preconditioner_chain(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        M = Jacobi(ref).generate(mtx)
        x = _vec(ref, rng, 16)
        mid = mtx @ x
        eager_out = Dense.zeros(ref, (16, 1), np.float64)
        M.apply(mid, eager_out)
        with pg.deferred() as trace:
            fused = (M @ (mtx @ x)).to_numpy()
        assert eager_out.to_numpy().tobytes() == fused.tobytes()
        assert trace.regions == 1
        assert trace.ops_replaced == 2

    def test_multi_rhs(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        X = _vec(ref, rng, 16, cols=4)
        Y = _vec(ref, rng, 16, cols=4)
        eager = (1.5 * (mtx @ X) + Y).to_numpy()
        with pg.deferred():
            fused = (1.5 * (mtx @ X) + Y).to_numpy()
        assert eager.shape == (16, 4)
        assert eager.tobytes() == fused.tobytes()

    def test_tensor_operands_record(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = pg.as_tensor(rng.standard_normal((16, 1)), device=ref)
        y = pg.as_tensor(rng.standard_normal((16, 1)), device=ref)
        eager = (mtx @ x + 2.0 * y).numpy()
        with pg.deferred():
            expr = mtx @ x + 2.0 * y
            assert isinstance(expr, lazy.LazyExpr)
            fused = expr.tensor()
        assert eager.tobytes() == fused.numpy().tobytes()

    def test_into_destination(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        y = _vec(ref, rng, 16)
        eager = (0.5 * (mtx @ x) + y).to_numpy()
        out = Dense.zeros(ref, (16, 1), np.float64)
        with pg.deferred() as trace:
            (0.5 * (mtx @ x) + y).into(out)
            assert trace.pending == 1
            np.testing.assert_array_equal(np.asarray(out), 0.0)  # deferred
        assert trace.pending == 0
        assert out.to_numpy().tobytes() == eager.tobytes()

    def test_into_invalidates_destination_caches(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        out = Dense.zeros(ref, (16, 1), np.float64)
        t1 = out.transpose()
        with pg.deferred():
            (mtx @ x).into(out)
        assert out.transpose() is not t1


class TestFusionAccounting:
    def test_one_region_one_dispatch_resolve(self, ref, rng, small_sp):
        from repro.ginkgo import cachestats

        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        y = _vec(ref, rng, 16)
        out = Dense.zeros(ref, (16, 1), np.float64)
        with pg.deferred() as trace:
            (2.0 * (mtx @ x) + 0.5 * y).into(out)
            cachestats.reset()
            trace.flush()
        hits, misses = cachestats.counts("dispatch")
        assert hits + misses == 1  # one fused_region lookup for 4 ops
        assert trace.regions == 1
        assert trace.ops_replaced == 4

    def test_fused_region_cheaper_than_eager(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        y = _vec(ref, rng, 16)
        t0 = ref.clock.now
        eager = 2.0 * (mtx @ x) + 0.5 * y
        eager_cost = ref.clock.now - t0
        t1 = ref.clock.now
        with pg.deferred():
            fused = (2.0 * (mtx @ x) + 0.5 * y).evaluate()
        fused_cost = ref.clock.now - t1
        assert fused_cost < eager_cost
        assert eager.to_numpy().tobytes() == fused.to_numpy().tobytes()

    def test_shared_subexpression_runs_once(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        r = Dense.zeros(ref, (16, 1), np.float64)
        s = Dense.zeros(ref, (16, 1), np.float64)
        with pg.deferred() as trace:
            q = mtx @ x  # consumed by both roots
            (2.0 * q).into(r)
            (0.5 * q).into(s)
        assert trace.regions == 2
        base = (small_sp @ np.asarray(x))
        np.testing.assert_array_equal(np.asarray(r), 2.0 * base)
        np.testing.assert_array_equal(np.asarray(s), 0.5 * base)

    def test_fused_region_span_in_trace(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        y = _vec(ref, rng, 16)
        with pg.profile(ref) as prof:
            with pg.deferred():
                (2.0 * (mtx @ x) + y).evaluate()
        table = prof.attribution()
        assert table.fused_regions == 1
        assert table.fused_ops_replaced == 3

    def test_workspace_pool_reused_across_flushes(self, ref, rng, small_sp):
        from repro.ginkgo import cachestats

        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        with pg.deferred() as trace:
            (2.0 * (mtx @ x) + x).evaluate()
            cachestats.reset()
            x.mark_modified()  # force a recompute on the second flush
            (2.0 * (mtx @ x) + x).evaluate()
        hits, _ = cachestats.counts("workspace")
        assert hits >= 1
        assert trace.flushes == 2


class TestInvalidation:
    def test_mutation_between_record_and_flush_recomputes(
        self, ref, rng, small_sp
    ):
        mtx = Csr.from_scipy(ref, small_sp)
        x = Dense(ref, np.ones((16, 1)))
        out = Dense.zeros(ref, (16, 1), np.float64)
        with pg.deferred() as trace:
            (mtx @ x).into(out)
            x.scale(3.0)  # public mutator: bumps data_version
        # flush read the LIVE data, not a record-time snapshot
        np.testing.assert_array_equal(
            np.asarray(out), small_sp @ (3.0 * np.ones((16, 1)))
        )
        assert trace.recomputed >= 1

    def test_memoized_evaluate_invalidated_by_mutation(
        self, ref, rng, small_sp
    ):
        mtx = Csr.from_scipy(ref, small_sp)
        x = Dense(ref, np.ones((16, 1)))
        with pg.deferred():
            expr = mtx @ x
            r1 = expr.evaluate()
            assert expr.evaluate() is r1  # cached while versions match
            x.scale(2.0)
            r2 = expr.evaluate()
        assert r2 is not r1
        np.testing.assert_array_equal(
            np.asarray(r2), small_sp @ (2.0 * np.ones((16, 1)))
        )

    def test_matrix_mutation_invalidates(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = Dense(ref, np.ones((16, 1)))
        with pg.deferred():
            expr = mtx @ x
            expr.evaluate()
            mtx.scale(10.0)
            fresh = expr.evaluate().to_numpy()
        np.testing.assert_allclose(
            fresh, (10.0 * small_sp) @ np.ones((16, 1))
        )


class TestImmediatePath:
    def test_evaluate_outside_deferred(self, ref, rng, small_sp):
        """A LazyExpr escaping its region still evaluates correctly."""
        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        with pg.deferred():
            expr = 2.0 * (mtx @ x)
        # the region flushed on exit with no roots; evaluate now
        out = expr.to_numpy()
        np.testing.assert_array_equal(out, 2.0 * (small_sp @ np.asarray(x)))

    def test_into_outside_deferred_runs_immediately(self, ref, rng, small_sp):
        mtx = Csr.from_scipy(ref, small_sp)
        x = _vec(ref, rng, 16)
        out = Dense.zeros(ref, (16, 1), np.float64)
        with pg.deferred():
            expr = mtx @ x
        expr.into(out)  # no active trace: immediate
        np.testing.assert_array_equal(
            np.asarray(out), small_sp @ np.asarray(x)
        )


# ----------------------------------------------------------------------
# plan cache: a replayed flush against a fresh walk of the same flush
# ----------------------------------------------------------------------
def _plan_operands(exec_, n=16, dtype=np.float64):
    rng = np.random.default_rng(7)
    mat = sp.random(n, n, density=0.35, format="csr", random_state=rng)
    mat.setdiag(5.0)
    A = Csr.from_scipy(exec_, mat.astype(dtype))
    x, y = (Dense(exec_, rng.standard_normal((n, 1)).astype(dtype)) for _ in "xy")
    return A, x, y, Dense.zeros(exec_, (n, 1), dtype)


def leaf_mutated(exec_):
    A, x, y, out = _plan_operands(exec_)

    def second():
        (2.0 * (A @ x) + y).into(out)
        x.writable_view()[:] += 1.0  # after recording: the flush recomputes
        x.mark_modified()

    return lambda: (2.0 * (A @ x) + y).into(out), second, [out]


def alpha_value(exec_):
    A, x, y, out = _plan_operands(exec_)
    return (
        lambda: (2.0 * (A @ x) + y).into(out),
        lambda: (-3.5 * (A @ x) + y).into(out), [out],
    )


def alpha_zero_over_inf(exec_):
    _, x, y, out = _plan_operands(exec_)

    def second():
        x.writable_view()[:] = np.inf
        x.mark_modified()
        (0.0 * x + y).into(out)  # zero-fills: no inf * 0 = nan

    return lambda: (2.0 * x + y).into(out), second, [out]


def alpha_kind(exec_):
    A, x, y, out = _plan_operands(exec_)
    alpha = Dense(exec_, np.full((1, 1), 0.25))
    return (
        lambda: (2.0 * (A @ x) + y).into(out),
        lambda: (lazy.scale_expr(alpha, A @ x) + y).into(out), [out],
    )


def operator_modified(exec_):
    A, x, y, out = _plan_operands(exec_)

    def second():
        A.writable_values()[:] *= 3.0
        A.mark_modified()
        (2.0 * (A @ x) + y).into(out)

    return lambda: (2.0 * (A @ x) + y).into(out), second, [out]


def operator_repriced(exec_):
    A, x, y, out = _plan_operands(exec_)

    def second():
        A.strategy = "merge_path"  # a new SpMV price: the plan is rebuilt
        (2.0 * (A @ x) + y).into(out)

    return lambda: (2.0 * (A @ x) + y).into(out), second, [out]


def other_operator(exec_):
    A, x, y, out = _plan_operands(exec_)
    B = Csr.from_scipy(exec_, 2.0 * A._scipy_view())
    return (
        lambda: (2.0 * (A @ x) + y).into(out),
        lambda: (2.0 * (B @ x) + y).into(out), [out],
    )


def other_dtype_and_shape(exec_):
    A, x, y, out = _plan_operands(exec_)
    A32, x32, y32, out32 = _plan_operands(exec_, dtype=np.float32)
    B, u, v, out9 = _plan_operands(exec_, n=9)

    def second():
        (2.0 * (A32 @ x32) + y32).into(out32)
        (2.0 * (B @ u) + v).into(out9)

    return lambda: (2.0 * (A @ x) + y).into(out), second, [out, out32, out9]


def aliased_leaves(exec_):
    _, x, y, out = _plan_operands(exec_)
    return lambda: (x + y).into(out), lambda: (x + x).into(out), [out]


def one_node_into(exec_):
    _, x, y, out = _plan_operands(exec_)
    body = lambda: (x + y).into(out)  # noqa: E731  (streams: no slots)
    return body, body, [out]


def into_aliasing_leaf(exec_):
    _, x, y, out = _plan_operands(exec_)
    return lambda: (2.0 * x + y).into(out), lambda: (2.0 * x + y).into(x), [x]


def into_aliasing_leaf_twice(exec_):
    _, x, y, _ = _plan_operands(exec_)
    body = lambda: (2.0 * x + y).into(x)  # noqa: E731
    return body, body, [x]


def preconditioner(exec_):
    A, x, _, out = _plan_operands(exec_)
    M = Jacobi(exec_).generate(A)
    body = lambda: (M @ (A @ x) + x).into(out)  # noqa: E731
    return body, body, [out]


def shared_subtree(exec_):
    A, x, r, s = _plan_operands(exec_)

    def body():
        q = A @ x
        (2.0 * q).into(r)
        (0.5 * q + x).into(s)

    return body, body, [r, s]


def _second_flush(monkeypatch, case, replay, traced=False):
    """What the second of two flushes of ``case`` in one region produced
    and charged, with the number of plans it built.  The first flush
    plans; the second replays those plans, or walks afresh against the
    same pool when ``replay`` is False."""
    reset_models()
    dispatch.clear()
    exec_ = ReferenceExecutor.create(noisy=False)
    first, second, outs = case(exec_)
    planned, build = [], lazy._plan
    monkeypatch.setattr(lazy, "_plan", lambda *a: planned.append(1) or build(*a))
    with ExitStack() as stack:
        prof = stack.enter_context(pg.profile(exec_)) if traced else None
        with pg.deferred() as trace:
            first()
            trace.flush()
            if not replay:
                trace._plans.clear()
            cachestats.reset()
            del planned[:]
            before = (trace.regions, trace.ops_replaced, trace.recomputed)
            second()
            trace.flush()
            after = (trace.regions, trace.ops_replaced, trace.recomputed)
    monkeypatch.setattr(lazy, "_plan", build)
    return {
        "bytes": [out.to_numpy().tobytes() for out in outs],
        "now": exec_.clock.now.hex(),
        "kernels": exec_.clock.kernel_count,
        "counts": cachestats.snapshot(),  # keys included: no zero entries
        "trace": tuple(b - a for a, b in zip(before, after)),
        "chrome": prof.to_chrome_trace() if traced else None,
    }, len(planned)


#: case -> plans the replayed second flush builds (0: it replays them all).
PLAN_CASES = {
    leaf_mutated: 0, alpha_value: 0, alpha_zero_over_inf: 0, alpha_kind: 1,
    operator_modified: 0, operator_repriced: 1, other_operator: 1, other_dtype_and_shape: 2,
    aliased_leaves: 1, one_node_into: 0, into_aliasing_leaf: 1, into_aliasing_leaf_twice: 0,
    preconditioner: 0, shared_subtree: 1,
}


class TestPlanCache:
    @pytest.mark.parametrize("case", PLAN_CASES, ids=lambda c: c.__name__)
    def test_replay_matches_a_fresh_walk(self, monkeypatch, case):
        replayed, planned = _second_flush(monkeypatch, case, replay=True)
        walked, _ = _second_flush(monkeypatch, case, replay=False)
        assert replayed == walked
        assert planned == PLAN_CASES[case]

    def test_replay_reads_live_operands(self, monkeypatch):
        mutated, _ = _second_flush(monkeypatch, leaf_mutated, replay=True)
        assert mutated["trace"][2] > 0  # recomputed, from the nodes' deps
        zeroed, _ = _second_flush(monkeypatch, alpha_zero_over_inf, replay=True)
        exec_ = ReferenceExecutor.create(noisy=False)
        _, _, y, _ = _plan_operands(exec_)
        assert zeroed["bytes"] == [y.to_numpy().tobytes()]

    def test_traced_replay_trace_is_byte_identical(self, monkeypatch):
        replayed, planned = _second_flush(
            monkeypatch, alpha_value, replay=True, traced=True
        )
        walked, _ = _second_flush(monkeypatch, alpha_value, replay=False, traced=True)
        assert planned == 0 and replayed["chrome"]
        assert replayed == walked

    def test_throwaway_trace_keeps_no_plan(self, monkeypatch):
        planned, build = [], lazy._plan
        monkeypatch.setattr(lazy, "_plan", lambda *a: planned.append(1) or build(*a))
        A, x, y, _ = _plan_operands(ReferenceExecutor.create(noisy=False))
        for _ in range(2):  # outside a region: a lazy leaf records
            (2.0 * (A @ lazy.LazyExpr.leaf(x)) + y).evaluate()
        assert len(planned) == 2
