"""Pinned simulated charges of ``pg.deferred()`` flushes.

Each scenario records a small expression region on a fresh noiseless
reference executor, flushes it twice (the second flush reuses the
trace's pooled intermediates) and compares what the flush charged with
the values in :data:`PINNED`:

* the multiset of kernel names and the totals of bytes, flops and
  launches the clock recorded;
* the simulated time the region took, as ``float.hex``;
* the trace's ``regions``/``ops_replaced``/``recomputed`` counters;
* the dispatch and workspace cache hit/miss counts.

Eager and deferred ``+``/``-`` must also agree on mixed value types (both
promote), and a property test checks that random expression DAGs over
float32 and float64 leaves evaluate to the same bytes deferred as eager.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import repro as pg
from repro.core.tensor import Tensor
from repro.ginkgo import cachestats, lazy
from repro.ginkgo.executor import ReferenceExecutor
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.preconditioner import Jacobi

N = 24


def _operands(exec_, dtype=np.float64, cols=1):
    rng = np.random.default_rng(3)
    mat = sp.random(N, N, density=0.3, format="csr", random_state=rng)
    mat.setdiag(4.0)
    vecs = [
        Dense(exec_, rng.standard_normal((N, cols)).astype(dtype))
        for _ in range(3)
    ]
    out = [Dense.zeros(exec_, (N, cols), dtype) for _ in range(3)]
    return Csr.from_scipy(exec_, mat.astype(dtype)), vecs, out


def bare_spmv(exec_):
    A, (x, _, _), (out, _, _) = _operands(exec_)
    return lambda: (A @ x).into(out)


def spmv_axpby(exec_):
    A, (x, y, _), (out, _, _) = _operands(exec_)
    return lambda: (2.0 * (A @ x) + 0.5 * y).into(out)


def sub_neg(exec_):
    _, (a, b, _), (out, _, _) = _operands(exec_)

    def body():
        (a - 3.0 * b).into(out)
        (-a).evaluate()

    return body


def special_coefficients(exec_):
    _, (a, b, _), outs = _operands(exec_)

    def body():
        for coef, out in zip((0.0, 1.0, -1.0), outs):
            (coef * a + b).into(out)

    return body


def shared_across_roots(exec_):
    A, (x, _, _), (r, s, _) = _operands(exec_)

    def body():
        q = A @ x
        (2.0 * q).into(r)
        (0.5 * q).into(s)

    return body


def shared_within_root(exec_):
    A, (x, _, _), (out, _, _) = _operands(exec_)

    def body():
        q = A @ x
        (q + 2.0 * q).into(out)

    return body


def two_spmvs(exec_):
    A, (x, y, _), (out, out2, _) = _operands(exec_)

    def body():
        (A @ x + 2.0 * (A @ y)).into(out)
        (2.0 * y + A @ x).into(out2)

    return body


def preconditioner_chain(exec_):
    A, (x, _, _), (out, _, _) = _operands(exec_)
    M = Jacobi(exec_).generate(A)
    return lambda: (M @ (A @ x)).into(out)


def four_columns(exec_):
    A, (X, Y, _), (out, _, _) = _operands(exec_, cols=4)
    return lambda: (1.5 * (A @ X) + Y).into(out)


def float32(exec_):
    A, (x, y, _), (out, _, _) = _operands(exec_, dtype=np.float32)
    return lambda: (2.0 * (A @ x) + 0.5 * y).into(out)


def leaf_into(exec_):
    _, (x, _, _), (out, _, _) = _operands(exec_)
    return lambda: lazy.LazyExpr.leaf(x).into(out)


def mutation_before_flush(exec_):
    A, (x, _, _), (out, _, _) = _operands(exec_)

    def body():
        (A @ x).into(out)
        x.scale(3.0)

    return body


SCENARIOS = {
    fn.__name__: fn
    for fn in (
        bare_spmv, spmv_axpby, sub_neg, special_coefficients,
        shared_across_roots, shared_within_root, two_spmvs,
        preconditioner_chain, four_columns, float32, leaf_into,
        mutation_before_flush,
    )
}


def measure(scenario) -> tuple:
    """Run ``scenario``'s body twice in one region, flushing after each."""
    exec_ = ReferenceExecutor.create(noisy=False)
    body = SCENARIOS[scenario](exec_)
    clock = exec_.clock
    clock.reset()
    clock.enable_event_log()
    cachestats.reset()
    with pg.deferred() as trace:
        for _ in range(2):
            body()
            trace.flush()
    events = clock.events
    return (
        dict(Counter(e.name for e in events)),
        sum(e.bytes for e in events),
        sum(e.flops for e in events),
        sum(e.launches for e in events),
        clock.now.hex(),
        (trace.regions, trace.ops_replaced, trace.recomputed),
        cachestats.counts("dispatch"),
        cachestats.counts("workspace"),
    )


#: scenario -> (kernel multiset, bytes, flops, launches, simulated
#: seconds as float.hex, (regions, ops_replaced, recomputed), dispatch
#: (hits, misses), workspace (hits, misses)), recorded before the flush
#: was rewritten as one post-order pass.
PINNED = {
    "bare_spmv": (
        {"spmv_csr": 2},
        8296.0, 752.0, 4, "0x1.9954cdb2de37ap-18",
        (2, 2, 0), (1, 1), (1, 1),
    ),
    "float32": (
        {"fused_axpby": 2, "fused_spmv_csr_axpby": 2},
        5672.0, 896.0, 6, "0x1.edd8b70e2088ap-18",
        (2, 8, 0), (1, 1), (3, 3),
    ),
    "four_columns": (
        {"fused_spmv_csr_axpby": 2},
        20008.0, 3392.0, 4, "0x1.ff5c2aa17b07ap-18",
        (2, 6, 0), (1, 1), (2, 2),
    ),
    "leaf_into": (
        {"copy": 2},
        768.0, 48.0, 2, "0x1.c84224ab6dca8p-20",
        (0, 0, 0), (0, 0), (0, 0),
    ),
    "mutation_before_flush": (
        {"scale": 2, "spmv_csr": 2},
        9064.0, 800.0, 6, "0x1.05b2ab6edcd52p-17",
        (2, 2, 2), (1, 1), (1, 1),
    ),
    "preconditioner_chain": (
        {"spmv_csr": 4},
        9840.0, 848.0, 6, "0x1.0913f677d110dp-17",
        (2, 4, 0), (1, 1), (2, 2),
    ),
    "shared_across_roots": (
        {"fused_axpby": 2, "fused_spmv_csr_axpby": 2},
        9064.0, 848.0, 6, "0x1.759aac14480d6p-17",
        (4, 6, 0), (3, 1), (1, 1),
    ),
    "shared_within_root": (
        {"fused_axpby": 2, "spmv_csr": 2},
        9064.0, 848.0, 6, "0x1.05b2ab6edcd52p-17",
        (2, 6, 0), (1, 1), (2, 2),
    ),
    "special_coefficients": (
        {"fused_axpby": 6},
        3456.0, 288.0, 6, "0x1.02bf991c47807p-16",
        (6, 12, 0), (5, 1), (3, 3),
    ),
    "spmv_axpby": (
        {"fused_axpby": 2, "fused_spmv_csr_axpby": 2},
        9448.0, 896.0, 6, "0x1.075edb1ed7028p-17",
        (2, 8, 0), (1, 1), (3, 3),
    ),
    "sub_neg": (
        {"fused_axpby": 4},
        1920.0, 192.0, 4, "0x1.34eeb04e48862p-17",
        (4, 8, 0), (3, 1), (3, 3),
    ),
    "two_spmvs": (
        {"fused_axpby": 2, "fused_spmv_csr_axpby": 4, "spmv_csr": 2},
        26424.0, 2448.0, 14, "0x1.37d9f5c585a20p-16",
        (4, 14, 0), (3, 1), (5, 5),
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_flush_charges_pinned(scenario):
    assert measure(scenario) == PINNED[scenario]


VALUE_TYPES = (np.float32, np.float64)


@pytest.mark.parametrize("op", ("add", "sub", "scaled_add"))
@pytest.mark.parametrize("right", VALUE_TYPES, ids=lambda t: t.__name__)
@pytest.mark.parametrize("left", VALUE_TYPES, ids=lambda t: t.__name__)
@pytest.mark.parametrize("wrap", ("dense", "tensor"))
def test_mixed_value_types_promote_like_deferred(ref, wrap, left, right, op):
    rng = np.random.default_rng(5)
    a, b = (
        Dense(ref, rng.standard_normal((N, 1)).astype(dtype))
        for dtype in (left, right)
    )
    if wrap == "tensor":
        a, b = Tensor(a), Tensor(b)
    expr = {
        "add": lambda: a + b,
        "sub": lambda: a - b,
        "scaled_add": lambda: 2.0 * a + b,
    }[op]
    eager = np.asarray(expr())
    with pg.deferred():
        deferred = expr().to_numpy()
    assert eager.dtype == deferred.dtype == np.promote_types(left, right)
    assert eager.tobytes() == deferred.tobytes()


# ----------------------------------------------------------------------
# eager == deferred over random expression DAGs
# ----------------------------------------------------------------------
NUM_LEAVES = 3
COEFFICIENTS = (0.0, 1.0, -1.0, 2.5, -0.75)
BINARY = ("add", "sub")


@st.composite
def programs(draw):
    """Ops over earlier values (leaves first); reuse makes shared nodes."""
    depth = [0] * NUM_LEAVES
    program = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("apply", "scale", "add", "sub", "neg")))
        i = draw(st.integers(0, len(depth) - 1))
        j = draw(st.integers(0, len(depth) - 1))
        d = 1 + max(depth[i], depth[j] if kind in BINARY else 0)
        if d <= 4:
            program.append((kind, i, j, draw(st.sampled_from(COEFFICIENTS))))
            depth.append(d)
    return program


def _run(program, A, leaves):
    values = list(leaves)
    for kind, i, j, coef in program:
        a, b = values[i], values[j]
        values.append({
            "apply": lambda: A @ a,
            "scale": lambda: coef * a,
            "add": lambda: a + b,
            "sub": lambda: a - b,
            "neg": lambda: -a,
        }[kind]())
    return values[-1]


@given(
    program=programs(),
    dtypes=st.lists(
        st.sampled_from((np.float32, np.float64)),
        min_size=NUM_LEAVES, max_size=NUM_LEAVES,
    ),
)
@settings(max_examples=60, deadline=None)
def test_random_dags_evaluate_like_eager(program, dtypes):
    if not program:
        return
    exec_ = ReferenceExecutor.create(noisy=False)
    A, _, _ = _operands(exec_)
    rng = np.random.default_rng(11)
    leaves = [
        Dense(exec_, rng.standard_normal((N, 1)).astype(dtype))
        for dtype in dtypes
    ]
    eager = _run(program, A, leaves).to_numpy()
    with pg.deferred():
        deferred = _run(program, A, leaves).to_numpy()
    assert eager.dtype == deferred.dtype
    assert eager.tobytes() == deferred.tobytes()
