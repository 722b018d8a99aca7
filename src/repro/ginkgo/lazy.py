"""Lazy operator expressions with trace-level kernel fusion (``pg.deferred``).

Eagerly, every expression-level operation (``A @ x``, ``alpha * x``,
``x + y``) crosses the binding layer once and runs one kernel on cloned
operands — the per-call overhead the paper measures.  Inside a
:func:`deferred` region the same expressions record a DAG of
:class:`LazyExpr` nodes, and a flush runs each requested result as one
*fused region*: one dispatch lookup and binding crossing, one streaming
kernel per maximal elementwise chain (an SpMV feeding only that chain
folded in), pooled intermediates, and generic operators (preconditioners,
solvers) applying under the region's crossing.  The NumPy operations and
their order are the eager path's, so results are bit-identical to eager.

Every node snapshots the ``data_version`` of each operand it reads; a
memoized value is reused only while all of them still match, so mutating
an operand between record and flush recomputes, never replays stale
bits.  A flush happens on leaving the region, on ``trace.flush()`` and
on any value request (``evaluate``/``to_numpy``/``tensor``); ``.into(dst)``
only registers a destination.  Outside a region an expression evaluates
in a throwaway trace.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from functools import partial

import numpy as np

from repro.bindings import dispatch
from repro.ginkgo.dim import Dim
from repro.ginkgo.exceptions import DimensionMismatch, ExecutorMismatch
from repro.ginkgo.krylov_vector import _coef, _scale_into
from repro.ginkgo.matrix.base import SparseBase
from repro.ginkgo.matrix.dense import Dense
from repro.ginkgo.solver.workspace import Workspace
from repro.perfmodel import fused_axpby_cost, fused_spmv_axpby_cost

#: Stack of active recording traces (innermost last).
_STACK: list = []


def is_recording() -> bool:
    """Whether a ``pg.deferred()`` region is currently recording."""
    return bool(_STACK)


def _operand_dense(operand):
    """Coerce a Dense or tensor-like operand to its engine Dense."""
    dense = operand if isinstance(operand, Dense) else getattr(operand, "dense", None)
    if isinstance(dense, Dense):
        return dense
    raise TypeError(
        f"expected a Dense, tensor, or lazy expression, got {type(operand).__name__}"
    )


def _merge_deps(*dep_tuples):
    """Union version-snapshot tuples, deduplicated per operand object."""
    return tuple({id(o): (o, v) for deps in dep_tuples for o, v in deps}.values())


def _to_expr(operand) -> "LazyExpr":
    if isinstance(operand, LazyExpr):
        return operand
    return LazyExpr.leaf(_operand_dense(operand))


def _conform(where: str, executor, other, expected, got) -> None:
    """Raise unless ``got == expected`` and ``other`` lives on ``executor``."""
    if got != expected:
        raise DimensionMismatch(where, expected=expected, got=got)
    if other.executor is not executor:
        raise ExecutorMismatch(where, expected=executor.name, got=other.executor.name)


class LazyExpr:
    """One node of a recorded expression DAG (``leaf``/``apply``/``scale``/``add``).

    A node holds structure only — operand *data* is read live at flush time.
    """

    __slots__ = (
        "kind", "executor", "size", "dtype", "op", "alpha", "children",
        "deps", "_result", "_result_versions",
    )

    def __init__(self, kind, executor, size, dtype, children=(), *,
                 op=None, alpha=None, deps=()):
        self.kind = kind
        self.executor = executor
        self.size = size
        self.dtype = np.dtype(dtype)
        self.op = op
        self.alpha = alpha
        self.children = children
        #: ``(operand, data_version at record time)`` for every LinOp
        #: this subtree reads — the invalidation contract.
        self.deps = deps
        self._result = self._result_versions = None

    @staticmethod
    def leaf(dense: Dense) -> "LazyExpr":
        deps = ((dense, dense.data_version),)
        return LazyExpr("leaf", dense.executor, dense.size, dense.dtype, deps=deps)

    def __add__(self, other):
        return add_expr(self, other)

    def __sub__(self, other):
        return add_expr(self, other, sign=-1.0)

    def __mul__(self, alpha):
        return scale_expr(alpha, self)

    __rmul__ = __mul__

    def __neg__(self):
        return scale_expr(-1.0, self)

    @property
    def shape(self) -> tuple:
        return (self.size.rows, self.size.cols)

    @property
    def num_nodes(self) -> int:
        """Distinct nodes in this expression's DAG (leaves included)."""
        seen, stack = set(), [self]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node.children)
        return len(seen)

    def into(self, dst):
        """Write the value into ``dst`` (returned) at the next flush, or now."""
        dense = _operand_dense(dst)
        _conform("LazyExpr.into", self.executor, dense, self.size, dense.size)
        if _STACK:
            _STACK[-1]._roots.append((self, dense))
        else:
            _materialize(self, dense)
        return dst

    def evaluate(self) -> Dense:
        """Force evaluation (a flush point) and return the result Dense."""
        if self._result is not None and all(
            obj.data_version == version
            for obj, version in self._result_versions
        ):
            return self._result
        result = self._result = _materialize(self)
        self._result_versions = tuple(
            (obj, obj.data_version) for obj, _ in self.deps
        ) + ((result, result.data_version),)
        return result

    def tensor(self):
        """Evaluate and wrap the result in a :class:`~repro.core.Tensor`."""
        from repro.core.tensor import Tensor

        return Tensor(self.evaluate())

    def to_numpy(self) -> np.ndarray:
        """Evaluate and copy the result out to host NumPy."""
        return self.evaluate().to_numpy()

    def __repr__(self) -> str:
        return (
            f"LazyExpr({self.kind!r}, {self.size.rows}x{self.size.cols}, "
            f"dtype={self.dtype}, nodes={self.num_nodes})"
        )


def _fused_region(trace, root, dst, memo, slots):
    """Evaluate ``root`` (into ``dst`` when given) as one fused region.

    One DFS yields the post-order of the nodes to evaluate and their
    consumer counts (values still valid in the flush's ``memo`` are reused,
    not descended into); one walk runs each node's NumPy op in eager order.
    Elementwise nodes grow a chain, ``[spmv cost or None, input array ids,
    flops]``: a value with one consumer leaves it open for that consumer;
    any other value charges it as one ``fused_axpby_cost`` kernel, or a
    ``fused_spmv_axpby_cost`` folding in the SpMV the chain grew out of.
    """
    exec_, clock = root.executor, root.executor.clock
    seen, counts, values, order = set(), {}, {}, []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if expanded:
            order.append(node)
        elif key not in seen:
            seen.add(key)
            cached = memo.get(key)
            if node.kind == "leaf":
                values[key] = node.deps[0][0]._data
            elif cached and all(o.data_version == v for o, v in cached[1]):
                values[key] = cached[0]
            else:
                stack.append((node, True))
                for child in reversed(node.children):
                    counts[id(child)] = counts.get(id(child), 0) + 1
                    stack.append((child, False))

    chains: dict = {}
    kernels = recomputed = 0
    pools = trace._pools
    pool = pools.get(exec_) or pools.setdefault(exec_, Workspace(exec_))
    # An elementwise root streams straight into the destination.
    root_out = dst._data if dst is not None and root.kind != "apply" else None

    def slot(node, zero=False):
        if node is root and root_out is not None:
            return root_out
        shape = (node.size.rows, node.size.cols)
        return pool.tensor(f"lazy.v{next(slots)}", shape, node.dtype, zero=zero)

    def charge(node, chain):
        nonlocal kernels
        base, inputs, flops = chain
        length, width = node.size.num_elements, node.dtype.itemsize
        if base is None:
            cost = fused_axpby_cost(length, width, max(1, len(inputs)), flops)
        elif flops:
            cost = fused_spmv_axpby_cost(base, length, width, len(inputs), flops)
        else:
            cost = base  # a bare SpMV: nothing was folded into it
        exec_.run(cost)
        kernels += 1

    def close(node, chain):
        if counts.get(id(node)) == 1:
            chains[id(node)] = chain
        else:
            charge(node, chain)

    clock.push_span("fused_region", "fused_region", ops_replaced=len(order))
    try:
        for node in order:
            recomputed += any(o.data_version != v for o, v in node.deps)
            left = node.children[0]
            a = values[id(left)]
            chain = chains.pop(id(left), None)
            if node.kind == "apply":
                if chain is not None:  # a chain feeding an SpMV closes first
                    charge(left, chain)
                op = node.op
                if isinstance(op, (SparseBase, Dense)):
                    result = op._spmv_arrays(a)
                    arr = slot(node)
                    np.copyto(arr, np.asarray(result).reshape(arr.shape))
                    close(node, [op._spmv_cost(a.shape[1]), set(), 0])
                else:
                    # A generic operator runs its own kernels under this
                    # region's crossing; a zeroed slot is its initial guess.
                    arr = slot(node, zero=True)
                    op.apply(Dense._wrap(exec_, a), Dense._wrap(exec_, arr))
                    kernels += 1
            else:
                if node.kind == "scale":
                    chain = chain or [None, {id(a)}, 0]
                    arr = slot(node)
                    _scale_into(a, _coef(node.alpha, node.dtype), arr)
                else:
                    ext = node.children[1]
                    b = values[id(ext)]
                    ext_chain = chains.pop(id(ext), None)
                    # Extend one producer's chain, preferring one carrying an
                    # SpMV; the other operand (``ext``) is an external input.
                    if chain is None or (ext_chain and ext_chain[0] is not None):
                        chain, ext_chain, left, ext = ext_chain, chain, ext, left
                    if ext_chain is not None:
                        charge(ext, ext_chain)
                    chain = chain or [None, {id(values[id(left)])}, 0]
                    chain[1].add(id(values[id(ext)]))
                    arr = slot(node)
                    np.add(a, b, out=arr)
                chain[2] += 1
                close(node, chain)
            values[id(node)] = arr
            memo[id(node)] = arr, tuple((o, o.data_version) for o, _ in node.deps)
        arr = values[id(root)]
        result = Dense.empty(exec_, root.size, root.dtype) if dst is None else dst
        if arr is not result._data:
            np.copyto(result._data, arr)
        if dst is not None:
            dst.mark_modified()
    finally:
        clock.pop_span(ops_replaced=len(order), fused_kernels=kernels,
                       recomputed=recomputed)
    trace.regions += 1
    trace.ops_replaced += len(order)
    trace.recomputed += recomputed
    return result


class DeferredTrace:
    """The recording made inside one ``pg.deferred()`` region.

    Attributes (after flushing):
        flushes: Number of flush passes executed.
        regions: Fused regions executed (one per flush root).
        ops_replaced: Recorded operations collapsed into those regions.
        recomputed: Nodes whose operands changed between record and
            evaluation (the invalidation contract firing).
    """

    def __init__(self) -> None:
        self._roots: list = []
        self._pools: dict = {}
        self.flushes = self.regions = self.ops_replaced = self.recomputed = 0

    @property
    def pending(self) -> int:
        """Roots recorded but not yet flushed."""
        return len(self._roots)

    def flush(self) -> None:
        """Execute every pending root, in record order, as fused regions."""
        self.materialize(None)

    def materialize(self, expr: LazyExpr | None, dst: Dense | None = None):
        """Flush pending roots, then evaluate ``expr`` in the same pass
        (sharing the flush's node memo, so common subtrees run once)."""
        if not self._roots and expr is None:
            return None
        roots, self._roots = self._roots, []
        self.flushes += 1
        memo: dict = {}
        slots = itertools.count()
        for root, root_dst in roots:
            self._run_region(root, root_dst, memo, slots)
        return None if expr is None else self._run_region(expr, dst, memo, slots)

    def _run_region(self, expr, dst, memo, slots):
        if expr.kind == "leaf":
            # No kernels to fuse — don't charge a crossing for a no-op.
            source = expr.deps[0][0]
            return source if dst is None else dst.copy_values_from(source)
        fn = dispatch.resolve("fused_region", expr.dtype, exec_=expr.executor)
        region = partial(_fused_region, self, expr, dst, memo, slots)
        return fn(expr.executor, region)

    def discard(self) -> None:
        """Drop pending roots without executing them."""
        self._roots.clear()

    def clear_pools(self) -> None:
        """Release the pooled intermediate buffers back to the executors."""
        for ws in self._pools.values():
            ws.clear()
        self._pools.clear()


def _materialize(expr: LazyExpr, dst: Dense | None = None) -> Dense:
    """Evaluate ``expr`` in the active trace, or in a throwaway one."""
    if _STACK:
        return _STACK[-1].materialize(expr, dst)
    trace = DeferredTrace()
    try:
        return trace.materialize(expr, dst)
    finally:
        trace.clear_pools()


@contextmanager
def deferred():
    """Record expression operations lazily; flush fused regions on exit.

    Yields the :class:`DeferredTrace` (``trace.flush()`` flushes mid
    region).  If the body raises, pending roots are discarded rather than
    run against possibly inconsistent operands.
    """
    trace = DeferredTrace()
    _STACK.append(trace)
    try:
        yield trace
    except BaseException:
        trace.discard()
        raise
    finally:
        _STACK.pop()
    trace.flush()


def _eager(symbol: str, dtype, exec_, wrap: bool, *args):
    """One eager ``<symbol>_<dtype>`` binding call; a Tensor if ``wrap``."""
    out = dispatch.resolve(symbol, dtype, exec_=exec_)(exec_, *args)
    if not wrap:
        return out
    from repro.core.tensor import Tensor

    return Tensor(out)


def matmul(op, operand):
    """``op @ operand`` (``LinOp.__matmul__``): record an apply node, or run
    the ``apply`` binding — one crossing, a fresh output, the op's kernels."""
    lazy = isinstance(operand, LazyExpr) or bool(_STACK)
    arg = _to_expr(operand) if lazy else _operand_dense(operand)
    dtype = np.promote_types(getattr(op, "dtype", arg.dtype), arg.dtype)
    if not lazy:
        return _eager("apply", dtype, op.executor, arg is not operand, op, arg)
    size = arg.size
    _conform(type(op).__name__, op.executor, arg, Dim(op.size.cols, size.cols), size)
    return LazyExpr(
        "apply", op.executor, Dim(op.size.rows, size.cols), dtype, (arg,),
        op=op, deps=_merge_deps(((op, op.data_version),), arg.deps),
    )


def scale_expr(alpha, operand):
    """``alpha * operand``: record a scale node, or run the ``scal`` binding."""
    if not (isinstance(operand, LazyExpr) or _STACK):
        dense = _operand_dense(operand)
        wrap = dense is not operand
        return _eager("scal", dense.dtype, dense.executor, wrap, alpha, dense)
    child = _to_expr(operand)
    deps = child.deps
    if isinstance(alpha, Dense):
        deps = _merge_deps(((alpha, alpha.data_version),), deps)
    return LazyExpr(
        "scale", child.executor, child.size, child.dtype, (child,),
        alpha=alpha, deps=deps,
    )


def add_expr(left, right, sign: float = 1.0):
    """``left + sign * right``: record an add node, or run the ``axpy``
    binding of the promoted value type (the type the add node has)."""
    if not (isinstance(left, LazyExpr) or isinstance(right, LazyExpr) or _STACK):
        x, y = _operand_dense(right), _operand_dense(left)
        dtype = np.promote_types(y.dtype, x.dtype)
        wrap = x is not right or y is not left
        return _eager("axpy", dtype, y.executor, wrap, sign, x, y)
    left, right = _to_expr(left), _to_expr(right)
    if sign != 1.0:
        right = scale_expr(sign, right)
    _conform("lazy add", left.executor, right, left.size, right.size)
    dtype = np.promote_types(left.dtype, right.dtype)
    deps = _merge_deps(left.deps, right.deps)
    return LazyExpr("add", left.executor, left.size, dtype, (left, right), deps=deps)


def reset() -> None:
    """Drop all recording state (test isolation)."""
    _STACK.clear()
