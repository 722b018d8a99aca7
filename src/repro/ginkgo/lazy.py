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
in a throwaway trace, whose plan dies with it.

Plans: a region keeps the plan of each flush (steps, charges, pooled
slots) under the expression's *structure* key: node kinds, dtypes, shapes,
operator identities, alpha kinds (scalar or Dense), child positions, which
leaves share an array, the slot offset, and whether a destination is given
and aliases a leaf.  A later flush of that key replays the steps: the same
NumPy calls on live leaf data, alphas and operator views, the same charges,
one workspace hit per slot.  A plan is rebuilt once an operator reprices or
its slots left the pool; a flush reusing a memoised value keeps none.
"""

from __future__ import annotations

from collections import Counter
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


def _to_expr(operand) -> "LazyExpr":
    return operand if operand.__class__ is LazyExpr else LazyExpr.leaf(_operand_dense(operand))


def _conform(where: str, executor, other, expected, got) -> None:
    """Raise unless ``got`` is ``expected`` (rows, cols), ``other`` on ``executor``."""
    if got.rows != expected[0] or got.cols != expected[1]:
        raise DimensionMismatch(where, expected=Dim.of(expected), got=got)
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
                 op=None, alpha=None, deps=None):
        self.kind = kind
        self.executor = executor
        self.size = size
        self.dtype = dtype
        #: The operator applied, or a leaf's Dense.
        self.op = op
        self.alpha = alpha
        self.children = children
        #: ``id(operand) -> (operand, data_version at record time)`` for
        #: every LinOp this subtree reads — the invalidation contract.
        self.deps = deps
        self._result = self._result_versions = None

    @staticmethod
    def leaf(dense: Dense) -> "LazyExpr":
        deps = {id(dense): (dense, dense._data_version)}
        return LazyExpr("leaf", dense._exec, dense._size, dense._data.dtype, op=dense, deps=deps)

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
        return len(_structure(self, {}, None, 0)[1])

    def into(self, dst):
        """Write the value into ``dst`` (returned) at the next flush, or now."""
        dense = _operand_dense(dst)
        _conform("LazyExpr.into", self.executor, dense, self.shape, dense.size)
        if _STACK:
            _STACK[-1]._roots.append((self, dense))
        else:
            _materialize(self, dense)
        return dst

    def evaluate(self) -> Dense:
        """Force evaluation (a flush point) and return the result Dense."""
        if self._result is not None and all(
            obj._data_version == version for obj, version in self._result_versions
        ):
            return self._result
        result = self._result = _materialize(self)
        self._result_versions = [(o, o._data_version) for o, _ in self.deps.values()]
        self._result_versions.append((result, result._data_version))
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


def _structure(root, memo, dst, first):
    """One DFS over ``root``'s DAG: each node's pre-order position, the
    nodes, their values where known (leaf data; a value an earlier root
    memoised, not descended into), the post-order to evaluate, the structure
    key (``None`` after a memo hit) and whether an operand changed since
    recording (merges copy snapshots, so each node's own operand tells)."""
    index, nodes, vals, order = {}, [], [], []
    key, arrays = [], {}  # arrays: id(array) -> first position holding it
    stack, stale = [root], False
    while stack:
        node = stack.pop()
        if node.__class__ is int:  # all inputs of that position are evaluated
            order.append(node)
            continue
        if node in index:  # a shared subtree (nodes hash by identity)
            key.append(index[node])
            continue
        pos = index[node] = len(nodes)
        nodes.append(node)
        kind, arr = node.kind, None
        if kind == "leaf":
            arr = node.op._data
            stale = stale or node.op._data_version != node.deps[id(node.op)][1]
            extra = arrays.setdefault(id(arr), pos)
        elif memo and (hit := memo.get(node)) and all(o._data_version == v for o, v in hit[1]):
            arr, first = hit[0], None  # no key: this flush keeps no plan
            stale = stale or any(o._data_version != v for o, v in node.deps.values())
            extra = arrays.setdefault(id(arr), pos)
        else:
            read = node.op if kind == "apply" else node.alpha  # its own operand
            snap = node.deps.get(id(read))
            stale = stale or (snap is not None and read._data_version != snap[1])
            extra = id(node.op) if kind == "apply" else isinstance(node.alpha, Dense)
            stack.append(pos)
            stack.extend(reversed(node.children))
        vals.append(arr)
        key += (kind, node.dtype, node.size.rows, node.size.cols, extra)
    alias = None if dst is None else id(dst._data) in arrays
    key = None if first is None else (*key, first, alias)
    return index, nodes, vals, order, key, stale


def _price(node, chain):
    """A chain's kernel: fused axpby, or fused into its SpMV, or that SpMV."""
    base, inputs, flops = chain
    length, width = node.size.num_elements, node.dtype.itemsize
    if base is None:
        return fused_axpby_cost(length, width, max(1, len(inputs)), flops)
    if flops:
        return fused_spmv_axpby_cost(base, length, width, len(inputs), flops)
    return base


def _plan(nodes, index, vals, order, streams, first):
    """The steps of one fused region, decided and priced without data.
    Elementwise nodes grow a chain, ``[spmv cost or None, input classes,
    flops]``: a value with one consumer leaves it open for that consumer;
    any other value charges it.  A step is ``(position, kind, inputs, slot
    or None for the destination, charges before, charge after)``."""
    counts = Counter(index[c] for pos in order for c in nodes[pos].children)
    arrays, chains = {}, {}
    steps, slots, ops = [], [], []
    # An input's class: the first position holding its array (if known).
    classes = [p if v is None else arrays.setdefault(id(v), p) for p, v in enumerate(vals)]
    for pos in order:
        node, before, after = nodes[pos], [], None
        kind, op = node.kind, node.op
        i = left = index[node.children[0]]
        j = ext = index[node.children[-1]]
        chain = chains.pop(i, None)
        if kind == "apply":
            if chain is not None:  # a chain feeding an operator closes first
                before.append(_price(nodes[i], chain))
            chain = cost = None
            if isinstance(op, (SparseBase, Dense)):  # else a generic operator
                cost = op._spmv_cost(node.size.cols)
                chain, kind = [cost, set(), -1], "spmv"
            ops.append((op, node.size.cols, cost))  # held: the key has its id
        elif kind == "add":
            ext_chain = chains.pop(j, None)
            # Extend one producer's chain, preferring one carrying an
            # SpMV; the other operand (``ext``) is an external input.
            if chain is None or (ext_chain and ext_chain[0] is not None):
                chain, ext_chain, left, ext = ext_chain, chain, ext, left
            if ext_chain is not None:
                before.append(_price(nodes[ext], ext_chain))
            chain = chain or [None, {classes[left]}, 0]
            chain[1].add(classes[ext])
        else:
            chain = chain or [None, {classes[i]}, 0]
        if chain is not None:  # one more flop (none for the SpMV itself)
            chain[2] += 1
            if counts[pos] == 1:
                chains[pos] = chain
            else:
                after = _price(node, chain)
        slot = None if pos == 0 and streams else len(slots)
        if slot is not None:
            slots.append([f"lazy.v{first + slot}", node.shape, node.dtype, None])
        steps.append((pos, kind, i, j, slot, tuple(before), after))
    # A kernel per charge; a generic operator's own count as one.
    kernels = sum(len(s[5]) + (s[6] is not None) + (s[1] == "apply") for s in steps)
    return steps, slots, kernels, ops


def _fused_region(trace, root, dst, memo, keep):
    """Evaluate ``root`` (into ``dst`` when given) as one fused region:
    run its plan's steps on live operands, each slot a pool lookup or,
    replayed untraced, the hit it would count (``keep``: memoise values
    for a later root of the flush)."""
    exec_, clock, first = root.executor, root.executor.clock, trace._slot
    index, nodes, vals, order, key, stale = _structure(root, memo, dst, first)
    pools, plans, traced = trace._pools, trace._plans, clock._traced
    pool = pools.get(exec_) or pools.setdefault(exec_, Workspace(exec_))
    # An elementwise root streams straight into the destination.
    root_out = dst._data if dst is not None and root.kind != "apply" else None
    plan = None if key is None else plans.get(key)
    # A kept plan replays while its operators price as when it was built
    # (a CSR strategy change reprices) and the pool still holds its slots.
    fresh = (
        plan is None
        or any(cost and op._spmv_cost(cols) is not cost for op, cols, cost in plan[3])
        or not pool.held(plan[1], count=not traced)
    )
    if fresh:
        plan = _plan(nodes, index, vals, order, root_out is not None, first)
    steps, slots, kernels, _ = plan
    trace._slot = first + len(slots)
    lookup, recomputed = fresh or traced, 0
    if traced:
        clock.push_span("fused_region", "fused_region", ops_replaced=len(steps))
    try:
        for pos, kind, i, j, slot, before, after in steps:
            node, a = nodes[pos], vals[i]
            if stale:  # count the nodes reading a changed operand
                recomputed += any(o._data_version != v for o, v in node.deps.values())
            for cost in before:
                exec_.run(cost)
            if kind == "spmv":  # its operator's lookups precede the slot's
                a = node.op._spmv_arrays(a)
            if lookup and slot is not None:
                slots[slot][3] = pool.tensor(*slots[slot][:3])
            arr = root_out if slot is None else slots[slot][3]
            if kind == "spmv":
                np.copyto(arr, np.asarray(a).reshape(arr.shape))
            elif kind == "apply":  # a zeroed slot is the initial guess
                arr.fill(0)
                node.op.apply(Dense._wrap(exec_, a), Dense._wrap(exec_, arr))
            elif kind == "scale":
                _scale_into(a, _coef(node.alpha, node.dtype), arr)
            else:
                np.add(a, vals[j], out=arr)
            if after is not None:
                exec_.run(after)
            vals[pos] = arr
            if keep:
                memo[node] = arr, [(o, o._data_version) for o, _ in node.deps.values()]
        result = Dense.empty(exec_, root.size, root.dtype) if dst is None else dst
        if vals[0] is not result._data:
            np.copyto(result._data, vals[0])
        if dst is not None:
            dst.mark_modified()
    finally:
        if traced:
            clock.pop_span(ops_replaced=len(steps), fused_kernels=kernels,
                           recomputed=recomputed)
    if fresh and key is not None:
        plans[key] = plan
    trace.regions += 1
    trace.ops_replaced += len(steps)
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
        self._plans: dict = {}  # structure key -> plan; plans die with the region
        self._slot = 0  # the slot number the next root of a flush starts at
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
        if expr is not None:
            roots.append((expr, dst))
        self.flushes += 1
        self._slot, memo, result = 0, {}, None
        for n, (root, root_dst) in enumerate(roots, 1):
            result = self._run_region(root, root_dst, memo, n < len(roots))
        return None if expr is None else result

    def _run_region(self, expr, dst, memo, keep):
        if expr.kind == "leaf":
            # No kernels to fuse — don't charge a crossing for a no-op.
            return expr.op if dst is None else dst.copy_values_from(expr.op)
        fn = dispatch.resolve("fused_region", expr.dtype, exec_=expr.executor)
        region = partial(_fused_region, self, expr, dst, memo, keep)
        return fn(expr.executor, region)

    def discard(self) -> None:
        """Drop pending roots without executing them."""
        self._roots.clear()

    def clear_pools(self) -> None:
        """Release the pooled intermediate buffers back to the executors."""
        for ws in self._pools.values():
            ws.clear()
        self._pools.clear()
        self._plans.clear()


def _materialize(expr: LazyExpr, dst: Dense | None = None) -> Dense:
    """Evaluate ``expr`` in the active trace, or in a throwaway one."""
    if _STACK:
        return _STACK[-1].materialize(expr, dst)
    trace = DeferredTrace()  # it flushes once: its plan never replays
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
    lazy = bool(_STACK) or isinstance(operand, LazyExpr)
    arg = _to_expr(operand) if lazy else _operand_dense(operand)
    dtype = np.promote_types(getattr(op, "dtype", arg.dtype), arg.dtype)
    if not lazy:
        return _eager("apply", dtype, op.executor, arg is not operand, op, arg)
    size, rows = arg.size, op.size.rows
    _conform(type(op).__name__, op.executor, arg, (op.size.cols, size.cols), size)
    if rows != size.rows:
        size = Dim(rows, size.cols)
    deps = {id(op): (op, op._data_version), **arg.deps}
    return LazyExpr("apply", op.executor, size, dtype, (arg,), op=op, deps=deps)


def scale_expr(alpha, operand):
    """``alpha * operand``: record a scale node, or run the ``scal`` binding."""
    if not (_STACK or isinstance(operand, LazyExpr)):
        dense = _operand_dense(operand)
        wrap = dense is not operand
        return _eager("scal", dense.dtype, dense.executor, wrap, alpha, dense)
    child = _to_expr(operand)
    deps = child.deps
    if isinstance(alpha, Dense):
        deps = {id(alpha): (alpha, alpha._data_version), **deps}
    return LazyExpr(
        "scale", child.executor, child.size, child.dtype, (child,), alpha=alpha, deps=deps,
    )


def add_expr(left, right, sign: float = 1.0):
    """``left + sign * right``: record an add node, or run the ``axpy``
    binding of the promoted value type (the type the add node has)."""
    if not (_STACK or isinstance(left, LazyExpr) or isinstance(right, LazyExpr)):
        x, y = _operand_dense(right), _operand_dense(left)
        dtype = np.promote_types(y.dtype, x.dtype)
        wrap = x is not right or y is not left
        return _eager("axpy", dtype, y.executor, wrap, sign, x, y)
    left, right = _to_expr(left), _to_expr(right)
    if sign != 1.0:
        right = scale_expr(sign, right)
    _conform("lazy add", left.executor, right, left.shape, right.size)
    dtype = left.dtype if left.dtype is right.dtype else np.promote_types(left.dtype, right.dtype)
    deps = {**left.deps, **right.deps}
    return LazyExpr("add", left.executor, left.size, dtype, (left, right), deps=deps)


def reset() -> None:
    """Drop all recording state (test isolation)."""
    _STACK.clear()
