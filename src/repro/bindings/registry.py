"""Auto-generated type-suffixed binding symbols.

Reproduces the paper's pre-instantiation scheme (section 5.1): for every
(value type x index type) combination the C++ side would instantiate, a
suffixed Python callable exists here.  Value-type suffixes follow Ginkgo's
C++ names (``half``/``float``/``double``); index suffixes are
``int32``/``int64``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.bindings.overhead import charge_binding
from repro.ginkgo import batch, distributed, solver
from repro.ginkgo.batch import (
    BatchCsr,
    BatchDense,
    BatchJacobi,
    BatchLowerTrs,
    BatchUpperTrs,
)
from repro.ginkgo.distributed import Matrix as DistributedMatrix
from repro.ginkgo.distributed import Vector as DistributedVector
from repro.ginkgo.executor import (
    CudaExecutor,
    HipExecutor,
    OmpExecutor,
    ReferenceExecutor,
)
from repro.ginkgo.dim import Dim
from repro.ginkgo.matrix import Coo, Csr, Dense, Ell, Hybrid, Sellp
from repro.ginkgo.matrix.dense import _clone_as
from repro.ginkgo.mtx_io import read_mtx
from repro.ginkgo.preconditioner import Ic, Ilu, Isai, Jacobi
from repro.ginkgo.multigrid import Pgm
from repro.ginkgo.solver import Direct, LowerTrs, UpperTrs

#: C++-style value-type suffix -> numpy dtype (paper Table 1).
VALUE_TYPES = {
    "half": np.float16,
    "float": np.float32,
    "double": np.float64,
}

#: Index-type suffix -> numpy dtype (paper Table 1).
INDEX_TYPES = {
    "int32": np.int32,
    "int64": np.int64,
}

#: Symbol prefix -> ``{method: factory}`` of each solver instance the
#: method table declares: ``cg_factory_double``, ``batch_cg_factory_float``,
#: ``distributed_gmres_factory_half``, ...  A batched factory sets up a
#: whole K-system solve in one crossing; a distributed one generates
#: against a distributed Matrix.
_SOLVER_FACTORIES = {
    "": solver.SOLVERS,
    "batch_": batch.SOLVERS,
    "distributed_": distributed.SOLVERS,
}


def _bound(func, num_arguments: int):
    """Wrap an engine entry point with binding-overhead accounting.

    The first positional argument of every binding is the executor, which
    is where the crossing cost is charged.  The crossing is tagged with
    the registry symbol name (``wrapper._binding_tag``, filled in by
    :func:`_build_registry`), so profiler traces show *which* binding was
    crossed, not just that one was.
    """

    def wrapper(exec_, *args, **kwargs):
        charge_binding(
            exec_,
            num_arguments,
            tag=getattr(wrapper, "_binding_tag", wrapper.__name__),
        )
        return func(exec_, *args, **kwargs)

    wrapper.__name__ = getattr(func, "__name__", "binding")
    wrapper.__doc__ = func.__doc__
    wrapper._is_binding = True
    return wrapper


def _make_dense(value_dtype):
    def dense(exec_, data):
        data = np.asarray(data, dtype=value_dtype)
        return Dense(exec_, data)

    dense.__doc__ = f"Create a Dense matrix with {np.dtype(value_dtype).name} values."
    return dense


def _make_dense_empty(value_dtype):
    def dense_empty(exec_, rows, cols=1):
        return Dense.zeros(exec_, (int(rows), int(cols)), value_dtype)

    dense_empty.__doc__ = (
        f"Allocate a zero Dense matrix with {np.dtype(value_dtype).name} values."
    )
    return dense_empty


def _make_sparse(cls, value_dtype, index_dtype):
    def factory(exec_, scipy_matrix, **kwargs):
        return cls.from_scipy(
            exec_,
            scipy_matrix,
            value_dtype=value_dtype,
            index_dtype=index_dtype,
            **kwargs,
        )

    factory.__doc__ = (
        f"Create a {cls.__name__} matrix "
        f"({np.dtype(value_dtype).name} values, "
        f"{np.dtype(index_dtype).name} indices) from a SciPy matrix."
    )
    return factory


def _make_read(cls, value_dtype, index_dtype):
    def reader(exec_, path, **kwargs):
        return cls.from_scipy(
            exec_,
            read_mtx(path),
            value_dtype=value_dtype,
            index_dtype=index_dtype,
            **kwargs,
        )

    reader.__doc__ = (
        f"Read a MatrixMarket file into a {cls.__name__} matrix "
        f"({np.dtype(value_dtype).name}/{np.dtype(index_dtype).name})."
    )
    return reader


def _make_apply(value_dtype):
    def apply(exec_, op, operand):
        out = Dense.empty(
            exec_,
            Dim(op.size.rows, operand.size.cols),
            np.promote_types(getattr(op, "dtype", value_dtype), operand.dtype),
        )
        op.apply(operand, out)
        return out

    apply.__doc__ = (
        f"Apply a LinOp to a Dense operand, returning a fresh "
        f"{np.dtype(value_dtype).name} result (``op @ x``)."
    )
    return apply


def _make_scal(value_dtype):
    def scal(exec_, alpha, operand):
        out = _clone_as(operand, value_dtype)
        out.scale(alpha)
        return out

    scal.__doc__ = (
        f"Out-of-place ``alpha * x`` on {np.dtype(value_dtype).name} values."
    )
    return scal


def _make_axpy(value_dtype):
    def axpy(exec_, alpha, x, y):
        out = _clone_as(y, x.dtype)
        out.add_scaled(alpha, x)
        return out

    axpy.__doc__ = (
        f"Out-of-place ``y + alpha * x`` on {np.dtype(value_dtype).name} "
        f"values."
    )
    return axpy


def _make_fused_region(value_dtype):
    def fused_region(exec_, plan):
        return plan()

    fused_region.__doc__ = (
        f"Execute one lazily-recorded fused region "
        f"({np.dtype(value_dtype).name} values): a single crossing covers "
        f"every operation the flush collapsed into the region."
    )
    return fused_region


def _make_mixed_apply(op: str, working_dtype, storage_dtype):
    def mixed_apply(exec_, plan):
        return plan()

    mixed_apply.__doc__ = (
        f"Execute one mixed-precision {op} "
        f"({np.dtype(working_dtype).name} arithmetic over "
        f"{np.dtype(storage_dtype).name} storage): the accessor converts "
        f"at read, so a single crossing covers the whole apply."
    )
    return mixed_apply


#: Accessor-backed apply kernels that exist in a mixed working/storage
#: precision variant (``{op}_{working}_{storage}`` symbols).
_MIXED_APPLY_OPS = ("jacobi_apply", "trsv_apply", "isai_apply")


def _make_batch_dense(value_dtype):
    def batch_dense(exec_, items):
        arrays = [np.asarray(item, dtype=value_dtype) for item in items]
        return BatchDense.from_dense_list(exec_, arrays)

    batch_dense.__doc__ = (
        f"Stack array-likes into a BatchDense with "
        f"{np.dtype(value_dtype).name} values."
    )
    return batch_dense


def _make_batch_csr(value_dtype, index_dtype):
    def batch_csr(exec_, scipy_matrices, **kwargs):
        return BatchCsr.from_scipy_list(
            exec_,
            scipy_matrices,
            value_dtype=value_dtype,
            index_dtype=index_dtype,
            **kwargs,
        )

    batch_csr.__doc__ = (
        f"Stack SciPy matrices sharing one pattern into a BatchCsr "
        f"({np.dtype(value_dtype).name} values, "
        f"{np.dtype(index_dtype).name} indices)."
    )
    return batch_csr


def _make_distributed_matrix(value_dtype, index_dtype):
    def factory(exec_, partition, data, **kwargs):
        return DistributedMatrix(
            exec_,
            partition,
            data,
            value_dtype=value_dtype,
            index_dtype=index_dtype,
            **kwargs,
        )

    factory.__doc__ = (
        f"Distribute a SciPy matrix over a Partition "
        f"({np.dtype(value_dtype).name} values, "
        f"{np.dtype(index_dtype).name} indices)."
    )
    return factory


def _make_distributed_vector(value_dtype):
    def factory(exec_, partition, data=None, **kwargs):
        if data is None:
            return DistributedVector.zeros(
                exec_, partition, dtype=value_dtype, **kwargs
            )
        data = np.asarray(data, dtype=value_dtype)
        return DistributedVector(exec_, partition, data, **kwargs)

    factory.__doc__ = (
        f"Create a distributed Vector with "
        f"{np.dtype(value_dtype).name} values (zeros when no data given)."
    )
    return factory


def _make_batch_jacobi():
    def factory(exec_, max_block_size: int = 1):
        return BatchJacobi(max_block_size=max_block_size)

    factory.__doc__ = "Create a BatchJacobi preconditioner factory."
    return factory


def _make_solver_factory(cls):
    def factory(exec_, *args, **kwargs):
        return cls(exec_, *args, **kwargs)

    factory.__doc__ = f"Create a {cls.__name__} solver factory."
    return factory


def _build_registry() -> dict:
    registry: dict = {}

    # Executor classes are bound once, not per type (they are untemplated).
    registry["CUDA"] = CudaExecutor
    registry["HIP"] = HipExecutor
    registry["Omp"] = OmpExecutor
    registry["Reference"] = ReferenceExecutor

    for vt_name, vt in VALUE_TYPES.items():
        registry[f"dense_{vt_name}"] = _bound(_make_dense(vt), 2)
        registry[f"dense_empty_{vt_name}"] = _bound(_make_dense_empty(vt), 3)
        registry[f"apply_{vt_name}"] = _bound(_make_apply(vt), 3)
        registry[f"scal_{vt_name}"] = _bound(_make_scal(vt), 3)
        registry[f"axpy_{vt_name}"] = _bound(_make_axpy(vt), 4)
        registry[f"fused_region_{vt_name}"] = _bound(_make_fused_region(vt), 2)
        registry[f"batch_dense_{vt_name}"] = _bound(_make_batch_dense(vt), 2)
        for prefix, factories in _SOLVER_FACTORIES.items():
            for method, factory in factories.items():
                registry[f"{prefix}{method}_factory_{vt_name}"] = _bound(
                    _make_solver_factory(factory), 3
                )
        registry[f"distributed_vector_{vt_name}"] = _bound(
            _make_distributed_vector(vt), 3
        )
        registry[f"batch_jacobi_factory_{vt_name}"] = _bound(
            _make_batch_jacobi(), 2
        )
        registry[f"batch_lower_trs_factory_{vt_name}"] = _bound(
            _make_solver_factory(BatchLowerTrs), 2
        )
        registry[f"batch_upper_trs_factory_{vt_name}"] = _bound(
            _make_solver_factory(BatchUpperTrs), 2
        )
        registry[f"direct_factory_{vt_name}"] = _bound(
            _make_solver_factory(Direct), 1
        )
        registry[f"lower_trs_factory_{vt_name}"] = _bound(
            _make_solver_factory(LowerTrs), 2
        )
        registry[f"upper_trs_factory_{vt_name}"] = _bound(
            _make_solver_factory(UpperTrs), 2
        )
        registry[f"jacobi_factory_{vt_name}"] = _bound(
            _make_solver_factory(Jacobi), 2
        )
        registry[f"ilu_factory_{vt_name}"] = _bound(
            _make_solver_factory(Ilu), 1
        )
        registry[f"ic_factory_{vt_name}"] = _bound(_make_solver_factory(Ic), 1)
        registry[f"isai_factory_{vt_name}"] = _bound(
            _make_solver_factory(Isai), 2
        )
        registry[f"multigrid_factory_{vt_name}"] = _bound(
            _make_solver_factory(Pgm), 2
        )
        for it_name, it in INDEX_TYPES.items():
            for cls, prefix in (
                (Csr, "csr"),
                (Coo, "coo"),
                (Ell, "ell"),
                (Sellp, "sellp"),
                (Hybrid, "hybrid"),
            ):
                registry[f"{prefix}_{vt_name}_{it_name}"] = _bound(
                    _make_sparse(cls, vt, it), 3
                )
                registry[f"read_{prefix}_{vt_name}_{it_name}"] = _bound(
                    _make_read(cls, vt, it), 2
                )
            registry[f"batch_csr_{vt_name}_{it_name}"] = _bound(
                _make_batch_csr(vt, it), 3
            )
            registry[f"distributed_matrix_{vt_name}_{it_name}"] = _bound(
                _make_distributed_matrix(vt, it), 3
            )
    # Mixed-precision accessor kernels: one symbol per (working, storage)
    # pair with distinct precisions, mirroring Ginkgo's cross-precision
    # instantiations.  Uniform applies keep using the operator's regular
    # path, so these never fire on the default route.
    for wt_name, wt in VALUE_TYPES.items():
        for st_name, st in VALUE_TYPES.items():
            if wt_name == st_name:
                continue
            for op in _MIXED_APPLY_OPS:
                registry[f"{op}_{wt_name}_{st_name}"] = _bound(
                    _make_mixed_apply(op, wt, st), 2
                )
    for name, func in registry.items():
        if getattr(func, "_is_binding", False):
            func._binding_tag = name
    return registry


BINDINGS: dict = _build_registry()


def get_binding(name: str):
    """Look up one generated binding symbol by its suffixed name."""
    return BINDINGS[name]


def binding_names() -> list:
    """All generated binding symbol names (sorted)."""
    return sorted(BINDINGS)
