"""Roofline cost models for the sparse kernels exercised by the paper.

Every kernel is summarised by three numbers: the floating-point operations
it performs, the bytes it must move through DRAM, and the number of device
kernels it launches.  The simulated execution time is then

    time = launches * launch_latency
         + max(bytes / effective_bandwidth, flops / peak_flops)

evaluated by :meth:`repro.perfmodel.clock.SimClock.record`.  SpMV-class
kernels are overwhelmingly bandwidth-bound, which is what produces the
paper's characteristic speedup-grows-with-NNZ curves: small matrices are
launch-latency bound, large ones bandwidth bound.

The byte counts model a cache-unfriendly gather of the input vector (one
value-sized read per nonzero), matching the measured ~150 GFLOP/s fp32 CSR
SpMV ceiling on the A100 rather than the unreachable pure-streaming bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class KernelCost:
    """Abstract cost of one logical operation.

    Attributes:
        name: Kernel identifier, e.g. ``"spmv_csr"``.
        flops: Floating point operations performed.
        bytes: DRAM traffic in bytes.
        launches: Number of device kernels (or parallel regions) launched.
        dtype_name: numpy dtype name of the value type, selects peak FLOPs.
    """

    name: str
    flops: float
    bytes: float
    launches: int = 1
    dtype_name: str = "float64"

    def __add__(self, other: "KernelCost") -> "KernelCost":
        return KernelCost(
            name=f"{self.name}+{other.name}",
            flops=self.flops + other.flops,
            bytes=self.bytes + other.bytes,
            launches=self.launches + other.launches,
            dtype_name=self.dtype_name,
        )

    def scaled(self, factor: float) -> "KernelCost":
        """Return a copy with flops/bytes/launches multiplied by ``factor``."""
        return KernelCost(
            name=self.name,
            flops=self.flops * factor,
            bytes=self.bytes * factor,
            launches=max(1, round(self.launches * factor)),
            dtype_name=self.dtype_name,
        )


#: Fraction of a value-sized read charged per nonzero for gathering x.
GATHER_FRACTION = 1.0

#: Entries kept per memoised cost constructor.  The constructors below
#: marked ``lru_cache`` are pure and return frozen costs, so a hot loop
#: re-charging the same kernel reuses one object; invalid arguments raise
#: on every call because exceptions are never cached.
COST_CACHE_SIZE = 1024

#: Value width in bytes -> numpy dtype name (paper Table 1).
_WIDTH_DTYPE_NAMES = {2: "float16", 4: "float32", 8: "float64"}


def _dtype_name_for_width(value_bytes: int) -> str:
    """The dtype name charged for a value width, with a clear failure.

    Raises:
        ValueError: For widths outside the supported {2, 4, 8} bytes.
    """
    try:
        return _WIDTH_DTYPE_NAMES[value_bytes]
    except KeyError:
        raise ValueError(
            f"unsupported value width {value_bytes!r} bytes; supported "
            f"widths: {sorted(_WIDTH_DTYPE_NAMES)} "
            f"({', '.join(_WIDTH_DTYPE_NAMES[w] for w in sorted(_WIDTH_DTYPE_NAMES))})"
        ) from None


@lru_cache(maxsize=COST_CACHE_SIZE, typed=True)
def spmv_cost(
    fmt: str,
    num_rows: int,
    num_cols: int,
    nnz: int,
    value_bytes: int,
    index_bytes: int,
    num_rhs: int = 1,
    strategy: str = "classical",
) -> KernelCost:
    """Cost of one sparse matrix (multi-)vector product.

    Args:
        fmt: Storage format: ``csr``, ``coo``, ``ell``, ``sellp``,
            ``hybrid``, ``sparsity_csr``, ``dense``, or ``diagonal``.
        num_rows: Matrix rows.
        num_cols: Matrix columns.
        nnz: Stored nonzeros.
        value_bytes: Bytes per value (2/4/8).
        index_bytes: Bytes per index (4/8).
        num_rhs: Number of right-hand-side columns.
        strategy: CSR kernel strategy (``classical`` launches one kernel,
            ``load_balance`` launches an extra partitioning kernel but moves
            the same data more evenly).

    Returns:
        The aggregate :class:`KernelCost`.
    """
    if num_rows < 0 or num_cols < 0 or nnz < 0 or num_rhs < 1:
        raise ValueError("matrix dimensions and nnz must be non-negative")
    dtype_name = _dtype_name_for_width(value_bytes)
    flops = 2.0 * nnz * num_rhs
    gather = GATHER_FRACTION * nnz * value_bytes * num_rhs
    out = num_rows * value_bytes * num_rhs
    launches = 1

    if fmt == "csr":
        data = nnz * (value_bytes + index_bytes) + (num_rows + 1) * index_bytes
        if strategy == "load_balance":
            launches = 2
            data += num_rows * index_bytes  # srow/partition metadata
        elif strategy not in ("classical", "sparselib", "merge_path"):
            raise ValueError(f"unknown CSR strategy {strategy!r}")
        if strategy == "merge_path":
            launches = 2
    elif fmt == "coo":
        data = nnz * (value_bytes + 2 * index_bytes)
        # Atomic accumulation re-reads/re-writes output segments.
        out *= 2.0
    elif fmt == "ell":
        max_per_row = nnz / max(num_rows, 1)
        stored = num_rows * max(1, int(round(max_per_row)))
        data = stored * (value_bytes + index_bytes)
    elif fmt == "sellp":
        data = nnz * (value_bytes + index_bytes) * 1.05  # slice padding
        data += (num_rows // 32 + 1) * 2 * index_bytes
    elif fmt == "hybrid":
        data = nnz * (value_bytes + 1.5 * index_bytes)
        launches = 2
    elif fmt == "sparsity_csr":
        data = nnz * index_bytes + (num_rows + 1) * index_bytes
    elif fmt == "dense":
        data = float(num_rows) * num_cols * value_bytes
        flops = 2.0 * num_rows * num_cols * num_rhs
        gather = num_cols * value_bytes * num_rhs
    elif fmt == "diagonal":
        data = min(num_rows, num_cols) * value_bytes
        flops = float(min(num_rows, num_cols)) * num_rhs
        gather = min(num_rows, num_cols) * value_bytes * num_rhs
    else:
        raise ValueError(f"unknown SpMV format {fmt!r}")

    return KernelCost(
        name=f"spmv_{fmt}",
        flops=flops,
        bytes=data + gather + out,
        launches=launches,
        dtype_name=dtype_name,
    )


@lru_cache(maxsize=COST_CACHE_SIZE, typed=True)
def blas1_cost(
    name: str, length: int, value_bytes: int, num_vectors: int = 2
) -> KernelCost:
    """Cost of a streaming vector kernel (axpy, scale, copy, fill, ...).

    ``num_vectors`` counts the vector-length operands read or written; an
    ``axpy`` touches three (read x, read y, write y -> modelled as 3).
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    dtype_name = _dtype_name_for_width(value_bytes)
    return KernelCost(
        name=name,
        flops=float(length) * max(1, num_vectors - 1),
        bytes=float(length) * value_bytes * num_vectors,
        launches=1,
        dtype_name=dtype_name,
    )


def fused_axpby_cost(
    length: int,
    value_bytes: int,
    num_inputs: int,
    flops_per_element: int,
) -> KernelCost:
    """Cost of one fused elementwise chain (axpy/scal/axpby compositions).

    A lazy-evaluation flush collapses a chain of scale/add expression
    nodes into a single streaming kernel: every distinct input vector is
    read once, the result is written once, and all intermediate traffic
    (the clones and temporaries the eager chain would stream through
    DRAM) disappears.  ``flops_per_element`` counts the multiplies and
    adds the chain performs per element — the arithmetic is identical to
    the eager chain; only the memory traffic and launch count shrink.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if num_inputs < 1:
        raise ValueError("a fused chain reads at least one input vector")
    dtype_name = _dtype_name_for_width(value_bytes)
    return KernelCost(
        name="fused_axpby",
        flops=float(length) * max(1, flops_per_element),
        bytes=float(length) * value_bytes * (num_inputs + 1),
        launches=1,
        dtype_name=dtype_name,
    )


def fused_spmv_axpby_cost(
    spmv: KernelCost,
    length: int,
    value_bytes: int,
    extra_inputs: int,
    flops_per_element: int,
) -> KernelCost:
    """Fold an elementwise tail into the SpMV that produces its input.

    Models Ginkgo's fused SpMV+axpy kernels (``apply_advanced`` and the
    solver step kernels): the product never round-trips through DRAM —
    the tail consumes it in registers — so relative to ``spmv`` the fused
    kernel only adds one read per *extra* tail input plus the tail's
    flops.  Launch count is unchanged; the SpMV's output write already
    covers the result store.
    """
    if length < 0 or extra_inputs < 0:
        raise ValueError("length and extra_inputs must be non-negative")
    return KernelCost(
        name=f"fused_{spmv.name}_axpby",
        flops=spmv.flops + float(length) * max(0, flops_per_element),
        bytes=spmv.bytes + float(length) * value_bytes * extra_inputs,
        launches=spmv.launches,
        dtype_name=spmv.dtype_name,
    )


@lru_cache(maxsize=COST_CACHE_SIZE, typed=True)
def memcpy_cost(nbytes: int) -> KernelCost:
    """Cost of a copy within one memory space (read and write ``nbytes``)."""
    return KernelCost("device_memcpy", 0.0, 2.0 * nbytes, launches=1)


@lru_cache(maxsize=COST_CACHE_SIZE, typed=True)
def dot_cost(length: int, value_bytes: int, num_rhs: int = 1) -> KernelCost:
    """Cost of a dot product / norm reduction (two launches: map + reduce)."""
    if length < 0:
        raise ValueError("length must be non-negative")
    dtype_name = _dtype_name_for_width(value_bytes)
    return KernelCost(
        name="dot",
        flops=2.0 * length * num_rhs,
        bytes=2.0 * length * value_bytes * num_rhs,
        launches=2,
        dtype_name=dtype_name,
    )


@lru_cache(maxsize=COST_CACHE_SIZE, typed=True)
def trsv_cost(
    num_rows: int, nnz: int, value_bytes: int, index_bytes: int
) -> KernelCost:
    """Cost of one sparse triangular solve.

    Triangular solves expose little parallelism (level-scheduling), which we
    model as extra launches proportional to the level count ~ sqrt(rows).
    """
    if num_rows < 0 or nnz < 0:
        raise ValueError("dimensions must be non-negative")
    dtype_name = _dtype_name_for_width(value_bytes)
    levels = max(1, int(num_rows**0.5) // 8)
    return KernelCost(
        name="trsv",
        flops=2.0 * nnz,
        bytes=nnz * (value_bytes + index_bytes) + 2.0 * num_rows * value_bytes,
        launches=levels,
        dtype_name=dtype_name,
    )


def factorization_cost(
    kind: str, num_rows: int, nnz: int, value_bytes: int, index_bytes: int
) -> KernelCost:
    """Cost of generating a factorisation/preconditioner (ILU0, IC0, Jacobi)."""
    dtype_name = _dtype_name_for_width(value_bytes)
    if kind in ("ilu0", "ic0"):
        sweep = nnz * (value_bytes + index_bytes) * 4.0
        return KernelCost(
            name=f"generate_{kind}",
            flops=8.0 * nnz,
            bytes=sweep,
            launches=8,
            dtype_name=dtype_name,
        )
    if kind == "jacobi":
        return KernelCost(
            name="generate_jacobi",
            flops=float(num_rows),
            bytes=nnz * (value_bytes + index_bytes) + num_rows * value_bytes,
            launches=2,
            dtype_name=dtype_name,
        )
    raise ValueError(f"unknown factorization kind {kind!r}")


def conversion_cost(
    src_fmt: str,
    dst_fmt: str,
    num_rows: int,
    nnz: int,
    value_bytes: int,
    index_bytes: int,
) -> KernelCost:
    """Cost of converting between storage formats (read src + write dst)."""
    dtype_name = _dtype_name_for_width(value_bytes)
    per_nnz = value_bytes + 2 * index_bytes
    return KernelCost(
        name=f"convert_{src_fmt}_to_{dst_fmt}",
        flops=0.0,
        bytes=2.0 * (nnz * per_nnz + num_rows * index_bytes),
        launches=2,
        dtype_name=dtype_name,
    )
