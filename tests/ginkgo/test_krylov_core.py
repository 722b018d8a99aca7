"""One iteration protocol: every iterative solver is a recurrence.

Two pins on the Krylov core:

* structure — no solver class overrides an iteration hook; every
  concrete :class:`IterativeSolver` names the :class:`Recurrence` the
  shared monitored solve drives;
* kernel sequence — for each of the ten scalar methods one seeded,
  Jacobi-preconditioned solve on a noiseless reference executor records
  the multiset of ``(kernel name, count)`` and the simulated time in
  :data:`KERNEL_TABLE`, taken before the seven loop-based solvers were
  ported onto recurrences.  The port keeps them exactly, except that
  MINRES and IDR reuse the initial residual the base solve computed:
  each drops one SpMV and one vector copy per column solve.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import repro.ginkgo
from repro.ginkgo.batch.solver import _Head, _Rows
from repro.ginkgo.distributed import Partition, Vector
from repro.ginkgo.executor import ReferenceExecutor
from repro.ginkgo.krylov_vector import KrylovVector
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.preconditioner import Jacobi
from repro.ginkgo.solver import (
    Bicg,
    Bicgstab,
    CbGmres,
    Cg,
    Cgs,
    Fcg,
    Gmres,
    Idr,
    IterativeSolver,
    Ir,
    Minres,
    SolverFactory,
)
from repro.ginkgo.solver.recurrence import Recurrence
from repro.ginkgo.stop import Iteration, ResidualNorm

SOLVERS = {
    "cg": Cg,
    "fcg": Fcg,
    "cgs": Cgs,
    "bicg": Bicg,
    "bicgstab": Bicgstab,
    "gmres": Gmres,
    "cb_gmres": CbGmres,
    "idr": Idr,
    "minres": Minres,
    "ir": Ir,
}

#: method -> (iterations, simulated seconds as float.hex, kernel multiset).
KERNEL_TABLE = {
    "cg": (17, "0x1.e3cf5bef9a1ffp-13", {
        "cg_step_1": 16, "cg_step_2": 17, "device_memcpy": 2, "dot": 53,
        "spmv_csr": 35,
    }),
    "fcg": (17, "0x1.55ce4a04e97c4p-12", {
        "add_scaled": 66, "copy": 16, "device_memcpy": 19, "dot": 69,
        "scale": 16, "spmv_csr": 35,
    }),
    "cgs": (9, "0x1.564e581a3e2fbp-13", {
        "cgs_step_1": 9, "cgs_step_2": 9, "cgs_step_3": 9,
        "device_memcpy": 2, "dot": 29, "spmv_csr": 37,
    }),
    "bicg": (17, "0x1.747cea0036d87p-12", {
        "add_scaled": 83, "convert_csr_to_csr_t": 1, "device_memcpy": 4,
        "dot": 53, "scale": 32, "spmv_csr": 69,
    }),
    "bicgstab": (9, "0x1.0161715526364p-12", {
        "add_scaled": 52, "copy": 18, "device_memcpy": 3, "dot": 56,
        "scale": 8, "spmv_csr": 37,
    }),
    "gmres": (16, "0x1.3196f2340a7acp-12", {
        "copy": 1, "device_memcpy": 1, "dot": 19, "givens_update": 16,
        "gmres_init": 1, "gmres_multidot": 16, "gmres_scale": 16,
        "gmres_update": 16, "gmres_x_update": 1, "hessenberg_trsv": 1,
        "residual_check": 16, "spmv_csr": 35,
    }),
    "cb_gmres": (34, "0x1.37a17be59b357p-11", {
        "cb_gmres_init": 2, "cb_gmres_multidot": 34, "cb_gmres_scale": 34,
        "cb_gmres_update": 34, "cb_gmres_x_update": 2, "copy": 2,
        "device_memcpy": 1, "dot": 38, "givens_update": 34,
        "hessenberg_trsv": 2, "residual_check": 34, "spmv_csr": 73,
    }),
    "idr": (18, "0x1.0aff05aaa3076p-12", {
        "add_scaled": 12, "device_memcpy": 2, "dot": 38, "idr_biortho": 6,
        "idr_init_shadow": 1, "idr_m_update": 12, "idr_multidot": 6,
        "idr_step": 12, "idr_update_u": 12, "idr_update_v": 12,
        "spmv_csr": 38,
    }),
    "minres": (16, "0x1.59efdd8cfdb71p-12", {
        "add_scaled": 79, "copy": 48, "device_memcpy": 19, "dot": 35,
        "scale": 32, "spmv_csr": 35,
    }),
    "ir": (32, "0x1.5a1115a863249p-12", {
        "add_scaled": 32, "copy": 32, "device_memcpy": 1, "dot": 34,
        "spmv_csr": 65,
    }),
}

#: Methods that reuse the base solve's initial residual ``b - A x``.
REUSES_R0 = ("idr", "minres")


def _seeded_solve(name):
    """One Jacobi-preconditioned solve of a seeded SPD tridiagonal system."""
    n = 48
    rng = np.random.default_rng(7)
    mat = sp.diags(
        [-np.ones(n - 1), 4.0 + rng.random(n), -np.ones(n - 1)],
        [-1, 0, 1],
        format="csr",
    )
    rhs = rng.standard_normal((n, 1))
    exec_ = ReferenceExecutor.create(noisy=False)
    if name == "ir":
        params = {"solver": Jacobi(exec_), "relaxation_factor": 0.9}
    else:
        params = {"preconditioner": Jacobi(exec_)}
    solver = SOLVERS[name](
        exec_, criteria=Iteration(60) | ResidualNorm(1e-10), **params
    ).generate(Csr.from_scipy(exec_, mat))
    b = Dense(exec_, rhs)
    x = Dense.zeros(exec_, (n, 1), np.float64)
    clock = exec_.clock
    clock.reset()
    clock.enable_event_log()
    solver.apply(b, x)
    return solver, clock


@pytest.mark.parametrize("name", sorted(SOLVERS), ids=str)
def test_kernel_sequence_pinned(name):
    solver, clock = _seeded_solve(name)
    iterations, sim_hex, kernels = KERNEL_TABLE[name]
    expected = Counter(kernels)
    sim_s = float.fromhex(sim_hex)
    if name in REUSES_R0:
        expected -= Counter({"spmv_csr": 1, "device_memcpy": 1})
        # The dropped pair costs what the base's own r0 copy and SpMV
        # cost: the first of each kernel in this solve.
        first = {}
        for event in clock.events:
            first.setdefault(event.name, event.duration)
        sim_s -= first["device_memcpy"] + first["spmv_csr"]
        assert clock.now == pytest.approx(sim_s, rel=1e-12)
    else:
        assert clock.now == sim_s
    assert solver.num_iterations == iterations
    assert Counter(event.name for event in clock.events) == expected


def _ginkgo_classes():
    for info in pkgutil.walk_packages(
        repro.ginkgo.__path__, prefix="repro.ginkgo."
    ):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def test_no_class_overrides_an_iteration_hook():
    offenders = [
        cls.__qualname__ for cls in _ginkgo_classes() if "_iterate" in vars(cls)
    ]
    assert offenders == []


def test_every_iterative_solver_names_its_recurrence():
    # Concrete solvers are the ones a factory generates.
    solvers = {
        cls.solver_class for cls in _ginkgo_classes()
        if issubclass(cls, SolverFactory)
        and isinstance(cls.solver_class, type)
        and issubclass(cls.solver_class, IterativeSolver)
    }
    assert len(solvers) == 15
    for cls in solvers:
        assert isinstance(cls.recurrence, type), cls.__name__
        assert issubclass(cls.recurrence, Recurrence), cls.__name__


# One vector protocol: every instance is Dense's arithmetic and charges.
PROTOCOL = set("""fill copy_values_from scale add_scaled sub_scaled elementwise
    compute_dot compute_norm2 bind_dot bind_norm2 bind_elementwise all_reduce""".split())


def _respelled(classes):
    return [c.__name__ for c in classes if issubclass(c, KrylovVector)
            and c is not KrylovVector and PROTOCOL & set(vars(c))]


def test_the_vector_protocol_is_defined_once():
    assert {Dense, Vector, _Head, _Rows} <= set(_ginkgo_classes())
    assert _respelled(_ginkgo_classes()) == []
    assert _respelled([type("Own", (Dense,), {"scale": Dense.scale})]) == ["Own"]


def _vector(kind, exec_, data):  # K systems: K copies of ``data``
    k = int(kind[-1])
    if kind.startswith("head"):
        active = SimpleNamespace(_exec=exec_, count=k, ids=np.arange(k))
        return _Head(active, np.stack([data] * k))
    if kind.startswith("ranks"):
        return Vector(exec_, Partition.build_uniform(len(data), k), data)
    return Dense.create(exec_, np.vstack([data] * k))


@pytest.mark.parametrize("kind", ["ranks1", "ranks4", "head1", "head3"])
@pytest.mark.parametrize("op", ["scale", "add_scaled", "sub_scaled"])
@pytest.mark.parametrize("coef", [0.0, 1.0, "columns"])
def test_every_instance_is_dense(kind, op, coef):
    a = np.arange(12.0).reshape(6, 2) - 4.5
    a[1, 0], a[4, 1] = np.nan, np.inf
    k = int(kind[-1]) if kind.startswith("head") else 1
    outcomes = []
    for name in (f"dense{k}", kind):
        exec_ = ReferenceExecutor.create(noisy=False)
        clock = exec_.clock
        u, v = _vector(name, exec_, a), _vector(name, exec_, a[::-1] * 3)
        alpha = np.array([0.5, -2.0]) if coef == "columns" else coef
        if name.startswith("head") and coef == "columns":
            alpha = np.tile(alpha, (k, 1))
        now, kernels = clock.now, clock.kernel_count
        getattr(u, op)(alpha, *([v] if op != "scale" else []))
        outcomes.append((u.extent.tobytes(), clock.now - now, clock.kernel_count - kernels))
    assert outcomes[1] == outcomes[0]
