"""The method table is the only place the iterative methods are listed.

* routes — every (method, instance) pair the table declares resolves on
  every route built from it (binding symbols, the ``pg`` namespaces, the
  config types, the coalescer, ``resilient_batch_solve``, the service's
  distributed route), and every undeclared pair is rejected there with
  the error type it always had — except the service, which routes a
  large job of a method without a distributed instance scalar;
* lint — no ``src/repro`` module outside the table spells out two or
  more method names in one literal container, and no loop there
  hand-writes Gram-Schmidt (``GmresRecurrence.arnoldi`` is the one copy).
"""

from __future__ import annotations

import ast
import fnmatch
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

import repro as pg
from repro import bindings
from repro.core.resilient import resilient_batch_solve
from repro.ginkgo import batch, distributed, solver
from repro.ginkgo.config import ConfigError, validate
from repro.ginkgo.config.registry import SOLVER_REGISTRY
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.matrix import Csr
from repro.ginkgo.solver import METHODS
from repro.service import Coalescer, SolverService, SolveJob

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: instance -> (binding symbol prefix, pg namespace, factories).
INSTANCES = {
    "scalar": ("", pg.solver, solver.SOLVERS),
    "batch": ("batch_", pg.batch, batch.SOLVERS),
    "distributed": ("distributed_", pg.distributed, distributed.SOLVERS),
}
PAIRS = [(name, instance) for name in METHODS for instance in INSTANCES]

#: The keys each ``solver::*`` config type accepted before the table
#: derived them (beyond the common type/preconditioner/criteria keys).
CONFIG_KEYS = {
    "solver::Cg": set(),
    "solver::Fcg": set(),
    "solver::Cgs": set(),
    "solver::Bicg": set(),
    "solver::Bicgstab": set(),
    "solver::Gmres": {"krylov_dim"},
    "solver::CbGmres": {"krylov_dim", "storage_precision"},
    "solver::Idr": {"subspace_dim", "deterministic", "kappa"},
    "solver::Minres": set(),
    "solver::Ir": {"relaxation_factor"},
    "solver::Direct": set(),
    "solver::LowerTrs": {"unit_diagonal"},
    "solver::UpperTrs": {"unit_diagonal"},
}


def _spd(n=16, shift=0.0):
    return sp.diags(
        [-np.ones(n - 1), (4.0 + shift) * np.ones(n), -np.ones(n - 1)],
        [-1, 0, 1],
        format="csr",
    )


def test_nineteen_method_instance_combinations():
    declared = [
        (name, instance) for name, instance in PAIRS
        if instance in METHODS[name].instances
    ]
    assert len(declared) == 19
    assert all(instance in INSTANCES for _, instance in declared)


@pytest.mark.parametrize("name,instance", PAIRS)
def test_binding_symbols(ref, name, instance):
    prefix, _, factories = INSTANCES[instance]
    declared = instance in METHODS[name].instances
    assert (name in factories) == declared
    for vt in ("half", "float", "double"):
        symbol = f"{prefix}{name}_factory_{vt}"
        assert (symbol in bindings.binding_names()) == declared
        if declared:
            factory = bindings.resolve(f"{prefix}{name}_factory", vt)(ref)
            assert isinstance(factory, factories[name])
            assert factory.solver_class.recurrence is METHODS[name]
        else:
            with pytest.raises(GinkgoError):
                bindings.resolve(f"{prefix}{name}_factory", vt)


@pytest.mark.parametrize("name,instance", PAIRS)
def test_pg_namespace(name, instance):
    _, namespace, _ = INSTANCES[instance]
    declared = instance in METHODS[name].instances
    assert hasattr(namespace, name) == declared
    if not declared:
        with pytest.raises(AttributeError):
            getattr(namespace, name)


@pytest.mark.parametrize("name", METHODS)
def test_config_type_and_alias(name):
    if "scalar" in METHODS[name].instances:
        factory = solver.SOLVERS[name]
        validate({"type": name})
        validate({"type": f"solver::{factory.__name__}"})
        assert SOLVER_REGISTRY[f"solver::{factory.__name__}"][0] is factory
    else:
        with pytest.raises(ConfigError):
            validate({"type": name})


def test_solve_names_the_instances_of_a_method_without_scalar(ref):
    (name,) = [m for m in METHODS if "scalar" not in METHODS[m].instances]
    b = pg.as_tensor(np.ones((16, 1)), device=ref)
    with pytest.raises(ConfigError, match="no scalar instance") as info:
        pg.solve(ref, Csr.from_scipy(ref, _spd()), b, solver=name)
    for instance in ("batch", "distributed"):
        named = f"pg.{instance}.{name}" in str(info.value)
        assert named == (instance in METHODS[name].instances)


@pytest.mark.parametrize("name", METHODS)
def test_coalescer_eligible_iff_batched(ref, name):
    job = SolveJob(
        matrix=Csr.from_scipy(ref, _spd()), rhs=np.ones((16, 1)), solver=name
    )
    assert Coalescer(max_lane=8).eligible(job) == (
        "batch" in METHODS[name].instances
    )


@pytest.mark.parametrize("name", METHODS)
def test_resilient_batch_route(ref, name):
    mtx = pg.batch.matrices(ref, [_spd(), _spd(shift=0.5)])
    b = pg.batch.vectors(ref, [np.ones((16, 1)), np.ones((16, 1))])
    if "batch" in METHODS[name].instances:
        report, _ = resilient_batch_solve(
            ref, mtx, b, solver=name, max_iters=200, reduction_factor=1e-10
        )
        assert np.all(report.converged)
    else:
        with pytest.raises(GinkgoError, match="unknown batch solver"):
            resilient_batch_solve(ref, mtx, b, solver=name)


@pytest.mark.parametrize("name", METHODS)
def test_service_distributed_route(ref, name):
    service = SolverService(
        num_workers=1, distributed_threshold=16, distributed_ranks=2
    )
    job = SolveJob(
        matrix=Csr.from_scipy(ref, _spd()), rhs=np.ones((16, 1)),
        solver=name, max_iters=200, reduction_factor=1e-10,
    )
    # A large job whose method has no distributed instance runs scalar.
    (result,) = service.run([job])
    distributed = "distributed" in METHODS[name].instances
    assert result.route == ("distributed" if distributed else "scalar")
    assert result.status == "completed"
    # Unrelaxed IR (Richardson) diverges on this system.
    assert result.converged == (name != "ir")


def test_config_keys_match_the_literal_sets():
    accepted = {
        solver_type: set(params)
        for solver_type, (_, params) in SOLVER_REGISTRY.items()
    }
    assert accepted == CONFIG_KEYS
    # IR's factory takes its inner solver, but the config type never did.
    with pytest.raises(ConfigError, match="solver"):
        validate({"type": "solver::Ir", "solver": {"type": "cg"}})


# ----------------------------------------------------------------------
# lint: no re-spelled method lists
# ----------------------------------------------------------------------
#: Files allowed to list method names, each with its reason.
ALLOWLIST = {
    "repro/ginkgo/solver/__init__.py": "the method table itself",
    "repro/perfmodel/libraries.py": (
        "catalogs of the modelled libraries (CuPy, SciPy, native Ginkgo, "
        "...), not of this engine"
    ),
    "repro/baselines/*.py": (
        "supported_solvers: what each benchmarked library backend runs"
    ),
    "repro/bench/figures.py": "the solvers the paper's experiments select",
}


def _method_lists(path: pathlib.Path):
    """``(line, names)`` of each literal container holding >= 2 methods."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            items = node.elts
        elif isinstance(node, ast.Dict):
            items = [key for key in node.keys if key is not None] + node.values
        else:
            continue
        names = [
            item.value for item in items
            if isinstance(item, ast.Constant) and item.value in METHODS
        ]
        if len(names) >= 2:
            yield node.lineno, names


def test_no_module_respells_the_method_list():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if any(fnmatch.fnmatch(rel, pattern) for pattern in ALLOWLIST):
            continue
        offenders += [
            f"{rel}:{line} {names}" for line, names in _method_lists(path)
        ]
    assert offenders == []


def test_lint_sees_a_respelled_list(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('SOLVERS = {"cg": 1, "gmres": 2}\nONE = ("cg", "x")\n')
    assert list(_method_lists(module)) == [(1, ["cg", "gmres"])]


# ----------------------------------------------------------------------
# lint: Gram-Schmidt is written once (GmresRecurrence.arnoldi)
# ----------------------------------------------------------------------
def _gram_schmidt_loops(path: pathlib.Path) -> list:
    """Sorted lines of the loops whose body calls ``compute_dot`` and an axpy."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        called = {
            call.func.attr
            for stmt in node.body
            for call in ast.walk(stmt)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        }
        if "compute_dot" in called and called & {"sub_scaled", "add_scaled"}:
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_hand_writes_gram_schmidt():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{line}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for line in _gram_schmidt_loops(path)
    ]
    assert offenders == []


def test_lint_sees_a_gram_schmidt_loop(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "for j in range(m):\n"
        "    for q in basis:\n"
        "        w.sub_scaled(q.compute_dot(w)[0], q)\n"
        "while busy:\n"
        "    busy = v.compute_dot(w) > 0\n"
        "    w.scale(2.0)\n"
        "while busy:\n"
        "    c = v.compute_dot(w)\n"
        "    if c:\n"
        "        w.add_scaled(-c, v)\n"
    )
    assert _gram_schmidt_loops(module) == [1, 2, 7]
