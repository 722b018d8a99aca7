"""Distributed subsystem: partitions, halo exchange, bit-identical solves."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro as pg
from repro.ginkgo.distributed import (
    Communicator,
    DistributedCg,
    DistributedGmres,
    DistributedPipelinedCg,
    Matrix,
    Partition,
    Vector,
)
from repro.ginkgo.exceptions import BadDimension, GinkgoError
from repro.ginkgo.executor import OmpExecutor, ReferenceExecutor
from repro.ginkgo.log import ConvergenceLogger
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.solver import Cg, Gmres
from repro.ginkgo.stop import Iteration, ResidualNorm
from repro.perfmodel import allreduce_time, halo_exchange_time
from repro.perfmodel.comm import ETHERNET_CLUSTER, INTRA_NODE


def spd_matrix(rng, n=200, density=0.03):
    mat = sp.random(n, n, density=density, random_state=rng, format="csr")
    mat = mat + mat.T
    shift = np.abs(mat).sum(axis=1).max() + 1.0
    return sp.csr_matrix(mat + sp.eye(n) * shift)


def crit():
    return Iteration(300) | ResidualNorm(1e-10, baseline="rhs_norm")


# ----------------------------------------------------------------------
# Partition
# ----------------------------------------------------------------------
class TestPartition:
    def test_uniform_tiles_all_rows(self):
        part = Partition.build_uniform(10, 4)
        assert part.global_size == 10
        assert part.num_ranks == 4
        assert part.sizes == (3, 3, 2, 2)
        assert list(part) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_weighted_balances_cumulative_weight(self):
        # All the weight in the first rows: rank 0 gets few rows.
        weights = np.r_[np.full(10, 100.0), np.full(90, 1.0)]
        part = Partition.build_from_weights(weights, 4)
        assert part.global_size == 100
        assert part.num_ranks == 4
        assert part.sizes[0] < 25

    def test_owner_of_scalar_and_array(self):
        part = Partition(6, [(0, 2), (2, 2), (2, 6)])  # rank 1 empty
        assert part.owner_of(0) == 0
        assert part.owner_of(2) == 2  # tie at offset 2 -> owning rank
        assert part.owner_of(5) == 2
        np.testing.assert_array_equal(
            part.owner_of(np.array([0, 1, 2, 5])), [0, 0, 2, 2]
        )
        with pytest.raises(IndexError):
            part.owner_of(6)

    def test_rejects_gaps_and_overlaps(self):
        with pytest.raises(GinkgoError):
            Partition(10, [(0, 4), (5, 10)])  # gap
        with pytest.raises(GinkgoError):
            Partition(10, [(0, 6), (4, 10)])  # overlap
        with pytest.raises(GinkgoError):
            Partition(10, [(0, 4)])  # short
        with pytest.raises(BadDimension):
            Partition(-1, [(0, 0)])

    def test_equality_and_hash(self):
        a = Partition.build_uniform(10, 2)
        b = Partition(10, [(0, 5), (5, 10)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Partition.build_uniform(10, 5)


# ----------------------------------------------------------------------
# Communicator and network model
# ----------------------------------------------------------------------
class TestCommunicator:
    def test_all_reduce_advances_clock_and_counts(self, ref):
        comm = Communicator(ref, 4)
        before = ref.clock.now
        seconds = comm.all_reduce(64)
        assert ref.clock.now == pytest.approx(before + seconds)
        assert seconds == pytest.approx(allreduce_time(64, 4, INTRA_NODE))
        assert comm.num_all_reduces == 1
        assert comm.bytes_all_reduced == 64

    def test_halo_exchange_charges_messages(self, ref):
        comm = Communicator(ref, 4)
        seconds = comm.halo_exchange(1024, 6)
        assert seconds == pytest.approx(
            halo_exchange_time(1024, 6, INTRA_NODE)
        )
        assert comm.num_halo_exchanges == 1
        assert comm.bytes_halo_exchanged == 1024

    def test_single_rank_is_free(self, ref):
        comm = Communicator(ref, 1)
        before = ref.clock.now
        assert comm.all_reduce(1 << 20) == 0.0
        assert comm.halo_exchange(1 << 20, 8) == 0.0
        assert ref.clock.now == before
        assert comm.num_all_reduces == 0
        assert comm.num_halo_exchanges == 0

    def test_allreduce_scales_with_log_ranks(self):
        t2 = allreduce_time(1024, 2, INTRA_NODE)
        t8 = allreduce_time(1024, 8, INTRA_NODE)
        assert t8 == pytest.approx(3.0 * t2)
        assert allreduce_time(1024, 1, INTRA_NODE) == 0.0


# ----------------------------------------------------------------------
# Vector
# ----------------------------------------------------------------------
class TestVector:
    def test_local_views_alias_global_arena(self, ref, rng):
        part = Partition.build_uniform(10, 3)
        data = rng.standard_normal(10)
        vec = Vector(ref, part, data)
        lo, hi = part.range_of(1)
        local = vec.local(1)
        np.testing.assert_array_equal(local._data[:, 0], data[lo:hi])
        local._data[0, 0] = 42.0
        assert vec.view()[lo, 0] == 42.0

    def test_reductions_match_dense_bitwise(self, ref, rng):
        part = Partition.build_uniform(64, 4)
        a = rng.standard_normal(64)
        b = rng.standard_normal(64)
        va, vb = Vector(ref, part, a), Vector(ref, part, b)
        da, db = Dense(ref, a), Dense(ref, b)
        assert va.compute_dot(vb).tobytes() == da.compute_dot(db).tobytes()
        assert va.compute_norm2().tobytes() == da.compute_norm2().tobytes()

    def test_reductions_charge_all_reduce(self, ref, rng):
        part = Partition.build_uniform(16, 4)
        vec = Vector(ref, part, rng.standard_normal(16))
        assert vec.comm.num_all_reduces == 0
        vec.compute_norm2()
        vec.compute_dot(Vector(ref, part, np.ones(16), comm=vec.comm))
        assert vec.comm.num_all_reduces == 2

    def test_elementwise_ops(self, omp, rng):
        part = Partition.build_uniform(40, 4)
        a = rng.standard_normal(40)
        vec = Vector(omp, part, a)
        other = Vector(omp, part, np.ones(40))
        vec.scale(2.0)
        np.testing.assert_allclose(vec.view()[:, 0], 2.0 * a)
        vec.add_scaled(-1.0, other)
        np.testing.assert_allclose(vec.view()[:, 0], 2.0 * a - 1.0)
        vec.copy_values_from(other)
        np.testing.assert_array_equal(vec.view(), other.view())
        vec.fill(7.0)
        assert (vec.view() == 7.0).all()

    def test_incompatible_operands_rejected(self, ref, rng):
        part = Partition.build_uniform(12, 3)
        vec = Vector(ref, part, rng.standard_normal(12))
        with pytest.raises(GinkgoError):
            vec.compute_dot(Dense(ref, np.ones(12)))
        other = Vector(ref, Partition.build_uniform(12, 2), np.ones(12))
        with pytest.raises(GinkgoError):
            vec.compute_dot(other)
        with pytest.raises(BadDimension):
            Vector(ref, part, np.ones(11))


# ----------------------------------------------------------------------
# Matrix and RowGatherer
# ----------------------------------------------------------------------
class TestMatrix:
    def test_blocks_reassemble_global_operator(self, ref, rng):
        mat = spd_matrix(rng, n=80)
        part = Partition.build_uniform(80, 4)
        dist = Matrix(ref, part, mat)
        assert (dist.to_scipy() != mat).nnz == 0
        # local + scattered non-local == full row slice, per rank.
        for rank, (lo, hi) in enumerate(part.ranges):
            ghosts = dist.ghost_columns(rank)
            rebuilt = np.zeros((hi - lo, 80))
            rebuilt[:, lo:hi] = dist.local_block(rank).toarray()
            if ghosts.size:
                rebuilt[:, ghosts] += dist.non_local_block(rank).toarray()
            np.testing.assert_array_equal(
                rebuilt, mat[lo:hi, :].toarray()
            )

    def test_ghost_columns_exclude_own_range(self, ref, rng):
        mat = spd_matrix(rng, n=60)
        part = Partition.build_uniform(60, 3)
        dist = Matrix(ref, part, mat)
        for rank, (lo, hi) in enumerate(part.ranges):
            ghosts = dist.ghost_columns(rank)
            assert not ((ghosts >= lo) & (ghosts < hi)).any()

    def test_spmv_matches_scalar_csr_bitwise(self, omp, rng):
        mat = spd_matrix(rng, n=150)
        b = rng.standard_normal(150)
        scalar_exec = ReferenceExecutor.create(noisy=False)
        scalar = Csr.from_scipy(scalar_exec, mat)
        expected = Dense(scalar_exec, np.zeros((150, 1)))
        scalar.apply(Dense(scalar_exec, b), expected)

        part = Partition.build_uniform(150, 4)
        dist = Matrix(omp, part, mat)
        db = Vector(omp, part, b, comm=dist.comm)
        dx = Vector.zeros(omp, part, comm=dist.comm)
        dist.apply(db, dx)
        assert dx.to_numpy().tobytes() == expected._data.tobytes()

    def test_apply_charges_halo_exchange(self, ref, rng):
        mat = spd_matrix(rng, n=60)
        part = Partition.build_uniform(60, 3)
        dist = Matrix(ref, part, mat)
        assert dist.row_gatherer.total_recv_size > 0
        b = Vector(ref, part, rng.standard_normal(60), comm=dist.comm)
        x = Vector.zeros(ref, part, comm=dist.comm)
        dist.apply(b, x)
        assert dist.comm.num_halo_exchanges == 1
        assert (
            dist.comm.bytes_halo_exchanged
            == dist.row_gatherer.total_recv_size * 8
        )

    def test_single_rank_has_no_ghosts(self, ref, rng):
        mat = spd_matrix(rng, n=40)
        dist = Matrix(ref, Partition.build_uniform(40, 1), mat)
        assert dist.row_gatherer.total_recv_size == 0
        b = Vector(ref, dist.partition, np.ones(40), comm=dist.comm)
        x = Vector.zeros(ref, dist.partition, comm=dist.comm)
        dist.apply(b, x)
        assert dist.comm.num_halo_exchanges == 0

    def test_rejects_bad_shapes(self, ref, rng):
        with pytest.raises(BadDimension):
            Matrix(ref, Partition.build_uniform(5, 2), sp.eye(6).tocsr())
        with pytest.raises(BadDimension):
            Matrix(
                ref,
                Partition.build_uniform(6, 2),
                sp.random(6, 5, density=0.5, random_state=rng),
            )

    def test_rejects_dense_operands(self, ref, rng):
        mat = spd_matrix(rng, n=20)
        dist = Matrix(ref, Partition.build_uniform(20, 2), mat)
        part = dist.partition
        b = Vector(ref, part, np.ones(20))
        with pytest.raises(GinkgoError):
            dist.apply(Dense(ref, np.ones(20)), Vector.zeros(ref, part))
        with pytest.raises(GinkgoError):
            dist.apply(b, Dense(ref, np.ones(20)))


# ----------------------------------------------------------------------
# Overlapped SpMV: halo exchange hidden behind the local block
# ----------------------------------------------------------------------
class TestOverlapSpmv:
    def test_overlap_matches_blocking_to_rounding(self, omp, rng):
        mat = spd_matrix(rng, n=150)
        b = rng.standard_normal(150)
        part = Partition.build_uniform(150, 4)
        blocking = Matrix(omp, part, mat)
        db = Vector(omp, part, b, comm=blocking.comm)
        dx = Vector.zeros(omp, part, comm=blocking.comm)
        blocking.apply(db, dx)
        expected = dx.to_numpy()

        over = Matrix(omp, part, mat, overlap=True)
        ob = Vector(omp, part, b, comm=over.comm)
        ox = Vector.zeros(omp, part, comm=over.comm)
        over.apply(ob, ox)
        np.testing.assert_allclose(
            ox.to_numpy(), expected, rtol=1e-13, atol=1e-13
        )

    def test_overlap_advanced_apply(self, omp, rng):
        mat = spd_matrix(rng, n=120)
        part = Partition.build_uniform(120, 4)
        over = Matrix(omp, part, mat, overlap=True)
        b = Vector(omp, part, rng.standard_normal(120), comm=over.comm)
        x = Vector(omp, part, rng.standard_normal(120), comm=over.comm)
        reference = 2.0 * (mat @ b.to_numpy()) - 3.0 * x.to_numpy()
        over.apply_advanced(2.0, b, -3.0, x)
        np.testing.assert_allclose(
            x.to_numpy(), reference, rtol=1e-12, atol=1e-12
        )

    def test_overlap_hides_halo_time(self, omp, rng):
        mat = spd_matrix(rng, n=150)
        part = Partition.build_uniform(150, 4)
        over = Matrix(
            omp, part, mat, overlap=True, network=ETHERNET_CLUSTER
        )
        b = Vector(omp, part, rng.standard_normal(150), comm=over.comm)
        x = Vector.zeros(omp, part, comm=over.comm)
        over.apply(b, x)
        assert over.comm.num_halo_exchanges == 1
        assert over.comm.comm_hidden_seconds > 0.0
        # Total modeled comm equals the blocking charge: overlap moves
        # time off the critical path, it does not delete it.
        assert over.comm.comm_seconds == pytest.approx(
            halo_exchange_time(
                over.comm.bytes_halo_exchanged,
                over.row_gatherer.num_messages,
                ETHERNET_CLUSTER,
            )
        )

    def test_comm_hidden_annotation_traced(self, rng):
        mat = spd_matrix(rng, n=90)
        dev = pg.device("omp", fresh=True, num_threads=2)
        part = pg.distributed.partition(90, 3)
        dist = pg.distributed.matrix(
            dev, part, mat, overlap=True, network=ETHERNET_CLUSTER
        )
        b = pg.distributed.vector(
            dev, part, rng.standard_normal(90), comm=dist.comm
        )
        x = pg.distributed.zeros_like(b)
        with pg.profile(dev) as prof:
            dist.apply(b, x)
        assert any(
            s.name == "comm_hidden" for s in prof.trace.walk()
        )

    def test_single_rank_overlap_is_free(self, ref, rng):
        mat = spd_matrix(rng, n=40)
        dist = Matrix(
            ref, Partition.build_uniform(40, 1), mat, overlap=True
        )
        b = Vector(ref, dist.partition, np.ones(40), comm=dist.comm)
        x = Vector.zeros(ref, dist.partition, comm=dist.comm)
        before = ref.clock.now
        dist.apply(b, x)
        assert dist.comm.num_halo_exchanges == 0
        assert dist.comm.comm_seconds == 0.0
        # Only compute advanced the clock; no comm category charged.
        assert ref.clock.now > before

    def test_overlap_toggle(self, ref, rng):
        mat = spd_matrix(rng, n=40)
        dist = Matrix(ref, Partition.build_uniform(40, 2), mat)
        assert not dist.overlap
        dist.overlap = True
        assert dist.overlap


# ----------------------------------------------------------------------
# Solvers: the bit-identity guarantee
# ----------------------------------------------------------------------
def scalar_history(mat, b, factory_cls, **params):
    ex = ReferenceExecutor.create(noisy=False)
    solver = factory_cls(ex, criteria=crit(), **params).generate(
        Csr.from_scipy(ex, mat)
    )
    logger = ConvergenceLogger()
    solver.add_logger(logger)
    x = Dense(ex, np.zeros((mat.shape[0], 1)))
    solver.apply(Dense(ex, b), x)
    return solver, list(logger.residual_norms), x._data.copy()


def distributed_history(
    mat, b, factory_cls, num_ranks, exec_=None, criteria=None, **params
):
    ex = exec_ or OmpExecutor.create(num_threads=4, noisy=False)
    part = Partition.build_uniform(mat.shape[0], num_ranks)
    dist = Matrix(ex, part, mat)
    db = Vector(ex, part, b, comm=dist.comm)
    dx = Vector.zeros(ex, part, comm=dist.comm)
    solver = factory_cls(ex, criteria=criteria or crit(), **params).generate(
        dist
    )
    logger = ConvergenceLogger()
    solver.add_logger(logger)
    solver.apply(db, dx)
    return solver, list(logger.residual_norms), dx.to_numpy(), dist


@pytest.mark.parametrize(
    "scalar_cls,dist_cls,params",
    [
        (Cg, DistributedCg, {}),
        (Gmres, DistributedGmres, {"krylov_dim": 25}),
    ],
    ids=["cg", "gmres"],
)
class TestBitIdentity:
    def test_four_ranks_match_scalar_bitwise(
        self, rng, scalar_cls, dist_cls, params
    ):
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        s, hist, x = scalar_history(mat, b, scalar_cls, **params)
        d, dhist, dx, dist = distributed_history(
            mat, b, dist_cls, num_ranks=4, **params
        )
        assert s.converged and d.converged
        assert d.num_iterations == s.num_iterations
        assert len(dhist) == len(hist)
        assert (
            np.asarray(dhist, dtype=np.float64).tobytes()
            == np.asarray(hist, dtype=np.float64).tobytes()
        )
        assert dx.tobytes() == x.tobytes()

    def test_single_rank_matches_multi_rank(
        self, rng, scalar_cls, dist_cls, params
    ):
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        ref_exec = ReferenceExecutor.create(noisy=False)
        _, h1, x1, dist1 = distributed_history(
            mat, b, dist_cls, num_ranks=1, exec_=ref_exec, **params
        )
        _, h4, x4, _ = distributed_history(
            mat, b, dist_cls, num_ranks=4, **params
        )
        assert (
            np.asarray(h1, dtype=np.float64).tobytes()
            == np.asarray(h4, dtype=np.float64).tobytes()
        )
        assert x1.tobytes() == x4.tobytes()
        # A single rank never communicates.
        assert dist1.comm.num_all_reduces == 0
        assert dist1.comm.num_halo_exchanges == 0


class TestDistributedSolvers:
    def test_cg_charges_reductions_and_halos(self, rng):
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        solver, hist, _, dist = distributed_history(
            mat, b, DistributedCg, num_ranks=4
        )
        iters = solver.num_iterations
        # Per iteration: dot(p,q), norm(r), dot(r,z) + setup reductions.
        assert dist.comm.num_all_reduces >= 3 * iters
        # One halo exchange per SpMV (setup residual + one per iteration).
        assert dist.comm.num_halo_exchanges == iters + 1

    def test_clear_workspace_releases_pooled_vectors(self, ref, rng):
        # Scratch vectors live in the solver's Workspace, so the retry
        # layer's clear_workspace() step frees them on this route too.
        mat = spd_matrix(rng, n=400)
        part = Partition.build_uniform(400, 4)
        dist = Matrix(ref, part, mat)
        db = Vector(ref, part, rng.standard_normal(400), comm=dist.comm)
        dx = Vector.zeros(ref, part, comm=dist.comm)
        solver = DistributedCg(ref, criteria=crit()).generate(dist)
        dist.apply(db, dx)  # the matrix allocates its halo buffers once
        before = ref.bytes_allocated
        solver.apply(db, dx)
        assert solver.workspace.num_buffers >= 4  # r0, z, p, q
        assert ref.bytes_allocated == before + solver.workspace.bytes_held
        solver.clear_workspace()
        assert ref.bytes_allocated == before

    def test_omp_uses_thread_pool(self, rng):
        # Threads are modelled: a 4-thread solve starts no host thread
        # and is bitwise the reference executor's solve.
        import threading

        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        ex = OmpExecutor.create(num_threads=4, noisy=False)
        threads = threading.active_count()
        _, hist, x, _ = distributed_history(
            mat, b, DistributedCg, num_ranks=4, exec_=ex
        )
        assert threading.active_count() == threads
        _, ref_hist, ref_x, _ = distributed_history(
            mat, b, DistributedCg, num_ranks=4,
            exec_=ReferenceExecutor.create(noisy=False),
        )
        assert np.array(hist).tobytes() == np.array(ref_hist).tobytes()
        assert x.tobytes() == ref_x.tobytes()

    def test_preconditioner_rejected(self, ref, rng):
        mat = spd_matrix(rng, n=40)
        dist = Matrix(ref, Partition.build_uniform(40, 2), mat)
        from repro.ginkgo.preconditioner import Jacobi

        factory = DistributedCg(
            ref, criteria=crit(), preconditioner=Jacobi(ref)
        )
        with pytest.raises(GinkgoError):
            factory.generate(dist)

    def test_requires_distributed_matrix(self, ref, rng):
        mat = spd_matrix(rng, n=40)
        scalar = Csr.from_scipy(ref, mat)
        with pytest.raises(GinkgoError):
            DistributedCg(ref, criteria=crit()).generate(scalar)

    def test_gmres_single_rhs_only(self, ref, rng):
        mat = spd_matrix(rng, n=30)
        dist = Matrix(ref, Partition.build_uniform(30, 2), mat)
        b = Vector(ref, dist.partition, rng.standard_normal((30, 2)))
        x = Vector.zeros(ref, dist.partition, cols=2)
        solver = DistributedGmres(ref, criteria=crit()).generate(dist)
        with pytest.raises(GinkgoError):
            solver.apply(b, x)

    def test_comm_spans_show_up_in_profile(self, rng):
        mat = spd_matrix(rng, n=60)
        b = rng.standard_normal(60)
        dev = pg.device("omp", fresh=True, num_threads=2)
        part = pg.distributed.partition(60, 3)
        dist = pg.distributed.matrix(dev, part, mat)
        db = pg.distributed.vector(dev, part, b, comm=dist.comm)
        dx = pg.distributed.zeros_like(db)
        with pg.profile(dev) as prof:
            handle = pg.distributed.cg(dev, dist, reduction_factor=1e-8)
            handle.apply(db, dx)
        names = set()
        fused = set()
        comm_seconds = 0.0
        for span in prof.trace.walk():
            if span.category == "comm":
                names.add(span.name)
                comm_seconds += span.duration
            elif span.category == "fused_region":
                fused.add(span.name)
        assert "all_reduce_dot" in names
        assert "halo_exchange" in names
        assert comm_seconds > 0.0
        # Same recurrence, same hand-fused steps as the scalar CG solve.
        assert fused == {"cg::step_1", "cg::step_2"}


# ----------------------------------------------------------------------
# Communication-hiding solver: pipelined CG
# ----------------------------------------------------------------------
#: The pinned relaxed-contract tolerance (DESIGN.md): the pipelined
#: residual history tracks blocking CG to this relative accuracy over
#: the shared iteration prefix.
PIPELINED_HISTORY_RTOL = 1e-6


class TestPipelinedCg:
    def test_converges_with_one_reduction_per_iteration(self, rng):
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        blocking, bhist, bx, bdist = distributed_history(
            mat, b, DistributedCg, num_ranks=4
        )
        pipelined, phist, px, pdist = distributed_history(
            mat, b, DistributedPipelinedCg, num_ranks=4
        )
        assert blocking.converged and pipelined.converged
        # One fused reduction per pass vs >= 3 for blocking CG.
        assert (
            pdist.comm.num_all_reduces
            < bdist.comm.num_all_reduces / 2
        )
        # Pipeline depth 1: at most a couple of extra passes.
        assert (
            abs(pipelined.num_iterations - blocking.num_iterations) <= 2
        )
        # Tolerance-pinned relaxed contract over the shared prefix.
        m = min(len(phist), len(bhist))
        np.testing.assert_allclose(
            phist[:m], bhist[:m], rtol=PIPELINED_HISTORY_RTOL
        )
        # Both solutions actually solve the system.
        for sol in (bx, px):
            res = np.linalg.norm(mat @ sol[:, 0] - b)
            assert res / np.linalg.norm(b) < 1e-8

    def test_reduction_is_overlapped(self, rng):
        mat = spd_matrix(rng)
        b = rng.standard_normal(mat.shape[0])
        ex = OmpExecutor.create(num_threads=4, noisy=False)
        part = Partition.build_uniform(mat.shape[0], 4)
        dist = Matrix(ex, part, mat, network=ETHERNET_CLUSTER)
        db = Vector(ex, part, b, comm=dist.comm)
        dx = Vector.zeros(ex, part, comm=dist.comm)
        solver = DistributedPipelinedCg(ex, criteria=crit()).generate(dist)
        solver.apply(db, dx)
        assert solver.converged
        assert dist.comm.comm_hidden_seconds > 0.0
        assert dist.comm.num_posted == solver.num_iterations + 1

    def test_deterministic_across_runs(self, rng):
        mat = spd_matrix(rng)
        b = np.random.default_rng(7).standard_normal(mat.shape[0])
        runs = [
            distributed_history(
                mat, b, DistributedPipelinedCg, num_ranks=4
            )[1:3]
            for _ in range(2)
        ]
        assert np.asarray(runs[0][0]).tobytes() == np.asarray(
            runs[1][0]
        ).tobytes()
        assert runs[0][1].tobytes() == runs[1][1].tobytes()


# ----------------------------------------------------------------------
# pg.distributed API
# ----------------------------------------------------------------------
class TestDistributedApi:
    def test_end_to_end_cg(self, rng):
        dev = pg.device("omp", fresh=True, num_threads=4)
        mat = spd_matrix(rng)
        n = mat.shape[0]
        b = rng.standard_normal(n)
        part = pg.distributed.partition(n, 4)
        dA = pg.distributed.matrix(dev, part, mat)
        db = pg.distributed.vector(dev, part, b, comm=dA.comm)
        dx = pg.distributed.zeros_like(db)
        solver = pg.distributed.cg(dev, dA, reduction_factor=1e-10)
        logger, x = solver.apply(db, dx)
        assert x is dx
        assert solver.converged
        assert solver.num_iterations == len(logger.residual_norms) - 1
        assert solver.final_residual_norm < 1e-6
        residual = np.linalg.norm(
            mat @ x.to_numpy()[:, 0] - b
        ) / np.linalg.norm(b)
        assert residual < 1e-8

    def test_rank_count_shorthand_and_weights(self, rng):
        dev = pg.device("omp", fresh=True, num_threads=2)
        mat = spd_matrix(rng, n=90)
        dA = pg.distributed.matrix(dev, 3, mat)
        assert dA.partition.num_ranks == 3
        nnz_per_row = np.diff(mat.indptr)
        part = pg.distributed.partition(90, 3, weights=nnz_per_row)
        assert part.num_ranks == 3
        assert part.global_size == 90

    def test_handle_rejects_dense(self, rng):
        dev = pg.device("omp", fresh=True, num_threads=2)
        mat = spd_matrix(rng, n=40)
        dA = pg.distributed.matrix(dev, 2, mat)
        solver = pg.distributed.cg(dev, dA)
        with pytest.raises(GinkgoError):
            solver.apply(np.ones(40), np.zeros(40))

    def test_binding_symbols_exist(self):
        from repro.bindings.registry import binding_names

        names = binding_names()
        assert "distributed_cg_factory_double" in names
        assert "distributed_gmres_factory_float" in names
        assert "distributed_matrix_double_int32" in names
        assert "distributed_vector_double" in names
        assert "distributed_pipelined_cg_factory_double" in names

    def test_handle_reports_comm_stats(self, rng):
        dev = pg.device("omp", fresh=True, num_threads=4)
        mat = spd_matrix(rng)
        n = mat.shape[0]
        b = rng.standard_normal(n)
        part = pg.distributed.partition(n, 4)
        dA = pg.distributed.matrix(
            dev, part, mat, overlap=True, network=ETHERNET_CLUSTER
        )
        db = pg.distributed.vector(dev, part, b, comm=dA.comm)
        dx = pg.distributed.zeros_like(db)
        solver = pg.distributed.pipelined_cg(
            dev, dA, reduction_factor=1e-10
        )
        assert solver.comm_time == 0.0  # nothing before the first apply
        solver.apply(db, dx)
        assert solver.converged
        assert solver.comm_time > 0.0
        assert solver.comm_hidden_time > 0.0
        assert solver.comm_hidden_time <= solver.comm_time
        # One fused reduction per pass (iterations + 1 at pipeline
        # depth 1) plus the setup norms — nowhere near blocking CG's
        # three per iteration.
        assert (
            solver.num_iterations + 1
            <= solver.num_reductions
            <= solver.num_iterations + 3
        )
        res = np.linalg.norm(mat @ dx.to_numpy()[:, 0] - b)
        assert res / np.linalg.norm(b) < 1e-8

    def test_handle_stats_are_per_apply_deltas(self, rng):
        dev = pg.device("omp", fresh=True, num_threads=2)
        mat = spd_matrix(rng, n=80)
        b = rng.standard_normal(80)
        part = pg.distributed.partition(80, 4)
        dA = pg.distributed.matrix(dev, part, mat)
        db = pg.distributed.vector(dev, part, b, comm=dA.comm)
        solver = pg.distributed.cg(dev, dA, reduction_factor=1e-10)
        solver.apply(db, pg.distributed.zeros_like(db))
        first = (solver.comm_time, solver.num_reductions)
        solver.apply(db, pg.distributed.zeros_like(db))
        # Same solve again: the stats describe one apply, not the total.
        assert solver.comm_time == pytest.approx(first[0])
        assert solver.num_reductions == first[1]
        # Blocking CG hides nothing.
        assert solver.comm_hidden_time == 0.0


class TestSequentialRanksMode:
    """The benchmark baseline: per-rank dispatch, rank-ordered reductions."""

    def test_elementwise_results_unchanged(self, ref, rng):
        from repro.ginkgo.distributed import sequential_ranks

        part = Partition.build_uniform(40, 4)
        a = rng.standard_normal(40)
        vec = Vector(ref, part, a)
        other = Vector(ref, part, np.ones(40), comm=vec.comm)
        with sequential_ranks():
            vec.add_scaled(2.0, other)
        np.testing.assert_array_equal(vec.view()[:, 0], a + 2.0)

    def test_reductions_close_but_rank_ordered(self, ref, rng):
        from repro.ginkgo.distributed import sequential_ranks

        part = Partition.build_uniform(1000, 4)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000)
        va = Vector(ref, part, a)
        vb = Vector(ref, part, b, comm=va.comm)
        fused = va.compute_dot(vb)
        with sequential_ranks():
            sequential = va.compute_dot(vb)
        np.testing.assert_allclose(sequential, fused, rtol=1e-12)

    def test_solve_converges_and_mode_restores(self, ref, rng):
        from repro.ginkgo.distributed import sequential_ranks
        from repro.ginkgo.distributed import vector as vector_mod

        mat = spd_matrix(rng, n=80)
        b = rng.standard_normal(80)
        with sequential_ranks():
            solver, hist, x, _ = distributed_history(
                mat, b, DistributedCg, num_ranks=4, exec_=ref
            )
        assert solver.converged
        assert not vector_mod._SEQUENTIAL_RANKS
        residual = np.linalg.norm(mat @ x[:, 0] - b) / np.linalg.norm(b)
        assert residual < 1e-8

    def test_charges_per_rank_records(self, ref, rng):
        from repro.ginkgo.distributed import sequential_ranks

        part = Partition.build_uniform(40, 4)
        vec = Vector(ref, part, rng.standard_normal(40))
        import repro as pg

        dev = pg.device("omp", fresh=True, num_threads=1)
        v = pg.distributed.vector(dev, part, rng.standard_normal(40))
        with pg.profile(dev) as prof:
            v.scale(2.0)
            with sequential_ranks():
                v.scale(2.0)
        leaves = [s for s in prof.trace.walk() if s.name == "scale"]
        # One fused record, then one record per rank.
        assert len(leaves) == 1 + part.num_ranks
