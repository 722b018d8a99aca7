"""ParILU fixed-point factorisation and CSV-export tests."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bench.export import load_series_csv, save_rows_csv, save_series_csv
from repro.ginkgo import BadDimension
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.factorization import ilu0, parilu
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.solver import Gmres
from repro.ginkgo.stop import Iteration, ResidualNorm
from repro.suitesparse.generators import banded


def _dict_parilu(a, sweeps):
    """Reference ParILU: the Jacobi fixed-point sweep over row dicts."""
    n = a.shape[0]
    entries = [
        [(int(a.indices[p]), float(a.data[p]))
         for p in range(a.indptr[i], a.indptr[i + 1])]
        for i in range(n)
    ]
    l_rows = [{j: v for j, v in r if j < i} for i, r in enumerate(entries)]
    u_rows = [{j: v for j, v in r if j >= i} for i, r in enumerate(entries)]
    for _ in range(sweeps):
        new_l, new_u = [dict() for _ in range(n)], [dict() for _ in range(n)]
        for i, row in enumerate(entries):
            for j, s in row:
                for k, lik in l_rows[i].items():
                    if k < min(i, j) and j in u_rows[k]:
                        s -= lik * u_rows[k][j]
                if i > j:
                    ujj = u_rows[j][j]
                    new_l[i][j] = s / ujj if ujj != 0.0 else 0.0
                else:
                    new_u[i][j] = s
        l_rows, u_rows = new_l, new_u
    lower, upper = np.eye(n), np.zeros((n, n))
    for i in range(n):
        for j, v in l_rows[i].items():
            lower[i, j] = v
        for j, v in u_rows[i].items():
            upper[i, j] = v
    return lower, upper


class TestParIlu:
    def test_converges_to_exact_ilu0(self, ref, general_small):
        mtx = Csr.from_scipy(ref, general_small)
        exact = ilu0(mtx)
        approx = parilu(mtx, sweeps=15)
        np.testing.assert_allclose(
            approx.l_factor.to_scipy().toarray(),
            exact.l_factor.to_scipy().toarray(),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            approx.u_factor.to_scipy().toarray(),
            exact.u_factor.to_scipy().toarray(),
            atol=1e-10,
        )

    def test_error_decreases_with_sweeps(self, ref, general_small):
        mtx = Csr.from_scipy(ref, general_small)
        exact = ilu0(mtx).u_factor.to_scipy().toarray()
        errors = []
        for sweeps in (1, 3, 6):
            approx = parilu(mtx, sweeps=sweeps)
            errors.append(
                np.abs(approx.u_factor.to_scipy().toarray() - exact).max()
            )
        assert errors[0] > errors[1] > errors[2]

    def test_pattern_preserved(self, ref, general_small):
        mtx = Csr.from_scipy(ref, general_small)
        fact = parilu(mtx, sweeps=3)
        assert fact.l_factor.nnz + fact.u_factor.nnz == (
            general_small.nnz + general_small.shape[0]
        )  # + unit diagonal stored in L

    def test_l_unit_diagonal(self, ref, general_small):
        fact = parilu(Csr.from_scipy(ref, general_small), sweeps=2)
        np.testing.assert_allclose(
            fact.l_factor.to_scipy().diagonal(), 1.0
        )

    def test_few_sweeps_still_precondition(self, ref, general_small):
        # Even an inexact ParILU (3 sweeps) accelerates GMRES, the whole
        # point of the fixed-point construction.
        from repro.ginkgo.preconditioner import Ilu

        mtx = Csr.from_scipy(ref, general_small)
        precond = Ilu(ref, algorithm="parilu", sweeps=3).generate(mtx)
        assert precond.factorization.sweeps == 3

        def iterations(p):
            solver = Gmres(
                ref, criteria=Iteration(400) | ResidualNorm(1e-9),
                preconditioner=p,
            ).generate(mtx)
            b = Dense.full(ref, (mtx.size.rows, 1), 1.0, np.float64)
            x = Dense.zeros(ref, (mtx.size.rows, 1), np.float64)
            solver.apply(b, x)
            assert solver.converged
            return solver.num_iterations

        assert iterations(precond) < iterations(None)

    def test_validation(self, ref, rect_small, general_small):
        with pytest.raises(BadDimension):
            parilu(Csr.from_scipy(ref, rect_small))
        with pytest.raises(GinkgoError, match="sweeps"):
            parilu(Csr.from_scipy(ref, general_small), sweeps=0)

    def test_sweeps_recorded(self, ref, general_small):
        fact = parilu(Csr.from_scipy(ref, general_small), sweeps=4)
        assert fact.sweeps == 4

    @pytest.mark.parametrize("sweeps", [1, 2, 5])
    @pytest.mark.parametrize("system", ["general_small", "banded"])
    def test_spgemm_sweep_matches_dict_sweep(
        self, ref, general_small, system, sweeps
    ):
        # One masked SpGEMM per sweep sums each l_ik u_kj product in a
        # different order than the row-dict loop: equal up to rounding.
        a = general_small if system == "general_small" else banded(64, 4)
        fact = parilu(Csr.from_scipy(ref, a), sweeps=sweeps)
        want_l, want_u = _dict_parilu(a, sweeps)
        for got, want in (
            (fact.l_factor, want_l), (fact.u_factor, want_u),
        ):
            scale = 4 * np.finfo(np.float64).eps * np.abs(want).max()
            np.testing.assert_allclose(
                got.to_scipy().toarray(), want, rtol=0, atol=scale
            )

    def test_missing_diagonal_raises(self, ref):
        mat = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        mat.eliminate_zeros()
        with pytest.raises(GinkgoError, match="row 1 has no diagonal"):
            parilu(Csr.from_scipy(ref, mat))


class TestCsvExport:
    def test_series_roundtrip(self, tmp_path):
        result = {
            "series": {
                "a": [(1.0, 2.0), (2.0, 4.0)],
                "b": [(1.0, 3.0)],
            }
        }
        path = tmp_path / "series.csv"
        save_series_csv(result, path)
        back = load_series_csv(path)
        assert back["a"] == [(1.0, 2.0), (2.0, 4.0)]
        assert back["b"] == [(1.0, 3.0)]

    def test_rows_export(self, tmp_path):
        result = {"rows": [(1, "x", 2.5), (2, "y", 3.5)]}
        path = tmp_path / "rows.csv"
        save_rows_csv(result, ["id", "name", "value"], path)
        text = path.read_text()
        assert text.splitlines()[0] == "id,name,value"
        assert "1,x,2.5" in text

    def test_missing_keys_raise(self, tmp_path):
        with pytest.raises(ValueError):
            save_series_csv({}, tmp_path / "x.csv")
        with pytest.raises(ValueError):
            save_rows_csv({}, ["a"], tmp_path / "y.csv")

    def test_export_real_figure(self, tmp_path):
        from repro.bench import fig3c_solver_gpu
        from repro.suitesparse import solver_suite

        result = fig3c_solver_gpu(
            solver_suite(count=2, min_nnz=2e4, max_nnz=5e4), iterations=10
        )
        path = tmp_path / "fig3c.csv"
        save_series_csv(result, path)
        back = load_series_csv(path)
        assert set(back) == {"CG", "CGS", "GMRES"}
        assert all(len(points) == 2 for points in back.values())
