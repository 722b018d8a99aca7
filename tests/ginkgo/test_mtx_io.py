"""MatrixMarket I/O tests."""

import io

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ginkgo.matrix import Csr
from repro.ginkgo.mtx_io import (
    WRITE_CHUNK,
    MtxError,
    read_mtx,
    read_mtx_string,
    write_mtx,
)


def _roundtrip(matrix, **kwargs) -> sp.coo_matrix:
    buf = io.StringIO()
    write_mtx(buf, matrix, **kwargs)
    return read_mtx_string(buf.getvalue())


class TestRead:
    def test_coordinate_general(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "3 4 2\n"
            "1 1 2.5\n"
            "3 4 -1.0\n"
        )
        mat = read_mtx_string(text)
        assert mat.shape == (3, 4)
        assert mat.nnz == 2
        assert mat.tocsr()[0, 0] == 2.5
        assert mat.tocsr()[2, 3] == -1.0

    def test_symmetric_expansion(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n"
            "1 1 1.0\n"
            "2 1 5.0\n"
            "3 3 2.0\n"
        )
        dense = read_mtx_string(text).toarray()
        assert dense[0, 1] == 5.0
        assert dense[1, 0] == 5.0
        np.testing.assert_allclose(dense, dense.T)

    def test_skew_symmetric(self):
        text = (
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n"
            "2 1 3.0\n"
        )
        dense = read_mtx_string(text).toarray()
        assert dense[1, 0] == 3.0
        assert dense[0, 1] == -3.0

    def test_pattern_field(self):
        text = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n1 1\n2 2\n"
        )
        mat = read_mtx_string(text)
        np.testing.assert_array_equal(mat.toarray(), np.eye(2))

    def test_integer_field(self):
        text = (
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 1\n1 2 7\n"
        )
        assert read_mtx_string(text).tocsr()[0, 1] == 7

    def test_array_format_column_major(self):
        text = (
            "%%MatrixMarket matrix array real general\n"
            "2 2\n1.0\n2.0\n3.0\n4.0\n"
        )
        np.testing.assert_array_equal(
            read_mtx_string(text).toarray(), [[1.0, 3.0], [2.0, 4.0]]
        )

    def test_array_symmetric(self):
        text = (
            "%%MatrixMarket matrix array real symmetric\n"
            "2 2\n1.0\n2.0\n3.0\n"
        )
        np.testing.assert_array_equal(
            read_mtx_string(text).toarray(), [[1.0, 2.0], [2.0, 3.0]]
        )


class TestReadBulkAndScanAgree:
    """The entry lines go through one bulk conversion, or — when any line
    needs a closer look — through the line-by-line scan.  Both read a
    file the same way; these bodies sit on either side of that switch."""

    HEADER = "%%MatrixMarket matrix coordinate real general\n3 3 3\n"
    WANT = [[1.5, 0.0, 0.0], [0.0, 0.0, -2.0], [0.0, 1e-300, 0.0]]

    @pytest.mark.parametrize("body", [
        "1 1 1.5\n2 3 -2\n3 2 1e-300\n",
        "1 1 1.5 trailing tokens 9\n2 3 -2 % not a comment here\n3 2 1e-300 0\n",
        "1 1 1.5\n% interleaved\n\n2 3 -2\n   \n%\n3 2 1e-300\n\n",
        "1 1 1.5\r\n2 3 -2\r\n3 2 1e-300\r\n",
        "  1\t1   1.5  \n+2 3 -2.\n3 2 1E-300",
        "1 1 1_5e-1\n0_2 3 -2\n3 2 1e-300\n",  # int()/float() spellings
    ], ids=["plain", "extra_tokens", "comments_and_blanks", "crlf",
            "whitespace_no_final_newline", "python_only_spellings"])
    def test_same_matrix(self, body):
        mat = read_mtx_string(self.HEADER + body)
        assert mat.data.dtype == np.float64
        np.testing.assert_array_equal(mat.toarray(), self.WANT)

    def test_pattern_symmetric_with_noise(self):
        mat = read_mtx_string(
            "%%MatrixMarket matrix coordinate pattern symmetric\r\n"
            "% header comment\r\n"
            "3 3 3\r\n1 1\r\n\r\n2 1 ignored\r\n% mid\r\n3 2\r\n"
        )
        np.testing.assert_array_equal(
            mat.toarray(), [[1, 1, 0], [1, 0, 1], [0, 1, 0]]
        )

    def test_integer_field_values_are_float64(self):
        mat = read_mtx_string(
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 2\n1 1 7\n2 2 -3 extra\n"
        )
        assert mat.data.dtype == np.float64
        np.testing.assert_array_equal(mat.toarray(), [[7, 0], [0, -3]])

    def test_special_values_survive(self):
        mat = read_mtx_string(
            "%%MatrixMarket matrix coordinate real general\n"
            "1 4 4\n1 1 -0.0\n1 2 inf\n1 3 nan\n1 4 1e400\n"
        )
        assert np.signbit(mat.data[0]) and mat.data[0] == 0.0
        assert mat.data[1] == np.inf and np.isnan(mat.data[2])
        assert mat.data[3] == np.inf

    @pytest.mark.parametrize("body, message", [
        ("1 1 1.5\n2.0 3 -2\n3 2 1\n", "entry row index.*'2.0'"),
        ("1 1 1.5\n2 3e0 -2\n3 2 1\n", "entry column index.*'3e0'"),
        ("1 1 1.5\n2 3 -2\n% c\n3 2 1,5\n", "entry value.*'1,5'"),
        ("1 1 1.5\n2 3\n3 2 1\n", "malformed entry: '2 3'"),
        ("1 1 1.5\n2 3 -2\n3 2 1\n1 2 9 9\n", "more than the declared 3"),
        ("1 1 1.5\n2 3 -2 3 2 1\n", "declared 3 entries but found 2"),
    ])
    def test_refused_lines_raise_the_scan_errors(self, body, message):
        with pytest.raises(MtxError, match=message):
            read_mtx_string(self.HEADER + body)


class TestReadErrors:
    def test_not_matrixmarket(self):
        with pytest.raises(MtxError, match="not a MatrixMarket"):
            read_mtx_string("garbage\n1 1 1\n")

    def test_unsupported_field(self):
        with pytest.raises(MtxError, match="field"):
            read_mtx_string(
                "%%MatrixMarket matrix coordinate complex general\n1 1 1\n"
                "1 1 1.0 0.0\n"
            )

    def test_unsupported_symmetry(self):
        with pytest.raises(MtxError, match="symmetry"):
            read_mtx_string(
                "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n"
            )

    def test_wrong_entry_count(self):
        with pytest.raises(MtxError, match="declared 2"):
            read_mtx_string(
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 2\n1 1 1.0\n"
            )

    def test_out_of_range_indices(self):
        with pytest.raises(MtxError, match="outside"):
            read_mtx_string(
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n5 1 1.0\n"
            )

    def test_malformed_entry(self):
        with pytest.raises(MtxError, match="malformed entry"):
            read_mtx_string(
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n1 1\n"
            )

    def test_missing_size_line(self):
        with pytest.raises(MtxError, match="size"):
            read_mtx_string(
                "%%MatrixMarket matrix coordinate real general\n% only\n"
            )

    def test_non_numeric_size_line(self):
        with pytest.raises(MtxError, match="expected an integer"):
            read_mtx_string(
                "%%MatrixMarket matrix coordinate real general\n"
                "two 2 1\n1 1 1.0\n"
            )

    def test_negative_dimensions(self):
        with pytest.raises(MtxError, match="negative"):
            read_mtx_string(
                "%%MatrixMarket matrix coordinate real general\n"
                "-2 2 1\n1 1 1.0\n"
            )

    def test_non_numeric_entry_index(self):
        with pytest.raises(MtxError, match="row index"):
            read_mtx_string(
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\nx 1 1.0\n"
            )

    def test_non_numeric_entry_value(self):
        with pytest.raises(MtxError, match="entry value"):
            read_mtx_string(
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n1 1 abc\n"
            )

    def test_excess_entries(self):
        with pytest.raises(MtxError, match="more than the declared"):
            read_mtx_string(
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n1 1 1.0\n2 2 2.0\n"
            )

    def test_array_non_numeric_value(self):
        with pytest.raises(MtxError, match="array value"):
            read_mtx_string(
                "%%MatrixMarket matrix array real general\n2 1\n1.0\nnope\n"
            )

    def test_array_malformed_size_line(self):
        with pytest.raises(MtxError, match="array size"):
            read_mtx_string(
                "%%MatrixMarket matrix array real general\n2\n1.0\n2.0\n"
            )

    def test_zero_index_rejected(self):
        # MatrixMarket is 1-based; an index of 0 lands outside after shift.
        with pytest.raises(MtxError, match="outside"):
            read_mtx_string(
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n0 1 1.0\n"
            )


class TestWrite:
    def test_roundtrip_random(self, rng):
        mat = sp.random(
            17, 23, density=0.2, format="coo", random_state=rng
        )
        back = _roundtrip(mat)
        assert (abs(mat - back)).max() < 1e-14

    def test_roundtrip_preserves_precision(self):
        mat = sp.coo_matrix(np.array([[1.0 / 3.0]]))
        back = _roundtrip(mat)
        assert back.toarray()[0, 0] == 1.0 / 3.0

    def test_symmetric_write_halves_entries(self, rng):
        half = sp.random(10, 10, density=0.2, format="csr", random_state=rng)
        mat = half + half.T
        buf = io.StringIO()
        write_mtx(buf, mat, symmetry="symmetric")
        assert "symmetric" in buf.getvalue().splitlines()[0]
        back = read_mtx_string(buf.getvalue())
        assert (abs(mat - back)).max() < 1e-14

    def test_write_engine_matrix(self, ref, general_small):
        mat = Csr.from_scipy(ref, general_small)
        buf = io.StringIO()
        write_mtx(buf, mat, comment="engine matrix")
        back = read_mtx_string(buf.getvalue())
        assert (abs(general_small - back)).max() < 1e-14

    def test_write_dense_array(self):
        buf = io.StringIO()
        write_mtx(buf, np.array([[1.0, 0.0], [0.0, 2.0]]))
        back = read_mtx_string(buf.getvalue())
        np.testing.assert_array_equal(back.toarray(), [[1, 0], [0, 2]])

    def test_write_to_path(self, tmp_path, rng):
        mat = sp.random(5, 5, density=0.4, random_state=rng)
        path = tmp_path / "out.mtx"
        write_mtx(path, mat)
        back = read_mtx(path)
        assert (abs(mat - back)).max() < 1e-14

    def test_invalid_symmetry(self):
        with pytest.raises(MtxError):
            write_mtx(io.StringIO(), np.eye(2), symmetry="hermitian")

    def test_output_pinned_byte_for_byte(self):
        """Indices 1-based in storage order, values as ``repr`` of the
        exact float64 — shortest round-trip digits, signed zero kept."""
        mat = sp.coo_matrix(
            ([0.1, -0.0, 1e-300, 1e22, -1.0 / 3.0],
             ([0, 0, 1, 2, 2], [0, 3, 1, 2, 0])),
            shape=(3, 4),
        )
        buf = io.StringIO()
        write_mtx(buf, mat, comment="pinned")
        assert buf.getvalue() == (
            "%%MatrixMarket matrix coordinate real general\n"
            "% pinned\n"
            "3 4 5\n"
            "1 1 0.1\n"
            "1 4 -0.0\n"
            "2 2 1e-300\n"
            "3 3 1e+22\n"
            "3 1 -0.3333333333333333\n"
        )

    def test_float32_written_as_exact_float64(self):
        values = np.array([0.1, 1.0 / 3.0, 16777216.0], dtype=np.float32)
        mat = sp.coo_matrix((values, ([0, 1, 2], [0, 1, 2])), shape=(3, 3))
        buf = io.StringIO()
        write_mtx(buf, mat)
        assert buf.getvalue().splitlines()[2:] == [
            "1 1 0.10000000149011612",
            "2 2 0.3333333432674408",
            "3 3 16777216.0",
        ]
        back = read_mtx_string(buf.getvalue())
        np.testing.assert_array_equal(back.data.astype(np.float32), values)

    def test_chunked_write_equals_entry_by_entry(self, rng):
        """The writer formats ``WRITE_CHUNK`` entries per write; the
        text is what one ``f"{i + 1} {j + 1} {float(v)!r}"`` per entry
        gives, across the chunk boundaries."""
        nnz = 2 * WRITE_CHUNK + 3
        mat = sp.coo_matrix(
            (rng.standard_normal(nnz),
             (rng.integers(0, 500, nnz), rng.integers(0, 700, nnz))),
            shape=(500, 700),
        )
        buf = io.StringIO()
        write_mtx(buf, mat)
        want = "".join(
            f"{i + 1} {j + 1} {float(v)!r}\n"
            for i, j, v in zip(mat.row, mat.col, mat.data)
        )
        assert buf.getvalue().split("\n", 2)[2] == want

    def test_empty_matrix_writes_header_only(self):
        buf = io.StringIO()
        write_mtx(buf, sp.coo_matrix((2, 3)))
        assert buf.getvalue() == (
            "%%MatrixMarket matrix coordinate real general\n2 3 0\n"
        )
        assert read_mtx_string(buf.getvalue()).nnz == 0

    def test_comment_written(self):
        buf = io.StringIO()
        write_mtx(buf, np.eye(2), comment="line one\nline two")
        lines = buf.getvalue().splitlines()
        assert lines[1] == "% line one"
        assert lines[2] == "% line two"


class TestExecutorAwareRead:
    """read_mtx_string places the matrix on an executor when given one."""

    TEXT = (
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 4\n"
        "1 1 2.0\n"
        "2 2 3.0\n"
        "3 3 4.0\n"
        "3 1 -1.0\n"
    )

    def test_returns_raw_coo_without_executor(self):
        coo = read_mtx_string(self.TEXT)
        assert sp.issparse(coo)
        assert coo.format == "coo"

    def test_returns_csr_linop_on_executor(self, ref):
        mat = read_mtx_string(self.TEXT, exec_=ref)
        assert isinstance(mat, Csr)
        assert mat.executor is ref
        assert mat.size.rows == 3
        expected = read_mtx_string(self.TEXT).toarray()
        np.testing.assert_array_equal(mat.to_scipy().toarray(), expected)

    def test_returns_coo_linop_and_dtypes(self, ref):
        from repro.ginkgo.matrix import Coo

        mat = read_mtx_string(
            self.TEXT,
            exec_=ref,
            format="coo",
            value_dtype=np.float32,
            index_dtype=np.int64,
        )
        assert isinstance(mat, Coo)
        assert mat.dtype == np.float32
        assert mat.index_dtype == np.int64

    def test_pattern_symmetric_header(self, ref):
        text = (
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 3\n"
            "1 1\n"
            "2 1\n"
            "3 2\n"
        )
        mat = read_mtx_string(text, exec_=ref)
        assert isinstance(mat, Csr)
        dense = mat.to_scipy().toarray()
        expected = np.array(
            [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        )
        np.testing.assert_array_equal(dense, expected)

    def test_integer_field_header(self, ref):
        text = (
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 3\n"
            "1 1 5\n"
            "2 2 -7\n"
            "2 1 3\n"
        )
        mat = read_mtx_string(text, exec_=ref)
        dense = mat.to_scipy().toarray()
        np.testing.assert_array_equal(
            dense, np.array([[5.0, 0.0], [3.0, -7.0]])
        )

    def test_unknown_target_format(self, ref):
        with pytest.raises(MtxError, match="unsupported target format"):
            read_mtx_string(self.TEXT, exec_=ref, format="ell")
