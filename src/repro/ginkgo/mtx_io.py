"""MatrixMarket I/O (the paper's ``pg.read`` loads ``.mtx`` files).

A self-contained MatrixMarket reader/writer supporting the coordinate and
array formats, real/integer/pattern fields, and general/symmetric/
skew-symmetric symmetries — the subset covering the SuiteSparse collection
the paper benchmarks on.
"""

from __future__ import annotations

import io
import os
import warnings

import numpy as np
import scipy.sparse as sp

from repro.ginkgo.exceptions import GinkgoError

HEADER_PREFIX = "%%MatrixMarket"
FORMATS = ("coordinate", "array")
FIELDS = ("real", "integer", "pattern")
SYMMETRIES = ("general", "symmetric", "skew-symmetric")
#: Entries formatted per ``write``: keeps the writer's transient lists and
#: text at a few MiB whatever the matrix size.
WRITE_CHUNK = 1 << 14


class MtxError(GinkgoError):
    """Malformed MatrixMarket content.

    Every malformed-input failure mode (truncated header, non-numeric
    tokens, entry-count mismatches, out-of-range indices) surfaces as this
    GinkgoError subclass — never as a raw ``ValueError``/``IndexError``.
    """


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise MtxError(f"malformed {what}: expected an integer, "
                       f"got {token!r}") from exc


def _float(token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise MtxError(f"malformed {what}: expected a number, "
                       f"got {token!r}") from exc


def read_mtx(path_or_file) -> sp.coo_matrix:
    """Read a MatrixMarket file into a SciPy COO matrix.

    Args:
        path_or_file: Filesystem path or readable text file object.

    Returns:
        The matrix as ``scipy.sparse.coo_matrix`` (float64 values; pattern
        matrices get value 1.0 everywhere; symmetric storage is expanded).
    """
    if hasattr(path_or_file, "read"):
        return _read_stream(path_or_file)
    with open(os.fspath(path_or_file), "r", encoding="utf-8") as handle:
        return _read_stream(handle)


def _read_stream(stream) -> sp.coo_matrix:
    if not (hasattr(stream, "seekable") and stream.seekable()):
        stream = io.StringIO(stream.read())  # entry lines may be read twice
    header = stream.readline()
    if not header.startswith(HEADER_PREFIX):
        raise MtxError(
            f"not a MatrixMarket file: header starts with {header[:30]!r}"
        )
    tokens = header.strip().split()
    if len(tokens) < 5 or tokens[1] != "matrix":
        raise MtxError(f"malformed MatrixMarket header: {header.strip()!r}")
    fmt, field, symmetry = tokens[2], tokens[3], tokens[4]
    if fmt not in FORMATS:
        raise MtxError(f"unsupported format {fmt!r}; supported: {FORMATS}")
    if field not in FIELDS:
        raise MtxError(f"unsupported field {field!r}; supported: {FIELDS}")
    if symmetry not in SYMMETRIES:
        raise MtxError(
            f"unsupported symmetry {symmetry!r}; supported: {SYMMETRIES}"
        )

    # Skip comments and blank lines to the size line.
    line = stream.readline()
    while line and (line.startswith("%") or not line.strip()):
        line = stream.readline()
    if not line:
        raise MtxError("missing size line")

    if fmt == "coordinate":
        return _read_coordinate(stream, line, field, symmetry)
    return _read_array(stream, line, field, symmetry)


def _read_coordinate(stream, size_line, field, symmetry) -> sp.coo_matrix:
    parts = size_line.split()
    if len(parts) != 3:
        raise MtxError(f"malformed coordinate size line: {size_line.strip()!r}")
    rows, cols, nnz = (_int(p, "size line") for p in parts)
    if rows < 0 or cols < 0 or nnz < 0:
        raise MtxError(
            f"negative dimensions in size line: {size_line.strip()!r}"
        )
    start = stream.tell()
    entries = _parse_entries(stream, field)
    if entries is None or entries[0].size != nnz:
        # Anything the bulk parser refused or miscounted is re-read line
        # by line, which accepts what Python's int()/float() accept and
        # raises the specific MtxError otherwise.
        stream.seek(start)
        entries = _scan_entries(stream, nnz, field)
    r, c, v = entries
    r -= 1  # MatrixMarket is 1-based
    c -= 1
    if np.any(r < 0) or np.any(c < 0) or np.any(r >= rows) or np.any(c >= cols):
        raise MtxError("entry indices outside the declared dimensions")

    if symmetry in ("symmetric", "skew-symmetric"):
        # Mirror the off-diagonal entries into the upper triangle.
        off = r != c
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        r, c, v = (
            np.concatenate([r, c[off]]),
            np.concatenate([c, r[off]]),
            np.concatenate([v, sign * v[off]]),
        )
    return sp.coo_matrix((v, (r, c)), shape=(rows, cols))


def _parse_entries(stream, field: str):
    """Bulk-convert the entry lines; ``None`` when any line needs a closer look.

    One compiled pass over the rest of the stream, read in bounded
    chunks: ``np.loadtxt`` tokenises on whitespace, converts the first
    two tokens of each line to ``int64`` and the third to ``float64``,
    skips blank lines and ignores trailing tokens — the reading
    :func:`_scan_entries` gives a well-formed line.  Comment lines, short
    lines and non-numeric tokens make it raise (and an empty body warn),
    which sends the caller to the line scan.
    """
    fields = [("row", np.int64), ("col", np.int64), ("value", np.float64)]
    if field == "pattern":
        del fields[2]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                stream,
                dtype=fields,
                comments=None,
                usecols=range(len(fields)),
                ndmin=1,
            )
    except (ValueError, Warning):
        return None
    values = np.ones(table.size) if field == "pattern" else table["value"]
    return (
        np.ascontiguousarray(table["row"]),
        np.ascontiguousarray(table["col"]),
        np.ascontiguousarray(values),
    )


def _scan_entries(stream, nnz: int, field: str):
    """Entry-by-entry reader: the reference semantics and every error."""
    r = np.empty(nnz, dtype=np.int64)
    c = np.empty(nnz, dtype=np.int64)
    v = np.empty(nnz, dtype=np.float64)
    count = 0
    for line in stream:
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        entry = line.split()
        if count >= nnz:
            raise MtxError(f"more than the declared {nnz} entries")
        if field == "pattern":
            if len(entry) < 2:
                raise MtxError(f"malformed pattern entry: {line!r}")
            r[count] = _int(entry[0], "entry row index")
            c[count] = _int(entry[1], "entry column index")
            v[count] = 1.0
        else:
            if len(entry) < 3:
                raise MtxError(f"malformed entry: {line!r}")
            r[count] = _int(entry[0], "entry row index")
            c[count] = _int(entry[1], "entry column index")
            v[count] = _float(entry[2], "entry value")
        count += 1
    if count != nnz:
        raise MtxError(f"declared {nnz} entries but found {count}")
    return r, c, v


def _read_array(stream, size_line, field, symmetry) -> sp.coo_matrix:
    parts = size_line.split()
    if len(parts) != 2:
        raise MtxError(f"malformed array size line: {size_line.strip()!r}")
    rows, cols = (_int(p, "size line") for p in parts)
    if rows < 0 or cols < 0:
        raise MtxError(
            f"negative dimensions in size line: {size_line.strip()!r}"
        )
    values = []
    for line in stream:
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        values.append(_float(line.split()[0], "array value"))
    dense = np.zeros((rows, cols))
    if symmetry == "general":
        if len(values) != rows * cols:
            raise MtxError(
                f"array matrix declared {rows * cols} values, got {len(values)}"
            )
        dense = np.asarray(values).reshape((cols, rows)).T  # column-major
    else:
        expected = rows * (rows + 1) // 2
        if len(values) != expected:
            raise MtxError(
                f"symmetric array matrix declared {expected} values, "
                f"got {len(values)}"
            )
        index = 0
        for j in range(cols):
            for i in range(j, rows):
                dense[i, j] = values[index]
                if i != j:
                    dense[j, i] = (
                        -values[index]
                        if symmetry == "skew-symmetric"
                        else values[index]
                    )
                index += 1
    return sp.coo_matrix(dense)


def write_mtx(path_or_file, matrix, symmetry: str = "general", comment: str = "") -> None:
    """Write a matrix to MatrixMarket coordinate format.

    Args:
        path_or_file: Destination path or writable text file object.
        matrix: SciPy sparse matrix, engine sparse matrix, or 2-D array.
        symmetry: ``general`` (default) writes all entries; ``symmetric``
            writes only the lower triangle (caller asserts symmetry).
        comment: Optional comment line(s) written after the header.
    """
    if symmetry not in ("general", "symmetric"):
        raise MtxError(f"unsupported write symmetry {symmetry!r}")
    if hasattr(matrix, "_scipy_view"):
        coo = matrix._scipy_view().tocoo()
    elif sp.issparse(matrix):
        coo = matrix.tocoo()
    else:
        coo = sp.coo_matrix(np.atleast_2d(np.asarray(matrix)))

    if symmetry == "symmetric":
        mask = coo.row >= coo.col
        coo = sp.coo_matrix(
            (coo.data[mask], (coo.row[mask], coo.col[mask])), shape=coo.shape
        )

    def _write(handle) -> None:
        handle.write(f"{HEADER_PREFIX} matrix coordinate real {symmetry}\n")
        for line in comment.splitlines():
            handle.write(f"% {line}\n")
        handle.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        # Python scalars in bulk, a bounded chunk at a time: repr(float) of
        # the exact float64 value round-trips every stored value, float32
        # included.
        for lo in range(0, coo.nnz, WRITE_CHUNK):
            part = slice(lo, lo + WRITE_CHUNK)
            entries = zip(
                (coo.row[part] + 1).tolist(),
                (coo.col[part] + 1).tolist(),
                coo.data[part].astype(np.float64, copy=False).tolist(),
            )
            handle.write("".join([f"{i} {j} {v!r}\n" for i, j, v in entries]))

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(os.fspath(path_or_file), "w", encoding="utf-8") as handle:
            _write(handle)


def read_mtx_string(
    text: str,
    exec_=None,
    format: str = "csr",
    value_dtype=np.float64,
    index_dtype=np.int32,
):
    """Read MatrixMarket content from a string.

    Without an executor this returns the raw ``scipy.sparse.coo_matrix``
    (the historical behaviour).  With ``exec_`` the matrix is placed on
    that executor as an engine LinOp:

    Args:
        text: MatrixMarket content (any supported field/symmetry,
            including ``pattern`` and ``integer``).
        exec_: Optional executor to place the matrix on.
        format: Target format when ``exec_`` is given: ``"csr"`` or
            ``"coo"``.
        value_dtype: Value type of the created LinOp.
        index_dtype: Index type of the created LinOp.
    """
    coo = _read_stream(io.StringIO(text))
    if exec_ is None:
        return coo
    # Imported lazily: the matrix formats import this module for their
    # read bindings.
    from repro.ginkgo.matrix import Coo, Csr

    formats = {"csr": Csr, "coo": Coo}
    key = str(format).lower()
    if key not in formats:
        raise MtxError(
            f"unsupported target format {format!r}; supported: "
            f"{sorted(formats)}"
        )
    return formats[key].from_scipy(
        exec_, coo, value_dtype=value_dtype, index_dtype=index_dtype
    )
