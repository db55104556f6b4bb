"""Shared data model: two-sample datasets, sparse selection vectors, seeded
random streams, delimited-table ingestion, and train/test splitting."""

from __future__ import annotations

import contextlib
import functools
import glob
import math
import os
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1


class DataFormatError(ValueError):
    """Raised when an input table cannot be parsed into a numeric matrix."""


def _splitmix64(x: int) -> int:
    # Bijective 64-bit mixer (splitmix64 finalizer).
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class RandomSource:
    """Deterministic, hierarchically splittable source of randomness.

    A source is identified by ``(master_seed, stream_id)``.  Identical pairs
    yield identical number streams; distinct pairs yield statistically
    independent streams.  Child sources are derived with :func:`derive_stream`,
    which for a fixed parent maps distinct labels to distinct stream ids (a
    composition of 64-bit bijections).
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _MASK64)

    def generator(self) -> np.random.Generator:
        """Fresh numpy generator for this (seed, stream) pair."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id,))
        )


def derive_stream(rng: RandomSource, label: int) -> RandomSource:
    """Child source with a stream id derived from (stream_id, label)."""
    child = _splitmix64(rng.stream_id ^ _splitmix64(int(label) & _MASK64))
    return RandomSource(rng.master_seed, child)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, order="C", copy=True)
    a.flags.writeable = False
    return a


def _overflow_error(what: str) -> ValueError:
    """The error for model coefficients that overflow float64, which happens
    for data of huge scale (columns near 1e150 and up)."""
    return ValueError(f"float64 overflow in {what}; rescale the columns of the data")


def _check_symmetric(A, name: str, tol: float) -> np.ndarray:
    """``A`` as a float64 matrix with its symmetric part ``A/2 + A'/2``.

    Raises ``ValueError`` unless ``A`` is square and ``max|A - A'|`` is at most
    ``tol * max(1, max|A|)``.  An exactly symmetric ``A`` comes back as it is,
    not copied.  Halving before adding cannot overflow.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if (A == A.T).all():
        return A
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0)
    if float(np.max(np.abs(A - A.T))) > tol * scale:
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * A + 0.5 * A.T


@functools.cache
def _openblas_thread_functions():
    """``(get, set)`` of the thread count of the OpenBLAS that numpy's wheel
    bundles (``numpy.libs/libscipy_openblas*.so``), or ``None`` when there is
    no such library.  numpy has loaded it already, so this binds the same
    library numpy calls.  Resolved once per process."""
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        suffix = "64_" if "openblas64" in os.path.basename(path) else ""
        try:
            lib = ctypes.CDLL(path)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block (or, as a decorator, the function) at one OpenBLAS
    thread and restore the caller's count afterwards, also on an exception.

    A product whose summation order follows the thread count then gives the
    same bits at any count.  The count is process-wide: other threads of the
    process run at one thread until the block ends.  The count is set only
    when it is not 1 already, so a pinned pool worker pays one ``get``.  Does
    nothing when numpy's OpenBLAS cannot be found."""
    fns = _openblas_thread_functions()
    before = None if fns is None else fns[0]()
    if before is None or before == 1:
        yield
        return
    fns[1](1)
    try:
        yield
    finally:
        fns[1](before)


@dataclass(frozen=True)
class TwoSampleData:
    """Two groups of samples sharing the same variables (rows = observations)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        Y = np.asarray(self.Y, dtype=np.float64)
        if X.ndim != 2 or Y.ndim != 2:
            raise ValueError("samples must be 2-D arrays (rows = observations)")
        if X.shape[0] < 1 or Y.shape[0] < 1:
            raise ValueError("each group needs at least one sample")
        if X.shape[1] != Y.shape[1]:
            raise ValueError(
                f"column mismatch: group 1 has {X.shape[1]} variables, group 2 has {Y.shape[1]}"
            )
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise ValueError("all entries must be finite")
        object.__setattr__(self, "X", _freeze(X))
        object.__setattr__(self, "Y", _freeze(Y))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.Y.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SelectionVector:
    """Unit-norm direction with at most ``d`` nonzero coordinates.

    ``support`` is the sorted tuple of nonzero indices (0-based).  ``no_signal``
    marks selections produced from data carrying no detectable group
    difference (an arbitrary feasible direction was returned).
    """

    z: np.ndarray
    d: int
    support: tuple = field(init=False)
    no_signal: bool = False

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        if z.ndim != 1:
            raise ValueError("selection vector must be 1-D")
        if not np.all(np.isfinite(z)):
            raise ValueError("selection vector must be finite")
        nrm = float(np.linalg.norm(z))
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"selection vector must have unit norm, got {nrm!r}")
        if self.d < 1:
            raise ValueError("budget d must be >= 1")
        support = tuple(int(i) for i in np.flatnonzero(z))
        if len(support) > self.d:
            raise ValueError(f"support size {len(support)} exceeds budget d={self.d}")
        object.__setattr__(self, "z", _freeze(z))
        object.__setattr__(self, "support", support)

    @property
    def dim(self) -> int:
        return self.z.shape[0]


def make_selection(z: np.ndarray, d: int) -> SelectionVector:
    """Normalize, zero out below-threshold noise, and wrap as a SelectionVector."""
    z = np.asarray(z, dtype=np.float64).copy()
    z[np.abs(z) < 1e-14] = 0.0
    nrm = np.linalg.norm(z)
    if nrm == 0.0:
        raise ValueError("cannot build a selection from the zero vector")
    return SelectionVector(z / nrm, d)


def _table_lines(path: str) -> list:
    """``(line number, line)`` of each line of the file at ``path`` that is
    not blank or whitespace-only, from one pass that decodes the file once.
    Line ends are translated (universal newlines) and dropped, and so is a
    UTF-8 byte-order mark.  A file that cannot be opened or read, or that is
    not UTF-8, raises ``DataFormatError`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return [(no, line.rstrip("\n")) for no, line in enumerate(fh, 1) if line.strip()]
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _parse_row(lineno: int, line: str):
    """``(values, None)``, or ``(None, (row, column, cell))`` naming the first
    cell that ``float()`` rejects."""
    vals = []
    for j, cell in enumerate(line.split(",")):
        cell = cell.strip()
        try:
            vals.append(float(cell))
        except ValueError:
            return None, (lineno, j + 1, cell)
    return vals, None


def _data_lines(path: str, lines: list) -> list:
    """The data lines of :func:`_table_lines`'s ``lines``: all of them, or all
    after the first when the first has a cell that ``float()`` rejects (a
    header).  Raises ``DataFormatError`` when there are none."""
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    if _parse_row(*lines[0])[1] is None:
        return lines
    if len(lines) == 1:
        raise DataFormatError(f"{path}: empty file (header only)")
    return lines[1:]


def _data_rows(path: str, lines: list):
    """``(line number, line, values)`` of each data row, by the table grammar:
    every cell goes through ``float()``, and the error names the row, column
    and cell at fault."""
    width = None
    for lineno, line in _data_lines(path, lines):
        vals, err = _parse_row(lineno, line)
        if err is not None:
            lno, col, cell = err
            raise DataFormatError(f"{path}: non-numeric cell {cell!r} at row {lno}, column {col}")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise DataFormatError(
                f"{path}: row {lineno} has {len(vals)} columns, expected {width}"
            )
        yield lineno, line, vals


def _parse_rows(path: str, lines: list | None = None) -> np.ndarray:
    """The table grammar, one row at a time (see :func:`_data_rows`), over
    ``lines`` from :func:`_table_lines`, or over the file when not given."""
    if lines is None:
        lines = _table_lines(path)
    return np.array([vals for _, _, vals in _data_rows(path, lines)], dtype=np.float64)


def _plain(line: str) -> bool:
    """False for a line with a ``_`` digit separator or a non-ASCII
    character: spellings ``float()`` takes that numpy's C reader does not."""
    return line.isascii() and "_" not in line


def _parse_table(path: str, lines: list | None = None) -> np.ndarray:
    """Parse a comma-delimited numeric table; a non-numeric first row is a header.

    Blank and whitespace-only lines are skipped and a UTF-8 byte-order mark
    is ignored.  ``lines`` are the file's :func:`_table_lines`, read here
    when not given.  numpy's C reader parses the data lines into an array
    allocated once, the count of data lines being known.  A table it
    refuses (bad cells, ragged rows), or reads into another shape, is parsed
    by :func:`_parse_rows` from the same lines, which returns the array or
    raises the error that names the row, column and cell.  Data lines with
    ``_`` or a non-ASCII character (``float()`` spellings such as ``1_000``
    or non-ASCII digits) go to :func:`_parse_rows` at once.
    """
    if lines is None:
        lines = _table_lines(path)
    data = [line for _, line in _data_lines(path, lines)]
    table = None
    if all(map(_plain, data)):
        try:
            table = np.loadtxt(
                data, dtype=np.float64, delimiter=",", comments=None, ndmin=2, max_rows=len(data)
            )
        except ValueError:
            pass
    if table is None or table.shape != (len(data), data[0].count(",") + 1):
        return _parse_rows(path, lines)
    return table


def _load_table(path: str) -> np.ndarray:
    """:func:`_parse_table`, and a ``DataFormatError`` naming the row, column
    and text of the first cell that parses to a value that is not finite
    (``nan``, ``inf``, ``1e400``).  The file is read once."""
    lines = _table_lines(path)
    table = _parse_table(path, lines)
    if not np.isfinite(table).all():
        for lineno, line, vals in _data_rows(path, lines):
            for j, v in enumerate(vals):
                if not math.isfinite(v):
                    cell = line.split(",")[j].strip()
                    raise DataFormatError(
                        f"{path}: non-finite cell {cell!r} at row {lineno}, column {j + 1}"
                    )
    return table


def load_two_sample(path_x: str, path_y: str) -> TwoSampleData:
    """Load the two groups from comma-delimited tables (one sample per row)."""
    X = _load_table(path_x)
    Y = _load_table(path_y)
    if X.shape[1] != Y.shape[1]:
        raise DataFormatError(
            f"dimension mismatch: {path_x} has {X.shape[1]} columns, "
            f"{path_y} has {Y.shape[1]}"
        )
    return TwoSampleData(X, Y)


def save_matrix(path: str, M: np.ndarray) -> None:
    """Write a matrix in the tabular format; float repr round-trips bit-exactly."""
    M = np.asarray(M, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        for row in M.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def split_train_test(
    data: TwoSampleData, train_fraction: float, rng: RandomSource
) -> tuple[TwoSampleData, TwoSampleData]:
    """Disjoint row partition of both groups by uniform shuffle.

    Train sizes are ``floor(train_fraction * n)`` and ``floor(train_fraction * m)``;
    every part must be non-empty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    n_tr = int(np.floor(train_fraction * data.n))
    m_tr = int(np.floor(train_fraction * data.m))
    if n_tr < 1 or m_tr < 1 or data.n - n_tr < 1 or data.m - m_tr < 1:
        raise ValueError(
            f"split with fraction {train_fraction} leaves an empty part "
            f"(n={data.n}, m={data.m})"
        )
    g = rng.generator()
    px = g.permutation(data.n)
    py = g.permutation(data.m)
    train = TwoSampleData(data.X[px[:n_tr]], data.Y[py[:m_tr]])
    test = TwoSampleData(data.X[px[n_tr:]], data.Y[py[m_tr:]])
    return train, test


def default_workers() -> int:
    """Worker count for parallel trial loops (results never depend on it):
    ``MMDSELECT_WORKERS``, or 1 when it is unset or empty.  Raises
    ``ValueError`` when it is not an integer >= 1."""
    raw = os.environ.get("MMDSELECT_WORKERS") or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"MMDSELECT_WORKERS must be an integer >= 1, got {raw!r}")
    return workers
