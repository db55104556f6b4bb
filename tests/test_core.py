import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import mmdselect.core as core
from mmdselect.core import (
    DataFormatError,
    RandomSource,
    SelectionVector,
    TwoSampleData,
    _check_symmetric,
    _parse_rows,
    _parse_table,
    default_workers,
    derive_stream,
    load_two_sample,
    save_matrix,
    split_train_test,
)

from oracles import save_matrix_reference


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_load_two_sample_basic(tmp_path):
    px = write(tmp_path, "x.csv", "1,0\n3,0\n")
    py = write(tmp_path, "y.csv", "0,2\n0,4\n")
    data = load_two_sample(px, py)
    assert data.n == 2 and data.m == 2 and data.dim == 2
    assert np.array_equal(data.X, [[1, 0], [3, 0]])
    assert np.array_equal(data.Y, [[0, 2], [0, 4]])


def test_load_header_autodetect(tmp_path):
    px = write(tmp_path, "x.csv", "alpha,beta\n1,2\n3,4\n")
    py = write(tmp_path, "y.csv", "5,6\n")
    data = load_two_sample(px, py)
    assert data.n == 2 and data.X[1, 1] == 4.0


def test_load_ragged_rows_error(tmp_path):
    px = write(tmp_path, "x.csv", "1,2\n1,2,3\n")
    py = write(tmp_path, "y.csv", "1,2\n")
    with pytest.raises(DataFormatError, match="row 2"):
        load_two_sample(px, py)


def test_load_empty_file_error_names_path(tmp_path):
    px = write(tmp_path, "x.csv", "1,2\n")
    py = write(tmp_path, "y.csv", "")
    with pytest.raises(DataFormatError, match="y.csv"):
        load_two_sample(px, py)


def test_load_non_numeric_cell_location(tmp_path):
    px = write(tmp_path, "x.csv", "1,2\n3,oops\n")
    py = write(tmp_path, "y.csv", "1,2\n")
    with pytest.raises(DataFormatError, match="row 2, column 2"):
        load_two_sample(px, py)


def test_load_cross_file_dimension_mismatch(tmp_path):
    px = write(tmp_path, "x.csv", "1,2\n")
    py = write(tmp_path, "y.csv", "1,2,3\n")
    with pytest.raises(DataFormatError, match="dimension mismatch"):
        load_two_sample(px, py)


def test_round_trip_bit_exact(tmp_path):
    gen = np.random.default_rng(0)
    data = TwoSampleData(gen.standard_normal((7, 4)) * 1e3, gen.standard_normal((5, 4)) / 1e3)
    px, py = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
    save_matrix(px, data.X)
    save_matrix(py, data.Y)
    back = load_two_sample(px, py)
    assert np.array_equal(back.X, data.X)
    assert np.array_equal(back.Y, data.Y)


@pytest.mark.parametrize("parse", [_parse_table, _parse_rows])
def test_load_byte_order_mark_is_ignored(tmp_path, parse):
    # float("\ufeff1") fails: read without dropping the BOM, row 1 passes for a header
    numeric = write(tmp_path, "x.csv", "\ufeff1,2\n3,4\n")
    assert np.array_equal(parse(numeric), [[1.0, 2.0], [3.0, 4.0]])
    headed = write(tmp_path, "y.csv", "\ufeffalpha,beta\n1,2\n")
    assert np.array_equal(parse(headed), [[1.0, 2.0]])


def test_load_float_spellings_numpy_rejects(tmp_path):
    px = write(tmp_path, "x.csv", "1_000,١٢\n\n  \n+.5, nan \n")
    got = _parse_table(px)
    assert got.shape == (2, 2)
    assert got[0].tolist() == [1000.0, 12.0] and got[1, 0] == 0.5 and np.isnan(got[1, 1])


@pytest.mark.parametrize(
    "text, row, col, cell",
    [
        ("1,2\n3,nan\n", 2, 2, "nan"),
        ("nan,1\n2,3\n", 1, 1, "nan"),  # a first line that parses is data, not a header
        ("a,b\n\n1, inf \n", 3, 2, "inf"),
        ("\ufeff1,1e400\n2,3\n", 1, 2, "1e400"),
        ("1_000,-Infinity\n", 1, 2, "-Infinity"),  # a table loadtxt refuses
    ],
)
def test_load_names_the_first_non_finite_cell(tmp_path, text, row, col, cell):
    finite = write(tmp_path, "y.csv", "1,2\n")
    bad = write(tmp_path, "x.csv", text)
    for px, py in ((bad, finite), (finite, bad)):
        with pytest.raises(DataFormatError) as exc:
            load_two_sample(px, py)
        assert str(exc.value) == f"{bad}: non-finite cell {cell!r} at row {row}, column {col}"


def test_load_reports_a_bad_cell_before_a_non_finite_one(tmp_path):
    py = write(tmp_path, "y.csv", "1,2\n")
    for text, match in (("nan,1\n2,x\n", "non-numeric cell 'x'"), ("nan,1\n2\n", "row 2 has 1")):
        with pytest.raises(DataFormatError, match=match):
            load_two_sample(write(tmp_path, "x.csv", text), py)


@pytest.mark.parametrize(
    "header, bom, tail", [(None, "", ""), ([f"v{j}" for j in range(60)], "\ufeff", "\n \t\xa0\n")]
)
def test_well_formed_table_parses_only_its_first_line_in_python(
    tmp_path, monkeypatch, header, bom, tail
):
    M = np.random.default_rng(1).standard_normal((2000, 60))
    path = tmp_path / "x.csv"
    save_matrix_reference(str(path), M, header)
    path.write_text(bom + path.read_text(encoding="utf-8") + tail, encoding="utf-8")
    calls = []
    row_parser = core._parse_row

    def counted(lineno, line):
        calls.append(lineno)
        return row_parser(lineno, line)

    monkeypatch.setattr(core, "_parse_row", counted)
    got = _parse_table(str(path))
    assert calls == [1]
    assert got.tobytes() == M.tobytes() and got.shape == M.shape


@pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "1\xa0"])
def test_a_table_with_float_only_spellings_is_read_once(tmp_path, monkeypatch, cell):
    # one such cell in the last row: the table goes to the row parser
    # without a refused pass through numpy's reader first
    M = np.random.default_rng(2).standard_normal((300, 8))
    path = tmp_path / "x.csv"
    save_matrix_reference(str(path), M, [f"v_{j}" for j in range(8)])
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[-1] = cell + "," + lines[-1].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
    got = _parse_table(str(path))
    assert calls == []
    M[-1, 0] = float(cell)
    assert got.tobytes() == M.tobytes()
    with pytest.raises(DataFormatError) as exc:
        _parse_table(write(tmp_path, "y.csv", "1,2\n" + cell + ",x\n"))
    assert str(exc.value).endswith("non-numeric cell 'x' at row 2, column 2")
    assert calls == []
    # a header is not data: with plain data lines the reader runs
    assert np.array_equal(_parse_table(write(tmp_path, "z.csv", "x_1,\u03b2\n1,2\n")), [[1.0, 2.0]])
    assert calls == [1]


@pytest.mark.parametrize(
    "text, error",
    [
        ("a,b\n1,2\n\n3,4\n", None),
        ("1,2\n3,x\n", "non-numeric cell 'x' at row 2, column 2"),  # loadtxt refuses it
        ("1,2\n3\n", "row 2 has 1 columns, expected 2"),  # ragged
        ("1,2\n3,nan\n", "non-finite cell 'nan' at row 2, column 2"),
        ("1_0,2\n3,inf\n", "non-finite cell 'inf' at row 2, column 2"),  # row parser only
        ("\n \n", "empty file"),
    ],
    ids=["header", "bad-cell", "ragged", "nan", "row-parser-inf", "blank"],
)
def test_load_reads_each_file_once(tmp_path, monkeypatch, text, error):
    px = write(tmp_path, "x.csv", text)
    py = write(tmp_path, "y.csv", "5,6\n")
    opened = []
    builtin_open = open

    def counted(file, *args, **kwargs):
        opened.append(str(file))
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted)
    if error is None:
        assert load_two_sample(px, py).n == 2
        assert opened == [px, py]
    else:
        with pytest.raises(DataFormatError) as exc:
            load_two_sample(px, py)
        assert str(exc.value) == f"{px}: {error}"
        assert opened == [px]


def test_a_reader_result_of_the_wrong_shape_goes_to_the_row_parser(tmp_path, monkeypatch):
    px = write(tmp_path, "x.csv", "a,b\n1,2\n3,4\n")
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: loadtxt(*a, **kw)[1:])
    assert np.array_equal(_parse_table(px), [[1.0, 2.0], [3.0, 4.0]])


_EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    0.1, 1e-5, 1e16, 1e308, 1.7976931348623157e308, 123456789.0, -3.0,
    float("inf"), float("-inf"), float("nan"),
]
_SPELLINGS = [
    "1_000", " nan ", "Infinity", "-infinity", "0x1p3", "1e400", "-1e400", "1e-400",
    "+.5", "1.", "-0", "", " ", "١٢", "٣.٥", "1\xa0", " 1", " 1\u3000",
    "1\x0c", "nan(1)", "1 2", "abc", "\ufeff1", "1e", ".", "+-1",
]
_CELLS = st.one_of(
    st.sampled_from(_EDGE_FLOATS).map(repr),
    st.floats(width=64).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(_SPELLINGS),
)
_BLANKS = st.sampled_from(["", "", "   ", "\t", "\xa0", " "])


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.sampled_from(["a", "x1", "alpha beta", "1", "nan", "1e"]))
                              for _ in range(draw(st.integers(1, 4)))))
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_BLANKS))
        w = width + (draw(st.sampled_from([-1, 1])) if draw(st.integers(0, 9)) == 0 else 0)
        line = ",".join(draw(_CELLS) for _ in range(max(w, 1)))
        if draw(st.integers(0, 9)) == 0:
            line += ","
        lines.append(line)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _outcome(parse, path):
    try:
        table = parse(path)
    except DataFormatError as exc:
        return str(exc)
    return table.shape, table.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=_tables())
def test_parse_table_equals_the_row_parser(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "table.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert _outcome(_parse_table, str(path)) == _outcome(_parse_rows, str(path))


def test_save_matrix_writes_the_reference_bytes(tmp_path):
    M = np.array([
        [-0.0, 5e-324, 2.2250738585072014e-308],
        [0.1, 1e-5, 1e16],
        [1e308, 3.0, -42.0],
        [np.float32(0.1), 2.0**53, 1.0],
    ])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_matrix(str(got), M)
    save_matrix_reference(str(want), M)
    assert got.read_bytes() == want.read_bytes()
    assert np.array_equal(_parse_table(str(got)), M)


def test_two_sample_validation():
    with pytest.raises(ValueError, match="column mismatch"):
        TwoSampleData(np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        TwoSampleData(np.array([[np.nan, 1.0]]), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="at least one sample"):
        TwoSampleData(np.zeros((0, 2)), np.zeros((1, 2)))


def test_split_sizes_and_partition():
    gen = np.random.default_rng(3)
    data = TwoSampleData(gen.standard_normal((4, 2)), gen.standard_normal((4, 2)))
    train, test = split_train_test(data, 0.5, RandomSource(11))
    assert train.n == 2 and train.m == 2 and test.n == 2 and test.m == 2
    # union reproduces the input multiset per group
    for part, whole in ((np.vstack([train.X, test.X]), data.X), (np.vstack([train.Y, test.Y]), data.Y)):
        got = sorted(map(tuple, part))
        want = sorted(map(tuple, whole))
        assert got == want
    # rows are disjoint between the parts (all rows distinct here)
    as_set = set(map(tuple, train.X))
    assert not as_set & set(map(tuple, test.X))


def test_split_deterministic():
    gen = np.random.default_rng(5)
    data = TwoSampleData(gen.standard_normal((9, 3)), gen.standard_normal((6, 3)))
    a_train, a_test = split_train_test(data, 0.4, RandomSource(7, 3))
    b_train, b_test = split_train_test(data, 0.4, RandomSource(7, 3))
    assert np.array_equal(a_train.X, b_train.X)
    assert np.array_equal(a_test.Y, b_test.Y)


def test_split_empty_part_error():
    data = TwoSampleData(np.zeros((1, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError, match="empty part"):
        split_train_test(data, 0.5, RandomSource(0))


def test_derive_stream_labels_distinct_and_stable():
    root = RandomSource(42)
    a = derive_stream(root, 0)
    b = derive_stream(root, 1)
    assert a.stream_id != b.stream_id
    assert derive_stream(root, 0) == a
    x = a.generator().standard_normal(8)
    assert np.array_equal(x, derive_stream(root, 0).generator().standard_normal(8))


def test_sibling_streams_uncorrelated():
    root = RandomSource(2024)
    u = derive_stream(root, 10).generator().standard_normal(10_000)
    v = derive_stream(root, 11).generator().standard_normal(10_000)
    rho = float(np.corrcoef(u, v)[0, 1])
    assert abs(rho) < 0.05


def test_selection_vector_invariants():
    z = np.array([0.6, 0.8, 0.0])
    sel = SelectionVector(z, d=2)
    assert sel.support == (0, 1)
    with pytest.raises(ValueError, match="unit norm"):
        SelectionVector(np.array([0.5, 0.5, 0.0]), d=2)
    with pytest.raises(ValueError, match="exceeds budget"):
        SelectionVector(np.ones(4) / 2.0, d=2)
    with pytest.raises(ValueError, match="finite"):
        SelectionVector(np.array([np.inf, 0.0]), d=1)


def test_selection_vector_immutable():
    sel = SelectionVector(np.array([1.0, 0.0]), d=1)
    with pytest.raises(ValueError):
        sel.z[0] = 2.0


def test_check_symmetric_returns_exact_input_and_symmetrizes_near_input():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert _check_symmetric(A, "A", 1e-10) is A
    B = np.array([[2.0, 1.0], [1.0 + 1e-12, 3.0]])
    S = _check_symmetric(B, "A", 1e-10)
    assert np.array_equal(S, S.T)
    assert S[0, 1] == 0.5 * 1.0 + 0.5 * (1.0 + 1e-12)


def test_check_symmetric_halves_before_adding():
    # 0.5 * (a + b) overflows for these two neighbours; a/2 + b/2 does not
    a = 1.7e308
    b = float(np.nextafter(a, 0.0))
    S = _check_symmetric(np.array([[0.0, a], [b, 0.0]]), "A", 1e-10)
    assert np.isfinite(S).all()
    assert S[0, 1] == S[1, 0] == 0.5 * a + 0.5 * b


def test_check_symmetric_errors_name_the_matrix():
    with pytest.raises(ValueError, match="^gradient must be a square matrix$"):
        _check_symmetric(np.ones((2, 3)), "gradient", 1e-8)
    with pytest.raises(ValueError, match="^Z must be symmetric$"):
        _check_symmetric(np.array([[1.0, 0.5], [0.0, 0.0]]), "Z", 1e-10)
    # the tolerance scales with max(1, max|A|)
    _check_symmetric(np.array([[1e6, 1.0], [1.0 + 1e-5, 0.0]]), "A", 1e-10)
    with pytest.raises(ValueError, match="symmetric"):
        _check_symmetric(np.array([[1e6, 1.0], [1.0 + 1e-3, 0.0]]), "A", 1e-10)


@pytest.mark.parametrize("value, expected", [(None, 1), ("", 1), ("3", 3)])
def test_default_workers_reads_the_environment(monkeypatch, value, expected):
    if value is None:
        monkeypatch.delenv("MMDSELECT_WORKERS", raising=False)
    else:
        monkeypatch.setenv("MMDSELECT_WORKERS", value)
    assert default_workers() == expected


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5"])
def test_default_workers_rejects_bad_values(monkeypatch, value):
    monkeypatch.setenv("MMDSELECT_WORKERS", value)
    with pytest.raises(ValueError, match="MMDSELECT_WORKERS must be an integer >= 1"):
        default_workers()
