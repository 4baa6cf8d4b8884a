import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmkit import DataError, Dataset, data, read_csv, write_csv


def test_single_continuous_column():
    ds = read_csv("x\n1\n2\n")
    assert ds.n_rows == 2
    assert ds.kind("x") == "continuous"
    assert list(ds.column("x")) == [1.0, 2.0]


def test_mixed_cells_make_column_categorical():
    ds = read_csv("x\na\n1\n")
    assert ds.kind("x") == "categorical"
    assert list(ds.column("x")) == ["a", "1"]


def test_non_finite_literals_make_column_categorical():
    ds = read_csv("x\nnan\n1\n")
    assert ds.kind("x") == "categorical"


def test_ragged_row_error():
    with pytest.raises(DataError, match="ragged"):
        read_csv("x,y\n1\n")
    with pytest.raises(DataError, match="ragged row 2: expected 2 cells, got 3"):
        read_csv("x,y\n1,2\n1,,3\n")
    # A blank line is a row of no cells, though numpy's reader would skip it.
    with pytest.raises(DataError, match="ragged row 2: expected 2 cells, got 0"):
        read_csv("x,y\n1,2\n\n")


def test_empty_file_error():
    with pytest.raises(DataError, match="empty"):
        read_csv("")
    with pytest.raises(DataError, match="empty"):
        read_csv("\n")
    with pytest.raises(DataError, match="empty CSV input"):
        read_csv("\n1\n")


def test_duplicate_header_error():
    with pytest.raises(DataError, match="duplicate header"):
        read_csv("x,x\n1,2\n")


def test_missing_cell_error():
    with pytest.raises(DataError, match="missing value"):
        read_csv("x,y\n1,\n")
    # The first empty cell of the first faulty row is the one reported.
    with pytest.raises(DataError, match="missing value in column 'y', row 1"):
        read_csv("x,y,z\n1,,\n")
    with pytest.raises(DataError, match="missing value in column 'y', row 1"):
        read_csv("x,y\n1,\n1\n")


def test_bytes_input():
    assert read_csv(b"x\n3\n").column("x")[0] == 3.0


def test_column_on_single_value():
    assert list(read_csv("x\n3\n").column("x")) == [3.0]


def test_select_preserves_requested_order():
    ds = read_csv("x,y\n1,a\n2,b\n")
    sub = ds.select(["y"])
    assert sub.column_names == ("y",)
    assert list(sub.column("y")) == ["a", "b"]
    both = ds.select(["y", "x"])
    assert both.column_names == ("y", "x")


def test_select_unknown_column():
    ds = read_csv("x\n1\n")
    with pytest.raises(DataError, match="unknown column"):
        ds.select(["z"])


def test_row_accessor():
    ds = read_csv("x,c\n1.5,a\n2.5,b\n")
    assert ds.row(1) == {"x": 2.5, "c": "b"}


def test_dataset_rejects_non_finite():
    with pytest.raises(DataError, match="non-finite"):
        Dataset(["x"], [np.array([1.0, np.nan])])


@pytest.mark.parametrize(
    ("names", "arrays", "message"),
    [
        (["x", "x"], [[1.0], [2.0]], "duplicate column names"),
        (["x", "y"], [[1.0]], "one array per column required"),
        (["x"], [[[1.0], [2.0]]], "column 'x' must be one-dimensional"),
        (["x", "y"], [[1.0, 2.0], [3.0]], "columns differ in length"),
    ],
)
def test_dataset_constructor_errors(names, arrays, message):
    with pytest.raises(DataError, match=message):
        Dataset(names, arrays)


def test_columns_are_read_only():
    ds = read_csv("x\n1\n2\n")
    with pytest.raises(ValueError):
        ds.column("x")[0] = 9.0


@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=30,
    ),
    st.lists(st.sampled_from(["a", "b", "c d", "e,f", 'g"h']), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_write_read_roundtrip(reals, labels):
    n = min(len(reals), len(labels))
    ds = Dataset(["v", "c"], [np.array(reals[:n]), np.array(labels[:n], dtype=object)])
    back = read_csv(write_csv(ds))
    assert back.column_names == ("v", "c")
    assert np.array_equal(back.column("v"), ds.column("v"))
    assert list(back.column("c")) == list(ds.column("c"))


def test_typing_is_order_independent():
    assert read_csv("x\n1\na\n").kind("x") == read_csv("x\na\n1\n").kind("x") == "categorical"


# The numeric fast path of read_csv against the csv module's path.

EDGE_CELLS = [
    "0", "1", "-2.5", " 2", "2 ", "+1.5", "1_000", "1e400", "-1e400", "nan", "inf", "-Infinity",
    "\x0c1", "\xa03", "1e-320", "0x10", ".5", "5.", "1e5", "a", "", " ", "1 2", "\u0661", '"4"',
]


def _shown(ds):
    """Everything a dataset shows: names, kinds, dtypes and cell bytes or strings."""
    columns = []
    for name in ds.column_names:
        column = ds.column(name)
        cells = column.tobytes() if ds.kind(name) == "continuous" else tuple(column.tolist())
        columns.append((name, ds.kind(name), column.dtype.str, cells))
    return ds.n_rows, columns


def _outcome(read, text):
    """What ``read(text)`` shows, or the message of the DataError it raises."""
    try:
        return _shown(read(text))
    except DataError as exc:
        return ("DataError", str(exc))


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    unique = draw(st.integers(0, 3)) > 0  # now and then a duplicate name
    names = draw(
        st.lists(st.sampled_from(["a", "b", "c", "x y", "\ufeffa", '"d"']), min_size=width, max_size=width, unique=unique)
    )
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-10**20, 10**20).map(str),
    )
    # Half the tables hold only numbers, so the numeric path often runs.
    cell = draw(st.sampled_from([number, st.one_of(number, st.sampled_from(EDGE_CELLS))]))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        row = draw(st.lists(cell, min_size=width, max_size=width))
        if draw(st.integers(0, 19)) == 0:  # now and then a ragged row
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        rows.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = newline.join([",".join(names)] + rows)
    if rows or draw(st.booleans()):
        text += newline
    return text + newline * draw(st.sampled_from([0, 0, 0, 0, 1, 2]))  # blank lines


@given(csv_texts())
@settings(max_examples=500, deadline=None)
def test_numeric_path_reads_as_the_csv_path(text):
    expected = _outcome(data._read_cells, text)
    assert _outcome(read_csv, text) == expected
    fast = data._read_finite_table(text)
    if fast is not None:
        assert _shown(fast) == expected


def test_numeric_path_reads_a_table_of_finite_numbers(monkeypatch):
    text = "x,y\n1,2.5\n-3e2, 4\n"
    expected = _outcome(data._read_cells, text)
    monkeypatch.setattr(data, "_read_cells", None)  # read_csv must not need it
    assert _shown(read_csv(text)) == expected


@pytest.mark.parametrize("cell", ["1e400", "nan", "-inf"])
def test_non_finite_cell_keeps_its_column_categorical(cell):
    ds = read_csv(f"x,y\n1,{cell}\n2,3\n")
    assert (ds.kind("x"), ds.kind("y")) == ("continuous", "categorical")
    assert list(ds.column("y")) == [cell, "3"]


@pytest.mark.parametrize("text", ['x,y\n"1.5",2\n', '"x",y\n1.5,2\n'])
def test_quotes_are_read_by_the_csv_path(text):
    assert data._read_finite_table(text) is None
    ds = read_csv(text)
    assert ds.column_names == ("x", "y")
    assert ds.kind("x") == "continuous"
    assert list(ds.column("x")) == [1.5]


@pytest.mark.parametrize(
    "cell", ["a" * 140_000, "1" * 140_001], ids=["categorical", "numeric"]
)
@pytest.mark.parametrize("read", [read_csv, data.read_rows], ids=["read_csv", "read_rows"])
def test_cell_over_the_csv_field_limit_raises_data_error(read, cell):
    """The ``csv`` module splits no field over 131 072 characters; a numeric
    cell that long parses to inf and takes the ``csv`` path too."""
    with pytest.raises(DataError, match="CSV line 3: field larger than field limit"):
        read(f"A,B\n1.0,2.0\n3.0,{cell}\n")
