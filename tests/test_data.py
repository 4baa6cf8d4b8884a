import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmkit import DataError, Dataset, read_csv, write_csv


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


def test_empty_file_error():
    with pytest.raises(DataError, match="empty"):
        read_csv("")
    with pytest.raises(DataError, match="empty"):
        read_csv("\n")


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
