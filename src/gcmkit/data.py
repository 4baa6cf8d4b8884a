"""Typed tabular datasets: CSV ingestion, column typing, selection."""

import csv
import io

import numpy as np

from .exceptions import DataError, UnseenCategoryError

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


class Dataset:
    """A rectangular table with typed columns.

    Continuous columns are float64 arrays with finite values; categorical
    columns are arrays of strings compared by exact equality.  Instances are
    immutable after construction.  Each one also keeps a private memo,
    ``_memo``, empty when built, that other modules fill with what they
    derive from its columns; it never changes what the public methods return.
    """

    def __init__(self, names, arrays):
        names = tuple(names)
        if len(names) != len(set(names)):
            raise DataError("duplicate column names")
        if len(names) != len(arrays):
            raise DataError("one array per column required")
        columns = {}
        kinds = {}
        n_rows = None
        for name, values in zip(names, arrays):
            array = np.asarray(values)
            if array.ndim != 1:
                raise DataError(f"column {name!r} must be one-dimensional")
            if n_rows is None:
                n_rows = array.shape[0]
            elif array.shape[0] != n_rows:
                raise DataError("columns differ in length")
            if is_numeric(array):
                array = array.astype(np.float64)
                if not np.all(np.isfinite(array)):
                    raise DataError(f"column {name!r} contains non-finite values")
                kinds[name] = CONTINUOUS
            else:
                array = np.array([str(v) for v in array], dtype=object)
                kinds[name] = CATEGORICAL
            array.setflags(write=False)
            columns[name] = array
        self._names = names
        self._columns = columns
        self._kinds = kinds
        self.n_rows = 0 if n_rows is None else int(n_rows)
        self._memo = {}

    @property
    def column_names(self):
        return self._names

    def kind(self, name):
        self._require(name)
        return self._kinds[name]

    def column(self, name) -> np.ndarray:
        """The named column as a read-only array."""
        self._require(name)
        return self._columns[name]

    def select(self, names) -> "Dataset":
        """A new dataset containing ``names`` in the given order."""
        for name in names:
            self._require(name)
        return Dataset(tuple(names), [self._columns[name] for name in names])

    def row(self, index) -> dict:
        """One row as a name -> value mapping (floats and strings)."""
        if not 0 <= index < self.n_rows:
            raise DataError(f"row index {index} out of range")
        out = {}
        for name in self._names:
            value = self._columns[name][index]
            out[name] = float(value) if self._kinds[name] == CONTINUOUS else str(value)
        return out

    def _require(self, name):
        if name not in self._columns:
            raise DataError(f"unknown column {name!r}")

    def __repr__(self):
        kinds = ", ".join(f"{name}:{self._kinds[name][:4]}" for name in self._names)
        return f"Dataset({self.n_rows} rows; {kinds})"


def require_columns(dataset: Dataset, nodes):
    """Raise :class:`DataError` unless every graph node in ``nodes`` is a column of ``dataset``."""
    for node in nodes:
        if node not in dataset.column_names:
            raise DataError(f"graph node {node!r} is missing from the data")


def is_numeric(values) -> bool:
    """Whether ``values`` hold numbers, which makes a column continuous (else categorical)."""
    return np.issubdtype(np.asarray(values).dtype, np.number)


def categories_of(values) -> tuple:
    """The distinct values of ``values`` as strings, sorted: what
    ``np.unique`` of the string array gives, without the ``numpy.ma`` import
    that a bare ``np.unique`` costs."""
    return tuple(sorted(set(np.asarray(values).astype(str).tolist())))


def one_hot(values, categories) -> np.ndarray:
    """One indicator column per entry of ``categories``, in that order.

    Values are compared as strings; one outside ``categories`` raises
    :class:`UnseenCategoryError`, naming the first such label in sorted order.
    Each distinct value is turned into its label once.
    """
    values = np.asarray(values)
    # An object column of strings (every categorical column, and what
    # propagation draws) is keyed as it is.  Any other value is keyed by its
    # label, since equal values can print differently (1, 1.0 and True).
    keys = values.tolist() if values.dtype == object else values.astype(str).tolist()
    distinct = dict.fromkeys(keys)
    if not all(isinstance(key, str) for key in distinct):
        keys = list(map(str, keys))
        distinct = dict.fromkeys(keys)
    index = {category: i for i, category in enumerate(categories)}
    unseen = sorted(str(key) for key in distinct if key not in index)
    if unseen:
        raise UnseenCategoryError(
            f"category {unseen[0]!r} was not present when the model was fit"
        )
    slot = {key: index[key] for key in distinct}
    block = np.zeros((len(keys), len(categories)))
    block[np.arange(len(keys)), np.fromiter(map(slot.__getitem__, keys), np.intp, len(keys))] = 1.0
    return block


def read_csv(source) -> Dataset:
    """Parse CSV text (str or UTF-8 bytes) into a typed :class:`Dataset`.

    The first row is the header.  A column is continuous iff every cell parses
    as a finite real; otherwise it is categorical.  Ragged rows, duplicate
    headers, empty input, and empty cells are rejected.

    A table of finite numbers is read in one pass of numpy's C reader, with
    no Python object per cell: text with no ``"`` and no ``\\r``, at least one
    data row, no blank line and distinct header names, whose every cell
    numpy parses as a finite float.  Any other input, and any failure of that
    reader, takes the ``csv`` module's path, which alone raises the errors
    above.  Both paths round each cell with CPython's correctly rounded
    ``PyOS_string_to_double``, so a table gives the same columns, bit for
    bit, whichever path reads it.
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"CSV is not valid UTF-8: {exc}") from exc
    dataset = _read_finite_table(source)
    return dataset if dataset is not None else _read_cells(source)


def _read_finite_table(source):
    """The dataset of an all-finite numeric table by ``np.loadtxt``, or None
    when the text or a cell needs the ``csv`` path.  The lines go in as a
    list: an ``io.StringIO`` makes the reader hold about three times the
    memory."""
    if '"' in source or "\r" in source:
        return None
    header_line, *lines = source.split("\n")
    header = header_line.split(",")
    if lines and lines[-1] == "":
        lines.pop()
    # loadtxt skips a blank line, and warns on a table of nothing else.
    if not header_line or not lines or "" in lines or len(set(header)) != len(header):
        return None
    try:
        columns = np.loadtxt(
            lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2, unpack=True
        )
    except ValueError:
        return None
    if columns.shape != (len(header), len(lines)) or not np.isfinite(columns).all():
        return None
    return Dataset(header, list(columns))


def read_rows(source):
    """The header and data rows of CSV text, as lists of strings.

    Raises the :class:`DataError` that :func:`read_csv` raises for empty
    input, duplicate headers, ragged rows, empty cells and text the ``csv``
    module cannot split, such as a cell over its field size limit.
    """
    reader = csv.reader(io.StringIO(source))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise DataError(f"CSV line {reader.line_num}: {exc}") from exc
    if not rows or rows[0] == []:
        raise DataError("empty CSV input")
    header = rows[0]
    if len(header) != len(set(header)):
        raise DataError("duplicate header names")
    body = rows[1:]
    width = len(header)
    for i, row in enumerate(body):
        if len(row) != width:
            raise DataError(f"ragged row {i + 1}: expected {width} cells, got {len(row)}")
        if "" in row:
            raise DataError(f"missing value in column {header[row.index('')]!r}, row {i + 1}")
    return header, body


def _read_cells(source):
    """The dataset of any CSV text, one Python ``str`` and ``float`` per cell."""
    header, body = read_rows(source)
    arrays = []
    for j in range(len(header)):
        cells = [row[j] for row in body]
        try:
            values = np.array([float(cell) for cell in cells], dtype=np.float64)
        except ValueError:
            values = None
        finite = values is not None and np.isfinite(values).all()
        arrays.append(values if finite else np.array(cells, dtype=object))
    return Dataset(header, arrays)


def write_csv(dataset: Dataset) -> str:
    """Render a dataset as CSV; continuous cells use shortest round-trip decimals."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(dataset.column_names)
    columns = [dataset.column(name) for name in dataset.column_names]
    kinds = [dataset.kind(name) for name in dataset.column_names]
    for i in range(dataset.n_rows):
        writer.writerow(
            [
                repr(float(col[i])) if kind == CONTINUOUS else str(col[i])
                for col, kind in zip(columns, kinds)
            ]
        )
    return buffer.getvalue()
