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
    immutable after construction.  Each one also keeps a private memo of its
    continuous columns, scaled by a power of two and centred, and their cross
    products, empty until :func:`~gcmkit.stats.fisher_z_test` first needs it;
    it never changes what the public methods return.
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
            if np.issubdtype(array.dtype, np.number):
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
        # Filled by gcmkit.stats: name -> scaled and centred column, and
        # name-sorted pair -> the dot product of the two centred columns.
        self._centred_columns = {}
        self._centred_products = {}

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


def categories_of(values) -> tuple:
    """The distinct values of ``values`` as strings, sorted: what
    ``np.unique`` of the string array gives, without the ``numpy.ma`` import
    that a bare ``np.unique`` costs."""
    return tuple(sorted(set(np.asarray(values).astype(str).tolist())))


def one_hot(values, categories) -> np.ndarray:
    """One indicator column per entry of ``categories``, in that order.

    Values are compared as strings; one outside ``categories`` raises
    :class:`UnseenCategoryError`.
    """
    labels, inverse = np.unique(np.asarray(values).astype(str), return_inverse=True)
    index = {category: i for i, category in enumerate(categories)}
    unseen = [label for label in labels.tolist() if label not in index]
    if unseen:
        raise UnseenCategoryError(
            f"category {unseen[0]!r} was not present when the model was fit"
        )
    slots = np.array([index[label] for label in labels.tolist()], dtype=np.intp)
    block = np.zeros((len(inverse), len(categories)))
    block[np.arange(len(inverse)), slots[inverse]] = 1.0
    return block


def read_csv(source) -> Dataset:
    """Parse CSV text (str or UTF-8 bytes) into a typed :class:`Dataset`.

    The first row is the header.  A column is continuous iff every cell parses
    as a finite real; otherwise it is categorical.  Ragged rows, duplicate
    headers, empty input, and empty cells are rejected.
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"CSV is not valid UTF-8: {exc}") from exc
    rows = list(csv.reader(io.StringIO(source)))
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

    arrays = []
    for j in range(width):
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
