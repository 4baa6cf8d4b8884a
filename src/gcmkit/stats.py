"""Statistical toolbox: independence tests, a two-sample KS statistic and
nonparametric KL estimation.

Distances are Euclidean throughout, from one numpy kernel for points of
every width (:func:`pairwise_distances`).  Nearest neighbours, here and in
:class:`~gcmkit.mechanisms.KnnRegressor`, are found exactly by one
:class:`NeighbourIndex` per reference.  A 1-D reference is sorted once, and
each query looks at the 2k + 2 sorted points around it, so n reference and m
query points cost O(n log n + m·k); a query whose k-th distance is shared by
t points past that window looks again at twice as many, at O(k + t) more.
Wider points are compared exhaustively, block by block, at O(n·m).  The KL
estimator indexes P and Q once each, so it costs O(n log n + m log m + n·k)
for 1-D samples and O(n·(n + m)) otherwise.  Both paths rank and measure
neighbours with the same arithmetic, so a result does not depend on which
one ran.

The Fisher-z test reads a per-dataset memo of centred cross products:
each continuous column is centred once, and each pair of centred columns
multiplied once, the first time a test names them.  A test's bits depend only
on the columns it names.

Importing this module loads numpy only.  ``scipy.special`` (the normal
tail, for Fisher-z) is imported by the first Fisher-z p-value.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset, one_hot
from .exceptions import DataError, QueryError, require_count
from .seeds import rng_for


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    method: str
    num_permutations: int | None = None
    conditioning_set_size: int | None = None

    def to_json(self) -> dict:
        out = {"statistic": self.statistic, "p_value": self.p_value, "method": self.method}
        if self.num_permutations is not None:
            out["num_permutations"] = self.num_permutations
        if self.conditioning_set_size is not None:
            out["conditioning_set_size"] = self.conditioning_set_size
        return out


def _as_point_matrix(values):
    """Column vector for numeric input, one-hot matrix for categorical input."""
    array = np.asarray(values)
    if array.ndim == 1:
        numeric = np.issubdtype(array.dtype, np.number)
        array = array[:, None] if numeric else one_hot(array, np.unique(array.astype(str)))
    if array.ndim != 2 or array.shape[1] == 0:
        raise DataError("test inputs must be one- or two-dimensional, with at least one column")
    return array.astype(np.float64)


def _point_matrices(x, y):
    """Point matrices of the paired test inputs ``x`` and ``y``."""
    x_matrix = _as_point_matrix(x)
    y_matrix = _as_point_matrix(y)
    if len(x_matrix) != len(y_matrix):
        raise DataError("x and y must have the same length")
    return x_matrix, y_matrix


def _double_centered(distances):
    row_means = distances.mean(axis=1, keepdims=True)
    col_means = distances.mean(axis=0, keepdims=True)
    return distances - row_means - col_means + distances.mean()


def _centered_distances(points):
    """Double-centred matrix of pairwise distances between the rows of ``points``."""
    return _double_centered(pairwise_distances(points, points))


def distance_correlation(x, y) -> float:
    """Sample distance correlation in [0, 1]; 0 iff (in the limit) independent."""
    x_matrix, y_matrix = _point_matrices(x, y)
    a = _centered_distances(x_matrix)
    b = _centered_distances(y_matrix)
    scale = _dcor_scale(a, b)
    return 0.0 if scale is None else _dcor_from_centered(a, b, scale)


def _dcor_scale(a, b):
    """sqrt(dVar(x) dVar(y)) of double-centred distances, None if either is 0."""
    dvar_x = float((a * a).mean())
    dvar_y = float((b * b).mean())
    if dvar_x <= 0.0 or dvar_y <= 0.0:
        return None
    return np.sqrt(dvar_x * dvar_y)


def _dcor_from_centered(a, b, scale):
    return float(np.sqrt(max(float((a * b).mean()), 0.0) / scale))


def pairwise_independence_test(x, y, num_permutations=199, seed=0) -> TestResult:
    """Distance-correlation permutation test of pairwise independence.

    Categorical inputs are one-hot encoded before pairwise distances.  The
    p-value is the add-one-smoothed fraction of permutations of ``y`` whose
    statistic reaches the observed one, so its resolution is 1/(B+1).
    """
    num_permutations = require_count(num_permutations, "num_permutations")
    x_matrix, y_matrix = _point_matrices(x, y)
    n = len(x_matrix)
    if n < 10:
        raise DataError("independence test needs at least 10 observations")

    a = _centered_distances(x_matrix)
    b = _centered_distances(y_matrix)
    scale = _dcor_scale(a, b)
    if scale is None:
        # A constant input carries no information: dCor is undefined, never reject.
        return TestResult(0.0, 1.0, "distance_correlation_permutation", num_permutations)
    observed = _dcor_from_centered(a, b, scale)

    rng = rng_for(seed, "dcor-permutations")
    exceed = 0
    for _ in range(num_permutations):
        perm = rng.permutation(n)
        # Double centering commutes with permuting rows and columns together,
        # so the centred matrix can be permuted directly.
        if _dcor_from_centered(a, b[np.ix_(perm, perm)], scale) >= observed:
            exceed += 1
    p_value = (1 + exceed) / (num_permutations + 1)
    return TestResult(observed, p_value, "distance_correlation_permutation", num_permutations)


def _two_sided_normal_p(statistic):
    """P(|N(0, 1)| >= statistic) for ``statistic >= 0``, bit for bit
    ``2 * scipy.stats.norm.sf(statistic)``."""
    from scipy.special import ndtr

    return float(2 * ndtr(-statistic))


def _centred_column(data: Dataset, name):
    """``name``'s column minus its mean, computed once per dataset."""
    centred = data._centred_columns.get(name)
    if centred is None:
        column = data.column(name)
        centred = data._centred_columns[name] = column - column.mean()
        centred.setflags(write=False)
    return centred


def _centred_products(data: Dataset, names):
    """Matrix of the dot products of the centred columns ``names``.

    Each product is one ``np.dot`` of two centred columns, computed once per
    dataset and name-sorted pair, so its bits depend on those two columns
    alone: not on the table's width, nor on which tests ran before.
    """
    products = np.empty((len(names), len(names)))
    for i, first in enumerate(names):
        for j, second in enumerate(names[i:], start=i):
            key = (first, second) if first <= second else (second, first)
            product = data._centred_products.get(key)
            if product is None:
                product = data._centred_products[key] = float(
                    np.dot(_centred_column(data, first), _centred_column(data, second))
                )
            products[i, j] = products[j, i] = product
    return products


def fisher_z_test(data: Dataset, x, y, conditioning_set=()) -> TestResult:
    """Partial-correlation (Fisher z) test of x ⊥ y given the conditioning set.

    All columns must be continuous, and ``conditioning_set`` is a sequence of
    column names, not one bare name.  The correlation matrix is scaled from
    the dataset's memo of centred cross products, each computed once per
    dataset on first use.  The partial correlation comes from its inverse; a
    singular matrix is ridge regularised (1e-10) and inverted anyway.
    """
    if isinstance(conditioning_set, str):
        raise QueryError(
            f"conditioning_set must be a sequence of column names, got the string {conditioning_set!r}"
        )
    conditioning_set = tuple(conditioning_set)
    involved = (x, y, *conditioning_set)
    if len(set(involved)) < len(involved):
        raise QueryError(
            f"fisher-z needs x, y and the conditioning set to name distinct columns, got {involved}"
        )
    for name in involved:
        if data.kind(name) != "continuous":
            raise DataError(f"fisher-z requires continuous columns, {name!r} is categorical")
    n = data.n_rows
    if n <= len(conditioning_set) + 3:
        raise QueryError(
            f"fisher-z needs more than |Z|+3 = {len(conditioning_set) + 3} rows, got {n}"
        )

    # Computing with the name-sorted pair makes the test symmetric bit-exactly.
    first, second = sorted((x, y))
    products = _centred_products(data, (first, second, *conditioning_set))
    scale = np.sqrt(np.diag(products))
    scale = np.where(scale > 0, scale, 1.0)
    correlation = products / np.outer(scale, scale)
    np.fill_diagonal(correlation, 1.0)

    try:
        precision = np.linalg.inv(correlation)
        if not np.all(np.isfinite(precision)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        precision = np.linalg.inv(correlation + 1e-10 * np.eye(correlation.shape[0]))
    partial = -precision[0, 1] / np.sqrt(precision[0, 0] * precision[1, 1])
    partial = float(np.clip(partial, -1 + 1e-16, 1 - 1e-16))

    z = 0.5 * np.log((1 + partial) / (1 - partial))
    statistic = float(np.sqrt(n - len(conditioning_set) - 3) * abs(z))
    p_value = _two_sided_normal_p(statistic)
    return TestResult(statistic, p_value, "fisher_z", conditioning_set_size=len(conditioning_set))


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical CDFs of ``a`` and ``b``, evaluated at every pooled sample.

    Bit for bit the ``statistic`` of ``scipy.stats.ks_2samp``; identical
    samples give ``+0.0``.
    """
    a = np.sort(a)
    b = np.sort(b)
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / len(a)
    cdf_b = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def kl_divergence(samples_p, samples_q, k=5) -> float:
    """k-NN estimate of KL(P || Q) from samples, clamped below at zero.

    Uses the ratio of the k-th nearest-neighbour distance within P (excluding
    the point itself) to the k-th nearest-neighbour distance into Q (Wang,
    Kulkarni & Verdú 2009).
    """
    p, q = (np.asarray(samples, dtype=np.float64) for samples in (samples_p, samples_q))
    p, q = (samples[:, None] if samples.ndim == 1 else samples for samples in (p, q))
    if p.shape[1] != q.shape[1]:
        raise DataError(f"dimension mismatch: {p.shape[1]} vs {q.shape[1]}")
    n, d = p.shape
    m = q.shape[0]
    if d == 0:
        raise DataError("k-NN KL estimation needs points with at least one coordinate")
    k = require_count(k, "k")
    if n < k + 1 or m < k + 1:
        raise QueryError(f"k-NN KL estimation needs at least k+1 = {k + 1} samples per side")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise DataError("k-NN KL estimation needs finite samples")

    # k-th neighbour in P excluding the point itself: rank k including it.
    rho = np.maximum(NeighbourIndex(p).kth_distances(p, k), 1e-12)
    nu = np.maximum(NeighbourIndex(q).kth_distances(p, k - 1), 1e-12)
    log_ratios = np.log(nu / rho)
    # Summed in the row blocks of an exhaustive search against max(n, m)
    # points, the order this estimate has always used, so its bits stay put.
    log_ratio_sum = 0.0
    for rows in _row_blocks(n, max(n, m)):
        log_ratio_sum += float(np.sum(log_ratios[rows]))

    estimate = d / n * log_ratio_sum + np.log(m / (n - 1))
    return max(float(estimate), 0.0)


# --- nearest-neighbour search -------------------------------------------------
#
# Every distance is sqrt(sum((u - v)**2)), the squares summed in column order
# as in scipy's cdist, so both paths agree bit for bit.  In 1-D that is
# sqrt((u - v)**2), not |u - v| once the square underflows (|u - v| < 1e-154).


@np.errstate(over="ignore")
def _squared_gaps(u, v, out=None):
    """``(u - v)**2`` over broadcast coordinates, ``inf`` where it overflows."""
    gaps = np.subtract(u, v, out=out)
    return np.square(gaps, out=gaps)


def _gaps(u, v):
    """Distances between broadcast 1-D coordinates ``u`` and ``v``."""
    squares = _squared_gaps(u, v)
    return np.sqrt(squares, out=squares)


@np.errstate(over="ignore")
def pairwise_distances(a, b):
    """Matrix of Euclidean distances between the rows of ``a`` and of ``b``,
    which have at least one column; a sum that overflows is ``inf``."""
    squares = _squared_gaps(a[:, :1], b[:, 0])
    column_squares = None
    for column in range(1, a.shape[1]):
        column_squares = _squared_gaps(a[:, column, None], b[:, column], out=column_squares)
        squares += column_squares
    return np.sqrt(squares, out=squares)


_BLOCK_ENTRIES = 2_000_000  # 16 MB of float64 distances


def _row_blocks(n_rows, width):
    """Slices of ``n_rows`` query rows, each holding about two million
    entries of a matrix ``width`` columns wide."""
    chunk = max(1, int(_BLOCK_ENTRIES / max(width, 1)))
    return [slice(start, start + chunk) for start in range(0, n_rows, chunk)]


class NeighbourIndex:
    """Exact nearest neighbours among the rows of ``reference``, a 2-D array.

    Built once per reference, it is the one place that looks at the width.
    One column is sorted stably into a line: distances to a query fall along
    it up to the query's place and rise after, so the j nearest points lie
    within j places on either side.  Wider rows stay in index order, and each
    query's window is all of them.  Queries are 2-D and ranked in blocks of
    about two million candidates, each freed before the next is built.
    """

    def __init__(self, reference):
        self.reference = reference
        self.index = self.line = None
        if reference.shape[1] == 1:
            self.index = np.argsort(reference[:, 0], kind="stable")
            self.line = reference[self.index, 0]

    def _candidates(self, queries, count):
        """``(positions, distances)``: the line positions of the ``count``
        points on either side of each query's place (shifted inward at the
        ends) and their distances, as (queries, window) arrays.  Without a
        line ``positions`` is None and the window is every row."""
        if self.line is None:
            return None, pairwise_distances(queries, self.reference)
        n = len(self.line)
        width = min(n, 2 * count)
        start = np.clip(np.searchsorted(self.line, queries[:, 0]) - count, 0, n - width)
        positions = start[:, None] + np.arange(width)
        return positions, _gaps(queries[:, :1], self.line[positions])

    def _blocks(self, queries, count):
        width = len(self.reference) if self.line is None else 2 * count
        return _row_blocks(len(queries), width)

    def nearest(self, queries, k):
        """Yield ``(rows, order)`` over row blocks of ``queries``.

        ``order[i]`` holds the indices of the ``k`` reference rows nearest to
        ``queries[rows][i]``, ranked by distance and, among equal distances,
        by index: a stable argsort of the distance row, truncated to ``k``.
        """
        for rows in self._blocks(queries, k + 1):
            yield rows, self._nearest(queries[rows], k, k + 1)

    def _nearest(self, queries, k, count):
        positions, distances = self._candidates(queries, count)
        if positions is None:
            # A copy, so the full argsort is freed with the distances.
            return np.argsort(distances, axis=1, kind="stable")[:, :k].copy()
        index = self.index[positions]
        ranked = np.lexsort((index, distances))[:, :k]
        order = np.take_along_axis(index, ranked, axis=1)
        radius = np.take_along_axis(distances, ranked[:, -1:], axis=1)[:, 0]
        # The window holds every point nearer than the k-th distance.  Points
        # at exactly that distance may go on past an edge, and the lowest
        # indices among them win: search those rows again, twice as wide, until
        # each edge is farther than the k-th distance or ends the line.
        last = len(self.line) - 1
        open_tie = ((positions[:, 0] > 0) & (distances[:, 0] == radius)) | (
            (positions[:, -1] < last) & (distances[:, -1] == radius)
        )
        rows = np.flatnonzero(open_tie)
        for block in _row_blocks(len(rows), 4 * count):
            order[rows[block]] = self._nearest(queries[rows[block]], k, 2 * count)
        return order

    def kth_distances(self, queries, kth):
        """Distance from each row of ``queries`` to its ``kth`` nearest
        reference row, counting from 0 (``kth=0`` is the nearest)."""
        out = np.empty(len(queries))
        for rows in self._blocks(queries, kth + 1):
            distances = self._candidates(queries[rows], kth + 1)[1]
            out[rows] = np.partition(distances, kth, axis=1)[:, kth]
            del distances  # freed before the next block is built
        return out
