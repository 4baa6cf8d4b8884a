"""Statistical toolbox: independence tests, a two-sample KS statistic and
nonparametric KL estimation.

Distances are Euclidean throughout, from one numpy kernel for points of
every width (:func:`pairwise_distances`).  Nearest neighbours, here and in
:class:`~gcmkit.mechanisms.KnnRegressor`, are found exactly by one
:class:`NeighbourIndex` per reference and k.  Points of one column, or of 0/1
columns (one-hot blocks) beside at most one other column, are grouped by
their 0/1 pattern and sorted once into a line per group, and each run of
equal values is cut to its first k points at build.  A query's k nearest
points in its group are one run of k places on the line, found by a
bisection of about log2(k + 1) steps around its place, so n reference and m
query points cost O(n log n + m·(log n + k)); a k-th distance that ties a
point outside the run ranks a window of 2k + 2 points around the place, and
a tie past that window costs O(k) more.  A query whose k-th distance within
its group reaches 1.0, the least distance to another group, is compared
with every row, at O(n).  Points with two or more columns that are not 0/1
are compared exhaustively, block by block, at O(n·m): each query's k least
distances are selected (introselect, O(n)), never the whole row sorted.
Either way a query's k nearest rows come back in ascending row order.  The
KL estimator indexes P (for k + 1, each point its own nearest) and Q (for
k) once each, so on a one-hot joint with one continuous column it costs
O((n + m)·log(n + m) + n·k), and O(n·(n + m)) on wider continuous points.
Every path measures neighbours with the same arithmetic, so a result does
not depend on which one ran.

The distance-correlation test evaluates its observed statistic and every
permutation of y by one function.  Two one-column numeric inputs are centred
and rescaled, and dCov² is a V-statistic of sorted lines (Huo & Székely
2016): row sums of distances by sort and cumsum, and the sum over discordant
pairs by merge-sort levels over leaves of 32 points (Chaudhuri & Hu 2019), so
B permutations cost O(B·n log n) and no n×n array; dCor² agrees with the
double-centred O(n²) formula within 1e-12.  One-hot or multi-column points
keep that formula, at O(B·n²).

The Fisher-z test fills the dataset's private ``_memo`` as tests name
columns: ``("centred", name)`` is the column scaled by a power of two and
centred, read-only, and ``("product", first, second)`` the dot product of a
name-sorted pair of them.  A test's bits depend only on the columns it names.

Importing this module loads numpy only, and nothing here imports scipy.
The Fisher-z p-value's normal tail is a port of the Cephes ``ndtr`` that
``scipy.special`` runs, evaluated in Python floats, so it has scipy's bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import CONTINUOUS, Dataset, categories_of, is_numeric, one_hot
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
        array = array[:, None] if is_numeric(array) else one_hot(array, categories_of(array))
    if array.ndim != 2 or array.shape[1] == 0:
        raise DataError("test inputs must be one- or two-dimensional, with at least one column")
    return array.astype(np.float64)


def _point_matrices(x, y, minimum=1, too_few="distance correlation needs at least one observation"):
    """Point matrices of the paired test inputs ``x`` and ``y``; fewer than
    ``minimum`` rows raise ``DataError(too_few)``."""
    x_matrix = _as_point_matrix(x)
    y_matrix = _as_point_matrix(y)
    if len(x_matrix) != len(y_matrix):
        raise DataError("x and y must have the same length")
    if len(x_matrix) < minimum:
        raise DataError(too_few)
    if not (np.all(np.isfinite(x_matrix)) and np.all(np.isfinite(y_matrix))):
        raise DataError("distance correlation needs finite numeric values")
    return x_matrix, y_matrix


def _unit_scaled(points):
    """``points`` times the power of two that brings its largest magnitude
    into [0.5, 1).  The product is exact, so every distance is scaled exactly
    and dCor keeps its bits; only gaps and squares can no longer overflow."""
    peak = float(np.abs(points).max())
    return points if peak == 0.0 else np.ldexp(points, -math.frexp(peak)[1])


def _centered_distances(points):
    """Double-centred matrix of pairwise distances between the rows of ``points``."""
    distances = pairwise_distances(points, points)
    row_means = distances.mean(axis=1, keepdims=True)
    col_means = distances.mean(axis=0, keepdims=True)
    return distances - row_means - col_means + distances.mean()


def _matrix_dcov2(a, b, perms):
    """dCov² of the double-centred distances ``a`` with ``b`` permuted by each
    row of ``perms``.  Double centring commutes with permuting rows and
    columns together, so the centred matrix is permuted directly."""
    return np.array([(a * b[np.ix_(perm, perm)]).mean() for perm in perms])


_LEAF = 32  # points per leaf of the discordance sum, whose pairs are summed directly


class _Line:
    """One numeric column, ready for an O(n log n) dCov².

    The column is shifted by its midrange and scaled by powers of two, so
    every value lies in (-1, 1) and a constant column is exactly zero; dCor
    does not change under shift or positive scale.  ``line`` is the column
    sorted, and ``rows`` the sums Σⱼ |xᵢ - xⱼ| of its distance matrix, in
    the column's order.  ``leaf_line`` cuts the sorted line into a power of
    two of leaves of equal width, the last padded with copies of the largest
    value.
    """

    def __init__(self, column):
        column = _unit_scaled(column)
        self.values = _unit_scaled(column - (column.min() + column.max()) / 2)
        n = len(column)
        self.order = np.argsort(self.values, kind="stable")
        self.line = self.values[self.order]
        self.total = self.line.sum()
        # Along the sorted line, Σⱼ |xₖ - xⱼ| = (2k - n)·xₖ + Σ x - 2·Σ_{j<k} xⱼ.
        before = np.concatenate([[0.0], np.cumsum(self.line)[:-1]])
        self.rows = np.empty(n)
        self.rows[self.order] = (2 * np.arange(n) - n) * self.line + self.total - 2 * before
        self.rows_total = self.rows.sum()
        leaves = 1 << max(0, math.ceil(math.log2(n / _LEAF)))
        width = -(-n // leaves)
        padded = np.concatenate([self.line, np.full(leaves * width - n, self.line[-1])])
        self.leaf_line = padded.reshape(leaves, width)

    def discordance(self, ys):
        """Σ (xⱼ - xᵢ)(yⱼ - yᵢ) over the pairs i < j of the sorted line with
        yᵢ > yⱼ, for each row of ``ys``, the y paired with each place.

        Pairs within a leaf are summed directly.  Then a bottom-up merge sort
        of y joins leaves in pairs, level by level: each point of a right
        half takes its sum over the left half's points with larger y in
        closed form, from running sums of 1, x, y and xy over that half.
        """
        count = len(ys)
        leaves, width = self.leaf_line.shape
        # Padding sorts last on x and above every y, so it is in no discordant pair.
        y = np.full((count, leaves * width), 2.0)
        y[:, : ys.shape[1]] = ys
        y = y.reshape(count, leaves, width)
        # Within a leaf (xⱼ - xᵢ)(yⱼ - yᵢ) is negative just for the discordant
        # pairs; take the pairs j - i places apart for each j - i in turn.
        discordance = np.zeros(count)
        for step in range(1, width):
            products = y[..., step:] - y[..., :-step]
            products *= self.leaf_line[:, step:] - self.leaf_line[:, :-step]
            discordance += np.minimum(products, 0.0, out=products).reshape(count, -1).sum(axis=1)
        order = np.argsort(y, axis=-1, kind="stable")
        y = np.take_along_axis(y, order, axis=-1)
        x = self.leaf_line[np.arange(leaves)[:, None], order]
        half = width
        while half < leaves * width:
            y = y.reshape(count, -1, 2 * half)
            # Stable, so among equal y the left half comes first.
            order = np.argsort(y, axis=-1, kind="stable")
            y = np.take_along_axis(y, order, axis=-1)
            x = np.take_along_axis(x.reshape(y.shape), order, axis=-1)
            left = order < half
            # Sums over the left half's points after each place, those with
            # larger y: the half's total less the running sum up to the place.
            after = np.stack([left, x, y, x * y])
            after *= left
            np.cumsum(after, axis=-1, out=after)
            np.subtract(after[..., -1:], after, out=after)
            pair_sums = after[0] * x * y - x * after[2] - y * after[1] + after[3]
            discordance += np.where(left, 0.0, pair_sums).reshape(count, -1).sum(axis=1)
            half *= 2
        return discordance


def _line_dcov2(x, y, perms):
    """dCov² of the :class:`_Line` ``x`` with ``y`` permuted by each row of
    ``perms``, as the V-statistic (S1 - 2·S2/n + a··b··/n²)/n².

    S2 = Σᵢ aᵢ·bᵢ· pairs the distance row sums.  S1 = Σᵢⱼ |xᵢ-xⱼ||yᵢ-yⱼ| is
    2(T - 2D): T = nΣxy - ΣxΣy sums (xⱼ-xᵢ)(yⱼ-yᵢ) over all pairs, and D the
    same over the discordant ones, whose terms are negative.
    """
    n = len(x.values)
    paired = perms[:, x.order]  # y's row paired with each place of x's line
    ys = y.values[paired]
    t = n * (ys * x.line).sum(axis=1) - x.total * y.total
    s1 = 2 * (t - 2 * x.discordance(ys))
    s2 = (y.rows[paired] * x.rows[x.order]).sum(axis=1)
    return (s1 - (2 * s2 - x.rows_total * y.rows_total / n) / n) / (n * n)


class _DistanceCorrelation:
    """Distance correlation of ``x`` with ``y``, and with permutations of y.

    The one place that looks at the width.  Two one-column inputs go to
    :class:`_Line`, at O(n log n) per statistic, and never build an n×n array;
    one-hot or multi-column points keep the double-centred distance
    matrices, at O(n²).  ``entries`` counts the float64s one permutation
    keeps alive at once.  ``observed`` is the dCor of the pairs as given,
    through the same arithmetic as every permutation; a constant input
    leaves ``scale`` None and ``observed`` 0.
    """

    def __init__(self, x_points, y_points):
        n = len(x_points)
        if x_points.shape[1] == y_points.shape[1] == 1:
            self._x, self._y = _Line(x_points[:, 0]), _Line(y_points[:, 0])
            self._dcov2 = _line_dcov2
            # About 16 float64s per padded point are alive at once, at the
            # merge levels' four running sums.
            self.entries = 16 * self._x.leaf_line.size
        else:
            self._x, self._y = (_centered_distances(_unit_scaled(p)) for p in (x_points, y_points))
            self._dcov2 = _matrix_dcov2
            self.entries = n * n
        identity = np.arange(n)[None]
        dvar_x = self._dcov2(self._x, self._x, identity)[0]
        dvar_y = self._dcov2(self._y, self._y, identity)[0]
        self.scale = np.sqrt(dvar_x * dvar_y) if dvar_x > 0.0 and dvar_y > 0.0 else None
        self.observed = 0.0 if self.scale is None else float(self(identity)[0])

    def __call__(self, perms):
        """dCor in [0, 1] of x with y[perm], for each row ``perm`` of ``perms``."""
        dcov2 = self._dcov2(self._x, self._y, perms)
        return np.minimum(np.sqrt(np.maximum(dcov2, 0.0) / self.scale), 1.0)


def distance_correlation(x, y) -> float:
    """Sample distance correlation in [0, 1]; 0 iff (in the limit) independent.

    The statistic of :func:`pairwise_independence_test`, by the same path and
    with the same finite-input check.
    """
    return _DistanceCorrelation(*_point_matrices(x, y)).observed


# A p-value resolution of 1e-6.  Each permutation is a pass over the data, so
# this bounds the test's time; 10**18 permutations would never finish.
MAX_PERMUTATIONS = 1_000_000


def pairwise_independence_test(x, y, num_permutations=199, seed=0) -> TestResult:
    """Distance-correlation permutation test of pairwise independence.

    Categorical inputs are one-hot encoded before pairwise distances; a NaN
    or infinite value raises :class:`DataError`.  The p-value is the
    add-one-smoothed fraction of permutations of ``y`` whose statistic
    reaches the observed one, so its resolution is 1/(B+1).  ``B`` is at most
    :data:`MAX_PERMUTATIONS`; a larger one raises :class:`QueryError` at
    once, rather than running for hours.

    Two one-column numeric inputs cost O(B·n log n): no n×n array is built,
    and permutations are evaluated in chunks that hold about two million
    float64s at once (16 per point and permutation).  Their dCor² agrees
    with the double-centred O(n²) formula within 1e-12, absolute; only the
    summation order differs.  Other points, one-hot or wider, build the
    double-centred n×n distance matrices and cost O(B·n²).  Their squared
    coordinate gaps would overflow past a gap of about 1.3e154 (the square
    root of the largest double), so each input is first scaled by a power of
    two: that is exact, keeps every coordinate gap of finite input within 2
    and leaves the statistic's bits as they were.
    """
    num_permutations = require_count(num_permutations, "num_permutations", maximum=MAX_PERMUTATIONS)
    x_matrix, y_matrix = _point_matrices(
        x, y, minimum=10, too_few="independence test needs at least 10 observations"
    )
    n = len(x_matrix)

    dcor = _DistanceCorrelation(x_matrix, y_matrix)
    if dcor.scale is None:
        # A constant input carries no information: dCor is undefined, never reject.
        return TestResult(0.0, 1.0, "distance_correlation_permutation", num_permutations)

    rng = rng_for(seed, "dcor-permutations")
    exceed = 0
    chunk = _block_rows(dcor.entries)
    for start in range(0, num_permutations, chunk):
        perms = np.array([rng.permutation(n) for _ in range(min(chunk, num_permutations - start))])
        exceed += int(np.count_nonzero(dcor(perms) >= dcor.observed))
    p_value = (1 + exceed) / (num_permutations + 1)
    return TestResult(dcor.observed, p_value, "distance_correlation_permutation", num_permutations)


# Cephes' rational approximations of erf and erfc (ndtr.c), as scipy.special
# evaluates them, highest power first.  Cephes leaves the leading 1 of the Q,
# S and U denominators implicit (``p1evl``); it is written out here, since
# ``1.0 * x + c`` rounds as ``x + c`` does.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # log(2**1024); erfc is 0.0 once x² passes it


def _polevl(x, coefficients):
    """Cephes' ``polevl``: the polynomial at ``x`` by Horner's rule."""
    value = coefficients[0]
    for coefficient in coefficients[1:]:
        value = value * x + coefficient
    return value


def _erf(x):
    """Cephes ``erf`` for ``0 <= x <= 1``."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x):
    """Cephes ``erfc`` for ``x >= 1/√2``, with ``math.exp`` (libm's, like
    scipy's compiled Cephes) for the Gaussian factor."""
    if x < 1.0:
        return 1.0 - _erf(x)
    exponent = -x * x
    if exponent < -_MAXLOG:
        return 0.0
    if x < 8.0:
        numerator, denominator = _polevl(x, _ERFC_P), _polevl(x, _ERFC_Q)
    else:
        numerator, denominator = _polevl(x, _ERFC_R), _polevl(x, _ERFC_S)
    return math.exp(exponent) * numerator / denominator


def _two_sided_normal_p(statistic):
    """P(|N(0, 1)| >= statistic) for ``statistic >= 0``, bit for bit
    ``2 * scipy.special.ndtr(-statistic)``.

    Cephes' ``ndtr(a)`` at ``a = -statistic`` takes ``x = statistic/√2`` and
    returns ``0.5 - 0.5 * erf(x)`` below ``x = 1/√2`` and ``0.5 * erfc(x)``
    from there; these are the only branches a non-negative statistic reaches.
    """
    if math.isnan(statistic):
        return math.nan
    x = float(statistic) * _SQRT1_2
    tail = 0.5 - 0.5 * _erf(x) if x < _SQRT1_2 else 0.5 * _erfc(x)
    return 2 * tail


def _centred_column(data: Dataset, name):
    """``name``'s column, scaled by :func:`_unit_scaled` and less its mean,
    computed once per dataset.  The scaling is exact, so every correlation
    keeps its bits, and no product of two such columns can overflow.  A
    constant column centres to exact zeros, not to its mean's rounding
    residue, which would correlate perfectly with another constant's."""
    centred = data._memo.get(("centred", name))
    if centred is None:
        column = _unit_scaled(data.column(name))
        centred = column - column.mean() if column.min() < column.max() else np.zeros_like(column)
        data._memo["centred", name] = centred
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
            key = ("product", first, second) if first <= second else ("product", second, first)
            product = data._memo.get(key)
            if product is None:
                product = data._memo[key] = float(
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
    matrix whose inverse fails, is not finite or has diagonal entries of
    opposite signs (x or y determined by the conditioning set) is ridge
    regularised (1e-10) and inverted anyway.  A constant column correlates
    with nothing, so a test that names one has p = 1.
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
        if data.kind(name) != CONTINUOUS:
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
        if not (np.all(np.isfinite(precision)) and precision[0, 0] * precision[1, 1] > 0):
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
    rho = np.maximum(NeighbourIndex(p, k + 1).kth_distances(p), 1e-12)
    nu = np.maximum(NeighbourIndex(q, k).kth_distances(p), 1e-12)
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


@np.errstate(over="ignore", invalid="ignore")
def _squared_gaps(u, v, out=None):
    """``(u - v)**2`` over broadcast coordinates, ``inf`` where it overflows
    and NaN where ``u`` and ``v`` are the same infinity."""
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


def _block_rows(width):
    """Rows of a ``width``-wide matrix that make about two million entries."""
    return max(1, int(_BLOCK_ENTRIES / max(width, 1)))


def _row_blocks(n_rows, width):
    """Slices of ``n_rows`` query rows, each holding about two million
    entries of a matrix ``width`` columns wide."""
    chunk = _block_rows(width)
    return [slice(start, start + chunk) for start in range(0, n_rows, chunk)]


def _pattern_keys(patterns):
    """One key per row of the 0/1 matrix ``patterns``: its bits packed into
    a void scalar, which numpy sorts, searches and compares bytewise.  Rows
    with no columns all get the same key, one zero byte."""
    bits = patterns == 1.0
    packed = np.packbits(bits, axis=1) if bits.shape[1] else np.zeros((len(bits), 1), np.uint8)
    return np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[1])))[:, 0]


def _run_starts(line):
    """For each place of the sorted array ``line``, the first place of its
    run of equal values."""
    places = np.arange(len(line))
    first = np.ones(len(line), dtype=bool)
    first[1:] = line[1:] != line[:-1]
    return np.maximum.accumulate(np.where(first, places, 0))


class NeighbourIndex:
    """Exact ``k`` nearest neighbours among the rows of ``reference``, a 2-D
    array of at least ``k`` rows.

    Built once per reference and k, it is the one place that looks at the
    width.  A column whose reference values are all 0.0 or 1.0 is a 0/1
    column.  When at most one column is not, that one (or else the last
    column) is the line column, and the rows are grouped by their pattern
    over the other columns.  Each group is a line: its rows sorted stably by
    the line column, so ties keep index order.  Within a group every other
    gap is +0.0, so a distance is exactly the line's gap; a row of another
    group differs by 1 in some column and lies at least 1.0 away.

    A query searches its group's line.  Distances fall along the line up to
    the query's place and rise after, so the k nearest points are a run of k
    places that starts at most k places before it; a later point of a run of
    equal values is as far as the run's first ones and ranks after them, so
    each run of equal values is cut to its first k points at build.  A
    bisection finds the run of k places whose farther end is nearest, and
    that end's distance is the k-th distance.  When both places just outside
    the run are farther, the run is the answer; when one ties, the ``2k + 2``
    places around the query's place are ranked by distance and index, and
    searched again twice as wide while the tie reaches the window's edge.  A
    group's answer is final when its k-th distance is below 1.0, or when the
    group is the whole reference and the distance is not NaN.  The query is
    compared with every row instead when its 0/1 pattern is not in the
    reference (a 0/1 column of it holding another value included), when its
    line value is NaN, when its group has fewer than k rows, or when that
    distance is 1.0 or more.  m queries cost O(m·(log n + k)) on the lines.
    References with two or more other columns are always compared with every
    row.  A comparison with every row selects each query's k least distances
    (``np.argpartition``).  When more than k distances are at most the k-th,
    or the k-th is NaN, the selection may hold the wrong ties, so the row
    keeps every distance below the k-th and the lowest-indexed ones equal to
    it: the rows of a stable argsort.  Queries are 2-D and answered in
    blocks of about two million candidates, each freed before the next is
    built.
    """

    def __init__(self, reference, k):
        self.reference = reference
        self.k = k
        binary = np.all((reference == 0.0) | (reference == 1.0), axis=0)
        free = np.flatnonzero(~binary)
        self._column = None
        if len(free) > 1:
            return
        n, width = reference.shape
        self._column = int(free[0]) if len(free) else width - 1
        self._pattern = np.delete(np.arange(width), self._column)
        values = reference[:, self._column]
        by_value = np.argsort(values, kind="stable")
        self._values = values[by_value]
        rank = np.empty(n, dtype=np.intp)
        rank[by_value] = _run_starts(self._values)
        keys = _pattern_keys(reference[:, self._pattern])
        index = by_value[np.argsort(keys[by_value], kind="stable")]
        keys = keys[index]
        first = np.ones(n, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        self._group_keys = keys[first]
        # Each point's place key: its group times n + 1 plus the rank of its
        # value, the first place of that value in the sorted column, so a
        # searchsorted on the keys finds a query's place in its group.
        keys = (np.cumsum(first) - 1) * (n + 1) + rank[index]
        # Only the first k points of a run of equal keys can be among the k
        # nearest, so the rest are cut.
        kept = np.flatnonzero(np.arange(n) - _run_starts(keys) < k)
        index, self._keys = index[kept], keys[kept]
        # Group g runs over places [bounds[g], bounds[g + 1]); the group after
        # the last is empty.  ``index`` and ``line`` end with one more place,
        # past every group, whose index n ranks after every row.
        self._bounds = np.searchsorted(self._keys, np.arange(len(self._group_keys) + 2) * (n + 1))
        self._index = np.append(index, n)
        self._line = np.append(values[index], 0.0)

    def _groups(self, queries):
        """Each query's group, or the empty group after the last where its
        line value is NaN, which has no place on a line, or its 0/1 pattern
        is not in the reference."""
        known = ~np.isnan(queries[:, self._column])
        group = np.zeros(len(queries), dtype=np.intp)
        if self._pattern.size:
            patterns = queries[:, self._pattern]
            keys = _pattern_keys(patterns)
            group = np.minimum(np.searchsorted(self._group_keys, keys), len(self._group_keys) - 1)
            known &= (self._group_keys[group] == keys) & np.all((patterns == 0.0) | (patterns == 1.0), axis=1)
        return np.where(known, group, len(self._group_keys))

    def _places(self, queries):
        """``(values, place, low, high)``: each query's line value, and its
        place on its group's line, which runs over places [low, high): the
        first point of the group whose value is not below the query's."""
        n = len(self.reference)
        values = queries[:, self._column]
        group = self._groups(queries)
        # Searched in value order, which reads the sorted arrays front to
        # back: several times faster than in query order.
        by_value = np.argsort(values)
        rank = np.searchsorted(self._values, values[by_value])
        place = np.empty_like(group)
        place[by_value] = np.searchsorted(self._keys, group[by_value] * (n + 1) + rank)
        return values, place, self._bounds[group], self._bounds[group + 1]

    def _window(self, queries, count):
        """``(positions, distances, low, high)`` for the ``count`` places on
        either side of each query's place on its group's line (shifted inward
        at the group's ends).  Places past the group's end move to the place
        past every group, at distance inf."""
        values, place, low, high = self._places(queries)
        start = np.maximum(np.minimum(place - count, high - 2 * count), low)
        positions = start[:, None] + np.arange(2 * count)
        past = positions >= high[:, None]
        positions[past] = len(self._keys)
        distances = _gaps(values[:, None], self._line[positions])
        distances[past] = np.inf
        return positions, distances, low, high

    @np.errstate(over="ignore", invalid="ignore")
    def _run(self, queries):
        """``(start, radius, alone, low, high)``: the run of k places from
        ``start`` on each query's group line whose farther end is nearest,
        and that end's distance, the query's k-th distance in its group.
        ``alone`` is whether both places just outside the run (those inside
        the group) are farther than ``radius``, so that the run holds the k
        nearest points and no point ties with its k-th.

        The run starts within k places before the query's place.  Moving it
        one place on drops its first point for the point after its last, and
        the bisection moves on while the first point's rounded signed gap to
        the query exceeds the next point's.  That holds for a prefix of the
        k + 1 starts, so log2(k + 1) steps find where it stops; and rounded
        gaps never order two points against their distances, so that run's
        farther end is as near as any run's, even where distances round to
        equal.  A group of fewer than k points gets the run from place 0,
        which no caller keeps."""
        k = self.k
        values, place, low, high = self._places(queries)
        short = high - low < k
        first = np.where(short, 0, np.maximum(place - k, low))
        last = np.where(short, 0, np.minimum(place, high - k))
        for _ in range(int(k).bit_length()):
            middle = (first + last) >> 1
            on = (values - self._line[middle] > self._line[middle + k] - values) & (middle < last)
            first = np.where(on, middle + 1, first)
            last = np.where(on, last, middle)
        # Distances to the places before the run, at its ends and after it.
        distances = _gaps(values[:, None], self._line[first[:, None] + np.array([-1, 0, k - 1, k])])
        radius = np.maximum(distances[:, 1], distances[:, 2])
        alone = ((first == low) | (distances[:, 0] > radius)) & (
            (first + k == high) | (distances[:, 3] > radius)
        )
        return first, radius, alone, low, high

    def _final(self, radius, low, high):
        """Whether each query's group answer holds: its group has k rows and
        no other row can be as near as its ``radius``.  A NaN radius, from an
        infinite query beside the same infinity, is never final."""
        near = radius < 1.0 if len(self._group_keys) > 1 else ~np.isnan(radius)
        return (high - low >= self.k) & near

    def _blocks(self, queries):
        width = len(self.reference) if self._column is None else 2 * self.k + 2
        return _row_blocks(len(queries), width)

    def _scanned(self, queries, rows, answer, scan):
        """Fill ``answer[rows]`` by ``scan`` against every reference row, in
        blocks of about two million distances."""
        for block in _row_blocks(len(rows), len(self.reference)):
            answer[rows[block]] = scan(queries[rows[block]])
        return answer

    def nearest(self, queries):
        """Yield ``(rows, order)`` over row blocks of ``queries``.

        ``order[i]`` holds the indices of the k reference rows nearest to
        ``queries[rows][i]``, in ascending order: those of a stable argsort
        of the distance row, truncated to k, so among equal distances the
        lowest indices win.
        """
        for rows in self._blocks(queries):
            yield rows, self._nearest(queries[rows])

    def _scan_nearest(self, queries):
        k = self.k
        distances = pairwise_distances(queries, self.reference)
        # A copy, so the (rows, n) partition is freed before the tie search.
        chosen = np.argpartition(distances, k - 1, axis=1)[:, :k].copy()
        kth = np.take_along_axis(distances, chosen[:, -1:], axis=1)
        # The selection holds the k least distances, but when more than k
        # are at most the k-th, it may hold the wrong ones at exactly that
        # distance.  NaN sorts last, so a NaN k-th distance is always such a
        # tie.  A tied row keeps every distance below the k-th and the
        # lowest-indexed ones equal to it.
        tied = np.flatnonzero(np.isnan(kth[:, 0]) | (np.count_nonzero(distances <= kth, axis=1) > k))
        if tied.size:
            unknown, missing = np.isnan(distances), np.isnan(kth)
            below = np.where(missing, ~unknown, distances < kth)[tied]
            at = np.where(missing, unknown, distances == kth)[tied]
            slots = k - np.count_nonzero(below, axis=1)
            # A row has at most n ties, so the cumsum's type holds n and no
            # more, which keeps it small beside the distance block.
            ranks = np.cumsum(at, axis=1, dtype=np.min_scalar_type(distances.shape[1]))
            chosen[tied] = np.nonzero(below | (at & (ranks <= slots[:, None])))[1].reshape(-1, k)
        return np.sort(chosen, axis=1)

    def _nearest(self, queries):
        if self._column is None:
            return self._scan_nearest(queries)
        start, radius, alone, low, high = self._run(queries)
        order = self._index[start[:, None] + np.arange(self.k)]
        final = self._final(radius, low, high)
        # A point outside the run ties with its k-th distance, and may go on
        # past it: the lowest indices among the tied points win.
        rows = np.flatnonzero(final & ~alone)
        for block in _row_blocks(len(rows), 2 * self.k + 2):
            order[rows[block]] = self._ranked(queries[rows[block]], self.k + 1)
        order.sort(axis=1)
        return self._scanned(queries, np.flatnonzero(~final), order, self._scan_nearest)

    def _ranked(self, queries, count):
        """The k nearest to each query, ranked by distance and index, from
        the ``count`` places on either side of its place.  Each query's k-th
        distance in its group must be final."""
        positions, distances, low, high = self._window(queries, count)
        index = self._index[positions]
        ranked = np.lexsort((index, distances))[:, : self.k]
        order = np.take_along_axis(index, ranked, axis=1)
        radius = np.take_along_axis(distances, ranked[:, -1:], axis=1)[:, 0]
        # The window holds every point nearer than the k-th distance.  Points
        # at exactly that distance may go on past an edge, and the lowest
        # indices among them win: search those rows again, twice as wide, until
        # each edge is farther than the k-th distance or ends the group.
        open_tie = ((positions[:, 0] > low) & (distances[:, 0] == radius)) | (
            (positions[:, -1] < high - 1) & (distances[:, -1] == radius)
        )
        rows = np.flatnonzero(open_tie)
        for block in _row_blocks(len(rows), 4 * count):
            order[rows[block]] = self._ranked(queries[rows[block]], 2 * count)
        return order

    def kth_distances(self, queries):
        """Distance from each row of ``queries`` to its k-th nearest
        reference row."""
        out = np.empty(len(queries))
        for rows in self._blocks(queries):
            out[rows] = self._kth_distances(queries[rows])
        return out

    def _scan_kth(self, queries):
        return np.partition(pairwise_distances(queries, self.reference), self.k - 1, axis=1)[:, self.k - 1]

    def _kth_distances(self, queries):
        if self._column is None:
            return self._scan_kth(queries)
        _, radius, _, low, high = self._run(queries)
        return self._scanned(queries, np.flatnonzero(~self._final(radius, low, high)), radius, self._scan_kth)
