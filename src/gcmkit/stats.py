"""Statistical toolbox: independence tests, a two-sample KS statistic and
nonparametric KL estimation.

Distances are Euclidean throughout.  Nearest neighbours, here and in
:class:`~gcmkit.mechanisms.KnnRegressor`, are found by one chunked exhaustive
search (:func:`distance_blocks`) with no spatial index, so the KL estimator
costs O(n·(n + m)) distance evaluations for n samples of P and m of Q.

Importing this module loads numpy only.  ``scipy.spatial`` (pairwise
distances, for kNN, KL and distance correlation) and ``scipy.special``
(the normal tail, for Fisher-z) are imported inside the functions that use
them, so a process that asks neither question never pays their import.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .data import Dataset, one_hot
from .exceptions import DataError, QueryError
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
    if array.ndim == 2:
        return array.astype(np.float64)
    if array.ndim != 1:
        raise DataError("test inputs must be one- or two-dimensional")
    if np.issubdtype(array.dtype, np.number):
        return array.astype(np.float64)[:, None]
    return one_hot(array, np.unique(array.astype(str)))


def _double_centered(distances):
    row_means = distances.mean(axis=1, keepdims=True)
    col_means = distances.mean(axis=0, keepdims=True)
    return distances - row_means - col_means + distances.mean()


def _centered_distances(points):
    """Double-centred matrix of pairwise distances between the rows of ``points``."""
    from scipy.spatial.distance import cdist

    return _double_centered(cdist(points, points))


def distance_correlation(x, y) -> float:
    """Sample distance correlation in [0, 1]; 0 iff (in the limit) independent."""
    a = _centered_distances(_as_point_matrix(x))
    b = _centered_distances(_as_point_matrix(y))
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
    if num_permutations < 1:
        raise QueryError("num_permutations must be at least 1")
    x_matrix = _as_point_matrix(x)
    y_matrix = _as_point_matrix(y)
    if len(x_matrix) != len(y_matrix):
        raise DataError("x and y must have the same length")
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


def fisher_z_test(data: Dataset, x, y, conditioning_set=()) -> TestResult:
    """Partial-correlation (Fisher z) test of x ⊥ y given the conditioning set.

    All columns must be continuous.  The partial correlation comes from the
    inverse of the correlation submatrix; a singular matrix is ridge
    regularised (1e-10) and inverted anyway.
    """
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
    columns = np.column_stack([data.column(name) for name in (first, second, *conditioning_set)])
    covariance = np.cov(columns, rowvar=False)
    covariance = np.atleast_2d(covariance)
    scale = np.sqrt(np.diag(covariance))
    scale = np.where(scale > 0, scale, 1.0)
    correlation = covariance / np.outer(scale, scale)
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


def distance_blocks(queries, width):
    """Yield ``(start, distances_to)`` over row blocks of ``queries``.

    ``distances_to(reference)`` is the distance matrix from the block, rows
    ``start:start + len(block)``, to the rows of ``reference``.  Blocks are
    sized so that a matrix against up to ``width`` reference rows holds about
    two million entries; a caller that computes one matrix at a time keeps
    at most one alive.
    """
    from scipy.spatial.distance import cdist

    chunk = max(1, int(2_000_000 / max(width, 1)))
    for start in range(0, len(queries), chunk):
        yield start, functools.partial(cdist, queries[start : start + chunk])


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


def _kth_smallest(distances, k):
    return np.partition(distances, k, axis=1)[:, k]


def kl_divergence(samples_p, samples_q, k=5) -> float:
    """k-NN estimate of KL(P || Q) from samples, clamped below at zero.

    Uses the ratio of the k-th nearest-neighbour distance within P (excluding
    the point itself) to the k-th nearest-neighbour distance into Q.
    """
    p = np.asarray(samples_p, dtype=np.float64)
    q = np.asarray(samples_q, dtype=np.float64)
    if p.ndim == 1:
        p = p[:, None]
    if q.ndim == 1:
        q = q[:, None]
    if p.shape[1] != q.shape[1]:
        raise DataError(f"dimension mismatch: {p.shape[1]} vs {q.shape[1]}")
    n, d = p.shape
    m = q.shape[0]
    if n < k + 1 or m < k + 1:
        raise QueryError(f"k-NN KL estimation needs at least k+1 = {k + 1} samples per side")

    log_ratio_sum = 0.0
    for _, distances_to in distance_blocks(p, max(n, m)):
        # k-th neighbour in P excluding the point itself: position k including it.
        rho = _kth_smallest(distances_to(p), k)
        nu = _kth_smallest(distances_to(q), k - 1)
        rho = np.maximum(rho, 1e-12)
        nu = np.maximum(nu, 1e-12)
        log_ratio_sum += float(np.sum(np.log(nu / rho)))

    estimate = d / n * log_ratio_sum + np.log(m / (n - 1))
    return max(float(estimate), 0.0)
