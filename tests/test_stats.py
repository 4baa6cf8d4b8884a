import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.stats import ks_2samp, norm

from gcmkit import (
    DataError,
    Dataset,
    QueryError,
    fisher_z_test,
    kl_divergence,
    pairwise_independence_test,
)
from gcmkit import stats
from gcmkit.stats import (
    NeighbourIndex,
    _two_sided_normal_p,
    distance_correlation,
    ks_statistic,
    pairwise_distances,
)


def bits(value):
    """The float64 bit pattern, so that -0.0 and +0.0 differ."""
    return np.float64(value).view(np.int64)


def dataset_with_exact_correlation(r, n=100, seed=0):
    """Two centred unit columns whose sample correlation is exactly ``r``."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    e = rng.standard_normal(n)
    x = x - x.mean()
    e = e - e.mean()
    e = e - (e @ x) / (x @ x) * x
    x = x / np.linalg.norm(x)
    e = e / np.linalg.norm(e)
    y = r * x + math.sqrt(1 - r * r) * e
    return Dataset(["x", "y"], [x, y])


class TestPairwiseIndependence:
    def test_perfect_dependence_reaches_smallest_p(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        result = pairwise_independence_test(x, x, num_permutations=199, seed=0)
        assert result.p_value == pytest.approx(1 / 200)
        assert result.statistic == pytest.approx(1.0, abs=1e-9)

    def test_constant_input_degenerates_to_p_one(self):
        x = np.zeros(20)
        y = np.arange(20.0)
        result = pairwise_independence_test(x, y)
        assert result.p_value == 1.0
        assert result.statistic == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="same length"):
            pairwise_independence_test(np.arange(10.0), np.arange(11.0))

    def test_too_few_observations(self):
        with pytest.raises(DataError, match="at least 10"):
            pairwise_independence_test(np.arange(5.0), np.arange(5.0))

    @pytest.mark.parametrize("width", ["x", "y"])
    def test_zero_width_points_rejected(self, width):
        points = {"x": np.arange(20.0), "y": np.arange(20.0), width: np.empty((20, 0))}
        with pytest.raises(DataError, match="at least one column"):
            pairwise_independence_test(points["x"], points["y"])

    def test_categorical_inputs_accepted(self):
        rng = np.random.default_rng(2)
        labels = np.array(["a", "b"] * 30, dtype=object)
        x = np.where(labels == "a", 1.0, -1.0) + 0.1 * rng.standard_normal(60)
        result = pairwise_independence_test(x, labels, num_permutations=99, seed=1)
        assert result.p_value == pytest.approx(1 / 100)

    def test_seed_determinism(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(40), rng.standard_normal(40)
        a = pairwise_independence_test(x, y, seed=5)
        b = pairwise_independence_test(x, y, seed=5)
        assert a == b

    def test_null_calibration_at_alpha_05(self):
        # independent uniforms: rejection rate should track alpha
        rejections = 0
        repetitions = 200
        for rep in range(repetitions):
            rng = np.random.default_rng(10_000 + rep)
            x = rng.uniform(size=200)
            y = rng.uniform(size=200)
            result = pairwise_independence_test(x, y, num_permutations=199, seed=rep)
            if result.p_value <= 0.05:
                rejections += 1
        assert 0.02 <= rejections / repetitions <= 0.09


class TestDistanceCorrelation:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(60)
        assert distance_correlation(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y = rng.standard_normal(40), rng.standard_normal(40)
            assert 0.0 <= distance_correlation(x, y) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="same length"):
            distance_correlation(np.arange(10.0), np.arange(11.0))

    def test_zero_width_points_rejected(self):
        with pytest.raises(DataError, match="at least one column"):
            distance_correlation(np.empty((12, 0)), np.arange(12.0))


class TestFisherZ:
    def test_known_statistic_for_r_half(self):
        data = dataset_with_exact_correlation(0.5, n=100)
        result = fisher_z_test(data, "x", "y")
        expected_statistic = math.sqrt(97) * math.atanh(0.5)
        assert result.statistic == pytest.approx(expected_statistic, rel=1e-9)
        assert result.statistic == pytest.approx(5.41, abs=0.01)
        assert result.p_value == pytest.approx(6.3e-8, rel=0.05)

    def test_zero_correlation_gives_p_one(self):
        data = dataset_with_exact_correlation(0.0, n=100)
        result = fisher_z_test(data, "x", "y")
        assert result.statistic == pytest.approx(0.0, abs=1e-6)
        assert result.p_value == pytest.approx(1.0, abs=1e-5)

    def test_conditional_independence_in_mediation_chain(self):
        # x -> z -> y: conditioning on z should remove the dependence
        keep = 0
        for rep in range(100):
            rng = np.random.default_rng(20_000 + rep)
            x = rng.standard_normal(2000)
            z = x + rng.standard_normal(2000)
            y = z + rng.standard_normal(2000)
            data = Dataset(["x", "y", "z"], [x, y, z])
            if fisher_z_test(data, "x", "y", ["z"]).p_value > 0.05:
                keep += 1
        assert keep >= 90

    def test_symmetric_in_arguments_bit_exactly(self):
        rng = np.random.default_rng(6)
        data = Dataset(
            ["a", "b", "c"],
            [rng.standard_normal(200), rng.standard_normal(200), rng.standard_normal(200)],
        )
        forward = fisher_z_test(data, "a", "b", ["c"])
        backward = fisher_z_test(data, "b", "a", ["c"])
        assert forward.p_value == backward.p_value
        assert forward.statistic == backward.statistic

    def test_categorical_column_rejected(self):
        data = Dataset(["x", "c"], [np.arange(30.0), np.array(["u", "v"] * 15, dtype=object)])
        with pytest.raises(DataError, match="continuous"):
            fisher_z_test(data, "x", "c")

    def test_needs_enough_rows(self):
        data = Dataset(["x", "y"], [np.arange(3.0), np.arange(3.0)])
        with pytest.raises(QueryError, match="rows"):
            fisher_z_test(data, "x", "y")

    def test_identical_columns_still_finite(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(50)
        data = Dataset(["x", "y"], [x, x.copy()])
        result = fisher_z_test(data, "x", "y")
        assert math.isfinite(result.statistic)
        assert result.p_value <= 1e-12

    def test_bare_string_conditioning_set_rejected(self):
        rng = np.random.default_rng(8)
        data = Dataset(["x", "y", "a", "b", "ab"], [rng.standard_normal(30) for _ in range(5)])
        with pytest.raises(QueryError, match="sequence of column names"):
            fisher_z_test(data, "x", "y", "ab")
        assert fisher_z_test(data, "x", "y", ["ab"]).conditioning_set_size == 1

    @pytest.mark.parametrize("statistic", [0.0, 1e-300, 1.0, 8.3, 38.5, 40.0])
    def test_p_value_bits_match_scipy_normal_tail(self, statistic):
        assert bits(_two_sided_normal_p(statistic)) == bits(2 * norm.sf(statistic))

    @pytest.mark.parametrize("r", [0.0, 0.05, 0.3, 0.8, 0.99])
    def test_reported_p_value_is_the_normal_tail_of_the_statistic(self, r):
        result = fisher_z_test(dataset_with_exact_correlation(r, n=200), "x", "y")
        assert bits(result.p_value) == bits(2 * norm.sf(result.statistic))


def fisher_z_reference(data, x, y, conditioning_set=()):
    """Fisher-z statistic from ``np.cov`` of the involved columns, the way
    the test built its correlation matrix before the per-dataset memo."""
    first, second = sorted((x, y))
    columns = np.column_stack([data.column(name) for name in (first, second, *conditioning_set)])
    covariance = np.atleast_2d(np.cov(columns, rowvar=False))
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
    return float(np.sqrt(data.n_rows - len(conditioning_set) - 3) * abs(z))


def reference_fixture():
    """A chain a -> b -> c, a column d leaning on a, a constant column k and
    a column t that is an exact copy of b."""
    rng = np.random.default_rng(5)
    n = 300
    a = rng.standard_normal(n)
    b = a + rng.standard_normal(n)
    c = b + rng.standard_normal(n)
    d = rng.standard_normal(n) + 0.3 * a
    return Dataset(["a", "b", "c", "d", "k", "t"], [a, b, c, d, np.full(n, 2.0), b.copy()])


# (x, y, conditioning set, whether the correlation matrix is singular)
REFERENCE_CASES = [
    ("a", "b", (), False),
    ("a", "c", ("b",), False),
    ("a", "c", ("b", "d"), False),
    ("c", "d", ("a", "b", "k"), False),
    ("a", "k", (), False),
    ("a", "c", ("k", "b", "d"), False),
    ("b", "t", (), True),
    ("b", "t", ("a",), True),
    ("a", "c", ("b", "t"), True),
    ("a", "d", ("b", "t", "k"), True),
    ("k", "t", ("a", "b", "c"), True),
]


class TestFisherZMemo:
    @pytest.mark.parametrize("x, y, given, singular", REFERENCE_CASES)
    def test_matches_the_np_cov_reference(self, monkeypatch, x, y, given, singular):
        data = reference_fixture()
        expected = fisher_z_reference(data, x, y, given)
        inversions = []
        invert = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda m: inversions.append(m) or invert(m))
        result = fisher_z_test(data, x, y, given)
        assert result.statistic == pytest.approx(expected, rel=1e-12, abs=0.0)
        # A singular matrix fails the first inversion and takes the ridge.
        assert len(inversions) == (2 if singular else 1)

    def test_memo_fills_lazily_with_name_sorted_pairs(self):
        data = reference_fixture()
        assert data._centred_columns == {} and data._centred_products == {}
        fisher_z_test(data, "c", "a", ["b"])
        assert set(data._centred_columns) == {"a", "b", "c"}
        assert set(data._centred_products) == {
            ("a", "a"), ("a", "b"), ("a", "c"), ("b", "b"), ("b", "c"), ("c", "c"),
        }
        assert not any(column.flags.writeable for column in data._centred_columns.values())
        assert data.select(["a", "b"])._centred_products == {}

    def test_bits_do_not_depend_on_the_table_width(self):
        """On a 30-column table, where a product taken from one full-width
        matrix product would differ in its last bits from a narrow one."""
        rng = np.random.default_rng(11)
        names = [f"c{i:02d}" for i in range(30)]
        values = rng.standard_normal((2000, 30)) @ rng.standard_normal((30, 30))
        data = Dataset(names, list(values.T))
        for size in range(2, 6):
            for _ in range(12):
                x, y, *given = rng.choice(names, size, replace=False).tolist()
                wide = fisher_z_test(data, x, y, given)
                narrow = fisher_z_test(data.select([x, y, *given]), x, y, given)
                assert bits(wide.statistic) == bits(narrow.statistic)
                assert bits(wide.p_value) == bits(narrow.p_value)

    @given(case=st.data())
    @settings(max_examples=100, deadline=None)
    def test_memo_cannot_change_a_result(self, case):
        """A test's bits match the same test on a selection of its columns and
        on a fresh copy where other tests, in a random order, ran first; the
        memo leaves the public view of the table untouched."""
        width = case.draw(st.integers(3, 6), label="width")
        n = case.draw(st.integers(8, 40), label="rows")
        seed = case.draw(st.integers(0, 2**32 - 1), label="seed")
        decimals = case.draw(st.sampled_from([None, 0, 1]), label="decimals")
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, width)) @ rng.standard_normal((width, width))
        if decimals is not None:
            values = np.round(values, decimals)
        names = [f"c{i}" for i in range(width)]
        data = Dataset(names, list(values.T))

        def draw_test(label):
            order = case.draw(st.permutations(names), label=label)
            size = case.draw(st.integers(0, min(3, width - 2)), label=f"{label} size")
            return order[0], order[1], tuple(order[2 : 2 + size])

        x, y, given = draw_test("test")
        others = [draw_test(f"other {i}") for i in range(case.draw(st.integers(1, 6), label="others"))]
        columns = [data.column(name).copy() for name in names]
        rows = [data.row(0), data.row(n - 1)]

        result = fisher_z_test(data, x, y, given)
        on_selection = fisher_z_test(data.select([x, y, *given]), x, y, given)
        copy = Dataset(names, columns)
        for other in others:
            fisher_z_test(copy, *other)
        after_others = fisher_z_test(copy, x, y, given)
        for rerun in (on_selection, after_others):
            assert bits(rerun.statistic) == bits(result.statistic)
            assert bits(rerun.p_value) == bits(result.p_value)

        for name, column in zip(names, columns):
            assert np.array_equal(data.column(name), column)
            assert not data.column(name).flags.writeable
        assert [data.row(0), data.row(n - 1)] == rows
        selected = data.select(names[::-1])
        assert selected.column_names == tuple(names[::-1])
        assert all(np.array_equal(selected.column(name), data.column(name)) for name in names)


class TestKsStatistic:
    @pytest.mark.parametrize(
        "a, b",
        [
            ([1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 2.0, 5.0, 5.0]),  # heavy ties
            ([0.5, -1.0, 3.0], [3.0, 0.5, -1.0]),  # identical samples: +0.0
            ([0.0], [1.0]),  # size 1
            ([2.0], [-3.0, 2.0, 7.0]),
        ],
    )
    # For two size-1 samples scipy's asymptotic p-value, unused here, divides by zero.
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_bits_match_scipy_on_edge_cases(self, a, b):
        a, b = np.array(a), np.array(b)
        expected = ks_2samp(a, b, method="asymp").statistic
        assert bits(ks_statistic(a, b)) == bits(expected)

    def test_bits_match_scipy_on_random_samples(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n, m = rng.integers(1, 60, size=2)
            # Rounding to one decimal makes ties between and within samples common.
            a = np.round(rng.standard_normal(n), rng.integers(0, 3))
            b = np.round(rng.standard_normal(m) + rng.uniform(-1, 1), rng.integers(0, 3))
            expected = ks_2samp(a, b, method="asymp").statistic
            assert bits(ks_statistic(a, b)) == bits(expected)


def kl_oracle(p, q, k):
    """The k-NN KL estimate by exhaustive cdist blocks of about two million
    distances, its log ratios summed block by block."""
    p = np.asarray(p, dtype=float).reshape(len(p), -1)
    q = np.asarray(q, dtype=float).reshape(len(q), -1)
    n, m = len(p), len(q)
    chunk = max(1, int(2_000_000 / max(n, m)))
    total = 0.0
    for start in range(0, n, chunk):
        block = p[start : start + chunk]
        rho = np.maximum(np.partition(cdist(block, p), k, axis=1)[:, k], 1e-12)
        nu = np.maximum(np.partition(cdist(block, q), k - 1, axis=1)[:, k - 1], 1e-12)
        total += float(np.sum(np.log(nu / rho)))
    return max(float(p.shape[1] / n * total + np.log(m / (n - 1))), 0.0)


KL_CASES = {
    "continuous": lambda rng: (rng.standard_normal(700), rng.standard_normal(500) + 0.4),
    "tied": lambda rng: (np.round(rng.standard_normal(600), 1), rng.integers(-3, 4, 800).astype(float)),
    "duplicates": lambda rng: (np.repeat(rng.standard_normal(30), 20), np.repeat(rng.standard_normal(40), 9)),
    # 1 500 * 1 700 > 2e6: the estimate sums two blocks.
    "two-blocks": lambda rng: (rng.standard_normal(1_500), 1.5 * rng.standard_normal(1_700)),
    # 2 200 * 2 200 > 2e6, with ties inside and across the samples.
    "two-blocks-tied": lambda rng: (rng.integers(0, 40, 2_200).astype(float), np.round(rng.normal(20, 9, 900))),
    "two-columns": lambda rng: (rng.standard_normal((400, 2)), rng.standard_normal((300, 2)) + 0.5),
}


class TestKlDivergence:
    @pytest.mark.parametrize("case", KL_CASES)
    @pytest.mark.parametrize("k", [1, 5])
    def test_matches_exhaustive_oracle_bit_for_bit(self, case, k):
        p, q = KL_CASES[case](np.random.default_rng(31))
        assert bits(kl_divergence(p, q, k=k)) == bits(kl_oracle(p, q, k))
        assert bits(kl_divergence(q, p, k=k)) == bits(kl_oracle(q, p, k))

    @given(
        p=st.lists(st.integers(-4, 4).map(float) | st.floats(-50, 50), min_size=6, max_size=80),
        q=st.lists(st.integers(-4, 4).map(float) | st.floats(-50, 50), min_size=6, max_size=80),
        k=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_oracle_property(self, p, q, k):
        assert bits(kl_divergence(p, q, k=k)) == bits(kl_oracle(p, q, k))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, bad):
        p = np.arange(10.0)
        with pytest.raises(DataError, match="finite"):
            kl_divergence(np.append(p, bad), p)
        with pytest.raises(DataError, match="finite"):
            kl_divergence(p, np.append(p, bad))

    def test_identical_sample_sets_near_zero(self):
        rng = np.random.default_rng(8)
        p = rng.standard_normal(2000)
        assert kl_divergence(p, p.copy()) <= 0.05

    def test_gaussian_mean_shift(self):
        rng = np.random.default_rng(9)
        p = rng.standard_normal(5000)
        q = rng.standard_normal(5000) + 1.0
        assert kl_divergence(p, q, k=5) == pytest.approx(0.5, abs=0.1)

    def test_gaussian_scale_change(self):
        rng = np.random.default_rng(10)
        p = rng.standard_normal(5000)
        q = 2.0 * rng.standard_normal(5000)
        expected = 0.5 * (0.25 - 1 + math.log(4))
        assert kl_divergence(p, q, k=5) == pytest.approx(expected, abs=0.1)

    def test_self_divergence_on_independent_resamples(self):
        for d in (1, 2, 3):
            rng = np.random.default_rng(11 + d)
            p = rng.standard_normal((5000, d))
            q = rng.standard_normal((5000, d))
            assert abs(kl_divergence(p, q, k=5)) <= 0.1

    def test_result_clamped_at_zero(self):
        rng = np.random.default_rng(12)
        p = rng.standard_normal(200)
        q = rng.standard_normal(5000)
        assert kl_divergence(p, q, k=5) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimension"):
            kl_divergence(np.zeros((10, 2)), np.zeros((10, 3)))

    @pytest.mark.parametrize("k", [0, -1, 2.5, True])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(QueryError, match="positive integer"):
            kl_divergence(np.arange(10.0), np.arange(12.0), k=k)

    def test_zero_width_points_rejected(self):
        with pytest.raises(DataError, match="at least one coordinate"):
            kl_divergence(np.empty((10, 0)), np.empty((12, 0)))

    def test_needs_k_plus_one_samples(self):
        with pytest.raises(QueryError, match="k\\+1"):
            kl_divergence(np.zeros(4), np.zeros(4), k=5)

    def test_duplicate_points_are_safe(self):
        p = np.zeros(50)
        q = np.zeros(60)
        assert math.isfinite(kl_divergence(p, q, k=5))


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-170, 1e300])
def test_pairwise_distances_match_cdist_at_every_width(scale):
    rng = np.random.default_rng(41)
    for width in (1, 2, 3, 6, 10):
        a = rng.integers(-5, 6, (40, width)) * scale
        b = rng.standard_normal((30, width)) * scale
        assert np.array_equal(pairwise_distances(a, b).view(np.int64), cdist(a, b).view(np.int64))


@given(
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 11)),
    scale=st.sampled_from([1.0, 1e-170, 1e-160, 1e-3, 1e150, 1e154, 1e300]),
    decimals=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_pairwise_distances_match_cdist_property(shape, scale, decimals, seed):
    """Bit for bit cdist over random shapes and scales, on values rounded so
    that ties and zero gaps are common; overflowing sums are inf in both."""
    n, m, width = shape
    rng = np.random.default_rng(seed)
    a = np.round(rng.standard_normal((n, width)), decimals) * scale
    b = np.round(rng.standard_normal((m, width)), decimals) * scale
    assert np.array_equal(pairwise_distances(a, b).view(np.int64), cdist(a, b).view(np.int64))


def index_points(rng, kind, rows, width):
    """``rows`` points of ``width`` columns: small integers, a one-hot block
    (beside one small-integer column when ``width`` > 1), or continuous."""
    if kind == "integers":
        return rng.integers(-3, 4, (rows, width)).astype(float)
    if kind == "one-hot":
        block = np.eye(max(width - 1, 1))[rng.integers(0, max(width - 1, 1), rows)]
        return block if width == 1 else np.hstack([block, rng.integers(-2, 3, (rows, 1))])
    return rng.standard_normal((rows, width))


@given(
    width=st.integers(1, 3),
    kind=st.sampled_from(["integers", "one-hot", "continuous"]),
    sizes=st.tuples(st.integers(1, 40), st.integers(1, 60)),
    block_entries=st.sampled_from([1, 5, 40, 300, 2_000_000]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_neighbour_index_matches_cdist_property(width, kind, sizes, block_entries, seed, data):
    """``nearest`` is a stable argsort of cdist, truncated to k, and
    ``kth_distances`` is ``np.partition`` of cdist, bit for bit.  The block
    budget is cut down so that the query set spans several row blocks, and
    the tie re-searches several blocks of their own."""
    n, m = sizes
    rng = np.random.default_rng(seed)
    reference, queries = (index_points(rng, kind, rows, width) for rows in (n, m))
    k = data.draw(st.integers(1, n))
    expected = cdist(queries, reference)
    with mock.patch.object(stats, "_BLOCK_ENTRIES", block_entries):
        index = NeighbourIndex(reference)
        blocks = list(index.nearest(queries, k))
        kth = index.kth_distances(queries, k - 1)
    assert np.array_equal(np.concatenate([np.arange(m)[rows] for rows, _ in blocks]), np.arange(m))
    order = np.concatenate([order for _, order in blocks])
    assert np.array_equal(order, np.argsort(expected, axis=1, kind="stable")[:, :k])
    expected_kth = np.partition(expected, k - 1, axis=1)[:, k - 1]
    assert np.array_equal(kth.view(np.int64), expected_kth.view(np.int64))


def test_kl_keeps_at_most_two_distance_blocks_alive():
    """A 6-wide k-NN KL of 2 000 against 2 000 points ranks 1 000 × 2 000
    distances (15.3 MB) at a time and frees each block before building the
    next, so its peak stays under two and a half blocks."""
    rng = np.random.default_rng(7)
    p, q = (
        np.hstack([np.eye(5)[rng.integers(0, 5, 2_000)], rng.standard_normal((2_000, 1)) + shift])
        for shift in (0.0, 0.5)
    )
    block = 1_000 * 2_000 * 8
    tracemalloc.start()
    try:
        kl_divergence(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * block, f"peak {peak / 2**20:.1f} MiB"
