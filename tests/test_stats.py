import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.special import ndtr
from scipy.stats import ks_2samp, norm

from conftest import constant_columns_table

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


def dcor2_oracle(x, y):
    """dCor² of two 1-D samples by the double-centred O(n²) formula.  Each
    distance matrix is first divided by its largest entry, which leaves dCor
    unchanged and keeps the products clear of overflow at any scale."""

    def centred(values):
        distances = np.abs(values[:, None] - values[None, :])
        distances = distances / distances.max()
        row_means = distances.mean(axis=1, keepdims=True)
        col_means = distances.mean(axis=0, keepdims=True)
        return distances - row_means - col_means + distances.mean()

    a, b = centred(x), centred(y)
    return (a * b).mean() / np.sqrt((a * a).mean() * (b * b).mean())


@given(
    n=st.integers(10, 400),
    kind=st.sampled_from(["continuous", "ties", "same", "constant"]),
    offset=st.floats(-1e8, 1e8),
    exponent=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_distance_correlation_matches_double_centred_oracle(n, kind, offset, exponent, seed):
    """The O(n log n) 1-D statistic against the O(n²) formula, within 1e-12
    absolute on dCor² (the largest difference measured was 2.4e-14), for
    ties from small integers, x shifted by up to 1e8 and scaled by 1e-100 to
    1e100, x == y and a constant y."""
    rng = np.random.default_rng(seed)
    if kind == "ties":
        x = rng.integers(0, 4, n).astype(float)
        y = rng.integers(0, 3, n) + x
    else:
        x = rng.standard_normal(n)
        y = np.sin(3 * x) + rng.uniform(0.0, 1.0) * rng.standard_normal(n)
    x = (x + offset) * 10.0**exponent
    if kind == "same":
        y = x
    if kind == "constant":
        y = np.full(n, offset)
    statistic = distance_correlation(x, y)
    assert 0.0 <= statistic <= 1.0
    if kind == "constant":
        assert statistic == 0.0
    else:
        assert abs(statistic**2 - dcor2_oracle(x, y)) <= 1e-12


@pytest.mark.parametrize("n", [10, 33, 100, 257, 700])
def test_dcor_permutation_chunks_keep_the_bits(n):
    """Chunks of one, a few, or all of the permutations give the same
    statistic and p-value bits: the observed statistic and each permutation
    go through the same arithmetic whatever the batch shape."""
    rng = np.random.default_rng(n)
    x = rng.integers(0, 5, n).astype(float)
    for y in (x + rng.standard_normal(n), x):
        found = set()
        for block_entries in (1, 7, 1_000, 40_000, 2_000_000):
            with mock.patch.object(stats, "_BLOCK_ENTRIES", block_entries):
                result = pairwise_independence_test(x, y, num_permutations=60, seed=3)
            found.add((bits(result.statistic), bits(result.p_value)))
        assert len(found) == 1, found


def test_dcor_test_memory_stays_under_a_block_and_a_quarter():
    """n = 2 000 with B = 199 evaluates its permutations in chunks of about
    one block (two million float64s, 16 MB) at a time, and its peak stays
    under a block and a quarter (20 MB), where one n×n matrix is 32 MB."""
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal(2_000), rng.standard_normal(2_000)
    block = stats._BLOCK_ENTRIES * 8
    tracemalloc.start()
    try:
        pairwise_independence_test(x, y, num_permutations=199, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * block, f"peak {peak / 2**20:.1f} MiB"


def test_permutation_budget_past_the_cap_raises_query_error():
    x = np.arange(20.0)
    with pytest.raises(QueryError, match=f"num_permutations must be at most {stats.MAX_PERMUTATIONS}"):
        pairwise_independence_test(x, x % 3, num_permutations=stats.MAX_PERMUTATIONS + 1)


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("scale", [1e200, 2.0**600])
def test_dcor_is_scale_free_far_from_one(width, scale):
    """At 1e200 the 1-D path's centring and scaling give what scale 1 gives,
    and the wide path's power-of-two scaling keeps its squared gaps from
    overflowing; both statistics agree within 1e-12 and the p-values match."""
    rng = np.random.default_rng(9)
    points = rng.standard_normal((50, width))
    y = points.sum(axis=1) + rng.standard_normal(50)
    x = points[:, 0] if width == 1 else points
    plain = pairwise_independence_test(x, y, num_permutations=19, seed=1)
    scaled = pairwise_independence_test(x * scale, y, num_permutations=19, seed=1)
    assert scaled.statistic == pytest.approx(plain.statistic, abs=1e-12)
    assert scaled.p_value == plain.p_value
    assert distance_correlation(x * scale, y) == scaled.statistic


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("statistic", [pairwise_independence_test, distance_correlation])
def test_dcor_rejects_non_finite_input(bad, side, statistic):
    """A NaN or infinite value is an input error, not a statistic of nan,
    which the test would read as the strongest dependence, p = 1/(B+1)."""
    rng = np.random.default_rng(10)
    points = {"x": rng.standard_normal(50), "y": rng.standard_normal(50)}
    points[side][3] = bad
    with pytest.raises(DataError, match="finite"):
        statistic(points["x"], points["y"])


def float_neighbours(value, count):
    """``value`` and the ``count`` floats on either side of it."""
    below, above = [value], [value]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


# Each branch point of the normal tail's Cephes port, at x = statistic/√2:
# x = 1/√2 (erf gives way to erfc), x = 1 (erfc stops using 1 - erf), x = 8
# (the P/Q pair gives way to R/S) and x² = MAXLOG (underflow to 0), each with
# two floats on either side, so both branches are taken; then the smallest
# subnormal, infinity and nan.
NORMAL_TAIL_BRANCH_POINTS = [
    value
    for edge in (1.0, math.sqrt(2.0), 8 * math.sqrt(2.0), math.sqrt(2 * stats._MAXLOG))
    for value in float_neighbours(edge, 2)
] + [5e-324, math.inf, math.nan]


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

    def test_constant_columns_are_independent(self):
        """1 025 copies of -872.27 leave a mean-rounding residue when centred;
        two such residues used to correlate perfectly, at p = 0."""
        data = constant_columns_table()
        for x, y, given in [("K", "L", ()), ("A", "K", ()), ("K", "L", ("A",))]:
            result = fisher_z_test(data, x, y, given)
            assert (result.statistic, result.p_value) == (0.0, 1.0)

    def test_power_of_two_scale_keeps_the_bits(self):
        """The memo scales each column into [-1, 1) exactly, so a table
        scaled by 2**600, whose centred products used to overflow to NaN,
        gives the bits of the unscaled one."""
        rng = np.random.default_rng(14)
        values = rng.standard_normal((200, 4)) @ rng.standard_normal((4, 4))
        names = ["a", "b", "c", "d"]
        plain, scaled = (Dataset(names, list((values * factor).T)) for factor in (1.0, 2.0**600))
        for x, y, given in [("a", "b", ()), ("a", "c", ("b",)), ("b", "d", ("a", "c"))]:
            expected, result = fisher_z_test(plain, x, y, given), fisher_z_test(scaled, x, y, given)
            assert bits(result.statistic) == bits(expected.statistic)
            assert bits(result.p_value) == bits(expected.p_value)

    def test_huge_columns_give_finite_results(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        y = x + rng.standard_normal(50)
        result = fisher_z_test(Dataset(["x", "y"], [x * 1e200, y * 1e200]), "x", "y")
        assert math.isfinite(result.statistic) and 0.0 <= result.p_value < 1e-6

    def test_x_determined_by_the_conditioning_set_is_finite(self):
        """With E = A + C the correlation matrix of (A, B, E, C) is singular
        but may invert to a finite precision with diagonal entries of
        opposite signs; such a precision takes the ridge path too."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a, b, c = rng.standard_normal((3, int(rng.integers(25, 401))))
            data = Dataset(["A", "B", "C", "E"], [a, b, c, a + c])
            result = fisher_z_test(data, "A", "B", ["E", "C"])
            assert math.isfinite(result.statistic) and result.p_value >= 0.99

    @pytest.mark.parametrize("statistic", [0.0, 1e-300, 1.0, 8.3, 38.5, 40.0])
    def test_p_value_bits_match_scipy_normal_tail(self, statistic):
        assert bits(_two_sided_normal_p(statistic)) == bits(2 * norm.sf(statistic))

    @pytest.mark.parametrize("r", [0.0, 0.05, 0.3, 0.8, 0.99])
    def test_reported_p_value_is_the_normal_tail_of_the_statistic(self, r):
        result = fisher_z_test(dataset_with_exact_correlation(r, n=200), "x", "y")
        assert bits(result.p_value) == bits(2 * norm.sf(result.statistic))

    @given(st.floats(min_value=0.0, max_value=40.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=2000, deadline=None)
    def test_normal_tail_port_matches_scipy_ndtr_bits(self, statistic):
        assert bits(_two_sided_normal_p(statistic)) == bits(2 * ndtr(-statistic))

    @pytest.mark.parametrize("statistic", NORMAL_TAIL_BRANCH_POINTS)
    def test_normal_tail_port_matches_scipy_ndtr_at_branch_points(self, statistic):
        assert bits(_two_sided_normal_p(statistic)) == bits(2 * ndtr(-statistic))


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
        assert data._memo == {}
        fisher_z_test(data, "c", "a", ["b"])
        assert set(data._memo) == {
            ("centred", "a"), ("centred", "b"), ("centred", "c"),
            ("product", "a", "a"), ("product", "a", "b"), ("product", "a", "c"),
            ("product", "b", "b"), ("product", "b", "c"), ("product", "c", "c"),
        }
        centred = [value for key, value in data._memo.items() if key[0] == "centred"]
        assert not any(column.flags.writeable for column in centred)
        assert data.select(["a", "b"])._memo == {}

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


def index_points(rng, kind, rows, width, lacking=0):
    """``rows`` points of ``width`` columns.  ``integers`` are small integers
    and ``continuous`` standard normal.  The other kinds put 0/1 columns
    beside one line column, the last, when ``width`` > 1:
    - ``one-hot``: a one-hot block beside small integers (the block alone
      when ``width`` is 1);
    - ``bits``: free 0/1 columns beside multiples of 0.25, so that gaps of
      exactly 1.0 within a group tie with rows one bit away;
    - ``runs``: a one-hot block beside three values, mostly one of them, so
      runs of equal values are often longer than k.
    ``blocks`` is two one-hot blocks and nothing else, so its line column
    is a 0/1 column too.  A one-hot block leaves out its last ``lacking``
    categories."""
    if kind == "integers":
        return rng.integers(-3, 4, (rows, width)).astype(float)
    if kind == "continuous":
        return rng.standard_normal((rows, width))
    if kind == "blocks":
        sizes = (width + 1) // 2, width // 2
        return np.hstack([np.eye(size)[rng.integers(0, max(size - lacking, 1), rows)] for size in sizes if size])
    size = max(width - 1, 1)
    if kind == "bits":
        block = rng.integers(0, 2, (rows, size)).astype(float)
        line = rng.integers(-6, 7, rows) * 0.25
    else:
        block = np.eye(size)[rng.integers(0, max(size - lacking, 1), rows)]
        line = rng.integers(-2, 3, rows) if kind == "one-hot" else rng.choice(3, rows, p=[0.8, 0.1, 0.1])
    if width == 1:
        return block if kind == "one-hot" else line[:, None].astype(float)
    return np.hstack([block, line[:, None]])


@given(
    width=st.integers(1, 4),
    kind=st.sampled_from(["integers", "one-hot", "bits", "runs", "blocks", "continuous"]),
    sizes=st.tuples(st.integers(1, 40), st.integers(1, 60)),
    block_entries=st.sampled_from([1, 5, 40, 300, 2_000_000]),
    lacking=st.integers(0, 1),
    stray=st.sampled_from([None, 0.5, -1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=500, deadline=None)
def test_neighbour_index_matches_cdist_property(
    width, kind, sizes, block_entries, lacking, stray, seed, data
):
    """``nearest`` is a stable argsort of cdist, truncated to k and sorted
    by row, and ``kth_distances`` is ``np.partition`` of cdist, bit for bit.
    The block budget is cut down so that the query set spans several row
    blocks, and the scan of rows whose ties reach past the window several
    blocks of its own.

    0/1 columns group the reference; the cases include groups of fewer than
    k + 1 rows, within-group distances on either side of 1.0, queries whose
    pattern the reference lacks (a category it leaves out, or a ``stray``
    value in the first column) and runs of equal values longer than k."""
    n, m = sizes
    rng = np.random.default_rng(seed)
    reference = index_points(rng, kind, n, width, lacking)
    queries = index_points(rng, kind, m, width)
    if stray is not None:
        queries[::3, 0] = stray
    k = data.draw(st.integers(1, n))
    expected = cdist(queries, reference)
    with mock.patch.object(stats, "_BLOCK_ENTRIES", block_entries):
        index = NeighbourIndex(reference, k)
        blocks = list(index.nearest(queries))
        kth = index.kth_distances(queries)
    assert np.array_equal(np.concatenate([np.arange(m)[rows] for rows, _ in blocks]), np.arange(m))
    order = np.concatenate([order for _, order in blocks])
    assert np.array_equal(order, np.sort(np.argsort(expected, axis=1, kind="stable")[:, :k], axis=1))
    expected_kth = np.partition(expected, k - 1, axis=1)[:, k - 1]
    assert np.array_equal(kth.view(np.int64), expected_kth.view(np.int64))


def test_kl_on_one_hot_and_a_line_matches_the_exhaustive_estimate():
    """k-NN KL over one-hot blocks beside one continuous column, bit for bit
    the estimate from cdist's distances.  Category 3 has fewer than k + 1
    rows in P and none in Q, so its rows are compared with every row."""
    rng = np.random.default_rng(12)
    n, m, k = 2_500, 2_000, 5

    def joint(rows, weights):
        category = np.eye(4)[rng.choice(4, rows, p=weights)]
        child = np.eye(2)[rng.integers(0, 2, rows)]
        return np.hstack([category, np.round(rng.standard_normal((rows, 1)), 1), child])

    p, q = joint(n, [0.45, 0.45, 0.0984, 0.0016]), joint(m, [0.5, 0.3, 0.2, 0.0])
    assert 0 < p[:, 3].sum() < k + 1
    within, into = np.partition(cdist(p, p), k, axis=1)[:, k], np.partition(cdist(p, q), k - 1, axis=1)[:, k - 1]
    assert np.array_equal(NeighbourIndex(p, k + 1).kth_distances(p).view(np.int64), within.view(np.int64))
    assert np.array_equal(NeighbourIndex(q, k).kth_distances(p).view(np.int64), into.view(np.int64))
    log_ratios = np.log(np.maximum(into, 1e-12) / np.maximum(within, 1e-12))
    # The estimate's own summation order: row blocks of an n × max(n, m) search.
    total = sum((float(np.sum(log_ratios[rows])) for rows in stats._row_blocks(n, max(n, m))), 0.0)
    expected = float(p.shape[1] / n * total + np.log(m / (n - 1)))
    assert expected > 0.0  # so the estimate's clamp at 0.0 hides nothing
    assert bits(kl_divergence(p, q, k=k)) == bits(expected)


@pytest.mark.parametrize("rows", [5, 100])
@pytest.mark.parametrize("layout", ["line", "one-hot", "two-columns"])
def test_neighbour_index_ranks_non_finite_queries_as_cdist_does(rows, layout):
    """NaN, inf and ±1e200 (whose squares overflow) query values, on a line
    group smaller and larger than the window and on two continuous columns,
    which are compared with every row: each row's indices are those of
    cdist's stable argsort, and no row index past the reference comes back."""
    rng = np.random.default_rng(3)
    values = np.array([np.nan, np.inf, -np.inf, 1e200, -1e200, 0.5])[:, None]
    reference = rng.standard_normal((rows, 1))
    queries = values
    if layout == "one-hot":
        reference = np.hstack([np.eye(2)[np.arange(rows) % 2], reference])
        queries = np.hstack([np.tile([1.0, 0.0], (len(values), 1)), values])
    elif layout == "two-columns":
        reference = rng.standard_normal((rows, 2))
        queries = np.vstack([np.hstack([values, np.full_like(values, 0.25)]), np.hstack([values, values])])
    k = 3
    expected = cdist(queries, reference)
    index = NeighbourIndex(reference, k)
    order = np.concatenate([order for _, order in index.nearest(queries)])
    assert np.array_equal(order, np.sort(np.argsort(expected, axis=1, kind="stable")[:, :k], axis=1))
    np.testing.assert_array_equal(index.kth_distances(queries), np.sort(expected, axis=1)[:, k - 1])


@pytest.mark.parametrize("k", [1, 7, 48])
def test_neighbour_index_scan_keeps_the_lowest_indices_among_ties(k):
    """Points of a 4 × 4 integer grid, each three times in shuffled rows, are
    compared with every row.  Below k = n each query's count of points within
    its k-th distance is a multiple of three and past k, so the selection
    alone cannot know which ties to keep: the lowest indices must win, as in
    cdist's stable argsort.  At k = n every row is kept and ranked."""
    rng = np.random.default_rng(8)
    grid = np.stack(np.meshgrid(np.arange(4.0), np.arange(4.0)), axis=-1).reshape(-1, 2)
    reference = rng.permutation(np.vstack([grid] * 3))
    queries = rng.integers(-1, 5, (60, 2)).astype(float)
    expected = cdist(queries, reference)
    if k < len(reference):
        kth = np.sort(expected, axis=1)[:, k - 1 : k]
        assert (np.count_nonzero(expected <= kth, axis=1) > k).all()
    index = NeighbourIndex(reference, k)
    order = np.concatenate([order for _, order in index.nearest(queries)])
    assert np.array_equal(order, np.sort(np.argsort(expected, axis=1, kind="stable")[:, :k], axis=1))


@pytest.mark.parametrize("k", [2, 5, 8])
def test_neighbour_index_ranks_nan_distances_from_an_infinite_reference(k):
    """A reference built directly with ±inf in its first column: inf - inf is
    NaN, so an infinite query's distances to those rows are NaN and rank
    last, by index.  The first query has four such rows, so its k-th
    distance is NaN past k = 4."""
    reference = np.array(
        [[np.inf, 0.0], [1.0, 2.0], [-np.inf, 1.0], [np.inf, 3.0],
         [0.0, 0.0], [np.inf, -1.0], [-np.inf, 0.0], [np.inf, 2.0]]
    )
    queries = np.array([[np.inf, 0.0], [-np.inf, 5.0], [0.5, 0.5], [np.nan, 0.0], [1e200, 1.0]])
    expected = cdist(queries, reference)
    index = NeighbourIndex(reference, k)
    order = np.concatenate([order for _, order in index.nearest(queries)])
    assert np.isnan(np.sort(expected[0])[k - 1]) == (k > 4)
    assert np.array_equal(order, np.sort(np.argsort(expected, axis=1, kind="stable")[:, :k], axis=1))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_neighbour_index_on_a_line_with_infinite_points_matches_cdist(k):
    """A one-column reference built directly with ±inf.  An infinite query's
    distances are inf, or NaN to the same infinity, so its k-th distance is
    NaN past k = 3; a NaN k-th distance is never final on the line, and such
    a query is compared with every row."""
    reference = np.array([[np.inf], [1.0], [-np.inf], [np.inf], [0.0], [np.inf]])
    queries = np.array([[np.inf], [-np.inf], [0.5], [1e200], [-1e200]])
    expected = cdist(queries, reference)
    index = NeighbourIndex(reference, k)
    order = np.concatenate([order for _, order in index.nearest(queries)])
    assert np.isnan(np.sort(expected[0])[k - 1]) == (k > 3)
    assert np.array_equal(order, np.sort(np.argsort(expected, axis=1, kind="stable")[:, :k], axis=1))
    kth = np.partition(expected, k - 1, axis=1)[:, k - 1]
    assert np.array_equal(index.kth_distances(queries).view(np.int64), kth.view(np.int64))


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
