import math

import numpy as np
import pytest
from scipy.stats import ks_2samp, norm

from gcmkit import (
    DataError,
    Dataset,
    QueryError,
    fisher_z_test,
    kl_divergence,
    pairwise_independence_test,
)
from gcmkit.stats import _two_sided_normal_p, distance_correlation, ks_statistic


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


    @pytest.mark.parametrize("statistic", [0.0, 1e-300, 1.0, 8.3, 38.5, 40.0])
    def test_p_value_bits_match_scipy_normal_tail(self, statistic):
        assert bits(_two_sided_normal_p(statistic)) == bits(2 * norm.sf(statistic))

    @pytest.mark.parametrize("r", [0.0, 0.05, 0.3, 0.8, 0.99])
    def test_reported_p_value_is_the_normal_tail_of_the_statistic(self, r):
        result = fisher_z_test(dataset_with_exact_correlation(r, n=200), "x", "y")
        assert bits(result.p_value) == bits(2 * norm.sf(result.statistic))


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


class TestKlDivergence:
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

    def test_needs_k_plus_one_samples(self):
        with pytest.raises(QueryError, match="k\\+1"):
            kl_divergence(np.zeros(4), np.zeros(4), k=5)

    def test_duplicate_points_are_safe(self):
        p = np.zeros(50)
        q = np.zeros(60)
        assert math.isfinite(kl_divergence(p, q, k=5))
