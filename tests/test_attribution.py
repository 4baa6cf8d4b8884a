import json
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcmkit as gk
from gcmkit import (
    AdditiveNoiseModel,
    CausalGraph,
    Dataset,
    Empirical,
    Gaussian,
    GcmModel,
    LinearModel,
    NonInvertibleError,
    OutlierScorer,
    QueryError,
)
from gcmkit import attribution
from gcmkit.sampling import draw_noise_values, propagate_from_noise
from conftest import linear_gaussian_models, make_ground_truth_chain, sample_chain_data


def make_two_node_model(coef, noise_std=1.0):
    graph = CausalGraph(["X", "Y"], [("X", "Y")])
    model = GcmModel(graph)
    model = gk.assign(model, "X", Gaussian(0.0, 1.0), ground_truth=True)
    noise = Gaussian(0.0, noise_std) if noise_std > 0 else Empirical([0.0])
    anm = AdditiveNoiseModel(LinearModel([coef], 0.0), noise, gk.InputEncoder.continuous(1))
    return gk.assign(model, "Y", anm, ground_truth=True)


class TestArrowStrength:
    def test_unit_coefficient_msd(self):
        model = make_two_node_model(coef=1.0)
        strength = gk.arrow_strength(model, ("X", "Y"), n=50000, seed=0)
        assert strength == pytest.approx(2.0, abs=0.06)

    def test_triple_coefficient_msd(self):
        model = make_two_node_model(coef=3.0)
        strength = gk.arrow_strength(model, ("X", "Y"), n=50000, seed=1)
        assert strength == pytest.approx(18.0, abs=0.5)

    def test_null_edge_is_exactly_zero(self):
        model = make_two_node_model(coef=0.0)
        assert gk.arrow_strength(model, ("X", "Y"), n=2000, seed=2) == 0.0

    def test_nonnegative(self):
        model = make_two_node_model(coef=-1.5)
        assert gk.arrow_strength(model, ("X", "Y"), n=5000, seed=3) >= 0.0

    def test_unknown_edge(self):
        model = make_two_node_model(coef=1.0)
        with pytest.raises(QueryError, match="no edge"):
            gk.arrow_strength(model, ("Y", "X"))

    def test_seed_determinism(self):
        model = make_two_node_model(coef=1.0)
        a = gk.arrow_strength(model, ("X", "Y"), n=2000, seed=9)
        b = gk.arrow_strength(model, ("X", "Y"), n=2000, seed=9)
        assert a == b


CATEGORIES = ("a", "b", "c")
CATEGORY_PROBS = np.array([0.4, 0.35, 0.25])
X_MEAN, X_STD = 0.5, 1.2


def make_categorical_child_model(c_weights, x_weight, bias=-1.0):
    """A Multinomial C and a Gaussian X into a binary classifier K: the
    logit of "hi" is c_weights[C] + x_weight * X + bias."""
    graph = CausalGraph(["C", "X", "K"], [("C", "K"), ("X", "K")])
    encoding = gk.InputEncoder([("categorical", CATEGORIES), ("continuous", None)])
    weights = np.zeros((5, 2))
    weights[:, 0] = [*c_weights, x_weight, bias]
    model = gk.assign(GcmModel(graph), "C", gk.Multinomial(CATEGORIES, CATEGORY_PROBS), ground_truth=True)
    model = gk.assign(model, "X", Gaussian(X_MEAN, X_STD), ground_truth=True)
    return gk.assign(model, "K", gk.ClassifierFcm(encoding, ("hi", "lo"), weights), ground_truth=True)


def closed_form_strengths(c_weights, x_weight, bias=-1.0):
    """C -> K and X -> K of ``make_categorical_child_model``: the mean KL
    between K's class probabilities and their average over an independent
    copy of the cut parent, summed exactly over C and by Gauss-Hermite
    quadrature over X."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    x_probs = weights / weights.sum()
    logit = np.array(c_weights)[:, None] + x_weight * (X_MEAN + X_STD * nodes)[None, :] + bias
    hi = 1.0 / (1.0 + np.exp(-logit))
    probs = np.stack([hi, 1.0 - hi], axis=-1)  # (category, node, class)

    def strength(cut):
        kl = np.sum(probs * np.log(probs / cut), axis=-1)
        return float(np.einsum("c,x,cx->", CATEGORY_PROBS, x_probs, kl))

    return (
        strength(np.einsum("c,cxk->xk", CATEGORY_PROBS, probs)[None]),
        strength(np.einsum("x,cxk->ck", x_probs, probs)[:, None]),
    )


class TestCategoricalArrowStrength:
    """A categorical child's strength is read from its class probabilities."""

    # The cut averages the row's own parent with 32 copies, which pulls it
    # toward p: at 5 000 rows the estimates sat 2.3-2.7 % below the closed
    # form on average, with a 1.0 % sd and at most 5.3 % below over 20 seeds.
    TOLERANCE = 0.10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_closed_form(self, seed):
        weights = ([-1.0, 0.0, 1.0], 1.5)
        model = make_categorical_child_model(*weights)
        expected = closed_form_strengths(*weights)
        actual = tuple(gk.arrow_strength(model, (parent, "K"), n=5000, seed=seed) for parent in "CX")
        assert actual == pytest.approx(expected, rel=self.TOLERANCE)

    def test_null_parent_scores_zero(self):
        model = make_categorical_child_model([0.0, 0.0, 0.0], 1.5)
        for seed in range(5):
            assert 0.0 <= gk.arrow_strength(model, ("C", "K"), n=2000, seed=seed) <= 1e-12

    def test_binary_child_is_at_most_log_2(self):
        model = make_categorical_child_model([0.0, 0.0, 0.0], 5.0)
        strength = gk.arrow_strength(model, ("X", "K"), n=2000, seed=3)
        assert 0.0 < strength <= math.log(2)

    def test_underflowing_classes_give_a_finite_answer(self):
        """With weight 1e3, K is "hi" when X exceeds its mean, almost surely,
        and one class's probability underflows to 0 in most rows; the
        strength is H(K) = log 2, read here about 2.5 % low."""
        model = make_categorical_child_model([0.0, 0.0, 0.0], 1e3, bias=-1e3 * X_MEAN)
        strength = gk.arrow_strength(model, ("X", "K"), n=2000, seed=4)
        assert math.isfinite(strength)
        assert strength == pytest.approx(math.log(2), rel=0.05)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rare_class_of_a_step_reads_its_entropy(self, seed):
        """K is "hi" when X exceeds its 94.5 % quantile, almost surely, so
        the strength of X -> K is H(K) with P(hi) = 0.055, 0.213 nats.  In
        about 16 % of the hi rows no copy of X lands above the step, and the
        cut there is the row's own share, 1/33.  Over 30 seeds at 20 000 rows
        the estimate sat 8.6 % below H(K) on average (1.5 % sd, at most
        12.7 % below)."""
        share = 0.055
        step = X_MEAN + X_STD * NormalDist().inv_cdf(1.0 - share)
        model = make_categorical_child_model([0.0, 0.0, 0.0], 1e3, bias=-1e3 * step)
        entropy = -(share * math.log(share) + (1.0 - share) * math.log(1.0 - share))
        strength = gk.arrow_strength(model, ("X", "K"), n=20000, seed=seed)
        assert strength == pytest.approx(entropy, rel=0.2)


class TestIntrinsicInfluence:
    def test_symmetric_two_node_case(self):
        model = make_two_node_model(coef=1.0)
        result = gk.intrinsic_influence(model, "Y", seed=0)
        assert result.scores["X"] == pytest.approx(1.0, abs=0.1)
        assert result.scores["Y"] == pytest.approx(1.0, abs=0.1)
        assert sum(result.scores.values()) == pytest.approx(result.total, abs=1e-9)

    def test_deterministic_node_is_null_player(self):
        model = make_two_node_model(coef=1.0, noise_std=0.0)
        result = gk.intrinsic_influence(model, "Y", outer_samples=50, inner_samples=300, seed=1)
        assert result.scores["X"] == pytest.approx(1.0, abs=0.1)
        assert result.scores["Y"] == pytest.approx(0.0, abs=0.05)

    def test_chain_unit_contributions(self):
        model = make_ground_truth_chain()
        result = gk.intrinsic_influence(model, "Z", seed=2)
        for node in ("X", "Y", "Z"):
            assert result.scores[node] == pytest.approx(1.0, abs=0.15)
        assert sum(result.scores.values()) == pytest.approx(result.total, abs=1e-9)

    def test_players_are_ancestral(self):
        model = make_ground_truth_chain()
        result = gk.intrinsic_influence(model, "Y", outer_samples=20, inner_samples=100, seed=3)
        assert set(result.scores) == {"X", "Y"}

    def test_categorical_target_rejected(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(200)
        labels = np.array(["a" if v < 0 else "b" for v in x], dtype=object)
        data = Dataset(["X", "C"], [x, labels])
        model = gk.fit(gk.auto_assign(CausalGraph(["X", "C"], [("X", "C")]), data), data)
        with pytest.raises(QueryError, match="continuous"):
            gk.intrinsic_influence(model, "C")

    def test_categorical_ancestor_is_a_valid_player(self):
        rng = np.random.default_rng(8)
        labels = np.array(rng.choice(["a", "b"], 1000), dtype=object)
        y = np.where(labels == "a", -2.0, 2.0) + 0.1 * rng.standard_normal(1000)
        data = Dataset(["C", "Y"], [labels, y])
        model = gk.fit(gk.auto_assign(CausalGraph(["C", "Y"], [("C", "Y")]), data), data)
        result = gk.intrinsic_influence(model, "Y", outer_samples=40, inner_samples=200, seed=4)
        assert set(result.scores) == {"C", "Y"}
        # nearly all of Y's variance comes from the categorical switch
        assert result.scores["C"] > 10 * result.scores["Y"]
        assert sum(result.scores.values()) == pytest.approx(result.total, abs=1e-9)

    def test_held_categorical_root_stays_an_object_column(self, monkeypatch):
        # a held categorical noise is repeated as labels, not as a fixed-width
        # string array
        rng = np.random.default_rng(8)
        labels = np.array(rng.choice(["a", "bb"], 200), dtype=object)
        y = np.where(labels == "a", -2.0, 2.0) + 0.1 * rng.standard_normal(200)
        data = Dataset(["C", "Y"], [labels, y])
        model = gk.fit(gk.auto_assign(CausalGraph(["C", "Y"], [("C", "Y")]), data), data)
        dtypes = []

        def recording(model, noise, *args, **kwargs):
            dtypes.append(noise["C"].dtype)
            return propagate_from_noise(model, noise, *args, **kwargs)

        monkeypatch.setattr(attribution, "propagate_from_noise", recording)
        gk.intrinsic_influence(model, "Y", outer_samples=3, inner_samples=10, seed=4)
        assert dtypes and set(dtypes) == {np.dtype(object)}

    @pytest.mark.parametrize(
        "noise", [Gaussian(0.0, 0.7), Empirical([-1.3, -0.2, 0.1, 0.4, 1.0])], ids=["gaussian", "empirical"]
    )
    def test_target_share_is_its_noise_variance_bit_for_bit(self, noise):
        graph = CausalGraph(["X", "Y"], [("X", "Y")])
        model = gk.assign(GcmModel(graph), "X", Gaussian(0.0, 1.0), ground_truth=True)
        anm = AdditiveNoiseModel(LinearModel([1.5], 0.0), noise, gk.InputEncoder.continuous(1))
        model = gk.assign(model, "Y", anm, ground_truth=True)
        result = gk.intrinsic_influence(model, "Y", outer_samples=5, inner_samples=20, seed=1)
        exact = noise.noise_variance
        assert np.float64(result.scores["Y"]).view(np.int64) == np.float64(exact).view(np.int64)
        assert result.scores["X"] == pytest.approx(2.25, abs=0.5)

    @pytest.mark.parametrize(
        "root", [Gaussian(2.0, 1.5), Empirical([0.5, 1.0, 4.0])], ids=["gaussian", "empirical"]
    )
    def test_root_target_answers_its_variance_without_a_draw(self, root, monkeypatch):
        model = gk.assign(
            GcmModel(CausalGraph(["X", "Y"], [("X", "Y")])), "X", root, ground_truth=True
        )
        model = gk.assign(
            model,
            "Y",
            AdditiveNoiseModel(LinearModel([1.0], 0.0), Gaussian(0.0, 1.0), gk.InputEncoder.continuous(1)),
            ground_truth=True,
        )

        def never(*args, **kwargs):
            raise AssertionError("a root target needs no draw")

        for name in ("draw_noise_values", "_target_samples"):
            monkeypatch.setattr(attribution, name, never)
        result = gk.intrinsic_influence(model, "X", seed=4)
        assert result.scores == {"X": root.noise_variance}
        assert (result.total, result.baseline) == (root.noise_variance, 0.0)

    def test_chain_matches_the_analytic_icc_at_a_small_budget(self):
        # Z = 0.5 Y + N_Z, Y = 2 X + N_Y with unit noises: Z = X + 0.5 N_Y + N_Z,
        # so the ICCs are 1, 0.25 and 1.  Over 40 seeds the largest error at
        # 20 x 100 was 0.08; the tolerance leaves room for other platforms.
        model = make_ground_truth_chain(coef_y=2.0, coef_z=0.5)
        analytic = {"X": 1.0, "Y": 0.25, "Z": 1.0}
        for seed in range(5):
            result = gk.intrinsic_influence(model, "Z", outer_samples=20, inner_samples=100, seed=seed)
            assert result.scores["Z"] == 1.0
            for node, value in analytic.items():
                assert result.scores[node] == pytest.approx(value, abs=0.15)

    def test_efficiency_and_reproducibility_on_a_mixed_model(self):
        model = mixed_model()
        result = gk.intrinsic_influence(model, "Z", outer_samples=4, inner_samples=10, seed=5)
        assert list(result.scores) == ["C", "X", "Y", "W", "K", "Z"]
        assert result.scores["Z"] == model.mechanisms["Z"].noise_variance
        ancestors = sum(score for node, score in result.scores.items() if node != "Z")
        assert ancestors + result.scores["Z"] == pytest.approx(result.total, abs=1e-9)
        assert result.baseline == 0.0
        again = gk.intrinsic_influence(model, "Z", outer_samples=4, inner_samples=10, seed=5)
        assert json.dumps(again.to_json()) == json.dumps(result.to_json())

    def test_noise_streams_cost_at_most_two_generators_per_subset(self, monkeypatch):
        # One generator for the Var(f) sample, then one for each simulated
        # subset's frozen block and one for its free block.
        ancestors = 4
        model, _ = _long_chain(ancestors + 1)
        built = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(1)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        gk.intrinsic_influence(model, model.graph.nodes[-1], outer_samples=2, inner_samples=5, seed=0)
        simulated = (1 << ancestors) - 2  # all but the empty and the full set
        assert 0 < len(built) <= 2 * simulated + 1


@st.composite
def linear_chains(draw):
    """A ground-truth linear chain of 1-5 nodes whose noises are Gaussian or
    empirical, and its last node as the target."""
    size = draw(st.integers(1, 5))
    names = [f"N{i}" for i in range(size)]
    model = GcmModel(CausalGraph(names, list(zip(names, names[1:]))))
    for index, name in enumerate(names):
        if draw(st.booleans()):
            noise = Gaussian(0.0, draw(st.floats(0.0, 2.0)))
        else:
            noise = Empirical(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5)))
        if index:
            weight = draw(st.floats(-2.0, 2.0))
            noise = AdditiveNoiseModel(LinearModel([weight], 0.0), noise, gk.InputEncoder.continuous(1))
        model = gk.assign(model, name, noise, ground_truth=True)
    return model, names[-1]


@given(drawn=linear_chains(), seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_icc_on_linear_chains_is_efficient_with_an_exact_target_share(drawn, seed):
    model, target = drawn
    result = gk.intrinsic_influence(model, target, outer_samples=2, inner_samples=5, seed=seed)
    assert set(result.scores) == set(model.graph.nodes)
    assert result.scores[target] == model.mechanisms[target].noise_variance
    assert sum(result.scores.values()) == pytest.approx(result.total, abs=1e-9)


class TestOutlierScorer:
    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(2)
        scorer = OutlierScorer(rng.standard_normal(1000))
        values = np.linspace(0, 10, 25)
        scores = [scorer.score(v) for v in values]
        assert all(s >= 0 for s in scores)
        assert all(s <= math.log(1001) for s in scores)
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_extreme_value_saturates(self):
        rng = np.random.default_rng(3)
        scorer = OutlierScorer(rng.standard_normal(500))
        assert scorer.score(1e6) == pytest.approx(math.log(501))

    def test_typical_value_scores_near_zero(self):
        rng = np.random.default_rng(4)
        scorer = OutlierScorer(rng.standard_normal(5000))
        assert scorer.score(0.0) <= 0.05


class TestAttributeAnomaly:
    def fit_chain(self, seed):
        data = sample_chain_data(2000, seed=seed)
        graph = CausalGraph(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
        return gk.fit(gk.auto_assign(graph, data), data)

    def test_injected_noise_is_found(self):
        model = self.fit_chain(seed=0)
        row = {"X": 0.0, "Y": 5.0, "Z": 5.0}  # N_Y = 5, other noises 0
        result = gk.attribute_anomaly(model, "Z", row, seed=0)
        assert max(result.scores, key=result.scores.get) == "Y"
        assert sum(result.scores.values()) == pytest.approx(result.total, abs=1e-9)

    def test_typical_row_scores_near_zero(self):
        model = self.fit_chain(seed=1)
        row = {"X": 0.0, "Y": 0.0, "Z": 0.0}
        result = gk.attribute_anomaly(model, "Z", row, seed=1)
        for score in result.scores.values():
            assert abs(score) <= 0.2

    def test_single_node_graph_is_exactly_marginal_score(self):
        rng = np.random.default_rng(5)
        data = Dataset(["X"], [rng.standard_normal(500)])
        model = gk.fit(gk.auto_assign(CausalGraph(["X"]), data), data)
        result = gk.attribute_anomaly(model, "X", {"X": 4.2}, seed=6)
        assert result.scores["X"] == result.total

    def test_classifier_in_ancestry_blocks_attribution(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(300)
        labels = np.array(["a" if v < 0 else "b" for v in x], dtype=object)
        y = np.where(labels == "a", 0.0, 2.0) + rng.standard_normal(300)
        data = Dataset(["X", "C", "Y"], [x, labels, y])
        graph = CausalGraph(["X", "C", "Y"], [("X", "C"), ("C", "Y")])
        model = gk.fit(gk.auto_assign(graph, data), data)
        with pytest.raises(NonInvertibleError):
            gk.attribute_anomaly(model, "Y", {"X": 0.0, "C": "a", "Y": 0.0})

    def test_incomplete_row_rejected(self):
        model = self.fit_chain(seed=2)
        with pytest.raises(QueryError, match="missing"):
            gk.attribute_anomaly(model, "Z", {"Z": 5.0})

    def test_categorical_root_player_keeps_its_observed_label(self):
        # A categorical root outside a subset is held at its string value.
        rng = np.random.default_rng(9)
        labels = np.array(rng.choice(["a", "b"], 2000), dtype=object)
        x = rng.standard_normal(2000)
        y = x + np.where(labels == "a", 1.0, 0.0) + 0.3 * rng.standard_normal(2000)
        data = Dataset(["C", "X", "Y"], [labels, x, y])
        graph = CausalGraph(["C", "X", "Y"], [("C", "Y"), ("X", "Y")])
        model = gk.fit(gk.auto_assign(graph, data), data)
        row = {"C": "b", "X": 0.3, "Y": 0.3 + 3.0}  # N_Y = 3, ten noise deviations
        result = gk.attribute_anomaly(model, "Y", row, num_samples=2000, seed=7)
        assert set(result.scores) == {"C", "X", "Y"}
        assert max(result.scores, key=result.scores.get) == "Y"
        assert sum(result.scores.values()) == pytest.approx(result.total - result.baseline, abs=1e-9)


class TestDistributionChange:
    graph = CausalGraph(["X", "Y"], [("X", "Y")])

    def make_data(self, seed, y_offset=0.0, x_offset=0.0, n=3000):
        rng = np.random.default_rng(seed)
        x = x_offset + rng.standard_normal(n)
        y = x + y_offset + rng.standard_normal(n)
        return Dataset(["X", "Y"], [x, y])

    def test_mechanism_shift_attributed_to_y(self):
        old = self.make_data(seed=0)
        new = self.make_data(seed=1, y_offset=2.0)
        result = gk.distribution_change(self.graph, old, new, "Y", measure="mean_diff", seed=0)
        assert result.scores["Y"] == pytest.approx(2.0, abs=0.1)
        assert result.scores["X"] == pytest.approx(0.0, abs=0.1)
        assert sum(result.scores.values()) == pytest.approx(result.total - result.baseline, abs=1e-9)

    def test_no_change_scores_near_zero(self):
        old = self.make_data(seed=2)
        result = gk.distribution_change(self.graph, old, old, "Y", measure="mean_diff", seed=1)
        for score in result.scores.values():
            assert abs(score) <= 0.1

    def test_root_shift_attributed_to_x(self):
        old = self.make_data(seed=3)
        new = self.make_data(seed=4, x_offset=1.0)
        result = gk.distribution_change(self.graph, old, new, "Y", measure="mean_diff", seed=2)
        assert result.scores["X"] == pytest.approx(1.0, abs=0.1)
        assert result.scores["Y"] == pytest.approx(0.0, abs=0.1)

    def test_kl_measure_detects_variance_change(self):
        rng = np.random.default_rng(7)
        old = Dataset(["X", "Y"], [rng.standard_normal(2000), rng.standard_normal(2000)])
        rng = np.random.default_rng(8)
        x_new = rng.standard_normal(2000)
        new = Dataset(["X", "Y"], [x_new, 3.0 * rng.standard_normal(2000)])
        result = gk.distribution_change(
            CausalGraph(["X", "Y"]), old, new, "Y", measure="kl", num_samples=2000, seed=3
        )
        assert result.scores["Y"] > 0.2

    def test_incompatible_datasets_rejected(self):
        old = self.make_data(seed=5)
        labels = np.array(["a", "b"] * 1500, dtype=object)
        new = Dataset(["X", "Y"], [old.column("X"), labels])
        with pytest.raises(QueryError, match="incompatible"):
            gk.distribution_change(self.graph, old, new, "Y")

    def test_missing_column_rejected(self):
        old = self.make_data(seed=6)
        partial = Dataset(["X"], [old.column("X")])
        with pytest.raises(QueryError, match="cover"):
            gk.distribution_change(self.graph, old, partial, "Y")


def test_distribution_change_fits_only_the_target_and_its_ancestors(monkeypatch):
    fitted = []

    def recording_fit(model, data):
        fitted.append(model.graph.nodes)
        return gk.fit(model, data)

    monkeypatch.setattr(attribution, "fit", recording_fit)
    # Y's ancestors are A and X; B (a child of X) and Z (Y's child) cannot move Y.
    graph = CausalGraph(["A", "X", "B", "Y", "Z"], [("A", "Y"), ("X", "Y"), ("X", "B"), ("Y", "Z")])
    rng = np.random.default_rng(9)
    data = Dataset(list(graph.nodes), [rng.standard_normal(50) for _ in graph.nodes])
    result = gk.distribution_change(graph, data, data, "Y", "mean_diff", 20, seed=0)
    assert fitted == [("A", "X", "Y")] * 2
    assert list(result.scores) == ["A", "X", "Y"]


def _long_chain(length):
    """A ground-truth linear chain N00 -> N01 -> ... and data drawn from it."""
    names = [f"N{i:02d}" for i in range(length)]
    model = gk.assign(
        GcmModel(CausalGraph(names, list(zip(names, names[1:])))), names[0], Gaussian(0.0, 1.0),
        ground_truth=True,
    )
    for name in names[1:]:
        anm = AdditiveNoiseModel(LinearModel([0.5], 0.0), Gaussian(0.0, 1.0), gk.InputEncoder.continuous(1))
        model = gk.assign(model, name, anm, ground_truth=True)
    data = gk.draw_samples(model, 30, seed=0)
    return model, data


LIMIT_QUERIES = {
    # (query, the length of a chain whose last node has 21 players): ICC's
    # players are the target's ancestors alone, the others' the target too.
    "icc": (lambda model, data: gk.intrinsic_influence(model, model.graph.nodes[-1]), 22),
    "outlier": (
        lambda model, data: gk.attribute_anomaly(model, model.graph.nodes[-1], data.row(0)), 21
    ),
    "change": (
        lambda model, data: gk.distribution_change(model.graph, data, data, model.graph.nodes[-1]), 21
    ),
}


def _forbid_fits_and_draws(monkeypatch, error):
    def never(*args, **kwargs):
        raise error

    for name in ("fit", "draw_noise_values", "_target_samples", "abduct_row"):
        monkeypatch.setattr(attribution, name, never)


@pytest.mark.parametrize("query", sorted(LIMIT_QUERIES))
def test_exact_player_limit_is_checked_before_any_fit_or_draw(query, monkeypatch):
    run, length = LIMIT_QUERIES[query]
    model, data = _long_chain(length)
    _forbid_fits_and_draws(monkeypatch, AssertionError("the player limit was not checked first"))
    with pytest.raises(QueryError, match="limited to 20 players, got 21"):
        run(model, data)


class _Drawn(Exception):
    pass


def test_icc_target_with_twenty_ancestors_passes_the_player_limit(monkeypatch):
    model, data = _long_chain(21)
    _forbid_fits_and_draws(monkeypatch, _Drawn())
    with pytest.raises(_Drawn):
        gk.intrinsic_influence(model, model.graph.nodes[-1])


PERMUTATION_QUERIES = {
    "icc": lambda config: gk.intrinsic_influence(
        make_ground_truth_chain(), "Z", config, outer_samples=5, inner_samples=30, seed=3
    ),
    "outlier": lambda config: gk.attribute_anomaly(
        make_ground_truth_chain(), "Z", {"X": 0.0, "Y": 4.0, "Z": 4.0}, 300, config, seed=3
    ),
    "change": lambda config: gk.distribution_change(
        TestDistributionChange.graph,
        TestDistributionChange().make_data(0, n=500),
        TestDistributionChange().make_data(1, y_offset=1.0, n=500),
        "Y", "mean_diff", 300, config, seed=3
    ),
}


@pytest.mark.parametrize("query", sorted(PERMUTATION_QUERIES))
def test_permutation_shapley_through_the_subset_cache(query):
    config = gk.ShapleyConfig("permutation", num_permutations=5, seed=11)
    result = PERMUTATION_QUERIES[query](config)
    assert sum(result.scores.values()) == pytest.approx(result.total - result.baseline, abs=1e-9)
    again = PERMUTATION_QUERIES[query](config)
    assert json.dumps(again.to_json()) == json.dumps(result.to_json())


def _shapley_axiom_queries(model, target, seed):
    config = gk.ShapleyConfig("exact")
    sample = gk.draw_samples(model, 1, seed)
    row = {node: float(sample.column(node)[0]) for node in model.graph.nodes}
    row[target] += 3.0
    old = gk.draw_samples(model, 40, seed)
    new = gk.interventional_samples(model, [gk.shift(target, 1.0)], 40, seed + 1)
    return [
        lambda: gk.intrinsic_influence(model, target, config, 2, 5, seed),
        lambda: gk.attribute_anomaly(model, target, row, 20, config, seed),
        lambda: gk.distribution_change(model.graph, old, new, target, "mean_diff", 20, config, seed),
    ]


@given(drawn=linear_gaussian_models(), seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_attribution_queries_keep_the_shapley_axioms(drawn, seed):
    model, target = drawn
    players = model.graph.ancestors(target) | {target}
    for query in _shapley_axiom_queries(model, target, seed):
        result = query()
        assert set(result.scores) == players
        assert sum(result.scores.values()) == pytest.approx(
            result.total - result.baseline, abs=1e-9
        )
        assert json.dumps(query().to_json()) == json.dumps(result.to_json())


@st.composite
def models_with_a_bystander(draw):
    """A linear-Gaussian model and its target, and the same model with one
    more node E, declared anywhere: a root with no edges or a child of the
    target, so E cannot move the target."""
    model, target = draw(linear_gaussian_models())
    names = list(model.graph.nodes)
    names.insert(draw(st.integers(0, len(names))), "E")
    edges = list(model.graph.edges)
    bystander = Gaussian(0.0, 1.0)
    if draw(st.booleans()):
        edges.append((target, "E"))
        bystander = AdditiveNoiseModel(LinearModel([1.0], 0.0), bystander, gk.InputEncoder.continuous(1))
    return model, GcmModel(CausalGraph(names, edges), {**model.mechanisms, "E": bystander}), target


def _with_bystander_column(data, rng):
    columns = [data.column(name) for name in data.column_names]
    return Dataset([*data.column_names, "E"], [*columns, rng.standard_normal(data.n_rows)])


@given(drawn=models_with_a_bystander(), seed=st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_a_node_that_cannot_move_the_target_changes_no_attribution(drawn, seed):
    model, wider, target = drawn
    rng = np.random.default_rng(seed)
    sample = gk.draw_samples(model, 1, seed)
    row = {node: float(sample.column(node)[0]) for node in model.graph.nodes}
    row[target] += 3.0
    old = _with_bystander_column(gk.draw_samples(model, 40, seed), rng)
    new = _with_bystander_column(gk.interventional_samples(model, [gk.shift(target, 1.0)], 40, seed + 1), rng)
    config = gk.ShapleyConfig("exact")
    for query in (
        lambda m: gk.intrinsic_influence(m, target, config, 2, 5, seed),
        lambda m: gk.attribute_anomaly(m, target, {**row, "E": 0.5}, 20, config, seed),
        lambda m: gk.distribution_change(m.graph, old, new, target, "mean_diff", 20, config, seed),
    ):
        assert json.dumps(query(wider).to_json()) == json.dumps(query(model).to_json())


def mixed_model():
    """Hand-built C, X -> Y (kNN) -> W (C one-hot) -> Z, with a classifier K(C, Y) -> Z."""
    graph = CausalGraph(
        ["C", "X", "Y", "W", "K", "Z"],
        [("X", "Y"), ("C", "W"), ("Y", "W"), ("C", "K"), ("Y", "K"), ("W", "Z"), ("K", "Z")],
    )
    grid = np.linspace(-3.0, 3.0, 61)
    categorical_then_y = gk.InputEncoder([("categorical", ("a", "b")), ("continuous", None)])
    mechanisms = {
        "C": gk.Multinomial(["a", "b"], [0.4, 0.6]),
        "X": Gaussian(0.0, 1.0),
        "Y": AdditiveNoiseModel(
            gk.KnnRegressor(5, grid[:, None], np.sin(2.0 * grid)),
            Gaussian(0.0, 0.3),
            gk.InputEncoder.continuous(1),
        ),
        "W": AdditiveNoiseModel(
            LinearModel([1.0, -0.5, 2.0], 0.1), Gaussian(0.0, 0.5), categorical_then_y
        ),
        "K": gk.ClassifierFcm(
            categorical_then_y, ("hi", "lo"), [[0.5, -0.5], [-0.5, 0.5], [1.5, -1.5], [0.0, 0.0]]
        ),
        "Z": AdditiveNoiseModel(
            LinearModel([1.5, 1.0, 0.0], 0.0),
            Empirical([-1.0, -0.2, 0.0, 0.4, 1.3]),
            gk.InputEncoder([("continuous", None), ("categorical", ("hi", "lo"))]),
        ),
    }
    model = GcmModel(graph)
    for node, mechanism in mechanisms.items():
        model = gk.assign(model, node, mechanism, ground_truth=True)
    return model


MIXED_ROW = {"C": "b", "X": 0.4, "Y": 0.9, "W": 4.5, "K": "hi", "Z": 8.0}
BATCHED_QUERIES = {
    # (query, Monte-Carlo rows per subset)
    "icc": (lambda config: gk.intrinsic_influence(mixed_model(), "Z", config, 4, 10, seed=5), 40),
    "outlier": (
        lambda config: gk.attribute_anomaly(mixed_model(), "W", MIXED_ROW, 50, config, seed=5),
        50,
    ),
}
SEVEN_PERMUTATIONS = gk.ShapleyConfig("permutation", num_permutations=7, seed=11)
# The distinct subsets each query simulates: all but the empty set (and, for
# ICC, the full set), whose values are known.  ICC has 5 players (Z's
# ancestors: Z's own share is exact), outlier attribution 4; seven
# permutations reach 22 and 14 distinct subsets.
SIMULATED_SUBSETS = {
    ("icc", "exact"): 30,
    ("icc", "permutation"): 20,
    ("outlier", "exact"): 15,
    ("outlier", "permutation"): 13,
}


@pytest.mark.parametrize("subsets_per_chunk", [1, 3])
@pytest.mark.parametrize(
    "query, config",
    [(query, None) for query in sorted(BATCHED_QUERIES)]
    + [(query, SEVEN_PERMUTATIONS) for query in sorted(BATCHED_QUERIES)],
    ids=sorted(BATCHED_QUERIES) + [f"{query}-permutation" for query in sorted(BATCHED_QUERIES)],
)
def test_results_do_not_depend_on_batching(query, config, subsets_per_chunk, monkeypatch):
    run, rows_per_subset = BATCHED_QUERIES[query]
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return propagate_from_noise(*args, **kwargs)

    monkeypatch.setattr(attribution, "propagate_from_noise", counting)
    default = json.dumps(run(config).to_json())
    assert len(calls) == 2  # the reference sample, then all subsets in one chunk
    calls.clear()
    monkeypatch.setattr(attribution, "_STACKED_ROWS", subsets_per_chunk * rows_per_subset)
    assert json.dumps(run(config).to_json()) == default
    # One propagation for the reference sample, then one per chunk of the
    # subsets whose value is not known.
    simulated = SIMULATED_SUBSETS[query, (config or gk.ShapleyConfig()).method]
    assert len(calls) == 1 + math.ceil(simulated / subsets_per_chunk)


PINNED_OUTLIER = {
    "scores": {
        "C": -0.40121613937998646,
        "X": 0.41108697962365504,
        "Y": 0.31383131036277345,
        "W": 2.914976301557938,
    },
    "measure": "it_outlier_score",
    "seed": 5,
    "budget": {"reference_samples": 50, "samples_per_subset": 50},
    "total": 3.2386784521643803,
    "baseline": 0.0,
}
PINNED_CHAIN_OUTLIER = {
    "scores": {"X": -0.6215510367914023, "Y": 4.028722283139762, "Z": -0.26501033906102156},
    "measure": "it_outlier_score",
    "seed": 3,
    "budget": {"reference_samples": 300, "samples_per_subset": 300},
    "total": 3.142160907287339,
    "baseline": 0.0,
}
PINNED_PERMUTATION_OUTLIER = {
    "scores": {
        "C": -0.5795582815517601,
        "X": 0.7074945487629946,
        "Y": 0.39441278481371367,
        "W": 2.7163294001394322,
    },
    "measure": "it_outlier_score",
    "seed": 5,
    "budget": {"reference_samples": 50, "samples_per_subset": 50},
    "total": 3.2386784521643803,
    "baseline": 0.0,
}


def test_outlier_scores_are_pinned():
    # The values these queries gave when every subset was propagated on its
    # own: stacking subsets into one propagation must not move a bit.
    result = gk.attribute_anomaly(mixed_model(), "W", MIXED_ROW, 50, None, seed=5)
    assert result.to_json() == PINNED_OUTLIER
    chain = gk.attribute_anomaly(
        make_ground_truth_chain(), "Z", {"X": 0.0, "Y": 4.0, "Z": 4.0}, 300, None, seed=3
    )
    assert chain.to_json() == PINNED_CHAIN_OUTLIER
    # The value the permutation method gave when it asked for one subset at a time.
    permuted = gk.attribute_anomaly(mixed_model(), "W", MIXED_ROW, 50, SEVEN_PERMUTATIONS, seed=5)
    assert permuted.to_json() == PINNED_PERMUTATION_OUTLIER
