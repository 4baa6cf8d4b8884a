import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

import gcmkit as gk
from gcmkit import (
    AdditiveNoiseModel,
    CausalGraph,
    Dataset,
    Gaussian,
    GcmModel,
    LinearModel,
    NonInvertibleError,
    QueryError,
)
from conftest import linear_gaussian_models, make_ground_truth_chain


def make_two_node_model(coef=2.0, intercept=1.0, noise_std=1.0, root_std=1.0):
    graph = CausalGraph(["X", "Y"], [("X", "Y")])
    model = GcmModel(graph)
    model = gk.assign(model, "X", Gaussian(0.0, root_std), ground_truth=True)
    anm = AdditiveNoiseModel(
        LinearModel([coef], intercept), Gaussian(0.0, noise_std), gk.InputEncoder.continuous(1)
    )
    return gk.assign(model, "Y", anm, ground_truth=True)


class TestDrawSamples:
    def test_degenerate_noise_gives_constant_rows(self):
        model = make_two_node_model(noise_std=0.0, root_std=0.0)
        samples = gk.draw_samples(model, 20, seed=3)
        assert np.all(samples.column("X") == 0.0)
        assert np.all(samples.column("Y") == 1.0)

    def test_seed_repeat_identical(self):
        model = make_two_node_model()
        a = gk.draw_samples(model, 100, seed=11)
        b = gk.draw_samples(model, 100, seed=11)
        for name in a.column_names:
            assert np.array_equal(a.column(name), b.column(name))

    def test_variance_matches_analytics(self):
        model = make_two_node_model(coef=2.0, intercept=0.0)
        samples = gk.draw_samples(model, 100000, seed=5)
        assert np.var(samples.column("Y")) == pytest.approx(5.0, abs=0.15)

    def test_columns_in_declaration_order(self):
        model = make_two_node_model()
        assert gk.draw_samples(model, 5, seed=0).column_names == ("X", "Y")

    def test_requires_fitted_model(self):
        model = GcmModel(CausalGraph(["X"]))
        with pytest.raises(gk.FitError, match="not fitted"):
            gk.draw_samples(model, 5)


class TestInterventionalSamples:
    def test_atomic_mean_matches_analytics(self):
        model = make_two_node_model(coef=2.0, intercept=0.0)
        samples = gk.interventional_samples(model, [gk.atomic("X", 1.0)], 100000, seed=7)
        assert samples.column("Y").mean() == pytest.approx(2.0, abs=0.02)
        assert np.all(samples.column("X") == 1.0)

    def test_shift_moves_downstream_mean_linearly(self):
        model = make_two_node_model(coef=2.0, intercept=0.0)
        observational = gk.draw_samples(model, 100000, seed=9)
        shifted = gk.interventional_samples(model, [gk.shift("X", 1.0)], 100000, seed=9)
        delta = shifted.column("Y").mean() - observational.column("Y").mean()
        assert delta == pytest.approx(2.0, abs=0.03)

    def test_atomic_on_sink_leaves_other_columns_bit_identical(self):
        model = make_ground_truth_chain()
        observational = gk.draw_samples(model, 1000, seed=13)
        intervened = gk.interventional_samples(model, [gk.atomic("Z", 5.0)], 1000, seed=13)
        assert np.array_equal(observational.column("X"), intervened.column("X"))
        assert np.array_equal(observational.column("Y"), intervened.column("Y"))
        assert np.all(intervened.column("Z") == 5.0)

    def test_functional_intervention(self):
        model = make_two_node_model(coef=1.0, intercept=0.0, noise_std=0.0, root_std=0.0)
        samples = gk.interventional_samples(model, [gk.functional("X", lambda v: v + 10)], 5, seed=0)
        assert np.all(samples.column("X") == 10.0)
        assert np.all(samples.column("Y") == 10.0)

    def test_unknown_node_rejected(self):
        model = make_two_node_model()
        with pytest.raises(gk.GraphError, match="unknown node"):
            gk.interventional_samples(model, [gk.atomic("Q", 1.0)], 10)

    def test_type_mismatch_rejected(self):
        model = make_two_node_model()
        with pytest.raises(QueryError, match="not numeric"):
            gk.interventional_samples(model, [gk.atomic("X", "high")], 10)

    def test_duplicate_interventions_rejected(self):
        model = make_two_node_model()
        with pytest.raises(QueryError, match="multiple interventions"):
            gk.interventional_samples(model, [gk.atomic("X", 1), gk.shift("X", 1)], 10)

    def test_unknown_kind_rejected(self):
        model = make_two_node_model()
        with pytest.raises(QueryError, match="unknown intervention kind 'bogus'"):
            gk.interventional_samples(model, [gk.Intervention("Y", "bogus")], 10)

    def test_non_descendants_keep_observational_distribution(self):
        model = make_ground_truth_chain()
        observational = gk.draw_samples(model, 5000, seed=100)
        intervened = gk.interventional_samples(model, [gk.atomic("Y", 3.0)], 5000, seed=200)
        p = ks_2samp(observational.column("X"), intervened.column("X")).pvalue
        assert p > 0.01

    def test_atomically_set_node_ignores_its_parents(self):
        # Y's mechanism is not evaluated under do(Y), so a parent value it
        # could not encode does not matter
        rng = np.random.default_rng(2)
        labels = np.array(rng.choice(["a", "b"], 200), dtype=object)
        y = np.where(labels == "a", 1.0, 0.0) + 0.3 * rng.standard_normal(200)
        data = Dataset(["C", "Y"], [labels, y])
        model = gk.fit(gk.auto_assign(CausalGraph(["C", "Y"], [("C", "Y")]), data), data)
        ivs = [gk.atomic("C", "unseen"), gk.atomic("Y", 1.0)]
        assert gk.interventional_samples(model, ivs, 5, seed=1).column("Y").tolist() == [1.0] * 5
        row = {"C": "a", "Y": 0.5}
        assert gk.counterfactual(model, row, ivs) == {"C": "unseen", "Y": 1.0}


class TestCounterfactual:
    def test_worked_example(self):
        model = make_two_node_model(coef=2.0, intercept=0.0)
        result = gk.counterfactual(model, {"X": 1.0, "Y": 3.0}, [gk.atomic("X", 2.0)])
        assert result["Y"] == 5.0
        assert result["X"] == 2.0

    def test_empty_intervention_returns_row_exactly(self):
        model = make_two_node_model()
        row = {"X": 0.3, "Y": 1.7}
        assert gk.counterfactual(model, row, []) == row

    def test_all_training_rows_reproduced_bit_exactly(self, fitted_chain):
        model, data = fitted_chain
        for index in range(0, data.n_rows, 97):
            row = data.row(index)
            assert gk.counterfactual(model, row, []) == row

    def test_counterfactual_shift(self):
        model = make_two_node_model(coef=2.0, intercept=0.0)
        result = gk.counterfactual(model, {"X": 1.0, "Y": 3.0}, [gk.shift("X", 1.0)])
        # noise on Y was 1; new X is 2 -> Y = 2*2 + 1
        assert result["X"] == 2.0
        assert result["Y"] == 5.0

    def test_counterfactual_functional(self):
        model = make_two_node_model(coef=2.0, intercept=0.0)
        result = gk.counterfactual(
            model, {"X": 1.0, "Y": 3.0}, [gk.functional("X", lambda v: -v)]
        )
        assert result["X"] == -1.0
        assert result["Y"] == -1.0  # 2*(-1) + noise 1

    def test_classifier_node_blocks_counterfactual(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        labels = np.array(["a" if v < 0 else "b" for v in x], dtype=object)
        data = Dataset(["X", "C"], [x, labels])
        graph = CausalGraph(["X", "C"], [("X", "C")])
        model = gk.fit(gk.auto_assign(graph, data), data)
        with pytest.raises(NonInvertibleError):
            gk.counterfactual(model, {"X": 0.0, "C": "a"}, [])
        # an atomic intervention on the classifier node sidesteps abduction
        result = gk.counterfactual(model, {"X": 0.0, "C": "a"}, [gk.atomic("C", "b")])
        assert result["C"] == "b"

    def test_missing_node_rejected(self):
        model = make_two_node_model()
        with pytest.raises(QueryError, match="missing"):
            gk.counterfactual(model, {"X": 1.0}, [])

    def test_parent_shift_within_the_same_knn_neighbours_keeps_the_child_exact(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-3.0, 3.0, 300)
        y = np.sin(x) + 0.1 * rng.standard_normal(300)
        anm = gk.fit_anm([x], y, model_kind="knn")
        graph = CausalGraph(["X", "Y"], [("X", "Y")])
        model = gk.assign(GcmModel(graph), "X", gk.Empirical(x), ground_truth=True)
        model = gk.assign(model, "Y", anm, ground_truth=True)
        delta = 1e-9
        prediction = anm.predict([x])
        # rows where prediction + (observed - prediction) rounds away from the
        # observed value, and the shifted parent keeps the same neighbours
        inexact = prediction + (y - prediction) != y
        same_neighbours = anm.predict([x + delta]) == prediction
        candidates = np.flatnonzero(inexact & same_neighbours)
        assert candidates.size
        i = candidates[0]
        result = gk.counterfactual(model, {"X": x[i], "Y": y[i]}, [gk.shift("X", delta)])
        assert result["X"] == x[i] + delta
        assert result["Y"] == y[i]


@given(drawn=linear_gaussian_models(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_counterfactual_without_interventions_returns_the_row(drawn, data):
    model, _ = drawn
    values = st.floats(-100.0, 100.0, allow_nan=False)
    row = {node: data.draw(values, label=node) for node in model.graph.nodes}
    result = gk.counterfactual(model, row, [])
    assert result == row
    assert all(type(value) is float for value in result.values())


class TestAverageCausalEffect:
    def test_linear_effect(self):
        model = make_two_node_model(coef=2.0, intercept=0.0)
        ace = gk.average_causal_effect(model, "X", 1.0, 0.0, "Y", n=100000, seed=17)
        assert ace == pytest.approx(2.0, abs=0.03)

    def test_no_directed_path_gives_zero(self):
        # X and W are disconnected
        graph = CausalGraph(["X", "W"], [])
        model = GcmModel(graph)
        model = gk.assign(model, "X", Gaussian(0.0, 1.0), ground_truth=True)
        model = gk.assign(model, "W", Gaussian(0.0, 1.0), ground_truth=True)
        ace = gk.average_causal_effect(model, "X", 5.0, -5.0, "W", n=20000, seed=19)
        assert ace == pytest.approx(0.0, abs=0.03)

    def test_equal_values_give_mc_noise_only(self):
        model = make_two_node_model()
        ace = gk.average_causal_effect(model, "X", 1.0, 1.0, "Y", n=50000, seed=23)
        assert abs(ace) < 0.02


def test_seed_determinism_across_operations():
    model = make_ground_truth_chain()
    pairs = [
        lambda s: gk.draw_samples(model, 200, seed=s).column("Z"),
        lambda s: gk.interventional_samples(model, [gk.shift("X", 1)], 200, seed=s).column("Z"),
        lambda s: gk.average_causal_effect(model, "X", 1, 0, "Z", n=2000, seed=s),
    ]
    for op in pairs:
        assert np.all(np.asarray(op(31)) == np.asarray(op(31)))


def test_linear_gaussian_interventional_means_match_path_analytics():
    rng = np.random.default_rng(99)
    for trial in range(3):
        model, coefficients, intercepts = _random_linear_gaussian(rng, n_nodes=5)
        treatment, value = "n0", 1.5
        samples = gk.interventional_samples(
            model, [gk.atomic(treatment, value)], 50000, seed=trial
        )
        means = _analytic_do_means(model.graph, coefficients, intercepts, treatment, value)
        for node in model.graph.nodes:
            column = samples.column(node)
            bound = 3 * column.std() / np.sqrt(len(column))
            assert column.mean() == pytest.approx(means[node], abs=max(bound, 1e-9))


def _random_linear_gaussian(rng, n_nodes):
    names = [f"n{i}" for i in range(n_nodes)]
    edges = [
        (names[i], names[j])
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if rng.random() < 0.5
    ]
    graph = CausalGraph(names, edges)
    model = GcmModel(graph)
    coefficients, intercepts = {}, {}
    for node in names:
        parents = graph.parents(node)
        intercepts[node] = float(rng.uniform(-1, 1))
        if not parents:
            model = gk.assign(model, node, Gaussian(intercepts[node], 1.0), ground_truth=True)
        else:
            coefs = rng.uniform(0.5, 2.0, size=len(parents)) * rng.choice([-1, 1], len(parents))
            coefficients[node] = dict(zip(parents, coefs))
            anm = AdditiveNoiseModel(
                LinearModel(coefs, intercepts[node]),
                Gaussian(0.0, 1.0),
                gk.InputEncoder.continuous(len(parents)),
            )
            model = gk.assign(model, node, anm, ground_truth=True)
    return model, coefficients, intercepts


def _analytic_do_means(graph, coefficients, intercepts, treatment, value):
    means = {}
    for node in graph.topological_order():
        if node == treatment:
            means[node] = value
        elif graph.is_root(node):
            means[node] = intercepts[node]
        else:
            means[node] = intercepts[node] + sum(
                coefficients[node][p] * means[p] for p in graph.parents(node)
            )
    return means


def _budget_calls():
    """Each public budget, size or count: its name -> a call that passes it a value."""
    model = make_ground_truth_chain()
    data = gk.Dataset(["A", "B"], [np.arange(30.0), np.arange(30.0) ** 2])
    return {
        "draw_samples n": lambda v: gk.draw_samples(model, v),
        "average_causal_effect n": lambda v: gk.average_causal_effect(model, "X", 1.0, 0.0, "Z", n=v),
        "arrow_strength n": lambda v: gk.arrow_strength(model, ("X", "Y"), n=v),
        "intrinsic_influence outer_samples": lambda v: gk.intrinsic_influence(
            model, "Z", outer_samples=v, inner_samples=3
        ),
        "intrinsic_influence inner_samples": lambda v: gk.intrinsic_influence(
            model, "Z", outer_samples=2, inner_samples=v
        ),
        "attribute_anomaly num_samples": lambda v: gk.attribute_anomaly(
            model, "Z", {"X": 0.0, "Y": 0.0, "Z": 0.0}, num_samples=v
        ),
        "pairwise_independence_test num_permutations": lambda v: gk.pairwise_independence_test(
            np.arange(20.0), np.arange(20.0) % 3, num_permutations=v
        ),
        "kl_divergence k": lambda v: gk.kl_divergence(np.arange(10.0), np.arange(12.0), k=v),
        "pc_skeleton max_cond_set_size": lambda v: gk.pc_skeleton(data, 0.05, v),
    }


@pytest.mark.parametrize("value", [2.5, True, False, np.float64(3.0), "3", None, np.bool_(True)])
@pytest.mark.parametrize("call", _budget_calls())
def test_budgets_are_integers_checked_at_the_boundary(call, value):
    """A bool or a non-integer budget raises QueryError naming the argument,
    never a numpy error from deep inside; a numpy integer is accepted."""
    run = _budget_calls()[call]
    with pytest.raises(QueryError, match=call.split()[1]):
        run(value)
    run(np.int64(3))
