import numpy as np
import pytest

import gcmkit as gk
from gcmkit import (
    CausalGraph,
    DataError,
    Dataset,
    GcmModel,
    MechanismSpec,
    Multinomial,
    evaluate_mechanisms,
    refute_graph,
)
from conftest import make_ground_truth_chain, sample_chain_data


def chain_graph():
    return CausalGraph(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])


def wrong_order_graph():
    # claims X -> Z -> Y against data generated as X -> Y -> Z
    return CausalGraph(["X", "Y", "Z"], [("X", "Z"), ("Z", "Y")])


class TestRefuteGraph:
    def test_true_chain_not_rejected(self):
        data = sample_chain_data(2000, seed=0)
        report = refute_graph(chain_graph(), data, alpha=0.05)
        assert report.verdict == "not rejected"
        # the chain implies exactly one local Markov independence: Z vs X | Y
        assert len(report.tests) == 1
        assert report.tests[0].node == "Z" and report.tests[0].other == "X"

    def test_wrong_ordering_rejected(self):
        data = sample_chain_data(2000, seed=1)
        report = refute_graph(wrong_order_graph(), data, alpha=0.05)
        assert report.verdict == "rejected"

    def test_fully_connected_graph_vacuously_passes(self):
        data = sample_chain_data(200, seed=2)
        graph = CausalGraph(
            ["X", "Y", "Z"], [("X", "Y"), ("X", "Z"), ("Y", "Z")]
        )
        report = refute_graph(graph, data, alpha=0.05)
        assert report.tests == ()
        assert report.verdict == "not rejected"

    def test_report_json_shape(self):
        data = sample_chain_data(500, seed=3)
        payload = refute_graph(chain_graph(), data, alpha=0.05).to_json()
        assert set(payload) == {"tests", "verdict"}
        assert set(payload["tests"][0]) == {"node", "other", "given", "p", "rejected"}

    def test_graph_node_missing_from_the_data_rejected(self):
        # X -> Q implies no independence, so no test would have named Q.
        data = sample_chain_data(200, seed=5)
        with pytest.raises(DataError, match="graph node 'Q' is missing from the data"):
            refute_graph(CausalGraph(["X", "Q"], [("X", "Q")]), data)

    def test_determinism(self):
        data = sample_chain_data(800, seed=4)
        a = refute_graph(chain_graph(), data, alpha=0.05)
        b = refute_graph(chain_graph(), data, alpha=0.05)
        assert a == b

    def test_true_graph_family_rejection_rate_controlled(self):
        rejected = 0
        for rep in range(50):
            data = sample_chain_data(1000, seed=100 + rep)
            if refute_graph(chain_graph(), data, alpha=0.05).rejected:
                rejected += 1
        assert rejected <= 5


class TestEvaluateMechanisms:
    def test_ground_truth_ks_small_on_own_data(self):
        model = make_ground_truth_chain()
        heldout = gk.draw_samples(model, 5000, seed=999)
        report = evaluate_mechanisms(model, heldout, seed=1)
        for node_eval in report.nodes:
            assert node_eval.ks_statistic is not None
            assert node_eval.ks_statistic <= 0.05

    def test_linear_anm_loses_to_knn_on_quadratic_data(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, 1500)
        y = x**2 + 0.1 * rng.standard_normal(1500)
        train = Dataset(["X", "Y"], [x[:1000], y[:1000]])
        heldout = Dataset(["X", "Y"], [x[1000:], y[1000:]])
        graph = CausalGraph(["X", "Y"], [("X", "Y")])
        base = gk.auto_assign(graph, train)
        linear = gk.fit(gk.assign(base, "Y", MechanismSpec("anm", "linear")), train)
        knn = gk.fit(gk.assign(base, "Y", MechanismSpec("anm", "knn")), train)
        rmse_linear = evaluate_mechanisms(linear, heldout).nodes[1].rmse
        rmse_knn = evaluate_mechanisms(knn, heldout).nodes[1].rmse
        assert rmse_linear > rmse_knn

    def test_empty_heldout_rejected(self):
        model = make_ground_truth_chain()
        empty = Dataset(["X", "Y", "Z"], [np.array([]), np.array([]), np.array([])])
        with pytest.raises(DataError, match="empty"):
            evaluate_mechanisms(model, empty)

    def test_categorical_nodes_report_accuracy(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.normal(-2, 0.5, 400), rng.normal(2, 0.5, 400)])
        labels = np.array(["low"] * 400 + ["high"] * 400, dtype=object)
        data = Dataset(["X", "C"], [x, labels])
        graph = CausalGraph(["X", "C"], [("X", "C")])
        model = gk.fit(gk.auto_assign(graph, data), data)
        report = evaluate_mechanisms(model, data, seed=2)
        by_node = {e.node: e for e in report.nodes}
        assert by_node["C"].accuracy > 0.95

    def test_a_single_category_classifier_is_always_right(self):
        x = np.arange(10.0)
        data = Dataset(["X", "C"], [x, np.array(["only"] * 10, dtype=object)])
        model = gk.fit(gk.auto_assign(CausalGraph(["X", "C"], [("X", "C")]), data), data)
        assert model.mechanisms["C"].family == "classifier"
        assert evaluate_mechanisms(model, data).nodes[1].accuracy == 1.0

    def test_a_tie_predicts_the_first_category(self):
        model = GcmModel(CausalGraph(["C"], []), {"C": Multinomial(["a", "b"], [0.5, 0.5])})
        heldout = Dataset(["C"], [np.array(["a", "b", "b", "b"], dtype=object)])
        assert evaluate_mechanisms(model, heldout).nodes[0].accuracy == 0.25

    def test_missing_column_rejected(self):
        model = make_ground_truth_chain()
        partial = Dataset(["X"], [np.arange(10.0)])
        with pytest.raises(DataError, match="missing"):
            evaluate_mechanisms(model, partial)

    def test_missing_column_is_named_like_every_graph_node_check(self):
        model = make_ground_truth_chain()
        partial = Dataset(["X", "Z"], [np.arange(10.0), np.arange(10.0)])
        with pytest.raises(DataError, match="^graph node 'Y' is missing from the data$"):
            evaluate_mechanisms(model, partial)

    def test_determinism(self):
        model = make_ground_truth_chain()
        heldout = gk.draw_samples(model, 500, seed=11)
        a = evaluate_mechanisms(model, heldout, seed=3)
        b = evaluate_mechanisms(model, heldout, seed=3)
        assert a == b
