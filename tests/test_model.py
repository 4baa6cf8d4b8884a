import io
import json

import numpy as np
import pytest

import gcmkit as gk
from gcmkit import (
    AdditiveNoiseModel,
    CausalGraph,
    DataError,
    Dataset,
    Empirical,
    FitError,
    Gaussian,
    GcmModel,
    LinearModel,
    MechanismSpec,
    Multinomial,
    NumericError,
    SerializationError,
)
from conftest import classifier_data, make_ground_truth_chain, set_path


def two_node_graph():
    return CausalGraph(["X", "Y"], [("X", "Y")])


def test_auto_assign_continuous_chain(chain_graph):
    rng = np.random.default_rng(0)
    data = Dataset(["X", "Y", "Z"], [rng.standard_normal(50) for _ in range(3)])
    model = gk.auto_assign(chain_graph, data)
    assert model.mechanisms["X"] == MechanismSpec("stochastic", "auto")
    assert model.mechanisms["Y"] == MechanismSpec("anm", "auto")
    assert not model.fitted


def test_auto_assign_isolated_node():
    data = Dataset(["A"], [np.arange(10.0)])
    model = gk.auto_assign(CausalGraph(["A"]), data)
    assert model.mechanisms["A"].family == "stochastic"


def test_auto_assign_categorical_non_root():
    rng = np.random.default_rng(0)
    labels = np.array(["u", "v"] * 25, dtype=object)
    data = Dataset(["X", "Y"], [rng.standard_normal(50), labels])
    model = gk.auto_assign(two_node_graph(), data)
    assert model.mechanisms["Y"].family == "classifier"


def test_auto_assign_missing_column():
    data = Dataset(["X"], [np.arange(10.0)])
    with pytest.raises(DataError, match="missing"):
        gk.auto_assign(two_node_graph(), data)


def test_auto_assign_cardinality_limit():
    labels = np.array([f"c{i}" for i in range(120)], dtype=object)
    data = Dataset(["X"], [labels])
    with pytest.raises(FitError, match="categories"):
        gk.auto_assign(CausalGraph(["X"]), data)


def test_assign_ground_truth_root_usable_without_fit():
    model = GcmModel(CausalGraph(["X"]))
    model = gk.assign(model, "X", Gaussian(0.0, 1.0), ground_truth=True)
    assert model.fitted
    samples = gk.draw_samples(model, 10, seed=0)
    assert samples.n_rows == 10


def test_concrete_mechanisms_make_a_fitted_model_and_any_spec_unfits_it():
    model = make_ground_truth_chain()
    concrete = GcmModel(model.graph, model.mechanisms)
    assert concrete.fitted and not concrete.ground_truth
    for node in model.graph.nodes:
        spec = MechanismSpec("stochastic" if node == "X" else "anm")
        assert not GcmModel(model.graph, {**model.mechanisms, node: spec}).fitted
        assert not gk.assign(concrete, node, spec).fitted


def test_a_ground_truth_node_must_hold_a_concrete_mechanism():
    spec = MechanismSpec("stochastic")
    with pytest.raises(FitError, match="ground-truth assignment must be a concrete mechanism"):
        gk.assign(GcmModel(CausalGraph(["X"])), "X", spec, ground_truth=True)
    with pytest.raises(FitError, match="ground-truth assignment must be a concrete mechanism"):
        GcmModel(CausalGraph(["X"]), {"X": spec}, ground_truth={"X"})


def test_concrete_mechanism_without_ground_truth_is_queryable_and_refits():
    model = gk.assign(GcmModel(CausalGraph(["X"])), "X", Gaussian(0.0, 1.0))
    assert model.fitted
    assert gk.draw_samples(model, 10, seed=0).n_rows == 10
    refit = gk.fit(model, Dataset(["X"], [np.array([1.0, 2.0, 3.0])]))
    assert (refit.mechanisms["X"].mean, refit.mechanisms["X"].std) == (2.0, 1.0)


def test_fit_rejects_an_unknown_classifier_option():
    data = classifier_data(40, 0)
    model = gk.auto_assign(CausalGraph(["X", "K"], [("X", "K")]), data)
    model = gk.assign(model, "K", MechanismSpec("classifier", "svm"))
    with pytest.raises(FitError, match="^fitting node 'K' failed: unknown classifier kind 'svm'$"):
        gk.fit(model, data)


def test_assign_role_mismatch():
    model = GcmModel(two_node_graph())
    anm = AdditiveNoiseModel(LinearModel([1.0], 0.0), Gaussian(0, 1), gk.InputEncoder.continuous(1))
    with pytest.raises(FitError, match="root"):
        gk.assign(model, "X", anm)
    with pytest.raises(FitError, match="non-root"):
        gk.assign(model, "Y", Gaussian(0.0, 1.0))
    with pytest.raises(FitError, match="non-root node 'Y' needs"):
        GcmModel(two_node_graph(), {"X": Gaussian(0.0, 1.0), "Y": Gaussian(0.0, 1.0)})
    with pytest.raises(FitError, match="non-root node 'Y' needs"):
        GcmModel(two_node_graph(), {"Y": MechanismSpec("tree")})


def test_fit_recovers_noiseless_line():
    x = np.linspace(-1, 1, 50)
    data = Dataset(["X", "Y"], [x, 2 * x + 1])
    model = gk.fit(gk.auto_assign(two_node_graph(), data), data)
    anm = model.mechanisms["Y"]
    assert anm.prediction.coefficients[0] == pytest.approx(2.0, abs=1e-8)
    assert anm.prediction.intercept == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(anm.noise.samples, 0.0, atol=1e-8)


def test_fit_is_noop_on_all_ground_truth():
    model = make_ground_truth_chain()
    x = np.array([0.0, 1.0, 2.0])
    data = Dataset(["X", "Y", "Z"], [x, x, x])
    refit = gk.fit(model, data)
    assert refit.mechanisms["Y"] is model.mechanisms["Y"]


def test_mechanisms_cannot_be_changed_in_place(fitted_chain):
    model, _ = fitted_chain
    given = dict(model.mechanisms)
    with pytest.raises(TypeError):
        model.mechanisms["X"] = model.mechanisms["Y"]
    with pytest.raises(TypeError):
        del model.mechanisms["Z"]
    assert dict(model.mechanisms) == given
    assert model.fitted


def test_fit_insufficient_rows_names_node():
    data = Dataset(["X", "Y"], [np.array([1.0]), np.array([2.0])])
    model = gk.auto_assign(two_node_graph(), data)
    with pytest.raises(FitError, match="'Y'"):
        gk.fit(model, data)


def test_fit_numeric_failure_names_node_and_keeps_its_type():
    data = classifier_data(60, 0, scale=1e150)
    model = gk.auto_assign(CausalGraph(["X", "K"], [("X", "K")]), data)
    with pytest.raises(NumericError, match="^fitting node 'K' failed: no convergence"):
        gk.fit(model, data)


def test_reassign_marks_unfitted_and_refit_is_local(fitted_chain):
    model, data = fitted_chain
    serialized_before = json.loads(gk.dumps_model(model))["mechanisms"]
    replaced = gk.assign(model, "Y", MechanismSpec("anm", "linear"))
    assert not replaced.fitted
    refit = gk.fit(replaced, data)
    serialized_after = json.loads(gk.dumps_model(refit))["mechanisms"]
    assert serialized_after["X"] == serialized_before["X"]
    assert serialized_after["Z"] == serialized_before["Z"]


def test_refit_other_node_leaves_mechanisms_byte_identical(fitted_chain):
    model, data = fitted_chain
    again = gk.fit(model, data)
    a = json.loads(gk.dumps_model(model))["mechanisms"]
    b = json.loads(gk.dumps_model(again))["mechanisms"]
    assert a == b


def test_save_load_round_trip_behaviour(tmp_path, fitted_chain):
    model, _ = fitted_chain
    path = tmp_path / "model.json"
    gk.save(model, str(path))
    loaded = gk.load(str(path))
    original = gk.draw_samples(model, 50, seed=7)
    restored = gk.draw_samples(loaded, 50, seed=7)
    for name in original.column_names:
        assert np.array_equal(original.column(name), restored.column(name))
    assert gk.dumps_model(model) == gk.dumps_model(loaded)


@pytest.mark.parametrize("source", ["path", "file"])
def test_load_drops_a_leading_byte_order_mark(tmp_path, fitted_chain, source):
    model, _ = fitted_chain
    text = "\ufeff" + gk.dumps_model(model)
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    loaded = gk.load(str(path)) if source == "path" else gk.load(io.StringIO(text))
    assert gk.dumps_model(loaded) == gk.dumps_model(model)


def test_load_of_a_file_that_is_not_utf8_is_a_serialization_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(SerializationError, match="corrupt model payload"):
        gk.load(str(path))


def test_save_requires_fitted():
    model = GcmModel(CausalGraph(["X"]))
    with pytest.raises(FitError, match="not fitted"):
        gk.save(model, io.StringIO())


def test_load_rejects_wrong_schema_version(fitted_chain):
    model, _ = fitted_chain
    payload = json.loads(gk.dumps_model(model))
    payload["schema_version"] = 99
    with pytest.raises(SerializationError, match="schema_version"):
        gk.loads_model(json.dumps(payload))


def test_load_rejects_truncated_payload(fitted_chain):
    model, _ = fitted_chain
    text = gk.dumps_model(model)
    with pytest.raises(SerializationError, match="corrupt"):
        gk.loads_model(text[: len(text) // 2])


def test_load_rejects_missing_mechanism(fitted_chain):
    model, _ = fitted_chain
    payload = json.loads(gk.dumps_model(model))
    del payload["mechanisms"]["Y"]
    with pytest.raises(SerializationError):
        gk.loads_model(json.dumps(payload))


def test_load_rejects_mechanisms_that_are_not_an_object(fitted_chain):
    model, _ = fitted_chain
    payload = json.loads(gk.dumps_model(model))
    payload["mechanisms"] = [payload["mechanisms"]["X"]]
    with pytest.raises(SerializationError, match="corrupt"):
        gk.loads_model(json.dumps(payload))


def golden_model():
    """One ground-truth mechanism of every family and prediction model."""
    graph = CausalGraph(
        ["X", "G", "C", "Y", "W", "K"],
        [("X", "Y"), ("C", "Y"), ("G", "W"), ("X", "K")],
    )
    mechanisms = {
        "X": Empirical([0.5, -1.25, 2.0]),
        "G": Gaussian(1.5, 0.25),
        "C": Multinomial(["a", "b"], [0.25, 0.75]),
        "Y": AdditiveNoiseModel(
            LinearModel([2.0, -0.5, 0.5], 0.125),
            Gaussian(0.0, 1.0),
            gk.InputEncoder([("continuous", None), ("categorical", ("a", "b"))]),
        ),
        "W": AdditiveNoiseModel(
            gk.KnnRegressor(2, [[0.0], [1.0], [3.0]], [1.0, 2.0, 4.5], offset=-0.5),
            Empirical([-0.25, 0.25]),
            gk.InputEncoder.continuous(1),
        ),
        "K": gk.ClassifierFcm(
            gk.InputEncoder.continuous(1), ["hi", "lo"], [[1.5, -1.5], [0.0, 0.25]]
        ),
    }
    model = GcmModel(graph)
    for node, mechanism in mechanisms.items():
        model = gk.assign(model, node, mechanism, ground_truth=True)
    return model


GOLDEN_MODEL_JSON = (
    '{"schema_version":1,"graph":{"nodes":["X","G","C","Y","W","K"],'
    '"edges":[["X","Y"],["C","Y"],["G","W"],["X","K"]]},"mechanisms":{'
    '"X":{"type":"empirical","samples":[0.5,-1.25,2.0],"ground_truth":true},'
    '"G":{"type":"gaussian","mean":1.5,"std":0.25,"ground_truth":true},'
    '"C":{"type":"multinomial","categories":["a","b"],"probs":[0.25,0.75],"ground_truth":true},'
    '"Y":{"type":"anm","encoding":[{"kind":"continuous"},'
    '{"kind":"categorical","categories":["a","b"]}],'
    '"prediction":{"type":"linear","coefficients":[2.0,-0.5,0.5],"intercept":0.125},'
    '"noise":{"type":"gaussian","mean":0.0,"std":1.0},"ground_truth":true},'
    '"W":{"type":"anm","encoding":[{"kind":"continuous"}],'
    '"prediction":{"type":"knn","k":2,"offset":-0.5,"inputs":[[0.0],[1.0],[3.0]],'
    '"targets":[1.0,2.0,4.5]},"noise":{"type":"empirical","samples":[-0.25,0.25]},'
    '"ground_truth":true},'
    '"K":{"type":"classifier","encoding":[{"kind":"continuous"}],"categories":["hi","lo"],'
    '"weights":[[1.5,-1.5],[0.0,0.25]],"ground_truth":true}}}'
)


def test_golden_model_json_bytes():
    assert gk.dumps_model(golden_model()) == GOLDEN_MODEL_JSON
    assert gk.dumps_model(gk.loads_model(GOLDEN_MODEL_JSON)) == GOLDEN_MODEL_JSON


def test_mechanism_round_trip_all_variants():
    mechanisms = list(golden_model().mechanisms.values())
    for mechanism in mechanisms:
        payload = mechanism.to_json()
        back = gk.mechanisms.mechanism_from_json(payload)
        assert type(back) is type(mechanism)
        assert back.to_json() == payload


@pytest.mark.parametrize(
    "path, value",
    [
        (["K", "weights", 0, 0], float("nan")),
        (["K", "weights", 1, 1], float("inf")),
        (["Y", "prediction", "intercept"], float("nan")),
        (["W", "prediction", "offset"], float("inf")),
        (["W", "prediction", "k"], 2.7),
        (["W", "prediction", "k"], True),
        (["Y", "encoding", 1, "kind"], "weird"),
    ],
    ids=["nan-weight", "inf-weight", "nan-intercept", "inf-offset", "fractional-k", "boolean-k", "weird-kind"],
)
def test_load_rejects_a_value_no_fit_writes(path, value):
    payload = json.loads(GOLDEN_MODEL_JSON)
    set_path(payload["mechanisms"], path, value)
    with pytest.raises(SerializationError, match="corrupt mechanism payload"):
        gk.loads_model(json.dumps(payload))


CONTINUOUS_SPEC = {"kind": "continuous"}


@pytest.mark.parametrize(
    "edits",
    [
        [(["Y", "encoding"], [CONTINUOUS_SPEC, CONTINUOUS_SPEC]), (["Y", "prediction", "coefficients"], [2.0, -0.5])],
        [(["K", "encoding"], [CONTINUOUS_SPEC, CONTINUOUS_SPEC]), (["K", "weights"], [[1.5, -1.5], [0.0, 0.25], [0.0, 0.0]])],
        [(["K", "categories"], []), (["K", "weights"], [[], []])],
        [(["K", "categories"], ["hi", "hi"])],
        [(["Y", "encoding", 1, "categories"], ["a", "a"])],
        [(["Y", "encoding", 1, "categories"], []), (["Y", "prediction", "coefficients"], [2.0])],
    ],
    ids=[
        "continuous-spec-for-a-categorical-parent",
        "more-specs-than-parents",
        "no-classifier-categories",
        "repeated-classifier-categories",
        "repeated-encoding-categories",
        "no-encoding-categories",
    ],
)
def test_load_rejects_mechanisms_that_disagree_with_the_graph(edits):
    # Each edit keeps the prediction's or weights' width equal to the encoding's.
    payload = json.loads(GOLDEN_MODEL_JSON)
    for path, value in edits:
        set_path(payload["mechanisms"], path, value)
    with pytest.raises(SerializationError, match="corrupt model payload"):
        gk.loads_model(json.dumps(payload))


def test_auto_assign_fit_recovers_coefficients():
    # linear-Gaussian generator with |coefficients| >= 0.5 and unit noise
    rng = np.random.default_rng(21)
    n = 2000
    x = rng.standard_normal(n)
    y = -0.8 * x + rng.standard_normal(n)
    z = 1.5 * x + 0.6 * y + rng.standard_normal(n)
    graph = CausalGraph(["X", "Y", "Z"], [("X", "Y"), ("X", "Z"), ("Y", "Z")])
    data = Dataset(["X", "Y", "Z"], [x, y, z])
    model = gk.fit(gk.auto_assign(graph, data), data)
    assert model.mechanisms["Y"].prediction.coefficients[0] == pytest.approx(-0.8, abs=0.1)
    coefficients = model.mechanisms["Z"].prediction.coefficients
    assert coefficients[0] == pytest.approx(1.5, abs=0.1)
    assert coefficients[1] == pytest.approx(0.6, abs=0.1)
