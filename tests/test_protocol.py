"""Queries see a node only through the documented mechanism protocol.

``ProtocolOnly`` wraps a fitted mechanism and exposes exactly the protocol
members listed in the ``gcmkit.mechanisms`` docstring.  A model built from
such wrappers must answer every query as the model it wraps does; a query
that reads any other member of a mechanism fails here with an
``AttributeError``.
"""

import numpy as np
import pytest

import gcmkit as gk
from gcmkit import mechanisms

PROTOCOL = {
    "family",
    "option",
    "is_continuous",
    "draw_noise",
    "forward",
    "abduct",
    "noise_reference",
    "noise_variance",
    "categories",
    "probabilities",
    "to_json",
}

NODES = ["C", "X", "Y", "K", "Z"]
EDGES = [("C", "Y"), ("X", "Y"), ("X", "K"), ("Y", "Z")]


class ProtocolOnly:
    """A mechanism with the protocol members and nothing else, answering
    through the mechanism it wraps."""

    __slots__ = ("_inner",)

    def __init__(self, inner):
        self._inner = inner

    family = property(lambda self: self._inner.family)
    option = property(lambda self: self._inner.option)
    is_continuous = property(lambda self: self._inner.is_continuous)
    categories = property(lambda self: self._inner.categories)
    noise_variance = property(lambda self: self._inner.noise_variance)

    def draw_noise(self, n, rng):
        return self._inner.draw_noise(n, rng)

    def forward(self, parent_columns, noise):
        return self._inner.forward(parent_columns, noise)

    def abduct(self, parent_columns, observed):
        return self._inner.abduct(parent_columns, observed)

    def noise_reference(self, n, rng):
        return self._inner.noise_reference(n, rng)

    def probabilities(self, parent_columns, n):
        return self._inner.probabilities(parent_columns, n)

    def to_json(self):
        return self._inner.to_json()


def mixed_dataset(n, seed):
    """A categorical root C, continuous root X, ANM Y, classifier K, ANM Z."""
    rng = np.random.default_rng(seed)
    c = rng.choice(["a", "b"], size=n).astype(object)
    x = rng.standard_normal(n)
    y = x + np.where(c == "a", 1.0, 0.0) + 0.3 * rng.standard_normal(n)
    k = np.where(x + 0.5 * rng.standard_normal(n) > 0, "hi", "lo").astype(object)
    z = 1.5 * y + rng.standard_normal(n)
    return gk.Dataset(NODES, [c, x, y, k, z])


@pytest.fixture(scope="module")
def models():
    """A fitted mixed model and the same mechanisms behind ``ProtocolOnly``."""
    data = mixed_dataset(200, 0)
    graph = gk.CausalGraph(NODES, EDGES)
    real = gk.fit(gk.auto_assign(graph, data), data)
    wrapped = gk.GcmModel(graph, {node: ProtocolOnly(real.mechanisms[node]) for node in NODES})
    return real, wrapped


def test_the_double_has_exactly_the_documented_protocol():
    public = {name for name in dir(ProtocolOnly) if not name.startswith("_")}
    assert public == PROTOCOL
    for name in PROTOCOL:
        assert f"``{name}" in mechanisms.__doc__


def test_a_model_of_concrete_mechanisms_is_fitted(models):
    _, wrapped = models
    assert wrapped.fitted
    assert gk.dumps_model(wrapped) == gk.dumps_model(models[0])


def _same(a, b):
    assert type(a) is type(b)
    if isinstance(a, gk.Dataset):
        assert a.column_names == b.column_names
        for name in a.column_names:
            assert np.array_equal(a.column(name), b.column(name))
    elif hasattr(a, "to_json"):
        assert a.to_json() == b.to_json()
    else:
        assert a == b


ROW = {"C": "b", "X": 0.3, "Y": 2.5, "K": "hi", "Z": 6.0}

QUERIES = {
    "draw_samples": lambda m: gk.draw_samples(m, 50, seed=3),
    "interventional_samples": lambda m: gk.interventional_samples(
        m, [gk.atomic("C", "a"), gk.shift("X", 0.5)], 50, seed=3
    ),
    "counterfactual": lambda m: gk.counterfactual(m, ROW, [gk.atomic("K", "lo"), gk.shift("X", 1.0)]),
    "average_causal_effect": lambda m: gk.average_causal_effect(m, "X", 1.0, 0.0, "Z", n=200, seed=3),
    "intrinsic_influence": lambda m: gk.intrinsic_influence(
        m, "Z", outer_samples=10, inner_samples=5, seed=3
    ),
    "attribute_anomaly": lambda m: gk.attribute_anomaly(m, "Z", ROW, num_samples=50, seed=3),
    "arrow_strength": lambda m: gk.arrow_strength(m, ("Y", "Z"), measure="coupled_msd", n=200, seed=3),
    "evaluate_mechanisms": lambda m: gk.evaluate_mechanisms(m, mixed_dataset(80, 1), seed=3),
}


@pytest.mark.parametrize("query", list(QUERIES))
def test_queries_answer_through_the_protocol_alone(models, query):
    real, wrapped = models
    _same(QUERIES[query](wrapped), QUERIES[query](real))


def test_evaluation_reports_every_role(models):
    _, wrapped = models
    report = gk.evaluate_mechanisms(wrapped, mixed_dataset(80, 1)).to_json()["nodes"]
    roles = {entry["node"]: entry["role"] for entry in report}
    assert roles == {
        "C": "root_categorical",
        "X": "root_continuous",
        "Y": "additive_noise",
        "K": "classifier",
        "Z": "additive_noise",
    }
    assert [sorted(entry) for entry in report] == [
        ["accuracy", "node", "role"],
        ["ks_statistic", "node", "role"],
        ["ks_statistic", "node", "rmse", "role"],
        ["accuracy", "node", "role"],
        ["ks_statistic", "node", "rmse", "role"],
    ]
