import numpy as np
import pytest
from hypothesis import strategies as st

import gcmkit as gk


def make_chain_graph():
    return gk.CausalGraph(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])


def make_ground_truth_chain(coef_y=1.0, coef_z=1.0, noise_std=1.0):
    """Chain X -> Y -> Z with linear mechanisms and unit-variance noises."""
    graph = make_chain_graph()
    model = gk.GcmModel(graph)
    model = gk.assign(model, "X", gk.Gaussian(0.0, noise_std), ground_truth=True)
    model = gk.assign(
        model,
        "Y",
        gk.AdditiveNoiseModel(
            gk.LinearModel([coef_y], 0.0),
            gk.Gaussian(0.0, noise_std),
            gk.InputEncoder.continuous(1),
        ),
        ground_truth=True,
    )
    model = gk.assign(
        model,
        "Z",
        gk.AdditiveNoiseModel(
            gk.LinearModel([coef_z], 0.0),
            gk.Gaussian(0.0, noise_std),
            gk.InputEncoder.continuous(1),
        ),
        ground_truth=True,
    )
    return model


def sample_chain_data(n, seed, coef_y=1.0, coef_z=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = coef_y * x + rng.standard_normal(n)
    z = coef_z * y + rng.standard_normal(n)
    return gk.Dataset(["X", "Y", "Z"], [x, y, z])


def constant_columns_table():
    """Two random columns A and B beside the constants K = -872.27 and
    L = -602.1, whose means do not round back to them exactly."""
    rng = np.random.default_rng(0)
    n = 1_025
    columns = [rng.standard_normal(n), rng.standard_normal(n), np.full(n, -872.27), np.full(n, -602.1)]
    return gk.Dataset(["A", "B", "K", "L"], columns)


def classifier_data(n, seed, scale=1.0):
    """X -> K: a continuous root X, multiplied by ``scale``, and a "hi"/"lo"
    child K that a classifier fits.  At ``scale=1e150`` the classifier's
    gradient cannot get under the solver's tolerance in floating point."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    k = np.where(x + 0.5 * rng.standard_normal(n) > 0, "hi", "lo").astype(object)
    return gk.Dataset(["X", "K"], [scale * x, k])


def set_path(payload, path, value):
    """Set ``payload[path[0]][path[1]]...`` to ``value``: one edit of a decoded model file."""
    for key in path[:-1]:
        payload = payload[key]
    payload[path[-1]] = value


@pytest.fixture
def chain_graph():
    return make_chain_graph()


@pytest.fixture
def fitted_chain():
    data = sample_chain_data(2000, seed=42)
    graph = make_chain_graph()
    return gk.fit(gk.auto_assign(graph, data), data), data


@st.composite
def linear_gaussian_models(draw):
    """A ground-truth linear-Gaussian model on 2-4 nodes, plus one target node."""
    size = draw(st.integers(2, 4))
    names = [f"V{i}" for i in range(size)]
    edges = [
        (names[i], names[j]) for j in range(size) for i in range(j) if draw(st.booleans())
    ]
    graph = gk.CausalGraph(names, edges)
    coefficients = st.floats(-2.0, 2.0, allow_nan=False)
    model = gk.GcmModel(graph)
    for node in names:
        parents = graph.parents(node)
        noise = gk.Gaussian(0.0, draw(st.floats(0.1, 2.0)))
        if parents:
            weights = [draw(coefficients) for _ in parents]
            noise = gk.AdditiveNoiseModel(
                gk.LinearModel(weights, 0.0), noise, gk.InputEncoder.continuous(len(parents))
            )
        model = gk.assign(model, node, noise, ground_truth=True)
    return model, draw(st.sampled_from(names))
