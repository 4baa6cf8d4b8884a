"""Sampling queries: observational draws, interventions, counterfactuals, effects.

All operations are read-only on the model.  Randomness is controlled by one
integer seed per call.  Each sub-operation derives its own seed, and each
noise draw builds one generator from its seed and draws the requested nodes
from it in topological order, so results do not depend on evaluation order.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .exceptions import NonInvertibleError, NumericError, QueryError, require_rows
from .model import GcmModel
from .seeds import derive_seed, rng_for


@dataclass(frozen=True)
class Intervention:
    """A single-node intervention.

    ``atomic`` forces the node to a constant; ``shift`` adds a constant to the
    mechanism's output (continuous nodes only); ``functional`` maps the
    mechanism's output through a caller-supplied transform.
    """

    node: str
    kind: str
    value: object = None
    delta: float = 0.0
    mapping: object = None


def atomic(node, value) -> Intervention:
    """Force ``node`` to ``value``.

    A category is checked only where an evaluated mechanism must encode it:
    a child that one-hot encodes the node rejects a category it did not see
    at fit time, but a node that no evaluated mechanism reads, such as a
    leaf or a node whose children are all set too, takes any category.
    """
    return Intervention(node, "atomic", value=value)


def shift(node, delta) -> Intervention:
    return Intervention(node, "shift", delta=float(delta))


def functional(node, mapping) -> Intervention:
    return Intervention(node, "functional", mapping=mapping)


def _as_intervention_map(model, interventions):
    mapping = {}
    for iv in interventions:
        model.graph._require(iv.node)
        if iv.node in mapping:
            raise QueryError(f"multiple interventions on node {iv.node!r}")
        if iv.kind not in ("atomic", "shift", "functional"):
            raise QueryError(f"unknown intervention kind {iv.kind!r}")
        if iv.kind == "shift" and not model.mechanisms[iv.node].is_continuous:
            raise QueryError(f"shift intervention on categorical node {iv.node!r}")
        if iv.kind == "shift" and not np.isfinite(iv.delta):
            raise QueryError(f"shift for node {iv.node!r} must be finite")
        mapping[iv.node] = iv
    return mapping


def _node_value(model, node, value, label):
    """``value`` as a finite float for a continuous node, as a string otherwise.

    ``label`` names the value in the error message.
    """
    if not model.mechanisms[node].is_continuous:
        return str(value)
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"{label} for {node!r} is not numeric") from exc
    if not np.isfinite(value):
        raise QueryError(f"{label} for {node!r} must be finite")
    return value


def require_continuous_target(model: GcmModel, target):
    """Raise unless ``target`` is a node of the model with a continuous mechanism."""
    model.graph._require(target)
    if not model.mechanisms[target].is_continuous:
        raise QueryError(f"target node {target!r} must be continuous")


def draw_noise_values(model: GcmModel, n, seed, nodes=None) -> dict:
    """Draw one noise column per node of ``nodes`` (default: every node).

    The columns come from one generator derived from ``seed``, in
    topological order, so a node's column depends on which nodes are drawn
    before it: callers that need independent draws give them their own
    seeds.  For roots the noise is the node's own value; for additive noise
    models it is a draw from the fitted noise distribution; for classifier
    mechanisms it is the uniform variate consumed by inverse-CDF sampling.

    Each run of consecutive nodes that resample stored arrays of one size
    ``m`` draws its indices in one ``rng.integers(0, m, size=(k, n))`` call.
    That is the stream of ``k`` calls of size ``n``: the generator fills a
    bounded draw below 2**32 from its own 32-bit buffer, which outlives each
    call, and a wider one from whole 64-bit words.
    """
    chosen = set(model.graph.nodes if nodes is None else nodes)
    rng = rng_for(seed, "noise")
    mechanisms = model.mechanisms

    def resampled_size(node):
        resampled = mechanisms[node].resampled
        return None if resampled is None else len(resampled)

    noise = {}
    order = [node for node in model.graph.topological_order() if node in chosen]
    for size, run in itertools.groupby(order, resampled_size):
        run = list(run)
        if size is None:
            noise.update((node, mechanisms[node].draw_noise(n, rng)) for node in run)
        else:
            indices = rng.integers(0, size, size=(len(run), n))
            noise.update((node, mechanisms[node].resampled[row]) for node, row in zip(run, indices))
    return noise


def propagate_from_noise(model: GcmModel, noise, interventions=None, factual=None) -> dict:
    """Evaluate every node's mechanism in topological order from given noise columns.

    A model's graph holds every parent of its nodes, so to propagate only a
    node and its ancestors, pass the model over
    :meth:`~gcmkit.graph.CausalGraph.ancestral`.  Interventions override
    each intervened node's output before its children consume it; an
    atomically set node needs no noise.

    ``factual``, when given, holds the observed columns that ``noise`` was
    abducted from.  A node then keeps its observed value wherever its
    prediction (its output at zero noise) from the propagated parents equals
    the one from the observed parents, so unchanged inputs give back the
    observation exactly, not up to the round-off of prediction + residual.
    A node whose parent columns all equal the observed ones needs no
    prediction.  A continuous output that is not finite, after any shift or
    map, raises :class:`~gcmkit.exceptions.NumericError` naming the node.
    """
    interventions = interventions or {}
    n = max(map(len, noise.values()), default=0)
    graph = model.graph
    values = {}
    for node in graph.topological_order():
        mechanism = model.mechanisms[node]
        parents = graph.parents(node)
        columns = [values[p] for p in parents]
        iv = interventions.get(node)
        dtype = np.float64 if mechanism.is_continuous else object
        if iv is not None and iv.kind == "atomic":
            value = _node_value(model, node, iv.value, "intervention value")
            values[node] = np.full(n, value, dtype=dtype)
            continue
        if factual is None:
            output = mechanism.forward(columns, noise[node])
        elif all(np.array_equal(values[p], factual[p]) for p in parents):
            output = factual[node]
        else:
            zero = np.zeros(n)
            unchanged = mechanism.forward(columns, zero) == mechanism.forward(
                [factual[p] for p in parents], zero
            )
            output = np.where(unchanged, factual[node], mechanism.forward(columns, noise[node]))
        if iv is not None and iv.kind == "shift":
            output = output + iv.delta
        elif iv is not None:
            output = np.array([iv.mapping(v) for v in output], dtype=dtype)
        if mechanism.is_continuous and not np.isfinite(output).all():
            raise NumericError(f"the result is not finite: node {node!r} has non-finite values")
        values[node] = output
    return values


def _to_dataset(model, values):
    names = model.graph.nodes
    return Dataset(names, [values[name] for name in names])


def draw_samples(model: GcmModel, n, seed=0) -> Dataset:
    """Draw ``n`` joint samples by ancestral sampling from the fitted model."""
    return interventional_samples(model, (), n, seed)


def interventional_samples(model: GcmModel, interventions, n, seed=0) -> Dataset:
    """Draw ``n`` samples from the distribution induced by the interventions."""
    model.require_fitted()
    n = require_rows(n, "n")
    intervention_map = _as_intervention_map(model, interventions)
    noise = draw_noise_values(model, n, seed)
    return _to_dataset(model, propagate_from_noise(model, noise, intervention_map))


def abduct_row(model: GcmModel, observed_row, nodes, skip=()):
    """Parse one observed row and recover the noise of every node in ``nodes``.

    Returns one-element columns: the parsed values and the recovered noises
    of ``nodes`` (roots act as their own noise).  A node in ``skip`` whose
    mechanism cannot be inverted gets no noise instead of an error.
    """
    graph = model.graph
    missing = [node for node in graph.nodes if node not in observed_row]
    if missing:
        raise QueryError(f"observed row is missing nodes {missing}")
    observed = {
        node: np.array(
            [_node_value(model, node, observed_row[node], "observed value")],
            dtype=np.float64 if model.mechanisms[node].is_continuous else object,
        )
        for node in nodes
    }
    noise = {}
    for node in graph.topological_order():
        if node not in observed:
            continue
        parent_columns = [observed[p] for p in graph.parents(node)]
        try:
            noise[node] = model.mechanisms[node].abduct(parent_columns, observed[node])
        except NonInvertibleError as exc:
            if node not in skip:
                raise NonInvertibleError(f"node {node!r}: {exc}") from exc
    return observed, noise


def counterfactual(model: GcmModel, observed_row, interventions=()) -> dict:
    """Answer "what would this row have been under these interventions?".

    Three steps: recover every node's noise column from the observed row
    (roots act as their own noise), apply the interventions, and re-propagate
    with the recovered noise held fixed and the row as the factual columns.
    So a node whose prediction does not change keeps its observed value, and
    with no interventions the observed row is returned exactly.  A node whose
    noise cannot be recovered must be intervened on atomically.
    """
    model.require_fitted()
    intervention_map = _as_intervention_map(model, interventions)
    atomic_nodes = {node for node, iv in intervention_map.items() if iv.kind == "atomic"}
    observed, noise = abduct_row(model, observed_row, model.graph.nodes, skip=atomic_nodes)
    values = propagate_from_noise(model, noise, intervention_map, factual=observed)
    return {node: column.tolist()[0] for node, column in values.items()}


def average_causal_effect(
    model: GcmModel, treatment, value_a, value_b, target, n=100000, seed=0
) -> float:
    """mean(target | do(treatment=value_a)) - mean(target | do(treatment=value_b)).

    The two interventional estimates use independent derived random streams.
    """
    model.require_fitted()
    require_continuous_target(model, target)
    samples_a = interventional_samples(
        model, [atomic(treatment, value_a)], n, derive_seed(seed, "ace:a")
    )
    samples_b = interventional_samples(
        model, [atomic(treatment, value_b)], n, derive_seed(seed, "ace:b")
    )
    return float(samples_a.column(target).mean() - samples_b.column(target).mean())
