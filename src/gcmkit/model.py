"""Assemble a causal graph and per-node mechanisms into a queryable model."""

import json
from dataclasses import dataclass
from types import MappingProxyType

from .data import CATEGORICAL, CONTINUOUS, Dataset
from .exceptions import DataError, FitError, NumericError, SerializationError
from .graph import CausalGraph, graph_from_payload, graph_payload
from .mechanisms import fit_anm, fit_classifier, fit_stochastic, mechanism_from_json

SCHEMA_VERSION = 1
_MAX_CATEGORIES = 100


@dataclass(frozen=True)
class MechanismSpec:
    """An unfitted assignment: which mechanism family to fit for a node.

    ``family`` is ``stochastic`` (roots), ``anm`` (continuous non-roots), or
    ``classifier`` (categorical non-roots); ``option`` is the within-family
    kind, e.g. ``auto`` or ``linear``.
    """

    family: str
    option: str = "auto"


class GcmModel:
    """A causal graph plus one mechanism per node.

    Treated as a value: :func:`assign` and :func:`fit` return new models and
    never mutate their input.  Once ``fitted`` is true, query operations only
    read the model, so it can be shared freely.  Mechanisms are public, in a
    read-only mapping (``model.mechanisms[node]``), to keep fitted components
    easy to inspect.
    """

    def __init__(self, graph: CausalGraph, mechanisms=None, ground_truth=(), ready=()):
        self.graph = graph
        self.mechanisms = MappingProxyType(dict(mechanisms or {}))
        self.ground_truth = frozenset(ground_truth)
        self._ready = frozenset(ready) | self.ground_truth
        for node in self.mechanisms:
            graph._require(node)

    @property
    def fitted(self) -> bool:
        return all(
            node in self.mechanisms and node in self._ready for node in self.graph.nodes
        )

    def require_fitted(self):
        if not self.fitted:
            raise FitError("model is not fitted; call fit() or assign ground-truth mechanisms")

    def __repr__(self):
        state = "fitted" if self.fitted else "unfitted"
        return f"GcmModel({len(self.graph.nodes)} nodes, {state})"


def _check_role(graph, node, mechanism):
    # Specs and concrete mechanisms both name their family.
    family = getattr(mechanism, "family", None)
    if graph.is_root(node):
        role, allowed = "root", ("stochastic",)
    else:
        role, allowed = "non-root", ("anm", "classifier")
    if family not in allowed:
        raise FitError(
            f"{role} node {node!r} needs a {' or '.join(allowed)} mechanism, got {mechanism!r}"
        )


def auto_assign(graph: CausalGraph, dataset: Dataset) -> GcmModel:
    """Choose a mechanism family for every node from the data's column types.

    Roots get a marginal (empirical for continuous columns, multinomial for
    categorical); continuous non-roots get an additive noise model with
    automatic regression selection; categorical non-roots get a classifier.
    """
    mechanisms = {}
    for node in graph.nodes:
        if node not in dataset.column_names:
            raise DataError(f"graph node {node!r} is missing from the data")
        kind = dataset.kind(node)
        if kind == CATEGORICAL:
            distinct = len(set(dataset.column(node)))
            if distinct >= _MAX_CATEGORIES:
                raise FitError(
                    f"node {node!r} has {distinct} categories; at most {_MAX_CATEGORIES - 1} supported"
                )
        if graph.is_root(node):
            mechanisms[node] = MechanismSpec("stochastic", "auto")
        elif kind == CONTINUOUS:
            mechanisms[node] = MechanismSpec("anm", "auto")
        else:
            mechanisms[node] = MechanismSpec("classifier", "logistic")
    return GcmModel(graph, mechanisms)


def assign(model: GcmModel, node, mechanism, ground_truth=False) -> GcmModel:
    """Return a new model with ``mechanism`` at ``node``.

    A ground-truth mechanism is taken as already parameterised: fitting leaves
    it untouched and the node counts as ready without a fit.
    """
    model.graph._require(node)
    _check_role(model.graph, node, mechanism)
    if ground_truth and isinstance(mechanism, MechanismSpec):
        raise FitError("a ground-truth assignment must be a concrete mechanism")
    mechanisms = dict(model.mechanisms)
    mechanisms[node] = mechanism
    ground = set(model.ground_truth) - {node}
    ready = set(model._ready) - {node}
    if ground_truth:
        ground.add(node)
    return GcmModel(model.graph, mechanisms, ground, ready)


def fit(model: GcmModel, dataset: Dataset) -> GcmModel:
    """Fit every non-ground-truth mechanism from the data and return a new model.

    Each node is fit independently from its own column and its parents'
    columns, so refitting one node never changes another.
    """
    for node in model.graph.nodes:
        if node not in model.mechanisms:
            raise FitError(f"node {node!r} has no mechanism assigned")
        if node not in dataset.column_names:
            raise DataError(f"graph node {node!r} is missing from the data")

    mechanisms = {}
    for node in model.graph.nodes:
        if node in model.ground_truth:
            mechanisms[node] = model.mechanisms[node]
            continue
        # A concrete mechanism refits within its own family and option.
        spec = model.mechanisms[node]
        target = dataset.column(node)
        parent_columns = [dataset.column(p) for p in model.graph.parents(node)]
        try:
            if spec.family == "stochastic":
                mechanisms[node] = fit_stochastic(target, spec.option)
            elif spec.family == "anm":
                mechanisms[node] = fit_anm(parent_columns, target, spec.option)
            else:
                mechanisms[node] = fit_classifier(parent_columns, target)
        except (FitError, NumericError) as exc:
            raise type(exc)(f"fitting node {node!r} failed: {exc}") from exc
    return GcmModel(model.graph, mechanisms, model.ground_truth, ready=model.graph.nodes)


def dumps_model(model: GcmModel) -> str:
    """Serialize a fitted model to deterministic JSON text."""
    model.require_fitted()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "graph": graph_payload(model.graph),
        "mechanisms": {
            node: dict(model.mechanisms[node].to_json(), ground_truth=node in model.ground_truth)
            for node in model.graph.nodes
        },
    }
    return json.dumps(payload, separators=(",", ":"))


def loads_model(text: str) -> GcmModel:
    """Inverse of :func:`dumps_model`; the result answers queries identically."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SerializationError(f"corrupt model payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise SerializationError("corrupt model payload: expected a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported schema_version {version!r}; this build reads version {SCHEMA_VERSION}"
        )
    try:
        graph = graph_from_payload(payload["graph"])
        mechanisms = {}
        ground_truth = set()
        for node, mech_payload in payload["mechanisms"].items():
            mechanisms[node] = mechanism_from_json(mech_payload)
            if mech_payload.get("ground_truth"):
                ground_truth.add(node)
    except (KeyError, TypeError, AttributeError) as exc:
        raise SerializationError(f"corrupt model payload: {exc}") from exc
    if set(mechanisms) != set(graph.nodes):
        raise SerializationError("corrupt model payload: mechanisms do not cover the graph")
    for node in graph.nodes:
        _check_role(graph, node, mechanisms[node])
    return GcmModel(graph, mechanisms, ground_truth, ready=graph.nodes)


def save(model: GcmModel, sink):
    """Write a fitted model to a path or text file object."""
    text = dumps_model(model)
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w", encoding="utf-8") as handle:
            handle.write(text)


def load(source) -> GcmModel:
    """Read a model written by :func:`save` from a path or file object."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    return loads_model(text)
