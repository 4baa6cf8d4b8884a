"""Assemble a causal graph and per-node mechanisms into a queryable model."""

import json
from dataclasses import dataclass
from types import MappingProxyType

from .data import CATEGORICAL, CONTINUOUS, Dataset, require_columns
from .exceptions import FitError, NumericError, SerializationError
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

    The model is ``fitted`` when every node holds a concrete mechanism rather
    than a :class:`MechanismSpec`; only then does it answer queries.  Treated
    as a value: :func:`assign` and :func:`fit` return new models and never
    mutate their input.  Query operations only read a fitted model, so it can
    be shared freely.  Mechanisms are public, in a read-only mapping
    (``model.mechanisms[node]``), to keep fitted components easy to inspect.
    """

    def __init__(self, graph: CausalGraph, mechanisms=None, ground_truth=()):
        self.graph = graph
        self.mechanisms = MappingProxyType(dict(mechanisms or {}))
        self.ground_truth = frozenset(ground_truth)
        for node, mechanism in self.mechanisms.items():
            _check_role(graph, node, mechanism)
            if node in self.ground_truth and isinstance(mechanism, MechanismSpec):
                raise FitError("a ground-truth assignment must be a concrete mechanism")

    @property
    def fitted(self) -> bool:
        """Whether every node holds a concrete mechanism, not a :class:`MechanismSpec`."""
        return all(
            node in self.mechanisms and not isinstance(self.mechanisms[node], MechanismSpec)
            for node in self.graph.nodes
        )

    def require_fitted(self):
        if not self.fitted:
            raise FitError("model is not fitted; call fit() or assign concrete mechanisms")

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
    require_columns(dataset, graph.nodes)
    mechanisms = {}
    for node in graph.nodes:
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

    A concrete mechanism is queryable at once (the model is fitted when no node
    holds a :class:`MechanismSpec`); :func:`fit` leaves it untouched if ``ground_truth``.
    """
    mechanisms = dict(model.mechanisms)
    mechanisms[node] = mechanism
    ground = set(model.ground_truth) - {node}
    if ground_truth:
        ground.add(node)
    return GcmModel(model.graph, mechanisms, ground)


def fit(model: GcmModel, dataset: Dataset) -> GcmModel:
    """Fit every non-ground-truth mechanism from the data and return a new model.

    Each node is fit independently from its own column and its parents'
    columns, so refitting one node never changes another.
    """
    for node in model.graph.nodes:
        if node not in model.mechanisms:
            raise FitError(f"node {node!r} has no mechanism assigned")
    require_columns(dataset, model.graph.nodes)

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
            elif spec.family == "classifier":
                if spec.option != "logistic":
                    raise FitError(f"unknown classifier kind {spec.option!r}")
                mechanisms[node] = fit_classifier(parent_columns, target)
        except (FitError, NumericError) as exc:
            raise type(exc)(f"fitting node {node!r} failed: {exc}") from exc
    return GcmModel(model.graph, mechanisms, model.ground_truth)


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
    """Inverse of :func:`dumps_model`; the result answers queries identically.
    A leading UTF-8 byte-order mark is dropped."""
    try:
        payload = json.loads(text.removeprefix("\ufeff") if isinstance(text, str) else text)
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
            try:
                mechanisms[node] = mechanism_from_json(mech_payload)
            except SerializationError as exc:
                raise SerializationError(f"corrupt model payload: node {node!r}: {exc}") from exc
            if mech_payload.get("ground_truth"):
                ground_truth.add(node)
    except (KeyError, TypeError, AttributeError) as exc:
        raise SerializationError(f"corrupt model payload: {exc}") from exc
    if set(mechanisms) != set(graph.nodes):
        raise SerializationError("corrupt model payload: mechanisms do not cover the graph")
    model = GcmModel(graph, mechanisms, ground_truth)
    for node in graph.nodes:
        _check_encoding(model, node)
    return model


def _check_encoding(model, node):
    """Raise unless a non-root's encoding has one spec per graph parent, of that parent's kind.

    The specs' categories may differ from the parent's: a hand-built child
    can list categories its parent never draws.
    """
    parents = model.graph.parents(node)
    if not parents:
        return
    kinds = [kind for kind, _ in model.mechanisms[node].encoding.specs]
    expected = [CONTINUOUS if model.mechanisms[p].is_continuous else CATEGORICAL for p in parents]
    if kinds != expected:
        raise SerializationError(
            f"corrupt model payload: node {node!r} encodes its parents {list(parents)} "
            f"as {kinds}, but they are {expected}"
        )


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
        return loads_model(source.read())
    try:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise SerializationError(f"corrupt model payload: {exc}") from exc
    return loads_model(text)
