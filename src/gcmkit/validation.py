"""Model diagnostics: falsify a graph against data, evaluate fitted mechanisms.

Refutation tests each local Markov condition with
:func:`~gcmkit.stats.fisher_z_test`.  Evaluation compares distributions with
the numpy two-sample KS statistic (:func:`~gcmkit.stats.ks_statistic`).
Neither imports scipy.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import CONTINUOUS, Dataset, require_columns
from .exceptions import DataError, require_alpha
from .graph import CausalGraph
from .seeds import rng_for
from .stats import fisher_z_test, ks_statistic

if TYPE_CHECKING:
    from .model import GcmModel


@dataclass(frozen=True)
class CiTestRecord:
    node: str
    other: str
    given: tuple
    p_value: float
    rejected: bool

    def to_json(self) -> dict:
        return {
            "node": self.node,
            "other": self.other,
            "given": list(self.given),
            "p": self.p_value,
            "rejected": self.rejected,
        }


@dataclass(frozen=True)
class RefutationReport:
    tests: tuple
    alpha: float
    verdict: str

    @property
    def rejected(self) -> bool:
        return self.verdict == "rejected"

    def to_json(self) -> dict:
        return {"tests": [t.to_json() for t in self.tests], "verdict": self.verdict}


def _holm_rejections(p_values, alpha):
    m = len(p_values)
    rejected = [False] * m
    order = sorted(range(m), key=lambda i: p_values[i])
    for rank, idx in enumerate(order):
        if p_values[idx] <= alpha / (m - rank):
            rejected[idx] = True
        else:
            break
    return rejected


def refute_graph(graph: CausalGraph, data: Dataset, alpha=0.05) -> RefutationReport:
    """Test every local Markov condition the graph implies against the data.

    For each node v and each non-descendant u outside v's parents, tests
    v ⊥ u | parents(v) with Fisher-z.  The family is Holm-corrected; the graph
    is "rejected" if any corrected test rejects at ``alpha``.  A graph that
    implies no independences is vacuously not rejected.  Every graph node
    must be a data column.
    """
    require_alpha(alpha)
    require_columns(data, graph.nodes)
    pairs = []
    for node in graph.nodes:
        parents = graph.parents(node)
        non_descendants = graph.non_descendants(node)
        for other in graph.nodes:
            if other in non_descendants and other not in parents:
                pairs.append((node, other, parents))

    p_values = [
        fisher_z_test(data, node, other, given).p_value for node, other, given in pairs
    ]
    rejected = _holm_rejections(p_values, alpha)
    tests = tuple(
        CiTestRecord(node, other, tuple(given), float(p), bool(r))
        for (node, other, given), p, r in zip(pairs, p_values, rejected)
    )
    verdict = "rejected" if any(rejected) else "not rejected"
    return RefutationReport(tests, alpha, verdict)


@dataclass(frozen=True)
class NodeEvaluation:
    node: str
    role: str
    rmse: float | None = None
    ks_statistic: float | None = None
    accuracy: float | None = None

    def to_json(self) -> dict:
        out = {"node": self.node, "role": self.role}
        if self.rmse is not None:
            out["rmse"] = self.rmse
        if self.ks_statistic is not None:
            out["ks_statistic"] = self.ks_statistic
        if self.accuracy is not None:
            out["accuracy"] = self.accuracy
        return out


# A node's role in the report, by (is root, is continuous).
_ROLES = {(False, True): "additive_noise", (False, False): "classifier",
          (True, True): "root_continuous", (True, False): "root_categorical"}


@dataclass(frozen=True)
class EvaluationReport:
    nodes: tuple

    def to_json(self) -> dict:
        return {"nodes": [n.to_json() for n in self.nodes]}


def evaluate_mechanisms(model: "GcmModel", heldout: Dataset, seed=0) -> EvaluationReport:
    """Score every fitted mechanism against held-out rows.

    A continuous node gets a two-sample KS statistic between the noise its
    mechanism abducts from the held-out rows and its noise reference, and a
    non-root also the RMSE of that noise (its residuals).  A categorical node
    gets the held-out accuracy of its most probable category.
    """
    model.require_fitted()
    if heldout.n_rows == 0:
        raise DataError("held-out dataset is empty")
    require_columns(heldout, model.graph.nodes)
    for node in model.graph.nodes:
        if (heldout.kind(node) == CONTINUOUS) != model.mechanisms[node].is_continuous:
            raise DataError(f"held-out column {node!r} is {heldout.kind(node)}, unlike the model")

    evaluations = []
    n = heldout.n_rows
    for node in model.graph.nodes:
        mechanism = model.mechanisms[node]
        column = heldout.column(node)
        parent_columns = [heldout.column(p) for p in model.graph.parents(node)]
        role = _ROLES[model.graph.is_root(node), mechanism.is_continuous]
        if mechanism.is_continuous:
            residuals = mechanism.abduct(parent_columns, column)
            reference = mechanism.noise_reference(n, rng_for(seed, f"evaluate:{node}"))
            scores = {"ks_statistic": ks_statistic(residuals, reference)}
            if role == "additive_noise":
                scores["rmse"] = float(np.sqrt(np.mean(residuals**2)))
        else:
            probabilities = mechanism.probabilities(parent_columns, n)
            predicted = np.array(mechanism.categories, dtype=object)[np.argmax(probabilities, axis=1)]
            scores = {"accuracy": float(np.mean(predicted == column))}
        evaluations.append(NodeEvaluation(node, role, **scores))
    return EvaluationReport(tuple(evaluations))
