"""Model diagnostics: falsify a graph against data, evaluate fitted mechanisms.

Refutation runs Fisher-z tests (:func:`~gcmkit.stats.fisher_z_test`), which
read the data's memo of centred cross products, so each pair of columns is
multiplied once however many local Markov conditions name it.  Evaluation
compares distributions with the numpy two-sample KS statistic
(:func:`~gcmkit.stats.ks_statistic`).  Neither imports scipy.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import CONTINUOUS, Dataset
from .exceptions import DataError, QueryError
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
    implies no independences is vacuously not rejected.
    """
    if not 0 < alpha < 1:
        raise QueryError(f"alpha must lie strictly between 0 and 1, got {alpha}")
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


@dataclass(frozen=True)
class EvaluationReport:
    nodes: tuple

    def to_json(self) -> dict:
        return {"nodes": [n.to_json() for n in self.nodes]}


def evaluate_mechanisms(model: "GcmModel", heldout: Dataset, seed=0) -> EvaluationReport:
    """Score every fitted mechanism against held-out rows.

    Continuous non-roots get the prediction RMSE and a two-sample KS statistic
    between held-out residuals and the fitted noise sample; continuous roots
    get a KS statistic between the held-out column and mechanism draws;
    categorical nodes get the held-out accuracy of the most probable class.
    """
    model.require_fitted()
    if heldout.n_rows == 0:
        raise DataError("held-out dataset is empty")
    for node in model.graph.nodes:
        if node not in heldout.column_names:
            raise DataError(f"held-out data is missing node {node!r}")
        if (heldout.kind(node) == CONTINUOUS) != model.mechanisms[node].is_continuous:
            raise DataError(f"held-out column {node!r} is {heldout.kind(node)}, unlike the model")

    evaluations = []
    n = heldout.n_rows
    for node in model.graph.nodes:
        mechanism = model.mechanisms[node]
        column = heldout.column(node)
        rng = rng_for(seed, f"evaluate:{node}")
        parent_columns = [heldout.column(p) for p in model.graph.parents(node)]
        root = model.graph.is_root(node)
        if not root and mechanism.is_continuous:
            residuals = column - mechanism.predict(parent_columns)
            evaluations.append(
                NodeEvaluation(
                    node,
                    "additive_noise",
                    rmse=float(np.sqrt(np.mean(residuals**2))),
                    ks_statistic=ks_statistic(residuals, mechanism.noise_reference(n, rng)),
                )
            )
        elif not root:
            probs = mechanism.predict_probs(parent_columns)
            predicted = np.array(mechanism.categories, dtype=object)[np.argmax(probs, axis=1)]
            evaluations.append(
                NodeEvaluation(node, "classifier", accuracy=float(np.mean(predicted == column)))
            )
        elif not mechanism.is_continuous:
            modal = mechanism.categories[int(np.argmax(mechanism.probs))]
            evaluations.append(
                NodeEvaluation(node, "root_categorical", accuracy=float(np.mean(column == modal)))
            )
        else:
            draws = mechanism.draw(n, rng)
            evaluations.append(
                NodeEvaluation(
                    node,
                    "root_continuous",
                    ks_statistic=ks_statistic(column, draws),
                )
            )
    return EvaluationReport(tuple(evaluations))
