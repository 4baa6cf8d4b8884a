"""Root-cause attribution queries on a fitted model.

Outlier attribution, distribution-change attribution and intrinsic influence
share one pattern: a set function over "players" (the target and its
ancestors; every other node is a null player), evaluated by seeded Monte
Carlo, with the total distributed by Shapley values.  ``_target_samples`` is
the one simulation behind every subset value: the noise of some nodes is
held at fixed values and the rest is redrawn, for a batch of subsets stacked
into one propagation.  Intrinsic influence holds a subset's noises at each of
its outer draws and redraws the rest; outlier attribution redraws a subset's
noises and holds the rest at the row's recovered noise; distribution change
redraws everything from a model that takes the subset's mechanisms from the
new data.

``_attribute`` is the one Shapley step and the one evaluator the Shapley
engine calls: every subset, keyed by its bitmask, draws from a seed derived
from (master seed, bitmask) and is evaluated once per query, so results do
not depend on which subsets the engine asks for together or on how they are
batched.  Arrow strength cuts one edge instead and needs no Shapley step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import CONTINUOUS, Dataset
from .exceptions import QueryError, require_count, require_rows
from .mechanisms import InputEncoder
from .model import GcmModel, auto_assign, fit
from .sampling import abduct_row, draw_noise_values, propagate_from_noise, require_continuous_target
from .seeds import derive_seed, rng_for
from .shapley import SetFunction, ShapleyConfig, estimate_shapley
from .stats import kl_divergence

DEFAULT_ICC_OUTER_SAMPLES = 100
DEFAULT_ICC_INNER_SAMPLES = 500
DEFAULT_ANOMALY_SAMPLES = 5000
DEFAULT_CHANGE_SAMPLES = 10000
_KL_NEIGHBORS = 5
_KL_MIN_ROWS = _KL_NEIGHBORS + 1  # per side, so P holds k neighbours besides each point
# The subsets evaluated together stack about this many Monte-Carlo rows into
# one propagation: enough to spread the per-call cost, small enough to keep a
# batch's columns to a few MB.
_STACKED_ROWS = 1 << 16


@dataclass(frozen=True)
class AttributionResult:
    """Per-player scores plus the bookkeeping needed to reproduce them.

    ``total`` and ``baseline`` are the set-function values of the full and
    empty player sets; with the exact Shapley method the scores sum to
    ``total - baseline``.
    """

    scores: dict
    measure: str
    mc_budget: dict
    seed: int
    total: float
    baseline: float

    def to_json(self) -> dict:
        return {
            "scores": {k: float(v) for k, v in self.scores.items()},
            "measure": self.measure,
            "seed": self.seed,
            "budget": dict(self.mc_budget),
            "total": self.total,
            "baseline": self.baseline,
        }


class OutlierScorer:
    """Information-theoretic outlier score of a target value.

    The feature is the absolute standardized deviation from the reference
    sample's mean; the score is the negative log of the rank-based tail
    probability of reaching the value's feature, with add-one smoothing.  The
    score is nonnegative, bounded by log(M+1), and nondecreasing in the
    feature.
    """

    def __init__(self, reference_samples):
        reference = np.asarray(reference_samples, dtype=np.float64)
        if reference.size == 0:
            raise QueryError("outlier scorer needs reference samples")
        self._mean = float(reference.mean())
        std = float(reference.std())
        self._std = std if std > 0 else 1.0
        self._sorted_features = np.sort(self.feature(reference))

    @property
    def num_reference(self) -> int:
        return int(self._sorted_features.size)

    def feature(self, y):
        return np.abs(np.asarray(y, dtype=np.float64) - self._mean) / self._std

    def score(self, y) -> float:
        """-log of the smoothed tail probability P(feature >= feature(y))."""
        tail = self.num_reference - int(
            np.searchsorted(self._sorted_features, float(self.feature(y)), side="left")
        )
        return tail_log_score(tail, self.num_reference)


def tail_log_score(tail_count, num_samples) -> float:
    return -math.log((1 + tail_count) / (num_samples + 1))


def _players_for(graph, target):
    relevant = graph.ancestors(target) | {target}
    return tuple(node for node in graph.nodes if node in relevant)


def _target_samples(model, target, closure, n, jobs):
    """The target columns of ``n`` draws for each ``(seed, held)`` job: a (jobs, n) block.

    ``held`` maps closure nodes to a noise column whose length divides ``n``;
    each of its values is repeated over a run of consecutive draws (a
    one-element column is held in every draw).  The other closure nodes draw
    fresh noise, each from its own stream of the job's ``seed``, so which
    nodes are held changes no other node's draw.  The jobs' columns are
    stacked and propagated once.
    """
    stacked = {node: [] for node in closure}
    for seed, held in jobs:
        drawn = draw_noise_values(model, n, seed, [node for node in closure if node not in held])
        for node, columns in stacked.items():
            columns.append(np.repeat(held[node], n // len(held[node])) if node in held else drawn[node])
    noise = {node: np.concatenate(columns) for node, columns in stacked.items()}
    return propagate_from_noise(model, noise, nodes=closure)[target].reshape(len(jobs), n)


def _attribute(players, values_of, rows_per_subset, known, shapley_config, measure, mc_budget, seed):
    """Shapley scores of the set function ``values_of`` over ``players``.

    ``values_of`` takes a list of subsets as bitmasks (bit i set when
    ``players[i]`` is in it) and returns their values.  ``known`` maps the
    subsets whose value needs no simulation to that value.  Each other
    subset is evaluated once, however often the Shapley engine asks for it:
    the missing subsets of a request go to ``values_of`` in chunks of about
    ``_STACKED_ROWS`` Monte-Carlo rows (``rows_per_subset`` each, at least
    one subset per chunk).
    """
    cache = dict(known)
    chunk = max(1, _STACKED_ROWS // rows_per_subset)

    def evaluate(subsets):
        missing = list(dict.fromkeys(bits for bits in subsets if bits not in cache))
        for start in range(0, len(missing), chunk):
            batch = missing[start : start + chunk]
            cache.update(zip(batch, values_of(batch)))
        return [cache[bits] for bits in subsets]

    phi = estimate_shapley(SetFunction(len(players), evaluate), shapley_config or ShapleyConfig())
    return AttributionResult(
        scores={player: float(phi[i]) for i, player in enumerate(players)},
        measure=measure,
        mc_budget=mc_budget,
        seed=seed,
        total=float(cache[(1 << len(players)) - 1]),
        baseline=float(cache[0]),
    )


def arrow_strength(model: GcmModel, edge, measure="auto", n=50000, seed=0) -> float:
    """Direct strength of one edge, by feeding the child an independent parent copy.

    ``coupled_msd`` (continuous children) draws joint samples, recomputes the
    child with the parent column replaced by a permuted copy while keeping the
    child's own noise and the other parents, and reports the mean squared
    difference.  ``kl`` reports a k-NN KL estimate between the joint samples
    of (parents, child) with and without the cut.
    """
    model.require_fitted()
    parent, child = edge
    if not model.graph.has_edge(parent, child):
        raise QueryError(f"graph has no edge {parent!r} -> {child!r}")
    mechanism = model.mechanisms[child]
    child_continuous = mechanism.is_continuous
    if measure == "auto":
        measure = "coupled_msd" if child_continuous else "kl"
    if measure not in ("coupled_msd", "kl"):
        raise QueryError(f"unknown arrow-strength measure {measure!r}")
    if measure == "coupled_msd" and not child_continuous:
        raise QueryError("coupled_msd requires a continuous child node")
    n = require_rows(n, "n", minimum=_KL_MIN_ROWS if measure == "kl" else 1)

    noise = draw_noise_values(model, n, seed)
    values = propagate_from_noise(model, noise)
    permutation = rng_for(seed, "arrow:cut").permutation(n)
    parents = model.graph.parents(child)
    parent_columns = [values[p] for p in parents]
    cut_columns = [values[p][permutation] if p == parent else values[p] for p in parents]
    observed_child = values[child]
    cut_child = mechanism.forward(cut_columns, noise[child])

    if measure == "coupled_msd":
        return float(np.mean((observed_child - cut_child) ** 2))

    # Both joints share the parent columns; a categorical child is one-hot
    # encoded over the categories of both sides.
    encoder = InputEncoder.fit([*parent_columns, np.concatenate([observed_child, cut_child])])
    joint, joint_cut = (encoder.encode([*parent_columns, side]) for side in (observed_child, cut_child))
    return kl_divergence(joint, joint_cut, k=_KL_NEIGHBORS)


def intrinsic_influence(
    model: GcmModel,
    target,
    shapley_config: ShapleyConfig | None = None,
    outer_samples=DEFAULT_ICC_OUTER_SAMPLES,
    inner_samples=DEFAULT_ICC_INNER_SAMPLES,
    seed=0,
) -> AttributionResult:
    """Shapley attribution of the target's variance to upstream noise terms.

    The value of a noise subset is the expected reduction in the target's
    variance from freezing those noises: Var(Y) - E[Var(Y | N_S)], estimated
    by nested Monte Carlo.  Per subset, each frozen node draws one block of
    ``outer_samples`` values and each free node one block of
    ``outer_samples * inner_samples`` values, from per-node streams of the
    subset's "frozen" and "free" seeds; every frozen value is held over a run
    of ``inner_samples`` draws, whose variance is one conditional variance.
    The empty set is worth 0 and the full set Var(Y), so exact Shapley scores
    sum to the target's variance.
    """
    model.require_fitted()
    require_continuous_target(model, target)
    outer_samples = require_count(outer_samples, "outer_samples")
    inner_samples = require_count(inner_samples, "inner_samples", 2)
    players = _players_for(model.graph, target)

    variance_samples = require_rows(outer_samples * inner_samples, "outer_samples * inner_samples")
    target_values = _target_samples(
        model, target, players, variance_samples, [(derive_seed(seed, "icc:variance"), {})]
    )[0]
    total_variance = float(np.var(target_values, ddof=1))

    def values_of(subsets):
        jobs = []
        for bits in subsets:
            frozen = [players[i] for i in range(len(players)) if bits >> i & 1]
            subset_seed = derive_seed(seed, f"icc:{bits}")
            held = draw_noise_values(model, outer_samples, derive_seed(subset_seed, "frozen"), frozen)
            jobs.append((derive_seed(subset_seed, "free"), held))
        block = _target_samples(model, target, players, variance_samples, jobs)
        # Row (j, o) holds the inner draws of job j around its o-th frozen draw.
        conditional = np.var(
            block.reshape(len(jobs), outer_samples, inner_samples), axis=2, ddof=1
        ).mean(axis=1)
        return total_variance - conditional

    budget = {
        "outer_samples": outer_samples,
        "inner_samples": inner_samples,
        "variance_samples": variance_samples,
    }
    known = {0: 0.0, (1 << len(players)) - 1: total_variance}
    return _attribute(
        players, values_of, variance_samples, known, shapley_config, "intrinsic_influence", budget, seed
    )


def attribute_anomaly(
    model: GcmModel,
    target,
    anomalous_row,
    num_samples=DEFAULT_ANOMALY_SAMPLES,
    shapley_config: ShapleyConfig | None = None,
    seed=0,
) -> AttributionResult:
    """Shapley attribution of a single outlying row to upstream noise terms.

    The anomalous row's noises are recovered first (roots act as their own
    noise).  A subset's value is the outlier score of the tail event computed
    from samples where the subset's noises are redrawn and all others stay at
    the recovered values; the empty set scores 0 by construction and the full
    set equals the marginal outlier score of the observed target value.
    """
    model.require_fitted()
    require_continuous_target(model, target)
    num_samples = require_rows(num_samples, "num_samples")
    players = _players_for(model.graph, target)
    observed, recovered = abduct_row(model, anomalous_row, players)

    reference = _target_samples(
        model, target, players, num_samples, [(derive_seed(seed, "anomaly:reference"), {})]
    )[0]
    scorer = OutlierScorer(reference)
    observed_feature = float(scorer.feature(observed[target])[0])

    def values_of(subsets):
        jobs = [
            (
                derive_seed(seed, f"anomaly:{bits}"),
                {node: recovered[node] for i, node in enumerate(players) if not bits >> i & 1},
            )
            for bits in subsets
        ]
        samples = _target_samples(model, target, players, num_samples, jobs)
        tails = np.sum(scorer.feature(samples) >= observed_feature, axis=1)
        return [tail_log_score(int(tail), num_samples) for tail in tails]

    budget = {"reference_samples": num_samples, "samples_per_subset": num_samples}
    return _attribute(
        players, values_of, num_samples, {0: 0.0}, shapley_config, "it_outlier_score", budget, seed
    )


def distribution_change(
    graph,
    old_data: Dataset,
    new_data: Dataset,
    target,
    measure="auto",
    num_samples=DEFAULT_CHANGE_SAMPLES,
    shapley_config: ShapleyConfig | None = None,
    seed=0,
) -> AttributionResult:
    """Attribute a change between two datasets to the nodes whose mechanisms changed.

    Fits one model per dataset, then scores each node subset by the chosen
    divergence between the target's marginal under a hybrid model (subset
    nodes use the new mechanisms, the rest the old ones) and under the old
    model.  For a root node, "mechanism" means its fitted marginal.
    """
    graph._require(target)
    for node in graph.nodes:
        if node not in old_data.column_names or node not in new_data.column_names:
            raise QueryError(f"both datasets must cover node {node!r}")
        if old_data.kind(node) != new_data.kind(node):
            raise QueryError(
                f"incompatible datasets: column {node!r} changes type between old and new"
            )
    if old_data.kind(target) != CONTINUOUS:
        raise QueryError(f"target node {target!r} must be continuous")
    if measure == "auto":
        measure = "kl"
    if measure not in ("mean_diff", "kl"):
        raise QueryError(f"unknown distribution-change measure {measure!r}")
    num_samples = require_rows(num_samples, "num_samples", minimum=_KL_MIN_ROWS if measure == "kl" else 1)

    old_model = fit(auto_assign(graph, old_data), old_data)
    new_model = fit(auto_assign(graph, new_data), new_data)
    players = _players_for(graph, target)
    baseline = _target_samples(
        old_model, target, players, num_samples, [(derive_seed(seed, "change:baseline"), {})]
    )[0]

    def value_of(bits):
        # Each subset has its own hybrid model, so it is propagated alone.
        mechanisms = {
            node: (new_model if bits >> i & 1 else old_model).mechanisms[node]
            for i, node in enumerate(players)
        }
        hybrid = GcmModel(graph, mechanisms, ready=players)
        samples = _target_samples(
            hybrid, target, players, num_samples, [(derive_seed(seed, f"change:{bits}"), {})]
        )[0]
        if measure == "mean_diff":
            return abs(float(samples.mean() - baseline.mean()))
        return kl_divergence(samples, baseline, k=_KL_NEIGHBORS)

    budget = {"samples_per_subset": num_samples, "baseline_samples": num_samples}
    return _attribute(
        players,
        lambda subsets: [value_of(bits) for bits in subsets],
        num_samples,
        {},
        shapley_config,
        measure,
        budget,
        seed,
    )
