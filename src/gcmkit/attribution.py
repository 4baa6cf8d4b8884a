"""Root-cause attribution queries on a fitted model.

Outlier attribution, distribution-change attribution and intrinsic influence
share one pattern: a set function over "players" (the target and its
ancestors; every other node is a null player, so each query runs on the
sub-model of the target and its ancestors), evaluated by seeded Monte Carlo,
with the total distributed by Shapley values.  ``_target_samples`` is the
one simulation behind every subset value: the noise of some nodes is
held at fixed values and the rest is redrawn, for a batch of subsets stacked
into one propagation.  Intrinsic influence holds a subset's noises at each of
its outer draws and redraws the rest, with the target's own noise held at 0
(its share is known exactly, so only its ancestors play); outlier
attribution redraws a subset's noises and holds the rest at the row's
recovered noise; distribution change redraws everything from a model that
takes the subset's mechanisms from the new data.

``_attribute`` is the one Shapley step and the one evaluator the Shapley
engine calls: every subset, keyed by its bitmask, draws from a seed derived
from (master seed, bitmask) and is evaluated once per query, so results do
not depend on which subsets the engine asks for together or on how they are
batched.  Arrow strength cuts one edge instead, with a measure picked by the
child's kind, and needs no Shapley step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import CONTINUOUS, Dataset
from .exceptions import QueryError, require_count, require_rows
from .model import GcmModel, auto_assign, fit
from .sampling import abduct_row, draw_noise_values, propagate_from_noise, require_continuous_target
from .seeds import derive_seed, rng_for
from .shapley import SetFunction, ShapleyConfig, check_players, estimate_shapley
from .stats import kl_divergence

DEFAULT_ICC_OUTER_SAMPLES = 100
DEFAULT_ICC_INNER_SAMPLES = 500
DEFAULT_ANOMALY_SAMPLES = 5000
DEFAULT_CHANGE_SAMPLES = 10000
_KL_NEIGHBORS = 5
_KL_MIN_ROWS = _KL_NEIGHBORS + 1  # per side, so P holds k neighbours besides each point
# The permuted parent copies a categorical child's cut averages over, besides
# the row's own parent: the strength then reads low, by 2-3 % at 32 copies and
# by about 8 % where one class is as rare as 1 in 20.
_CUT_COPIES = 32
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


def _players_for(graph, target, shapley_config, target_plays=True):
    """The subgraph of ``target`` and its ancestors, which holds every node
    that can move the target, and the players: its nodes, without the target
    unless ``target_plays``.  The players are checked against the Shapley
    configuration before any work; with none (a root target that does not
    play) the configuration is checked as for one."""
    ancestral = graph.ancestral(target)
    players = tuple(node for node in ancestral.nodes if target_plays or node != target)
    check_players(max(len(players), 1), shapley_config or ShapleyConfig())
    return ancestral, players


def _submodel(model, graph):
    """``model`` restricted to the nodes of ``graph``, an ancestral subgraph of its own."""
    return GcmModel(graph, {node: model.mechanisms[node] for node in graph.nodes})


def _target_samples(model, target, n, jobs):
    """The target columns of ``n`` draws for each ``(seed, held)`` job: a (jobs, n) block.

    Every node of ``model`` is drawn and propagated, so the attribution
    queries pass the sub-model of the target and its ancestors.  ``held``
    maps nodes to a noise column whose length divides ``n``; each of its
    values is repeated over a run of consecutive draws (a one-element column
    is held in every draw).  The other nodes draw fresh noise in one
    :func:`~gcmkit.sampling.draw_noise_values` call from the job's ``seed``,
    so every job has its own stream.  The jobs' columns are written into one
    (jobs * n) column per node, and propagated once.
    """
    nodes = model.graph.nodes
    parts = {node: [] for node in nodes}
    for seed, held in jobs:
        drawn = draw_noise_values(model, n, seed, [node for node in nodes if node not in held])
        for node, columns in parts.items():
            columns.append(held[node] if node in held else drawn[node])
    noise = {}
    for node, columns in parts.items():
        stacked = np.empty((len(jobs), n), dtype=np.result_type(*{column.dtype for column in columns}))
        for row, column in zip(stacked, columns):
            # A held column's values each fill a run of n // len(column) draws.
            row.reshape(len(column), -1)[...] = column[:, None]
        noise[node] = stacked.reshape(-1)
    return propagate_from_noise(model, noise)[target].reshape(len(jobs), n)


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


def arrow_measure(model: GcmModel, edge) -> str:
    """The measure :func:`arrow_strength` runs for ``edge``, picked by the
    child's kind: ``coupled_msd`` for a continuous child, ``kl`` for a
    categorical one.  Raises :class:`QueryError` if there is no such edge."""
    parent, child = edge
    if not model.graph.has_edge(parent, child):
        raise QueryError(f"graph has no edge {parent!r} -> {child!r}")
    return "coupled_msd" if model.mechanisms[child].is_continuous else "kl"


def arrow_strength(model: GcmModel, edge, n=50000, seed=0) -> float:
    """Direct strength of one edge, by feeding the child an independent parent copy.

    Over ``n`` joint samples, the parent column is replaced by a permuted
    copy.  ``coupled_msd``: the mean squared change of a continuous child
    that keeps its own noise.  ``kl`` (Janzing et al., 2013): the mean over
    the rows of KL(p || p_cut) between a categorical child's class
    probabilities and their average over the row's own parent and
    ``_CUT_COPIES`` permuted copies.
    """
    model.require_fitted()
    measure = arrow_measure(model, edge)
    parent, child = edge
    mechanism = model.mechanisms[child]
    n = require_rows(n, "n")

    noise = draw_noise_values(model, n, seed)
    values = propagate_from_noise(model, noise)
    parents = model.graph.parents(child)

    def cut_columns(label):
        permutation = rng_for(seed, label).permutation(n)
        return [values[p][permutation] if p == parent else values[p] for p in parents]

    if measure == "coupled_msd":
        cut_child = mechanism.forward(cut_columns("arrow:cut"), noise[child])
        return float(np.mean((values[child] - cut_child) ** 2))

    observed = mechanism.probabilities([values[p] for p in parents], n)
    copies = (mechanism.probabilities(cut_columns(f"arrow:cut:{j}"), n) for j in range(_CUT_COPIES))
    total = observed + sum(copies)
    # With the row's own p in the total, p / p_cut = 33 p / total lies in
    # [p, 33]: a rare class that no copy reaches reads log 33, not a vanishing
    # tail.  A class of probability 0 adds 0; each row's sum is a KL,
    # negative only by rounding.
    ratio = np.divide((_CUT_COPIES + 1) * observed, total, out=np.ones_like(observed), where=observed > 0)
    return max(0.0, float(np.mean(np.sum(observed * np.log(ratio), axis=1))))


def intrinsic_influence(
    model: GcmModel,
    target,
    shapley_config: ShapleyConfig | None = None,
    outer_samples=DEFAULT_ICC_OUTER_SAMPLES,
    inner_samples=DEFAULT_ICC_INNER_SAMPLES,
    seed=0,
) -> AttributionResult:
    """Shapley attribution of the target's variance to upstream noise terms.

    The value of a noise subset S is the expected reduction in the target's
    variance from freezing those noises: Var(Y) - E[Var(Y | N_S)].  The
    target of a continuous mechanism is Y = f(parents) + N_Y, with N_Y
    independent of its ancestors' noises, so adding N_Y to any S adds
    exactly Var(N_Y): the target's score is its mechanism's
    ``noise_variance``, and the other scores are those of the game
    Var(f) - E[Var(f | N_S)] over the ancestors alone.  That game is
    estimated by nested Monte Carlo with the target's noise held at 0.  Per
    subset, the frozen nodes draw one block of ``outer_samples`` values and
    the free nodes one block of ``outer_samples * inner_samples`` values,
    from the subset's "frozen" and "free" seeds; every frozen value is held
    over a run of ``inner_samples`` draws, whose variance is one conditional
    variance.  The empty set is worth 0 and the full set the estimate of
    Var(f), so exact Shapley scores sum to ``total``, that estimate plus
    Var(N_Y).  A root target has no ancestors and is answered without a
    draw.  The identity needs additive noise, so the target must be
    continuous.
    """
    model.require_fitted()
    require_continuous_target(model, target)
    outer_samples = require_count(outer_samples, "outer_samples")
    inner_samples = require_count(inner_samples, "inner_samples", 2)
    ancestral, ancestors = _players_for(model.graph, target, shapley_config, target_plays=False)
    variance_samples = require_rows(outer_samples * inner_samples, "outer_samples * inner_samples")
    budget = {
        "outer_samples": outer_samples,
        "inner_samples": inner_samples,
        "variance_samples": variance_samples,
    }
    noise_variance = float(model.mechanisms[target].noise_variance)
    shares, prediction_variance = {}, 0.0
    if ancestors:
        model = _submodel(model, ancestral)
        silent = {target: np.zeros(1)}
        predictions = _target_samples(
            model, target, variance_samples, [(derive_seed(seed, "icc:variance"), silent)]
        )[0]
        prediction_variance = float(np.var(predictions, ddof=1))

        def values_of(subsets):
            jobs = []
            for bits in subsets:
                frozen = [ancestors[i] for i in range(len(ancestors)) if bits >> i & 1]
                subset_seed = derive_seed(seed, f"icc:{bits}")
                held = draw_noise_values(model, outer_samples, derive_seed(subset_seed, "frozen"), frozen)
                jobs.append((derive_seed(subset_seed, "free"), {**held, **silent}))
            block = _target_samples(model, target, variance_samples, jobs)
            # Row (j, o) holds the inner draws of job j around its o-th frozen draw.
            conditional = np.var(
                block.reshape(len(jobs), outer_samples, inner_samples), axis=2, ddof=1
            ).mean(axis=1)
            return prediction_variance - conditional

        known = {0: 0.0, (1 << len(ancestors)) - 1: prediction_variance}
        shares = _attribute(
            ancestors, values_of, variance_samples, known, shapley_config, "intrinsic_influence", budget, seed
        ).scores
    shares[target] = noise_variance
    return AttributionResult(
        scores={node: shares[node] for node in ancestral.nodes},
        measure="intrinsic_influence",
        mc_budget=budget,
        seed=seed,
        total=prediction_variance + noise_variance,
        baseline=0.0,
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
    ancestral, players = _players_for(model.graph, target, shapley_config)
    observed, recovered = abduct_row(model, anomalous_row, players)
    model = _submodel(model, ancestral)

    reference = _target_samples(model, target, num_samples, [(derive_seed(seed, "anomaly:reference"), {})])[0]
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
        samples = _target_samples(model, target, num_samples, jobs)
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

    Fits one model of the target and its ancestors per dataset (no other
    node is fitted, but both datasets must cover every graph node, with the
    same kind on both sides), then scores each node subset by the chosen
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

    ancestral, players = _players_for(graph, target, shapley_config)
    old_model = fit(auto_assign(ancestral, old_data), old_data)
    new_model = fit(auto_assign(ancestral, new_data), new_data)
    baseline = _target_samples(old_model, target, num_samples, [(derive_seed(seed, "change:baseline"), {})])[0]

    def value_of(bits):
        # Each subset has its own hybrid model, so it is propagated alone.
        swapped = {node: new_model.mechanisms[node] for i, node in enumerate(players) if bits >> i & 1}
        hybrid = GcmModel(ancestral, {**old_model.mechanisms, **swapped})
        samples = _target_samples(hybrid, target, num_samples, [(derive_seed(seed, f"change:{bits}"), {})])[0]
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
