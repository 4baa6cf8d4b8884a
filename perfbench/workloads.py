"""Seeded inputs, query scripts and oracle checks for the gcmkit benchmark.

Every input file is generated and written by this module with its own CSV and
JSON writers, never with gcmkit's, so a change to the package cannot change
the data it is measured on.  The same workload seed always gives the same
bytes; the graph structures and coefficients are constants, only the sampled
data depends on the seed, so the amount of work per run stays steady.

Each command's ``check`` receives the parsed JSON result and returns a list of
oracle records ``(name, error, tolerance)``; ``error / tolerance <= 1``
passes.  Structural problems raise :class:`CheckFailed`.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("cli-small", "knn-large", "attribution-wide")

# Row counts and Monte-Carlo budgets per scale.  "full" is what the timed runs
# use; "tiny" keeps every command and check but makes the smoke tests quick.
SIZES = {
    "full": {
        "cli-small": {"n": 1000, "draws": 2000, "icc": (10, 50), "outlier_samples": 500},
        "knn-large": {"n": 1000, "change_samples": 1000, "permutations": 49},
        "attribution-wide": {"n": 800, "icc": (4, 200), "outlier_samples": 500, "tall_rows": 10000, "max_cond_set": 3},
    },
    "tiny": {
        "cli-small": {"n": 400, "draws": 500, "icc": (4, 30), "outlier_samples": 200},
        "knn-large": {"n": 300, "change_samples": 300, "permutations": 39},
        "attribution-wide": {"n": 300, "icc": (2, 50), "outlier_samples": 200, "tall_rows": 2000, "max_cond_set": 2},
    },
}


class CheckFailed(Exception):
    """A command's output is structurally wrong or violates an exact invariant."""


@dataclass
class Command:
    label: str
    argv: list
    check: object


@dataclass
class Workload:
    name: str
    gcm_seed: int
    files: dict  # file name -> text, written into the run's work directory
    fit: list  # gcm arguments of the setup fit, which writes model.json
    commands: list


def build(name, seed, scale="full"):
    """The workload's input files, setup fit and query script for ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    factory = {
        "cli-small": _cli_small,
        "knn-large": _knn_large,
        "attribution-wide": _attribution_wide,
    }[name]
    return factory(seed, SIZES[scale][name])


# --- writers -----------------------------------------------------------------


def csv_text(columns):
    """CSV with a header row; floats as shortest round-trip decimals."""
    names = list(columns)
    cells = [
        [repr(v) for v in col.tolist()] if col.dtype.kind == "f" else [str(v) for v in col]
        for col in columns.values()
    ]
    lines = [",".join(names)]
    lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"


def graph_text(nodes, edges):
    return json.dumps({"nodes": list(nodes), "edges": [list(e) for e in edges]})


# --- shared checks -----------------------------------------------------------


def _efficiency(payload):
    # Exact Shapley scores sum to total - baseline up to float rounding.
    scores = payload["scores"]
    error = abs(sum(scores.values()) - (payload["total"] - payload["baseline"]))
    return ("shapley_efficiency", error, 1e-9 * max(1.0, abs(payload["total"])))


def _finite(value, what):
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckFailed(f"{what} is not a finite number: {value!r}")
    return value


def _ranked_first(scores, node, what):
    best = max(scores, key=scores.get)
    if best != node:
        raise CheckFailed(f"{what}: expected {node} ranked first, got {best}")


# --- cli-small ---------------------------------------------------------------
# Why: most of each 1-3 s command is interpreter start, imports and model-JSON
# load.  This workload measures per-command overhead and the load-heavy,
# query-light use of a kNN model (X->Y is a sine, so auto picks kNN there), so
# work moved into model load or tree build shows up here as a loss.

_SIN_AMPLITUDE = 1.5


def _cli_small_data(rng, n):
    c = rng.choice(3, size=n, p=[0.4, 0.35, 0.25])
    x = np.array([-0.5, 1.0, 2.0])[c] + rng.standard_normal(n)
    y = _SIN_AMPLITUDE * np.sin(x) + 0.3 * rng.standard_normal(n)
    z = 2.0 * y + 0.5 * rng.standard_normal(n)
    logit = 1.5 * x + np.array([-1.0, 0.0, 1.0])[c] - 1.0
    k = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-logit)), "hi", "lo")
    return {"C": np.array(["a", "b", "c"])[c], "X": x, "Y": y, "Z": z, "K": k}


def _cli_small(seed, size):
    n = size["n"]
    rng = np.random.default_rng([seed, 1])
    train = _cli_small_data(rng, n)
    y_obs = _SIN_AMPLITUDE * math.sin(1.0) + 0.3 * float(rng.standard_normal())
    cf_row = {"C": "b", "X": 1.0, "Y": y_obs, "Z": 2.0 * y_obs + 0.1, "K": "lo"}
    # Z's own noise is pushed 6 sd out, so the outlier lies at the end of the chain.
    outlier_row = {"C": "a", "X": 0.0, "Y": 0.0, "Z": 3.0, "K": "lo"}
    nodes = ["C", "X", "Y", "Z", "K"]
    edges = [("C", "X"), ("X", "Y"), ("Y", "Z"), ("X", "K"), ("C", "K")]
    files = {
        "graph.json": graph_text(nodes, edges),
        "train.csv": csv_text(train),
        "cf_row.csv": _row_text(cf_row),
        "outlier_row.csv": _row_text(outlier_row),
    }
    effect = _SIN_AMPLITUDE * math.sin(2.0)
    icc_outer, icc_inner = size["icc"]

    def check_intervene(p):
        # The fitted kNN mean at one point is off by ~0.08 sd at n = 1000
        # (measured over 12 seeds); the tolerances are 5 sd of each estimate.
        return [("intervene_mean", abs(_finite(p["mean"], "mean") - effect), 0.4)]

    def check_counterfactual(p):
        values = p["values"]
        if values["X"] != 0.0 or values["K"] != "hi":
            raise CheckFailed(f"counterfactual: interventions not applied: {values}")
        # Y keeps its abducted noise: y_obs - f(1) + f(0) with f = 1.5 sin.
        expected = y_obs - _SIN_AMPLITUDE * math.sin(1.0)
        return [("counterfactual_y", abs(_finite(values["Y"], "Y") - expected), 0.6)]

    def check_ace(p):
        return [("ace", abs(_finite(p["ace"], "ace") - effect), 0.6)]

    def check_attribution(p):
        return [_efficiency(p)]

    def check_nonnegative(p):
        # The k-NN KL estimate is clamped at 0 and ties on one-hot inputs can reach it.
        if _finite(p["strength"], "strength") < 0.0:
            raise CheckFailed("arrow strength must be nonnegative")
        return []

    s, draws = str(seed), str(size["draws"])
    return Workload(
        name="cli-small",
        gcm_seed=seed,
        files=files,
        fit=["fit", "--graph", "graph.json", "--data", "train.csv", "--out", "model.json", "--seed", s],
        commands=[
            Command(
                "intervene",
                ["intervene", "--model", "model.json", "--set", "X=2", "--target", "Y", "-n", draws, "--seed", s],
                check_intervene,
            ),
            Command(
                "counterfactual",
                ["counterfactual", "--model", "model.json", "--data", "cf_row.csv", "--set", "X=0", "--set", "K=hi", "--seed", s],
                check_counterfactual,
            ),
            Command(
                "ace",
                ["ace", "--model", "model.json", "--treatment", "X", "--value-a", "2", "--value-b", "0",
                 "--target", "Y", "-n", draws, "--seed", s],
                check_ace,
            ),
            Command(
                "attribute-outlier",
                ["attribute-outlier", "--model", "model.json", "--data", "outlier_row.csv", "--target", "Z",
                 "--num-samples", str(size["outlier_samples"]), "--seed", s],
                check_attribution,
            ),
            Command(
                "arrow-strength-CK",
                ["arrow-strength", "--model", "model.json", "--edge", "C->K", "-n", draws, "--seed", s],
                check_nonnegative,
            ),
            Command(
                "icc",
                ["icc", "--model", "model.json", "--target", "Z", "--outer-samples", str(icc_outer),
                 "--inner-samples", str(icc_inner), "--seed", s],
                check_attribution,
            ),
        ],
    )


def _row_text(row):
    return csv_text({k: np.array([v]) for k, v in row.items()})


# --- knn-large ---------------------------------------------------------------
# Why: the quadratic kernels dominate here (brute-force kNN predict, the KL
# estimator's distance matrices, dCor's n x n matrices) and cold start is a
# small share.  A sub-quadratic neighbour search must show its gain on this
# workload; dCor sets the peak RSS.


def _knn_chain(rng, n, b_shift=0.0):
    a = rng.uniform(-3.0, 3.0, n)
    b = np.sin(2.0 * a) + 0.2 * a * a + b_shift + 0.3 * rng.standard_normal(n)
    d = 0.8 * b + 0.4 * np.sin(3.0 * b) + 0.2 * rng.standard_normal(n)
    return {"A": a, "B": b, "D": d}


def _knn_large(seed, size):
    n = size["n"]
    rng = np.random.default_rng([seed, 2])
    train = _knn_chain(rng, n)
    heldout = _knn_chain(rng, n // 2)
    old = _knn_chain(rng, n)
    # Only B's mechanism moves between the batches, and by little enough that
    # D's old kNN mechanism rarely has to extrapolate.
    new = _knn_chain(rng, n, b_shift=0.7)
    files = {
        "graph.json": graph_text(["A", "B", "D"], [("A", "B"), ("B", "D")]),
        "train.csv": csv_text(train),
        "heldout.csv": csv_text(heldout),
        "old.csv": csv_text(old),
        "new.csv": csv_text(new),
    }
    permutations = size["permutations"]

    def check_evaluate(p):
        if [e["node"] for e in p["nodes"]] != ["A", "B", "D"]:
            raise CheckFailed("evaluate: wrong node list")
        return []

    def check_change(p):
        _ranked_first(p["scores"], "B", "attribute-change")
        return [_efficiency(p)]

    def check_dcor(p):
        # D depends on A through B; the smallest p-value B permutations allow is 1/(B+1).
        return [("dcor_p_value", p["p_value"], 0.05)]

    s = str(seed)
    return Workload(
        name="knn-large",
        gcm_seed=seed,
        files=files,
        fit=["fit", "--graph", "graph.json", "--data", "train.csv", "--out", "model.json", "--seed", s],
        commands=[
            Command("evaluate", ["evaluate", "--model", "model.json", "--data", "heldout.csv", "--seed", s], check_evaluate),
            Command(
                "attribute-change",
                ["attribute-change", "--graph", "graph.json", "--old", "old.csv", "--new", "new.csv", "--target", "D",
                 "--measure", "kl", "--num-samples", str(size["change_samples"]), "--seed", s],
                check_change,
            ),
            Command(
                "test-dcor",
                ["test", "--data", "train.csv", "--x", "A", "--y", "D", "--method", "dcor",
                 "--permutations", str(permutations), "--seed", s],
                check_dcor,
            ),
        ],
    )


# --- linear-Gaussian DAG helpers ---------------------------------------------


def _linear_sem(nodes, edges, structure_seed):
    """Fixed coefficients and noise sds, scaled so every node has variance ~2."""
    rng = np.random.default_rng(structure_seed)
    index = {v: i for i, v in enumerate(nodes)}
    p = len(nodes)
    weights = np.zeros((p, p))
    for parent, child in edges:
        weights[index[parent], index[child]] = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
    sds = rng.uniform(0.7, 1.3, p)
    cov = np.zeros((p, p))
    for j in range(p):  # nodes are listed in topological order
        parents = np.flatnonzero(weights[:, j])
        if parents.size:
            b = weights[parents, j]
            signal = float(b @ cov[np.ix_(parents, parents)] @ b)
            weights[parents, j] *= math.sqrt(1.0 / signal)
        column = cov[:, parents] @ weights[parents, j] if parents.size else np.zeros(p)
        cov[j, :] = column
        cov[:, j] = column
        cov[j, j] = float(weights[parents, j] @ column[parents]) + sds[j] ** 2 if parents.size else sds[j] ** 2
    return weights, sds


def _sample_sem(rng, weights, sds, n, noise_shift=None):
    p = len(sds)
    noise = rng.standard_normal((n, p)) * sds
    if noise_shift is not None:
        noise = noise + noise_shift
    values = np.zeros((n, p))
    for j in range(p):
        values[:, j] = values @ weights[:, j] + noise[:, j]
    return values


def _total_effects(weights, target):
    # (I - W)^-1 holds the sum over directed paths of coefficient products.
    p = len(weights)
    return np.linalg.inv(np.eye(p) - weights)[:, target]


# --- attribution-wide -------------------------------------------------------
# Why: per-subset Python loops dominate icc and attribute-outlier (noise draws,
# encoding, propagation and seed derivation for each of the 2^10 subsets of
# V19's 10 players) and no kNN runs at query time; fit still pays for auto's
# kNN cross-validation although linear wins.  Batched ICC and a single encoder
# should show their gains here.
#
# The same session also runs discover and refute on a separate tall table
# (10 000 rows, 30 columns): there Fisher-z tests, PC and CSV parsing
# dominate, layers that are a small share of the other workloads.  They ride
# along here rather than in a fourth workload so that each run stays long
# enough to be steady within the benchmark's time budget.

_WIDE_NODES = [f"V{i:02d}" for i in range(20)]
_WIDE_EDGES = [
    # the 9 ancestors of V19: V02 V04 V07 V09 V11 V13 V15 V16 V18
    ("V02", "V07"), ("V04", "V07"), ("V04", "V09"), ("V07", "V11"), ("V09", "V13"),
    ("V11", "V15"), ("V13", "V15"), ("V13", "V16"), ("V15", "V18"), ("V16", "V18"),
    ("V18", "V19"), ("V11", "V19"),
    # the rest of the graph, which V19's queries never touch
    ("V00", "V01"), ("V01", "V06"), ("V02", "V03"), ("V03", "V05"), ("V06", "V10"),
    ("V07", "V08"), ("V08", "V10"), ("V09", "V12"), ("V10", "V14"), ("V12", "V17"),
    ("V16", "V17"), ("V05", "V14"),
]
_WIDE_TARGET = "V19"
_OUTLIER_SHIFT_SDS = 8.0


_TALL_NODES = [f"V{i:02d}" for i in range(30)]


def _tall_edges():
    # A fixed random polytree (no two paths join any pair of nodes, at most 3
    # parents per node).  Denser random DAGs at this size have edges whose
    # partial correlation nearly cancels for some conditioning set, so PC
    # misses them and its orientation phase can fail; a polytree keeps the
    # workload's discovery answer checkable.
    rng = np.random.default_rng(30)
    component = list(range(30))

    def root(i):
        while component[i] != i:
            i = component[i]
        return i

    pairs = [(i, j) for i in range(30) for j in range(i + 1, 30)]
    parents = [0] * 30
    edges = []
    for k in rng.permutation(len(pairs)):
        i, j = pairs[k]
        if parents[j] < 3 and root(i) != root(j):
            component[root(i)] = root(j)
            parents[j] += 1
            edges.append((_TALL_NODES[i], _TALL_NODES[j]))
    return sorted(edges)


_TALL_EDGES = _tall_edges()


def true_cpdag(nodes, edges):
    """Essential graph of a DAG: v-structures plus Meek rules 1-3."""
    parents = {v: {a for a, b in edges if b == v} for v in nodes}
    adjacent = {frozenset(e) for e in edges}
    directed = set()
    for child in nodes:
        for a, b in itertools.combinations(sorted(parents[child]), 2):
            if frozenset((a, b)) not in adjacent:
                directed.update({(a, child), (b, child)})
    undirected = {frozenset(e) for e in edges} - {frozenset(e) for e in directed}

    def adj(a, b):
        return frozenset((a, b)) in adjacent

    changed = True
    while changed:
        changed = False
        for edge in list(undirected):
            for a, b in (tuple(edge), tuple(edge)[::-1]):
                r1 = any((c, a) in directed and not adj(c, b) for c in nodes if c != b)
                r2 = any((a, c) in directed and (c, b) in directed for c in nodes)
                r3 = any(
                    frozenset((a, c)) in undirected and frozenset((a, d)) in undirected
                    and (c, b) in directed and (d, b) in directed and not adj(c, d)
                    for c, d in itertools.combinations(nodes, 2)
                )
                if r1 or r2 or r3:
                    undirected.discard(edge)
                    directed.add((a, b))
                    changed = True
                    break
    return directed, undirected


def shd(directed_a, undirected_a, directed_b, undirected_b):
    """Structural Hamming distance between two CPDAGs: node pairs whose mark differs."""

    def marks(directed, undirected):
        out = {frozenset(e): tuple(e) for e in directed}
        out.update({frozenset(e): "-" for e in undirected})
        return out

    a = marks(directed_a, undirected_a)
    b = marks(directed_b, undirected_b)
    return sum(a.get(pair) != b.get(pair) for pair in set(a) | set(b))


def _attribution_wide(seed, size):
    weights, sds = _linear_sem(_WIDE_NODES, _WIDE_EDGES, structure_seed=20)
    rng = np.random.default_rng([seed, 3])
    train = _sample_sem(rng, weights, sds, size["n"])
    target = _WIDE_NODES.index(_WIDE_TARGET)
    shift = np.zeros(len(_WIDE_NODES))
    shift[target] = _OUTLIER_SHIFT_SDS * sds[target]
    row = _sample_sem(rng, weights, sds, 1, noise_shift=shift)
    tall_weights, tall_sds = _linear_sem(_TALL_NODES, _TALL_EDGES, structure_seed=31)
    tall = _sample_sem(rng, tall_weights, tall_sds, size["tall_rows"])
    files = {
        "graph.json": graph_text(_WIDE_NODES, _WIDE_EDGES),
        "train.csv": csv_text(dict(zip(_WIDE_NODES, train.T))),
        "outlier_row.csv": csv_text(dict(zip(_WIDE_NODES, row.T))),
        "tall_graph.json": graph_text(_TALL_NODES, _TALL_EDGES),
        "tall.csv": csv_text(dict(zip(_TALL_NODES, tall.T))),
    }
    effects = _total_effects(weights, target)
    analytic_icc = {v: float(effects[i] ** 2 * sds[i] ** 2) for i, v in enumerate(_WIDE_NODES) if effects[i] != 0}
    target_variance = sum(analytic_icc.values())
    truth_directed, truth_undirected = true_cpdag(_TALL_NODES, _TALL_EDGES)
    outer, inner = size["icc"]

    def check_icc(p):
        scores = p["scores"]
        if set(scores) != set(analytic_icc):
            raise CheckFailed(f"icc: players {sorted(scores)} are not V19's ancestors")
        # For independent Gaussian noises ICC is additive: (total effect)^2 * sd^2.
        # Tolerance covers the nested Monte Carlo and the finite-n fit.
        worst = max(abs(scores[v] - analytic_icc[v]) for v in scores)
        return [_efficiency(p), ("icc_vs_analytic", worst, 0.15 * target_variance)]

    def check_outlier(p):
        _ranked_first(p["scores"], _WIDE_TARGET, "attribute-outlier")
        return [_efficiency(p)]

    def check_discover(p):
        distance = shd(
            {tuple(e) for e in p["directed"]},
            {frozenset(e) for e in p["undirected"]},
            truth_directed,
            truth_undirected,
        )
        # At alpha 0.001 PC recovered the true CPDAG exactly on 60 of 60
        # seeds; one wrong Fisher-z decision flips an edge and its Meek
        # consequences, so up to 4 wrong node pairs are allowed.
        return [("cpdag_shd", float(distance), 4.0)]

    def check_refute(p):
        if p["verdict"] != "not rejected":
            raise CheckFailed("refute: the true graph was rejected")
        return []

    s = str(seed)
    return Workload(
        name="attribution-wide",
        gcm_seed=seed,
        files=files,
        fit=["fit", "--graph", "graph.json", "--data", "train.csv", "--out", "model.json", "--seed", s],
        commands=[
            Command(
                "icc",
                ["icc", "--model", "model.json", "--target", _WIDE_TARGET, "--outer-samples", str(outer),
                 "--inner-samples", str(inner), "--seed", s],
                check_icc,
            ),
            Command(
                "attribute-outlier",
                ["attribute-outlier", "--model", "model.json", "--data", "outlier_row.csv", "--target", _WIDE_TARGET,
                 "--num-samples", str(size["outlier_samples"]), "--seed", s],
                check_outlier,
            ),
            Command(
                "discover",
                ["discover", "--data", "tall.csv", "--alpha", "0.001", "--max-cond-set", str(size["max_cond_set"]), "--seed", s],
                check_discover,
            ),
            # Holm-corrected at alpha 1e-4, the true graph is rejected with
            # probability below 1e-4 per seed.
            Command(
                "refute",
                ["refute", "--graph", "tall_graph.json", "--data", "tall.csv", "--alpha", "0.0001", "--seed", s],
                check_refute,
            ),
        ],
    )
