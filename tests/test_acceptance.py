"""Acceptance suite: one test per release criterion, with live pass/fail lines.

Run with plain ``pytest tests/test_acceptance.py``; each criterion prints one
line even under output capture.  Oracles are analytic or brute-force and
independent of the code paths they check.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import gcmkit as gk
from gcmkit import (
    AdditiveNoiseModel,
    CausalGraph,
    Dataset,
    Gaussian,
    GcmModel,
    LinearModel,
    SetFunction,
    ShapleyConfig,
)
from conftest import make_ground_truth_chain, sample_chain_data


@pytest.fixture
def criterion(capsys):
    """Announce a criterion's outcome on the live terminal, then enforce it."""

    def finish(number, label, failures, elapsed, budget):
        status = "PASS" if not failures and elapsed < budget else "FAIL"
        with capsys.disabled():
            print(f"[criterion {number}] {status} {label} ({elapsed:.1f}s / budget {budget:.0f}s)")
        assert elapsed < budget, f"criterion {number} exceeded runtime budget: {elapsed:.1f}s"
        assert not failures, f"criterion {number} failures: {failures}"

    return finish


def test_criterion_1_shapley_exactness(criterion):
    start = time.perf_counter()
    failures = []

    def batched(game):
        return lambda subsets: [game(bits) for bits in subsets]

    weights = np.array([1.0, 2.0, 3.0])
    additive = gk.estimate_shapley(
        SetFunction(3, batched(lambda bits: float(weights[[bool(bits >> i & 1) for i in range(3)]].sum()))),
        ShapleyConfig("exact"),
    )
    if not np.allclose(additive, weights, atol=1e-12, rtol=0):
        failures.append(f"additive-game identity violated: {additive}")

    def symmetric_game(bits):
        first, second = bits & 1, bits >> 1 & 1
        return float(first + second + 0.25 * (first & second))

    symmetric = gk.estimate_shapley(SetFunction(2, batched(symmetric_game)), ShapleyConfig("exact"))
    if symmetric[0] != symmetric[1]:
        failures.append(f"symmetry violated: {symmetric}")

    null = gk.estimate_shapley(
        SetFunction(2, batched(lambda bits: 2.0 * (bits & 1))), ShapleyConfig("exact")
    )
    if null[1] != 0.0:
        failures.append(f"null player nonzero: {null}")

    def glove(bits):
        return float(min((bits & 1) + (bits >> 1 & 1), bits >> 2 & 1))

    # brute-force oracle: enumerate all 3! = 6 insertion orders
    oracle = np.zeros(3)
    for order in itertools.permutations(range(3)):
        bits = 0
        previous = glove(bits)
        for player in order:
            bits |= 1 << player
            current = glove(bits)
            oracle[player] += current - previous
            previous = current
    oracle /= 6
    exact = gk.estimate_shapley(SetFunction(3, batched(glove)), ShapleyConfig("exact"))
    if not np.allclose(exact, oracle, atol=1e-12, rtol=0):
        failures.append(f"glove game mismatch: {exact} vs {oracle}")
    if not np.allclose(oracle, [1 / 6, 1 / 6, 2 / 3], atol=1e-12, rtol=0):
        failures.append("brute-force oracle sanity check failed")

    sampled = gk.estimate_shapley(
        SetFunction(3, batched(glove)), ShapleyConfig("permutation", num_permutations=2000, seed=11)
    )
    if np.max(np.abs(sampled - oracle)) > 0.05:
        failures.append(f"permutation estimate off by {np.max(np.abs(sampled - oracle)):.4f}")

    criterion(1, "Shapley exactness and permutation convergence", failures, time.perf_counter() - start, 5.0)


def _random_linear_gaussian_model(rng, max_nodes=6):
    n_nodes = int(rng.integers(2, max_nodes + 1))
    names = [f"n{i}" for i in range(n_nodes)]
    edges = [
        (names[i], names[j])
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if rng.random() < 0.5
    ]
    graph = CausalGraph(names, edges)
    model = GcmModel(graph)
    coefficients, intercepts, noise_stds = {}, {}, {}
    for node in names:
        parents = graph.parents(node)
        intercepts[node] = float(rng.uniform(-1, 1))
        noise_stds[node] = float(rng.uniform(0.5, 1.5))
        if not parents:
            model = gk.assign(model, node, Gaussian(intercepts[node], noise_stds[node]), ground_truth=True)
        else:
            coefs = rng.uniform(0.5, 2.0, len(parents)) * rng.choice([-1.0, 1.0], len(parents))
            coefficients[node] = dict(zip(parents, coefs))
            anm = AdditiveNoiseModel(
                LinearModel(coefs, intercepts[node]),
                Gaussian(0.0, noise_stds[node]),
                gk.InputEncoder.continuous(len(parents)),
            )
            model = gk.assign(model, node, anm, ground_truth=True)
    return model, coefficients, intercepts


def _analytic_do_means(graph, coefficients, intercepts, treatment, value):
    means = {}
    for node in graph.topological_order():
        if node == treatment:
            means[node] = value
        elif graph.is_root(node):
            means[node] = intercepts[node]
        else:
            means[node] = intercepts[node] + sum(
                coefficients[node][p] * means[p] for p in graph.parents(node)
            )
    return means


def test_criterion_2_linear_gaussian_what_if_oracle(criterion):
    start = time.perf_counter()
    failures = []
    n = 100_000
    rng = np.random.default_rng(2024)
    for trial in range(10):
        model, coefficients, intercepts = _random_linear_gaussian_model(rng)
        graph = model.graph
        treatment = graph.nodes[int(rng.integers(0, len(graph.nodes)))]
        target = graph.nodes[-1] if graph.nodes[-1] != treatment else graph.nodes[0]
        value_a, value_b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))

        means_a = _analytic_do_means(graph, coefficients, intercepts, treatment, value_a)
        means_b = _analytic_do_means(graph, coefficients, intercepts, treatment, value_b)
        samples_a = gk.interventional_samples(model, [gk.atomic(treatment, value_a)], n, seed=trial)
        samples_b = gk.interventional_samples(
            model, [gk.atomic(treatment, value_b)], n, seed=1000 + trial
        )
        for node in graph.nodes:
            column = samples_a.column(node)
            bound = max(3 * column.std() / math.sqrt(n), 1e-9)
            if abs(column.mean() - means_a[node]) > bound:
                failures.append(
                    f"trial {trial}: do-mean of {node} off by "
                    f"{abs(column.mean() - means_a[node]):.4f} (bound {bound:.4f})"
                )

        ace = gk.average_causal_effect(model, treatment, value_a, value_b, target, n=n, seed=trial)
        analytic_ace = means_a[target] - means_b[target]
        spread = math.hypot(samples_a.column(target).std(), samples_b.column(target).std())
        bound = max(3 * spread / math.sqrt(n), 1e-9)
        if abs(ace - analytic_ace) > bound:
            failures.append(f"trial {trial}: ACE off by {abs(ace - analytic_ace):.4f} (bound {bound:.4f})")

    criterion(2, "linear-Gaussian interventional means and ACE vs path analytics", failures, time.perf_counter() - start, 60.0)


def test_criterion_3_counterfactual_consistency(criterion):
    start = time.perf_counter()
    failures = []

    data = sample_chain_data(300, seed=77)
    graph = CausalGraph(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
    model = gk.fit(gk.auto_assign(graph, data), data)
    for index in range(data.n_rows):
        row = data.row(index)
        result = gk.counterfactual(model, row, [])
        if result != row:
            failures.append(f"row {index} not reproduced: {result} vs {row}")
            break

    worked = GcmModel(CausalGraph(["X", "Y"], [("X", "Y")]))
    worked = gk.assign(worked, "X", Gaussian(0.0, 1.0), ground_truth=True)
    worked = gk.assign(
        worked,
        "Y",
        AdditiveNoiseModel(LinearModel([2.0], 0.0), Gaussian(0.0, 1.0), gk.InputEncoder.continuous(1)),
        ground_truth=True,
    )
    outcome = gk.counterfactual(worked, {"X": 1.0, "Y": 3.0}, [gk.atomic("X", 2.0)])
    if outcome["Y"] != 5.0:
        failures.append(f"worked example gave {outcome['Y']!r}, expected exactly 5.0")

    criterion(3, "counterfactuals reproduce training rows bit-exactly", failures, time.perf_counter() - start, 5.0)


def test_criterion_4_attribution_efficiency_and_cases(criterion):
    start = time.perf_counter()
    failures = []

    # symmetric intrinsic-influence case: Y = X + N, unit variances
    two_node = GcmModel(CausalGraph(["X", "Y"], [("X", "Y")]))
    two_node = gk.assign(two_node, "X", Gaussian(0.0, 1.0), ground_truth=True)
    two_node = gk.assign(
        two_node,
        "Y",
        AdditiveNoiseModel(LinearModel([1.0], 0.0), Gaussian(0.0, 1.0), gk.InputEncoder.continuous(1)),
        ground_truth=True,
    )
    icc = gk.intrinsic_influence(two_node, "Y", seed=0)
    if abs(sum(icc.scores.values()) - icc.total) > 1e-9:
        failures.append("intrinsic-influence efficiency broken")
    for node in ("X", "Y"):
        if abs(icc.scores[node] - 1.0) > 0.1:
            failures.append(f"intrinsic influence of {node} = {icc.scores[node]:.3f}, expected 1.0±0.1")

    # anomaly attribution: injected N_Y = 5 must dominate in >= 95 of 100 runs
    graph = CausalGraph(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
    anomalous_row = {"X": 0.0, "Y": 5.0, "Z": 5.0}
    hits = 0
    anomaly_efficiency_ok = True
    for rep in range(100):
        data = sample_chain_data(1000, seed=5000 + rep)
        model = gk.fit(gk.auto_assign(graph, data), data)
        result = gk.attribute_anomaly(model, "Z", anomalous_row, seed=rep)
        if max(result.scores, key=result.scores.get) == "Y":
            hits += 1
        if abs(sum(result.scores.values()) - result.total) > 1e-9:
            anomaly_efficiency_ok = False
    if hits < 95:
        failures.append(f"anomaly argmax correct in only {hits}/100 runs")
    if not anomaly_efficiency_ok:
        failures.append("anomaly attribution efficiency broken")

    # distribution change: mechanism shift of +2 on Y, X untouched
    rng = np.random.default_rng(404)
    x_old = rng.standard_normal(3000)
    old = Dataset(["X", "Y"], [x_old, x_old + rng.standard_normal(3000)])
    x_new = rng.standard_normal(3000)
    new = Dataset(["X", "Y"], [x_new, x_new + 2.0 + rng.standard_normal(3000)])
    change = gk.distribution_change(
        CausalGraph(["X", "Y"], [("X", "Y")]), old, new, "Y", measure="mean_diff", seed=7
    )
    if abs(sum(change.scores.values()) - (change.total - change.baseline)) > 1e-9:
        failures.append("distribution-change efficiency broken")
    if abs(change.scores["Y"] - 2.0) > 0.1:
        failures.append(f"change score for Y = {change.scores['Y']:.3f}, expected 2.0±0.1")
    if abs(change.scores["X"]) > 0.1:
        failures.append(f"change score for X = {change.scores['X']:.3f}, expected 0±0.1")

    criterion(4, "attribution efficiency and reference cases", failures, time.perf_counter() - start, 180.0)


def test_criterion_5_kl_estimator(criterion):
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(55)
    p = rng.standard_normal(5000)
    q_shift = rng.standard_normal(5000) + 1.0
    q_scale = 2.0 * rng.standard_normal(5000)
    q_same = rng.standard_normal(5000)

    mean_shift = gk.kl_divergence(p, q_shift, k=5)
    if abs(mean_shift - 0.5) > 0.1:
        failures.append(f"KL(N(0,1)||N(1,1)) = {mean_shift:.3f}, expected 0.5±0.1")
    scale = gk.kl_divergence(p, q_scale, k=5)
    expected = 0.5 * (0.25 - 1 + math.log(4))  # 0.3181...
    if abs(scale - expected) > 0.1:
        failures.append(f"KL(N(0,1)||N(0,4)) = {scale:.3f}, expected {expected:.3f}±0.1")
    self_divergence = gk.kl_divergence(p, q_same, k=5)
    if self_divergence > 0.1:
        failures.append(f"self-divergence {self_divergence:.3f} > 0.1")

    criterion(5, "k-NN KL estimates match closed-form Gaussian divergences", failures, time.perf_counter() - start, 30.0)


def test_criterion_6_test_calibration(criterion):
    start = time.perf_counter()
    failures = []
    repetitions = 300

    dcor_p, fisher_p = [], []
    for rep in range(repetitions):
        rng = np.random.default_rng(60_000 + rep)
        x = rng.uniform(size=100)
        y = rng.uniform(size=100)
        dcor_p.append(gk.pairwise_independence_test(x, y, num_permutations=199, seed=rep).p_value)
        u = rng.standard_normal(100)
        v = rng.standard_normal(100)
        fisher_p.append(gk.fisher_z_test(Dataset(["u", "v"], [u, v]), "u", "v").p_value)

    for label, p_values in (("dcor", dcor_p), ("fisher-z", fisher_p)):
        for alpha in (0.01, 0.05):
            rate = float(np.mean(np.asarray(p_values) <= alpha))
            if not (alpha - 0.03 <= rate <= alpha + 0.04):
                failures.append(f"{label} rejection rate {rate:.3f} outside [{alpha - 0.03:.2f}, {alpha + 0.04:.2f}] at alpha={alpha}")

    criterion(6, "independence tests calibrated under the null", failures, time.perf_counter() - start, 120.0)


def test_criterion_7_pc_recovery(criterion):
    start = time.perf_counter()
    failures = []

    collider_hits = 0
    for rep in range(100):
        rng = np.random.default_rng(70_000 + rep)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        z = x + y + rng.standard_normal(2000)
        cpdag = gk.discover_cpdag(Dataset(["X", "Y", "Z"], [x, y, z]), alpha=0.05)
        if (
            ("X", "Z") in cpdag.directed
            and ("Y", "Z") in cpdag.directed
            and cpdag.undirected == ()
        ):
            collider_hits += 1
    if collider_hits < 90:
        failures.append(f"collider oriented correctly in only {collider_hits}/100 runs")

    chain_hits = 0
    for rep in range(100):
        data = sample_chain_data(2000, seed=71_000 + rep)
        cpdag = gk.discover_cpdag(data, alpha=0.05)
        if cpdag.directed == () and set(cpdag.undirected) == {("X", "Y"), ("Y", "Z")}:
            chain_hits += 1
    if chain_hits < 90:
        failures.append(f"chain left undirected in only {chain_hits}/100 runs")

    criterion(7, "PC recovers the collider and leaves the chain undirected", failures, time.perf_counter() - start, 120.0)


def test_criterion_8_graph_refutation(criterion):
    start = time.perf_counter()
    failures = []
    chain = CausalGraph(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
    wrong = CausalGraph(["X", "Y", "Z"], [("X", "Z"), ("Z", "Y")])

    kept = sum(
        not gk.refute_graph(chain, sample_chain_data(2000, seed=80_000 + rep), alpha=0.05).rejected
        for rep in range(100)
    )
    if kept < 90:
        failures.append(f"true chain survived in only {kept}/100 runs")

    rejected = sum(
        gk.refute_graph(wrong, sample_chain_data(2000, seed=81_000 + rep), alpha=0.05).rejected
        for rep in range(100)
    )
    if rejected < 90:
        failures.append(f"wrong ordering rejected in only {rejected}/100 runs")

    criterion(8, "graph refutation separates true and wrong structures", failures, time.perf_counter() - start, 120.0)


def test_criterion_9_immutability_and_determinism(criterion, tmp_path):
    start = time.perf_counter()
    failures = []

    data = sample_chain_data(600, seed=90)
    graph = CausalGraph(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
    model = gk.fit(gk.auto_assign(graph, data), data)
    before = gk.dumps_model(model)

    gk.draw_samples(model, 500, seed=1)
    gk.interventional_samples(
        model, [gk.atomic("X", 1.0), gk.shift("Y", 0.5)], 500, seed=2
    )
    gk.interventional_samples(model, [gk.functional("X", lambda v: -v)], 200, seed=3)
    gk.counterfactual(model, data.row(0), [gk.atomic("X", 2.0)])
    gk.average_causal_effect(model, "X", 1.0, 0.0, "Z", n=2000, seed=4)
    gk.arrow_strength(model, ("Y", "Z"), n=2000, seed=5)
    gk.intrinsic_influence(model, "Z", outer_samples=20, inner_samples=50, seed=6)
    gk.attribute_anomaly(model, "Z", {"X": 0.0, "Y": 4.0, "Z": 4.0}, num_samples=500, seed=7)
    gk.distribution_change(graph, data, data, "Z", measure="mean_diff", num_samples=500, seed=8)
    gk.refute_graph(graph, data, alpha=0.05)
    gk.evaluate_mechanisms(model, data, seed=9)
    gk.discover_cpdag(data, alpha=0.05)
    gk.pairwise_independence_test(data.column("X"), data.column("Y"), num_permutations=49, seed=10)
    gk.fisher_z_test(data, "X", "Z", ["Y"])

    after = gk.dumps_model(model)
    if before != after:
        failures.append("model serialization changed after running queries")

    # every CLI command, run twice with a fixed seed, byte-identical stdout
    root = tmp_path
    (root / "graph.json").write_text(gk.serialize_graph(graph))
    (root / "data.csv").write_text(gk.write_csv(data))
    header, first_row = gk.write_csv(data).splitlines()[:2]
    (root / "row.csv").write_text(f"{header}\n{first_row}\n")
    model_path = root / "model.json"
    gk.save(model, str(model_path))
    commands = [
        ["fit", "--graph", str(root / "graph.json"), "--data", str(root / "data.csv")],
        ["sample", "--model", str(model_path), "-n", "30", "--seed", "3"],
        ["intervene", "--model", str(model_path), "--set", "X=1", "-n", "500", "--target", "Z", "--seed", "3"],
        ["counterfactual", "--model", str(model_path), "--data", str(root / "row.csv"), "--set", "X=2"],
        ["ace", "--model", str(model_path), "--treatment", "X", "--value-a", "1", "--value-b", "0", "--target", "Z", "-n", "500", "--seed", "3"],
        ["attribute-outlier", "--model", str(model_path), "--data", str(root / "row.csv"), "--target", "Z", "--num-samples", "300", "--seed", "3"],
        ["attribute-change", "--graph", str(root / "graph.json"), "--old", str(root / "data.csv"), "--new", str(root / "data.csv"), "--target", "Z", "--measure", "mean_diff", "--num-samples", "300", "--seed", "3"],
        ["icc", "--model", str(model_path), "--target", "Z", "--outer-samples", "10", "--inner-samples", "30", "--seed", "3"],
        ["arrow-strength", "--model", str(model_path), "--edge", "X->Y", "-n", "500", "--seed", "3"],
        ["discover", "--data", str(root / "data.csv"), "--alpha", "0.05"],
        ["refute", "--graph", str(root / "graph.json"), "--data", str(root / "data.csv")],
        ["evaluate", "--model", str(model_path), "--data", str(root / "data.csv"), "--seed", "3"],
        ["test", "--data", str(root / "data.csv"), "--x", "X", "--y", "Y", "--permutations", "49", "--seed", "3"],
    ]
    for command in commands:
        first = subprocess.run([sys.executable, "-m", "gcmkit"] + command, capture_output=True)
        second = subprocess.run([sys.executable, "-m", "gcmkit"] + command, capture_output=True)
        if first.returncode != 0:
            failures.append(f"command {command[0]} failed: {first.stderr.decode()[:200]}")
        elif first.stdout != second.stdout:
            failures.append(f"command {command[0]} is not byte-reproducible")

    criterion(9, "model immutability and byte-reproducible CLI", failures, time.perf_counter() - start, 300.0)
