"""Quantifying causal influence: intrinsic contributions and single-edge strength.

Two complementary views of "how much does this part of the system matter":
  - intrinsic influence: how much of the target's variance is contributed by
    each node's own noise term (Shapley over noise subsets);
  - arrow strength: how much one edge matters on its own, measured by feeding
    the child an independent copy of that parent.  The child's kind picks the
    measure: the mean squared change of a continuous child, and for a
    categorical child the mean KL divergence between its class probabilities
    with and without the edge.
"""

import numpy as np

import gcmkit as gk

# Z listens to Y twice as strongly as Y listens to X
graph = gk.CausalGraph(["X", "Y", "Z"], [("X", "Y"), ("Y", "Z")])
model = gk.GcmModel(graph)
model = gk.assign(model, "X", gk.Gaussian(0.0, 1.0), ground_truth=True)
model = gk.assign(
    model, "Y",
    gk.AdditiveNoiseModel(gk.LinearModel([1.0], 0.0), gk.Gaussian(0.0, 1.0),
                          gk.InputEncoder.continuous(1)),
    ground_truth=True,
)
model = gk.assign(
    model, "Z",
    gk.AdditiveNoiseModel(gk.LinearModel([2.0], 0.0), gk.Gaussian(0.0, 1.0),
                          gk.InputEncoder.continuous(1)),
    ground_truth=True,
)

# Var(Z) = 2^2 * (1 + 1) + 1 = 9, split 4 / 4 / 1 across the three noises
result = gk.intrinsic_influence(model, "Z", seed=0)
print("intrinsic influence on Var(Z):")
for node, score in result.scores.items():
    print(f"  noise of {node}: {score:.2f}")
print(f"  total = {result.total:.2f} (the target's variance; ground truth 9)")

print("\ndirect arrow strengths (expected squared change when the edge is cut):")
for edge in graph.edges:
    strength = gk.arrow_strength(model, edge, n=50_000, seed=1)
    print(f"  {edge[0]} -> {edge[1]}: {strength:.2f}")
print("  (ground truth: X->Y cut moves Y by 2*Var(X) = 2; Y->Z by 2*4*Var(Y) = 16)")

# A categorical child: K is "hi" with probability sigmoid(1.5 X - 1).  Cutting
# X -> K leaves K's marginal, so the strength is the mutual information
# I(X; K), computed here by Gauss-Hermite quadrature over X.
binary = gk.CausalGraph(["X", "K"], [("X", "K")])
classifier = gk.ClassifierFcm(gk.InputEncoder.continuous(1), ("hi", "lo"), [[1.5, 0.0], [-1.0, 0.0]])
binary_model = gk.assign(gk.GcmModel(binary), "X", gk.Gaussian(0.0, 1.0), ground_truth=True)
binary_model = gk.assign(binary_model, "K", classifier, ground_truth=True)
nodes, weights = np.polynomial.hermite_e.hermegauss(80)
hi = 1.0 / (1.0 + np.exp(1.0 - 1.5 * nodes))
probs = np.stack([hi, 1.0 - hi], axis=1)
marginal = weights @ probs / weights.sum()
closed_form = weights @ np.sum(probs * np.log(probs / marginal), axis=1) / weights.sum()
strength = gk.arrow_strength(binary_model, ("X", "K"), n=50_000, seed=2)
print(f"\nX -> K with a categorical K: {strength:.3f} nats (closed form {closed_form:.3f})")
