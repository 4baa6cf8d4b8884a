"""The statistical tools underneath the causal queries, usable on their own.

Pairwise independence (distance correlation with a permutation p-value),
conditional independence (Fisher z on partial correlations), nonparametric KL
divergence, and the generic Shapley engine for arbitrary set functions.
"""

import numpy as np

import gcmkit as gk
from gcmkit import SetFunction, ShapleyConfig

rng = np.random.default_rng(12)
n = 500

# nonlinear dependence that plain correlation misses
x = rng.uniform(-1, 1, n)
ring = x**2 + 0.05 * rng.standard_normal(n)
print(f"pearson correlation of x and x^2 sample: {np.corrcoef(x, ring)[0, 1]:+.3f}")
result = gk.pairwise_independence_test(x, ring, num_permutations=199, seed=0)
print(f"distance correlation {result.statistic:.3f}, permutation p = {result.p_value:.4f}")

# conditional independence in a mediation chain a -> b -> c
a = rng.standard_normal(2000)
b = a + rng.standard_normal(2000)
c = b + rng.standard_normal(2000)
data = gk.Dataset(["a", "b", "c"], [a, b, c])
marginal = gk.fisher_z_test(data, "a", "c")
conditional = gk.fisher_z_test(data, "a", "c", ["b"])
print(f"\nfisher-z a vs c:        p = {marginal.p_value:.2e} (dependent)")
print(f"fisher-z a vs c | b:    p = {conditional.p_value:.3f} (mediated away)")

# k-NN KL divergence against the closed form for Gaussians
p_samples = rng.standard_normal(5000)
q_samples = rng.standard_normal(5000) + 1.0
estimate = gk.kl_divergence(p_samples, q_samples, k=5)
print(f"\nKL(N(0,1) || N(1,1)): estimated {estimate:.3f}, analytic 0.5")

# the Shapley engine works with any set function; here, the glove game.
# Subsets arrive in batches, each as a bitmask: bit i set when player i is in it.
def glove(subsets):
    return [float(min((bits & 1) + (bits >> 1 & 1), bits >> 2 & 1)) for bits in subsets]

exact = gk.estimate_shapley(SetFunction(3, glove), ShapleyConfig("exact"))
sampled = gk.estimate_shapley(
    SetFunction(3, glove), ShapleyConfig("permutation", num_permutations=2000, seed=1)
)
print(f"\nglove game exact Shapley:     {np.round(exact, 4)}  (= [1/6, 1/6, 2/3])")
print(f"glove game sampled (2000 perms): {np.round(sampled, 4)}")
